#!/usr/bin/env python3
"""Record the expected outputs of every pooled benchmark instance.

For each instance it stores [final normalized value, passes, fine queries,
internal vertices, leaves], as the code at hand produces them, in
pins.json beside this file.  run.py checks every run against these pins.
Regenerate them only when a change is meant to alter what the solver
computes, and say so in CHANGES.md.

    python3 perfbench/pin.py

Every workload is pinned again.  Complete runs are also checked against the
oracle first.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402


def main() -> int:
    pins = {}
    for name, wl in W.WORKLOADS.items():
        rows = []
        for seed in range(wl.pool):
            diagram, network = W.set_up(wl.text(seed))
            solved, solve_s = W.timed(W.solve, wl, diagram, network)
            oracle, oracle_s = W.timed(W.oracle_value, wl, diagram)
            pin = W.pin_of(solved)
            W.check(wl, solved, oracle, pin)
            rows.append(pin)
            print(f"{name} {seed} {pin} oracle={oracle!r} solve_s={solve_s:.4f} "
                  f"oracle_s={oracle_s:.4f}", flush=True)
        pins[name] = rows
    (HERE / "pins.json").write_text(dumps(pins))
    return 0


def dumps(pins: dict) -> str:
    """JSON with one instance per line, so that a diff shows which pins moved."""
    blocks = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"
              for name, rows in pins.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
