#!/usr/bin/env python3
"""Check pooled benchmark instances against their pins, without timing them.

    python3 scripts/check_pins.py [--limit N] [WORKLOAD ...]

For each pooled instance of each named workload (default: all four), in pool
order, it runs the benchmark's own pipeline (perfbench/workloads.py: set_up,
solve, oracle_value, check) against perfbench/pins.json.  Per workload it
prints the instances checked, the failures, and how many final values are
bit-equal to their pin (check allows a difference of 1e-9).  It exits 1 on
any failure.  It imports perfbench/ read-only and writes no files.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "perfbench"
sys.dont_write_bytecode = True
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import workloads as W  # noqa: E402


def check_workload(name: str, limit: int | None) -> tuple[int, int, int]:
    """(instances checked, failures, final values bit-equal to their pin)."""
    wl = W.WORKLOADS[name]
    pins = json.loads((BENCH / "pins.json").read_text())[name]
    checked = wl.pool if limit is None else min(limit, wl.pool)
    failed = equal = 0
    for index in range(checked):
        try:
            diagram, network = W.set_up(wl.text(index))
            solved = W.solve(wl, diagram, network)
            W.check(wl, solved, W.oracle_value(wl, diagram), pins[index])
        except Exception:  # noqa: BLE001 - any error fails the instance, not the run
            failed += 1
            print(f"{name} {index} failed:", file=sys.stderr)
            traceback.print_exc()
            continue
        equal += solved.value == pins[index][0]
    return checked, failed, equal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="check only the first N instances of each pool")
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(W.WORKLOADS)} (default: all)")
    args = ap.parse_args(argv)
    for name in args.workloads:
        if name not in W.WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    total_failed = 0
    for name in args.workloads or W.WORKLOADS:
        checked, failed, equal = check_workload(name, args.limit)
        total_failed += failed
        print(f"{name}: {checked} checked, {failed} failed, "
              f"{equal}/{checked} values bit-equal to their pin", flush=True)
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
