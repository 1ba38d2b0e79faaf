#!/usr/bin/env python3
"""Check pooled benchmark instances against their pins, without timing them.

    python3 scripts/check_pins.py [--limit N] [--expect FILE] [WORKLOAD ...]

For each pooled instance of each named workload (default: all four), in pool
order, it runs the benchmark's own pipeline (perfbench/workloads.py: set_up,
solve, oracle_value, check) against perfbench/pins.json.  Per workload it
prints the instances checked, the failures, how many final values are
bit-equal to their pin (check allows a difference of 1e-9) and four sha256
digests over every instance solved.  The tree-shape digest covers split
variables, outcome keys, actions and pruned flags, no floats; equal digests
on two commits mean equal trees and actions on every instance checked.  The
policy digest covers the action of every row of each tree's to_table, so it
stays equal when only the order of the splits changed (a near-tie between
candidates that change no action can go either way under a new float
summation order).  The oracle digest covers every instance's oracle value
as float.hex, so equal digests mean bit-identical oracle values.  The trace
digest covers every row of every refined decision's anytime trace (passes,
fine_queries and value_normalized as float.hex), so equal digests mean the
same cost and bit-identical values after every extension.  It exits 1
on any failure.  With --expect FILE, a previous run's printed output, it
also names every digest of a workload checked now that differs from the
file's, or that the file lacks, and then exits 1.  It imports perfbench/
read-only and writes no files.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import re
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "perfbench"
sys.dont_write_bytecode = True
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import workloads as W  # noqa: E402

# the modules, not the function the package re-exports as idrefine.refine
R = importlib.import_module("idrefine.refine")
M = importlib.import_module("idrefine.multistage")
T = importlib.import_module("idrefine.tree")


def shape(vertex) -> list:
    """[action, pruned] for a leaf, [variable, [[outcome, child], ...]] otherwise."""
    if isinstance(vertex, T.Leaf):
        return [vertex.action, vertex.pruned]
    return [vertex.variable, [[o, shape(c)] for o, c in vertex.children.items()]]


@contextmanager
def recording_trees(trees: list):
    """Append the tree of every refine call to trees, in call order.

    W.solve looks refine up on the refine module; sweep_back calls the name
    multistage imported.  Both are patched and restored on exit.
    """
    original = R.refine

    def refine(*args, **kwargs):
        tree, trace = original(*args, **kwargs)
        trees.append(tree)
        return tree, trace

    R.refine = M.refine = refine
    try:
        yield
    finally:
        R.refine = M.refine = original


def check_workload(name: str, limit: int | None) -> tuple[int, int, int, str, str, str, str]:
    """(instances checked, failures, final values bit-equal to their pin,
    digests of the solved instances' tree shapes, policies, oracle values and
    trace rows)."""
    wl = W.WORKLOADS[name]
    pins = json.loads((BENCH / "pins.json").read_text())[name]
    checked = wl.pool if limit is None else min(limit, wl.pool)
    failed = equal = 0
    digest, policy, oracles, rows = (hashlib.sha256() for _ in range(4))
    for index in range(checked):
        trees: list = []
        try:
            diagram, network = W.set_up(wl.text(index))
            with recording_trees(trees):
                solved = W.solve(wl, diagram, network)
            oracle = W.oracle_value(wl, diagram)
            W.check(wl, solved, oracle, pins[index])
        except Exception:  # noqa: BLE001 - any error fails the instance, not the run
            failed += 1
            print(f"{name} {index} failed:", file=sys.stderr)
            traceback.print_exc()
            continue
        equal += solved.value == pins[index][0]
        shapes = [[t.decision, shape(t.root)] for t in trees]
        digest.update(json.dumps([index, shapes]).encode() + b"\n")
        actions = [[t.decision, [row["action"] for row in T.to_table(t)]] for t in trees]
        policy.update(json.dumps([index, actions]).encode() + b"\n")
        oracles.update(json.dumps([index, float(oracle).hex()]).encode() + b"\n")
        records = [[[r.passes, r.fine_queries, r.value_normalized.hex()] for r in t.records]
                   for t in solved.traces]
        rows.update(json.dumps([index, records]).encode() + b"\n")
    return (checked, failed, equal, digest.hexdigest(), policy.hexdigest(),
            oracles.hexdigest(), rows.hexdigest())


DIGESTS = ("tree shapes", "policies", "oracle values", "trace rows")


def read_digests(text: str) -> dict[str, dict[str, str]]:
    """Each workload's digests, by name, from check_pins output: its
    summary lines (a "moved from" line adds nothing, its word after
    "sha256" not being hex)."""
    found: dict[str, dict[str, str]] = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and name in W.WORKLOADS:
            found.setdefault(name, {}).update(
                re.findall(rf"({'|'.join(DIGESTS)}) sha256 ([0-9a-f]+)", rest))
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="check only the first N instances of each pool")
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="a previous run's output: exit 1, naming each digest that moved")
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(W.WORKLOADS)} (default: all)")
    args = ap.parse_args(argv)
    for name in args.workloads:
        if name not in W.WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    expected = read_digests(args.expect.read_text()) if args.expect else None
    total_failed = moved = 0
    for name in args.workloads or W.WORKLOADS:
        checked, failed, equal, *digests = check_workload(name, args.limit)
        total_failed += failed
        print(f"{name}: {checked} checked, {failed} failed, "
              f"{equal}/{checked} values bit-equal to their pin, "
              + ", ".join(f"{kind} sha256 {d}" for kind, d in zip(DIGESTS, digests)), flush=True)
        if expected is None:
            continue
        for kind, d in zip(DIGESTS, digests):
            was = expected.get(name, {}).get(kind)
            if d != was:
                moved += 1
                print(f"{name}: {kind} sha256 moved from {was or 'nothing'} to {d}", flush=True)
    return 1 if total_failed or moved else 0


if __name__ == "__main__":
    sys.exit(main())
