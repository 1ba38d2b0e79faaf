#!/usr/bin/env python3
"""Interleaved timing of two checkouts' solves on the benchmark's pooled diagrams.

    python3 scripts/ab_solve.py BASE CHANGE [WORKLOAD ...] [--instances N] [--rounds R]

BASE and CHANGE are checkouts of this repository.  Each one's src/idrefine
is loaded as a package of its own (idrefine_base, idrefine_change), so both
run in this one process.  For each of the first N pooled instances of each
named workload (default: all four; perfbench/workloads.py of this checkout
gives the JSON text and the settings, imported read-only), each side parses,
validates and compiles the text untimed, then times the solve the benchmark
times: refine on a fresh engine, or sweep_back for a multistage workload.
Right after each solve it times the oracle the benchmark times next
(oracle_optimal, or oracle_optimal_multistage for a multistage workload),
as the benchmark does.  Each side runs R times per instance, the side that
runs first alternating, and keeps its fastest solve and its fastest oracle.
Both sides' trace CSVs, the policy JSON (tree.dumps_policy) of every
refined tree, every refined tree's internal-vertex gains (repr,
depth-first; a gain sets the posthoc order and ExtensionEvent.gain, and is
in neither file), and the oracle value (float.hex) must be byte-equal on
every instance; otherwise the script names each that differs, with the
instance, and exits 1.  After
its timed rounds, each side solves each instance once more, untimed,
under tracemalloc, after a garbage collection, the side that runs first
alternating too; tracemalloc traces that solve alone, and the outputs
compared above are serialized outside it.  Per workload it prints the median
CHANGE/BASE ratio of the per-instance solve times, of the per-instance
oracle times, and of the per-instance peak memory that tracemalloc traced,
each with its quartiles.

Timing the two sides seconds apart is the point: on a host whose speed
drifts within minutes, separate benchmark runs of each side can differ by
more than the change being measured.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(REPO / "perfbench"))

import workloads as W  # noqa: E402


def load(checkout: Path, name: str):
    """The checkout's src/idrefine, imported as the package ``name``."""
    init = checkout / "src" / "idrefine" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no idrefine sources at {init.parent}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    def __init__(self, checkout: Path, name: str):
        self.package = load(checkout, name)
        # the module, not the function the package re-exports under this name
        self.refine = importlib.import_module(f"{name}.refine")
        self.tree = importlib.import_module(f"{name}.tree")
        self.oracle = importlib.import_module(f"{name}.oracle")

    def prepare(self, wl, text: str):
        pkg = self.package
        diagram = pkg.parse_diagram(text)
        report = pkg.validate(diagram)
        if not report.ok:
            raise SystemExit(f"error: invalid diagram: {report.violations}")
        R = self.refine
        stop = (R.StoppingRule(run_to_complete=True) if wl.complete
                else R.StoppingRule(max_passes=wl.max_passes))
        config = R.RefinementConfig(leaf_strategy=wl.leaf, extension_strategy=wl.ext,
                                    stop=stop, seed=0)
        return diagram, pkg.compile_network(diagram), config

    def run(self, wl, prepared) -> tuple[float, list, list]:
        """(seconds, the refined trees, their traces): the solve, timed."""
        diagram, network, config = prepared
        t0 = time.perf_counter()
        if wl.multistage:
            policy, by_decision = self.package.sweep_back(diagram, config)
            trees, traces = [p.tree for p in policy.policies], list(by_decision.values())
        else:
            tree, trace = self.refine.refine(self.package.Engine(network), "d", config)
            trees, traces = [tree], [trace]
        return time.perf_counter() - t0, trees, traces

    def solve(self, wl, prepared) -> tuple[float, float, dict[str, str]]:
        """(seconds of the solve, seconds of the oracle right after it, and
        the outputs compared: the trace CSVs, the policy JSON and the
        internal-vertex gains of every refined decision, and the oracle
        value as float.hex); only the solve and the oracle are timed."""
        seconds, trees, traces = self.run(wl, prepared)
        diagram, O = prepared[0], self.oracle
        t0 = time.perf_counter()
        result = (O.oracle_optimal_multistage(diagram) if wl.multistage
                  else O.oracle_optimal(diagram, "d"))
        oracle_seconds = time.perf_counter() - t0
        gains = " ".join(repr(v.gain) for t in trees for v in self.tree.iter_internals(t))
        return seconds, oracle_seconds, {
            "trace CSVs": "".join(t.to_csv() for t in traces),
            "policies": "".join(map(self.tree.dumps_policy, trees)),
            "gains": gains, "oracle values": float(result.value).hex()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def peak_bytes(side: Side, wl, prepared) -> int:
    """The peak of the memory tracemalloc traces during one solve, its
    outputs unserialized (Side.run).  A full
    garbage collection first also empties the interpreter's free lists, so
    that every allocation of the solve is traced and repeated runs of the
    same code read the same peak."""
    gc.collect()
    tracemalloc.start()
    try:
        side.run(wl, prepared)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def compare(wl, base: Side, change: Side, instances: int, rounds: int) -> bool:
    """Print one line for the workload; False if some trace, policy, gain
    or oracle value differs."""
    ratios, oracle_ratios, memory = [], [], []
    times, oracle_times, peaks = ({base: [], change: []} for _ in range(3))
    for index in range(min(instances, wl.pool)):
        text = wl.text(index)
        prepared = {side: side.prepare(wl, text) for side in (base, change)}
        best = {base: float("inf"), change: float("inf")}
        best_oracle = dict(best)
        out = {}
        for r in range(rounds):
            for side in ((base, change) if (index + r) % 2 == 0 else (change, base)):
                seconds, oracle_seconds, out[side] = side.solve(wl, prepared[side])
                best[side] = min(best[side], seconds)
                best_oracle[side] = min(best_oracle[side], oracle_seconds)
        differ = [what for what in out[base] if out[base][what] != out[change][what]]
        for what in differ:
            print(f"{wl.name} {index}: {what} differ", file=sys.stderr)
        if differ:
            return False
        peak = {side: peak_bytes(side, wl, prepared[side])
                for side in ((base, change) if index % 2 == 0 else (change, base))}
        ratios.append(best[change] / best[base])
        oracle_ratios.append(best_oracle[change] / best_oracle[base])
        memory.append(peak[change] / peak[base])
        for side in best:
            times[side].append(best[side])
            oracle_times[side].append(best_oracle[side])
            peaks[side].append(peak[side] / 2 ** 20)
    q1, median, q3 = quartiles(ratios)
    o1, oracle_median, o3 = quartiles(oracle_ratios)
    m1, memory_median, m3 = quartiles(memory)
    print(f"{wl.name}: {len(ratios)} instances x {rounds} rounds, traces, policies, "
          f"gains and oracle values byte-equal; CHANGE/BASE median {median:.4f} "
          f"[q1 {q1:.4f}, q3 {q3:.4f}]; "
          f"median solve {statistics.median(times[base]):.6g} s -> "
          f"{statistics.median(times[change]):.6g} s; oracle CHANGE/BASE median "
          f"{oracle_median:.4f} [q1 {o1:.4f}, q3 {o3:.4f}]; median oracle "
          f"{statistics.median(oracle_times[base]):.6g} s -> "
          f"{statistics.median(oracle_times[change]):.6g} s; peak memory CHANGE/BASE median "
          f"{memory_median:.4f} [q1 {m1:.4f}, q3 {m3:.4f}]; median peak "
          f"{statistics.median(peaks[base]):.4g} MiB -> "
          f"{statistics.median(peaks[change]):.4g} MiB", flush=True)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, metavar="BASE")
    ap.add_argument("change", type=Path, metavar="CHANGE")
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(W.WORKLOADS)} (default: all)")
    ap.add_argument("--instances", type=int, default=16,
                    help="pooled instances per workload, from the first (default 16)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="timed solves per side and instance (default 3)")
    args = ap.parse_args(argv)
    for name in args.workloads:
        if name not in W.WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    if args.instances < 1 or args.rounds < 1:
        ap.error("--instances and --rounds must be at least 1")
    base, change = Side(args.base, "idrefine_base"), Side(args.change, "idrefine_change")
    ok = all([compare(W.WORKLOADS[name], base, change, args.instances, args.rounds)
              for name in args.workloads or W.WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
