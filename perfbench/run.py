#!/usr/bin/env python3
"""idrefine benchmark: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One caller in one thread solves the workload's instances one after another
(a closed loop) until --seconds have passed, after one untimed warm-up
instance.  Each instance goes from JSON text through parse, validate and
compile (repeated SETUP_REPS times), a solve and the brute-force oracle;
its outputs are checked against pins.json, the oracle and the anytime
property, and any exception counts as a failure.  Timings are corrected
for the host's speed, sampled while they run (hostspeed.py).

--seed picks which pooled instances are run and in what order (default 0;
seed 20261017 is held out for confirming gain claims).  --trace 0 reports
the end-to-end metrics; --trace 1 solves every instance once untraced and
once traced, and reports the per-layer metrics from the spans (tracing.py).
The last line of stdout is the JSON result; the lines before it are for
people.  See README.md beside this file.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so that no BLAS pool competes with the solver.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import workloads as W  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, traced  # noqa: E402


def measure_instance(wl, index: int, pin: list, speed, tracer) -> dict:
    """Run and check one pooled instance; the sample's "error" marks a failure.
    Untraced, the timings are hostspeed.Op records; traced, seconds."""
    sample = {"setup": []}
    text = wl.text(index)
    try:
        if tracer is None:
            for _ in range(SETUP_REPS):
                (diagram, network), op = speed.timed(W.set_up, text)
                sample["setup"].append(op)
            solved, sample["solve"] = speed.timed(W.solve, wl, diagram, network)
            oracle, sample["oracle"] = speed.timed(W.oracle_value, wl, diagram)
            W.check(wl, solved, oracle, pin)
        else:
            with traced(tracer):
                diagram, network = W.set_up(text)
            # odd pool indices solve traced first, so neither side always runs warmer
            for is_traced in ((True, False) if index % 2 else (False, True)):
                if is_traced:
                    with traced(tracer):
                        solved, sample["traced_solve"] = W.timed(W.solve, wl, diagram, network)
                else:
                    plain, sample["untraced_solve"] = W.timed(W.solve, wl, diagram, network)
            with traced(tracer):
                oracle = W.oracle_value(wl, diagram)
                W.check(wl, solved, oracle, pin)
            W.check(wl, plain, oracle, pin)
            sample["joint_states"] = W.joint_states(diagram)
        sample["value"], sample["oracle_value"] = solved.value, oracle
        sample["passes"], sample["fine"] = solved.passes, solved.fine
    except Exception as e:  # noqa: BLE001 - every failure is counted, the run goes on
        sample["error"] = f"{type(e).__name__}: {e}"
        print(f"instance {wl.name}[{index}] failed:\n{traceback.format_exc()}", file=sys.stderr)
    return sample


def run_loop(wl, seed: int, seconds: float, speed, trace: bool, pins: list):
    """Warm-up instance first, then instances until the time is spent."""
    order = W.instance_order(wl, seed)

    def measure(i: int, tracer) -> dict:
        index = order[i % len(order)]
        return measure_instance(wl, index, pins[index], speed, tracer)

    samples = [measure(0, Tracer() if trace else None)]
    samples[0]["warmup"] = True
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    for i in itertools.count(1):
        t0 = time.perf_counter()
        samples.append(measure(i, tracer))
        now = time.perf_counter()
        # stop when the next instance, as long as this one, would overrun
        if now - start + (now - t0) > seconds:
            return samples, tracer


def tail(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    if n >= 20:
        q = 1.0 - 10.0 / n
        text += f", p{100 * q:.3g} {sorted(values)[int(q * n) - 1]:.6g}"
    return f"{text} (n={n})"


def end_to_end(samples: list[dict], speed: HostSpeed) -> dict:
    """Each timing reports the median over its samples in the run of the
    operation's time corrected for the host's speed (hostspeed.py); the raw
    wall times are printed beside it for people."""
    n = len(samples)
    timings = {"setup_s": [op for s in samples for op in s["setup"]],
               "solve_s": [s["solve"] for s in samples],
               "oracle_s": [s["oracle"] for s in samples]}
    corrected = {}
    for name, ops in timings.items():
        values = [speed.corrected(op) for op in ops]
        raw = [op.raw_s for op in ops]
        corrected[name] = statistics.median(values)
        print(f"{name}: corrected {tail(values)}; wall {tail(raw)}, min {min(raw):.6g}")
    value = sum(s["value"] for s in samples)
    best = sum(s["oracle_value"] for s in samples)
    print(f"oracle_gap {(best - value) / best:.3e} (sum of oracle minus tree value "
          f"over sum of oracle, {n} instances)")
    print(f"host speed: {len(speed.rates)} samples, median {statistics.median(speed.rates):.4g} "
          f"of the reference, {speed.spent:.3f} s in the probe")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (corrected["setup_s"], "s"),
        "solve_s": (corrected["solve_s"], "s"),
        "oracle_s": (corrected["oracle_s"], "s"),
        "passes": (sum(s["passes"] for s in samples) / n, "count"),
        "fine_queries": (sum(s["fine"] for s in samples) / n, "count"),
        "oracle_ratio": (value / best, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(samples: list[dict], tracer) -> dict:
    n = len(samples)
    spans = tracer.totals()
    tot = lambda name: spans[name]["total"] / n  # noqa: E731
    own = lambda name: spans[name]["self"] / n  # noqa: E731
    calls = lambda name: spans[name]["calls"] / n  # noqa: E731
    engine = sum(spans[k]["total"] for k in
                 ("engine.best_action", "engine.calibrate", "engine.evaluate"))
    with_spans = sum(s["traced_solve"] for s in samples)
    without = sum(s["untraced_solve"] for s in samples)
    passes = sum(s["passes"] for s in samples)
    extends = spans["tree.extend"]["calls"]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    print(f"trace overhead {ratio(with_spans, without):.4f} = traced {with_spans:.4f} s / "
          f"untraced {without:.4f} s of solve over {n} instances")
    return {
        "diagram.parse_s": (tot("diagram.parse"), "s"),
        "diagram.validate_s": (tot("diagram.validate"), "s"),
        "engine.compile_s": (tot("engine.compile"), "s"),
        "engine.compile_calls": (calls("engine.compile"), "count"),
        "engine.evaluate_s": (tot("engine.evaluate"), "s"),
        "engine.evaluate_calls": (calls("engine.evaluate"), "count"),
        "engine.calibrate_s": (tot("engine.calibrate"), "s"),
        "engine.calibrate_calls": (calls("engine.calibrate"), "count"),
        "engine.best_action_s": (tot("engine.best_action"), "s"),
        "engine.best_action_calls": (calls("engine.best_action"), "count"),
        "engine.us_per_pass": (ratio(engine * 1e6, passes), "us"),
        "engine.share": (ratio(engine, with_spans), "ratio"),
        "tree.stats_s": (tot("tree.stats"), "s"),
        "tree.stats_calls": (calls("tree.stats"), "count"),
        "tree.extension_self_s": (own("tree.best_extension") + own("tree.extend"), "s"),
        "tree.candidates_per_extension": (ratio(spans["engine.evaluate"]["calls"], extends),
                                          "count"),
        "tree.extend_cache_hit_ratio": (ratio(spans["tree.extend"]["childless"], extends),
                                        "ratio"),
        "refine.select_s": (tot("refine.select"), "s"),
        "refine.select_calls": (calls("refine.select"), "count"),
        "refine.self_s": (own("refine.refine") + own("multistage.sweep")
                          + own("multistage.compile_decision"), "s"),
        "refine.trace_csv_s": (tot("refine.trace_csv"), "s"),
        "refine.extensions": (extends / n, "count"),
        "oracle.enumerate_s": (tot("oracle.enumerate"), "s"),
        "oracle.joint_states": (sum(s["joint_states"] for s in samples) / n,
                                "states.computed"),
        "bench.trace_overhead": (ratio(with_spans, without), "ratio"),
        "bench.untraced_solve_s": (without / n, "s"),
        "bench.traced_solve_s": (with_spans / n, "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "idrefine" / "__init__.py").is_file():
        print(f"error: the idrefine sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    pins = json.loads((HERE / "pins.json").read_text())[wl.name]
    load_before = os.getloadavg()
    with contextlib.nullcontext() if args.trace else HostSpeed() as speed:
        samples, tracer = run_loop(wl, args.seed, args.seconds, speed, bool(args.trace), pins)

    failed = sum("error" in s for s in samples)
    measured = [s for s in samples if "error" not in s and not s.get("warmup")]
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "nproc": os.cpu_count(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "loadavg_before": load_before,
                      "loadavg_after": os.getloadavg(), "instances": len(samples),
                      "failed": failed}))
    print(f"fail_frac {failed / len(samples):.4g} ({failed} of {len(samples)} instances, "
          f"warm-up included)")
    if not measured:
        print("error: no measured instance succeeded", file=sys.stderr)
        return 1
    metrics = per_layer(measured, tracer) if args.trace else end_to_end(measured, speed)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
