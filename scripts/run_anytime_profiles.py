#!/usr/bin/env python3
"""Record anytime value-vs-cost profiles on random single-decision problems.

For each seed, instantiates the n-predecessor template and runs both the
greedy/posthoc solver and the fully random solver to completion, writing
one trace CSV per run plus a summary table comparing total propagation
passes (the random variant is expected to finish with fewer).
"""

import argparse
import statistics
from pathlib import Path

from idrefine.generate import GeneratorSpec, gen_random_id
from idrefine.harness import run_profile
from idrefine.oracle import oracle_optimal
from idrefine.refine import RefinementConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8, help="number of binary predecessors")
    ap.add_argument("--seeds", type=int, default=7, help="number of instances")
    ap.add_argument("--outdir", default="profiles", help="directory for trace CSVs")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    greedy_passes, random_passes = [], []
    print(f"{'seed':>4} {'oracle':>10} {'greedy':>10} {'g-passes':>9} "
          f"{'random':>10} {'r-passes':>9}")
    for seed in range(args.seeds):
        diagram = gen_random_id(GeneratorSpec(n=args.n, seed=seed))
        oracle = oracle_optimal(diagram, "d")

        greedy, _ = run_profile(diagram, "d", RefinementConfig(seed=seed),
                                trace_path=outdir / f"greedy_n{args.n}_s{seed}.csv",
                                with_oracle=False)
        greedy_passes.append(greedy.total_passes)

        cfg = RefinementConfig(leaf_strategy="random", extension_strategy="random",
                               seed=seed)
        rand, _ = run_profile(diagram, "d", cfg,
                              trace_path=outdir / f"random_n{args.n}_s{seed}.csv",
                              with_oracle=False)
        random_passes.append(rand.total_passes)

        print(f"{seed:>4} {oracle.value:>10.6f} {greedy.final_value_normalized:>10.6f} "
              f"{greedy_passes[-1]:>9} {rand.final_value_normalized:>10.6f} "
              f"{random_passes[-1]:>9}")

    mg = statistics.median(greedy_passes)
    mr = statistics.median(random_passes)
    print(f"\nmedian passes to completion: greedy {mg}, random {mr} "
          f"(ratio {mr / mg:.3f}); inflexible baseline {2 ** args.n} states")


if __name__ == "__main__":
    main()
