#!/usr/bin/env python3
"""Run the car-buyer problem, given its external numeric data file.

The package ships the car-buyer structure only; point --data (or the
CAR_BUYER_DATA environment variable) at a JSON file with the numeric
tables.  Profiles the last decision alone, then the full sweep back.
"""

import argparse
import json
import sys
from dataclasses import asdict

from idrefine.fixtures import car_buyer_data_path, load_car_buyer
from idrefine.harness import run_profile, run_sweep_profile
from idrefine.refine import RefinementConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=None, help="car-buyer numeric data file")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    path = args.data or car_buyer_data_path()
    if path is None:
        print("no car-buyer data file; pass --data or set CAR_BUYER_DATA",
              file=sys.stderr)
        return 1
    diagram = load_car_buyer(path)

    cfg = RefinementConfig(seed=args.seed)
    summary, _ = run_profile(diagram, "buy", cfg, with_oracle=True)
    print("last decision alone (others uniform):")
    print(json.dumps(asdict(summary), indent=2))

    sweep, policy, _ = run_sweep_profile(diagram, cfg)
    print("\nfull sweep back:")
    print(json.dumps(asdict(sweep), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
