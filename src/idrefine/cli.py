"""Command-line interface.

Subcommands: validate, solve, sweep, oracle, gen, profile.
Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

from .diagram import DiagramError, load_diagram, serialize_diagram
from .generate import GeneratorSpec, gen_random_id
from .harness import run_profile, run_sweep_profile
from .oracle import oracle_optimal, oracle_optimal_multistage
from .refine import (EXTENSION_STRATEGIES, LEAF_STRATEGIES, RefinementConfig,
                     StoppingRule)

VALIDATION_FAILURE = 1
RUNTIME_ERROR = 2


class _InvalidInput(Exception):
    """Input diagram failed to load (exit code 1)."""


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--leaf", choices=LEAF_STRATEGIES, default="posthoc",
                   help="leaf selection strategy")
    p.add_argument("--ext", choices=EXTENSION_STRATEGIES, default="greedy",
                   help="extension selection strategy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-ext", type=int, default=None,
                   help="stop after this many extensions")
    p.add_argument("--max-passes", type=int, default=None,
                   help="stop once this many propagation passes were spent")
    p.add_argument("--min-evi", type=float, default=None,
                   help="stop when the best improvement falls below this (greedy only)")
    p.add_argument("--complete", action="store_true",
                   help="refine until the tree is complete: the default when no bound "
                        "is given; a bound overrides it")
    p.add_argument("--trace", default=None, help="write the anytime trace CSV here")
    p.add_argument("--policy", default=None, help="write the policy JSON here")


def _config(args) -> RefinementConfig:
    # with no bound the run is complete; with one, run_to_complete changes nothing
    stop = StoppingRule(max_extensions=args.max_ext, max_passes=args.max_passes,
                        min_evi=args.min_evi, run_to_complete=True)
    return RefinementConfig(leaf_strategy=args.leaf, extension_strategy=args.ext,
                            stop=stop, seed=args.seed)


def _load_valid(path) -> "InfluenceDiagram":
    try:
        return load_diagram(path)
    except DiagramError as e:
        raise _InvalidInput(str(e)) from None


def _budgets(entries, parser) -> dict[str, int]:
    out = {}
    for entry in entries or []:
        name, sep, num = entry.partition("=")
        if not sep or not name:
            parser.error(f"--budget expects NAME=EXTENSIONS, got {entry!r}")
        try:
            out[name] = int(num)
        except ValueError:
            parser.error(f"--budget expects an integer extension count, got {entry!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idrefine",
                                     description="Anytime influence-diagram solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("file")

    p = sub.add_parser("solve", help="refine a policy tree for one decision")
    p.add_argument("file")
    p.add_argument("--decision", default=None)
    _add_solver_flags(p)

    p = sub.add_parser("sweep", help="sweep back over every decision")
    p.add_argument("file")
    _add_solver_flags(p)
    p.add_argument("--budget", action="append", metavar="NAME=EXTENSIONS",
                   help="per-decision extension budget (repeatable)")
    p.set_defaults(subparser=p)  # reports a malformed --budget with sweep's usage

    p = sub.add_parser("oracle", help="brute-force optimal policy")
    p.add_argument("file")
    p.add_argument("--decision", default=None)

    p = sub.add_parser("gen", help="generate a random single-decision diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("profile", help="solve and write a cost/value summary")
    p.add_argument("file")
    p.add_argument("--decision", default=None)
    _add_solver_flags(p)
    p.add_argument("--summary", default=None, help="write the summary JSON here")
    return parser


def _cmd_validate(args) -> int:
    try:
        load_diagram(args.file)
    except DiagramError as e:
        print(str(e))
        return VALIDATION_FAILURE
    print("ok")
    return 0


def _cmd_solve(args) -> int:
    diagram = _load_valid(args.file)
    summary, trace = run_profile(diagram, args.decision, _config(args),
                                 trace_path=args.trace, policy_path=args.policy,
                                 with_oracle=False)
    # the last record, not the engine counter: a --min-evi stop spends
    # queries on an extension it then declines
    last = trace.records[-1]
    print(f"{summary.decision}: value {summary.final_value_normalized!r} "
          f"(raw {summary.final_value_raw!r}) after {last.iteration} extensions, "
          f"{last.fine_queries} fine queries, {last.passes} passes")
    return 0


def _cmd_sweep(args) -> int:
    diagram = _load_valid(args.file)
    base = _config(args)
    budgets = _budgets(args.budget, args.subparser)
    for name in budgets:
        if name not in diagram.decisions:
            raise ValueError(f"--budget names unknown decision {name!r}")
    configs = {d: replace(base, stop=replace(base.stop, max_extensions=budgets[d]))
               if d in budgets else base for d in diagram.decision_order}
    _, policy, traces = run_sweep_profile(diagram, configs, trace_template=args.trace,
                                          policy_path=args.policy, with_oracle=False)
    print(f"joint value {policy.value_normalized!r} (raw {policy.value_raw!r})")
    for d in diagram.decision_order:
        last = traces[d].records[-1]
        print(f"  {d}: {last.iteration} extensions, {last.fine_queries} fine queries, "
              f"{last.passes} passes")
    return 0


def _cmd_oracle(args) -> int:
    diagram = _load_valid(args.file)
    decisions = diagram.decisions
    if args.decision is not None or len(decisions) == 1:
        result = oracle_optimal(diagram, args.decision)
        rows = [{"state": dict(zip(result.predecessors, state)), "action": action,
                 "value_normalized": result.per_state[state]}
                for state, action in result.table.items()]
        print(json.dumps({"decision": result.decision,
                          "value_normalized": result.value,
                          "value_raw": result.raw_value,
                          "table": rows}, indent=2))
    else:
        result = oracle_optimal_multistage(diagram)
        tables = {d: [{"state": list(state), "action": action}
                      for state, action in rows.items()]
                  for d, rows in result.tables.items()}
        print(json.dumps({"value_normalized": result.value,
                          "value_raw": result.raw_value,
                          "tables": tables}, indent=2))
    return 0


def _cmd_gen(args) -> int:
    diagram = gen_random_id(GeneratorSpec(n=args.n, seed=args.seed, arity=args.arity))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_diagram(diagram))
    print(f"wrote {args.output}")
    return 0


def _cmd_profile(args) -> int:
    diagram = _load_valid(args.file)
    summary, _ = run_profile(diagram, args.decision, _config(args),
                             trace_path=args.trace, policy_path=args.policy,
                             summary_path=args.summary)
    print(json.dumps(asdict(summary), indent=2))
    return 0


COMMANDS = {"validate": _cmd_validate, "solve": _cmd_solve, "sweep": _cmd_sweep,
            "oracle": _cmd_oracle, "gen": _cmd_gen, "profile": _cmd_profile}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except _InvalidInput as e:
        print(f"invalid diagram: {e}", file=sys.stderr)
        return VALIDATION_FAILURE
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
