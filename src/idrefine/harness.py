"""Experiment harness: profile runs with cost accounting and oracle gaps."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

from .diagram import InfluenceDiagram
from .engine import Engine, compile_network
from .multistage import (MultistagePolicy, dumps_multistage_policy, sweep_back)
from .oracle import (StateSpaceCapError, oracle_optimal,
                     oracle_optimal_multistage)
from .refine import AnytimeTrace, RefinementConfig, refine
from .tree import dumps_policy


def baseline_states(diagram: InfluenceDiagram, decision: str) -> int:
    """Cost of the inflexible tabular method: one computation per state."""
    return math.prod(v.arity for v in diagram.predecessors(decision))


def greedy_query_bound(n: int, b: int) -> float:
    """Worst-case fine-query total for a complete greedy run
    (n predecessors, all arities at most b)."""
    if b < 2:
        raise ValueError("arity bound must be at least 2")
    return 2 * b / (b - 1) ** 2 * float(b) ** (n + 1)


def _oracle(solve, *args):
    """The oracle's result, or None for a diagram past its state-space cap."""
    try:
        return solve(*args)
    except StateSpaceCapError:
        return None


def _write(path, text: Callable[[], str]) -> None:
    """Write text() to path, unless path is None."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text())


@dataclass
class ProfileSummary:
    decision: str
    leaf_strategy: str
    extension_strategy: str
    seed: int
    extensions: int
    internal_vertices: int
    leaves: int
    final_value_normalized: float
    final_value_raw: float
    total_fine_queries: int
    total_passes: int
    baseline_states: int
    query_bound: float | None  # None without predecessors: no bound applies
    query_bound_held: bool | None
    oracle_value_normalized: float | None = None
    oracle_value_raw: float | None = None
    oracle_gap: float | None = None


def run_profile(diagram: InfluenceDiagram, decision: str | None,
                config: RefinementConfig, trace_path=None, policy_path=None,
                summary_path=None, with_oracle: bool = True,
                ) -> tuple[ProfileSummary, AnytimeTrace]:
    """Refine one decision (other decisions stay uniform), write artifacts.
    With no decision named, the diagram's only one (resolve_decision).

    Tree size and value are the trace's last record, taken of the final tree.
    """
    decision = diagram.resolve_decision(decision)
    engine = Engine(compile_network(diagram))
    tree, trace = refine(engine, decision, config)

    n = len(tree.predecessors)
    arities = [v.arity for v in tree.predecessors] + [len(tree.actions)]
    bound = greedy_query_bound(n, max(arities)) if n > 0 else None
    last = trace.records[-1]
    summary = ProfileSummary(
        decision=decision,
        leaf_strategy=config.leaf_strategy,
        extension_strategy=config.extension_strategy,
        seed=config.seed,
        extensions=last.iteration,
        internal_vertices=last.internal_vertices,
        leaves=last.leaves,
        final_value_normalized=last.value_normalized,
        final_value_raw=last.value_raw,
        total_fine_queries=engine.counter.fine,
        total_passes=engine.counter.passes,
        baseline_states=baseline_states(diagram, decision),
        query_bound=bound,
        query_bound_held=None if bound is None else engine.counter.fine < bound,
    )
    oracle = _oracle(oracle_optimal, diagram, decision) if with_oracle else None
    if oracle is not None:
        summary.oracle_value_normalized = oracle.value
        summary.oracle_value_raw = oracle.raw_value
        summary.oracle_gap = oracle.value - last.value_normalized

    _write(trace_path, trace.to_csv)
    _write(policy_path, lambda: dumps_policy(tree))
    _write(summary_path, lambda: json.dumps(asdict(summary), indent=2))
    return summary, trace


@dataclass
class SweepSummary:
    value_normalized: float
    value_raw: float
    total_fine_queries: int
    total_passes: int
    per_decision: dict[str, dict] = field(default_factory=dict)
    baseline_states_total: int = 0
    # per-state accounting for the tabular baseline is not comparable across
    # published figures; the total here is simply the sum over decisions
    oracle_value_normalized: float | None = None
    oracle_gap: float | None = None


def trace_path_for(template: str, decision: str) -> str:
    if "{decision}" in template:
        return template.format(decision=decision)
    root, ext = os.path.splitext(template)
    return f"{root}.{decision}{ext}"


def run_sweep_profile(diagram: InfluenceDiagram,
                      config: RefinementConfig | Mapping[str, RefinementConfig],
                      trace_template=None, policy_path=None, summary_path=None,
                      with_oracle: bool = True,
                      ) -> tuple[SweepSummary, MultistagePolicy, dict[str, AnytimeTrace]]:
    policy, traces = sweep_back(diagram, config)
    last = {d: t.records[-1] for d, t in traces.items()}
    summary = SweepSummary(
        value_normalized=policy.value_normalized,
        value_raw=policy.value_raw,
        total_fine_queries=sum(r.fine_queries for r in last.values()),
        total_passes=sum(r.passes for r in last.values()),
    )
    for compiled in policy.policies:
        d = compiled.decision
        states = baseline_states(diagram, d)
        summary.per_decision[d] = {
            "internal_vertices": last[d].internal_vertices,
            "leaves": last[d].leaves,
            "used_predecessors": list(compiled.contingency.parents),
            "fine_queries": last[d].fine_queries,
            "passes": last[d].passes,
            "baseline_states": states,
        }
        summary.baseline_states_total += states
    oracle = _oracle(oracle_optimal_multistage, diagram) if with_oracle else None
    if oracle is not None:
        summary.oracle_value_normalized = oracle.value
        summary.oracle_gap = oracle.value - policy.value_normalized

    if trace_template is not None:
        for d, trace in traces.items():
            _write(trace_path_for(trace_template, d), trace.to_csv)
    _write(policy_path, lambda: dumps_multistage_policy(policy))
    _write(summary_path, lambda: json.dumps(asdict(summary), indent=2))
    return summary, policy, traces
