"""Benchmark workloads: seeded input diagrams, the solve pipeline, output checks.

Every call into the library goes through a module attribute looked up at
call time (``_mod("idrefine.refine").refine``), so that the spans the traced
run patches in from outside (see tracing.py) see the benchmark's own calls.
``import idrefine.refine`` would not do: the package re-exports the function
``refine`` under that name.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

VALUE_TOL = 1e-9  # the same tolerance as the acceptance criteria


def _mod(name: str):
    return importlib.import_module(name)


# -- inputs ---------------------------------------------------------------
#
# The benchmark writes its input diagrams as JSON text itself, so that its
# inputs do not depend on the code it measures.  Both functions draw the
# same numbers in the same order as idrefine.generate.gen_random_id (binary
# arity) and gen_two_stage; parsing the text gives exactly those diagrams.

def _chance(name, outcomes, parents, table):
    return {"name": name, "kind": "chance", "outcomes": outcomes,
            "parents": parents, "table": table}


def random_id_text(n: int, seed: int) -> str:
    """n binary chance predecessors, one binary decision, utility over all."""
    rng = np.random.default_rng(seed)
    chance = [f"c{k}" for k in range(1, n + 1)]
    nodes = []
    for name in chance:
        p = float(rng.uniform())
        nodes.append(_chance(name, ["v0", "v1"], [], [p, 1.0 - p]))
    nodes.append({"name": "d", "kind": "decision", "outcomes": ["a0", "a1"],
                  "parents": chance})
    nodes.append({"name": "v", "kind": "value", "parents": chance + ["d"],
                  "table": rng.random(size=2 ** (n + 1)).tolist()})
    return json.dumps({"nodes": nodes, "decision_order": ["d"]})


def two_stage_text(seed: int) -> str:
    """Two decisions: d1 observes c1; m depends on d1, c2; d2 observes d1, m."""
    rng = np.random.default_rng(seed)
    b = ["y", "n"]
    nodes = []
    for name in ("c1", "c2"):
        p = float(rng.uniform())
        nodes.append(_chance(name, b, [], [p, 1.0 - p]))
    nodes.append({"name": "d1", "kind": "decision", "outcomes": ["go", "wait"],
                  "parents": ["c1"]})
    rows = rng.uniform(size=4)  # axes (d1, c2), then m fastest
    nodes.append(_chance("m", b, ["d1", "c2"],
                         [x for r in rows.tolist() for x in (r, 1.0 - r)]))
    nodes.append({"name": "d2", "kind": "decision", "outcomes": ["buy", "skip"],
                  "parents": ["d1", "m"]})
    nodes.append({"name": "v", "kind": "value", "parents": ["c1", "d1", "m", "d2"],
                  "table": rng.random(size=16).tolist()})
    return json.dumps({"nodes": nodes, "decision_order": ["d1", "d2"]})


# -- workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    pool: int                     # pinned instances; diagram seeds 0 .. pool-1
    text: Callable[[int], str]    # diagram seed -> JSON text
    leaf: str
    ext: str
    max_passes: int | None        # None: run to completion
    multistage: bool

    @property
    def complete(self) -> bool:
        return self.max_passes is None

    def config(self):
        R = _mod("idrefine.refine")
        stop = (R.StoppingRule(run_to_complete=True) if self.complete
                else R.StoppingRule(max_passes=self.max_passes))
        return R.RefinementConfig(leaf_strategy=self.leaf, extension_strategy=self.ext,
                                  stop=stop, seed=0)


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("greedy_complete", 64, lambda s: random_id_text(10, s),
             "posthoc", "greedy", None, False),
    Workload("random_complete", 64, lambda s: random_id_text(10, s),
             "random", "random", None, False),
    Workload("greedy_budget", 32, lambda s: random_id_text(16, s),
             "posthoc", "greedy", 6000, False),
    Workload("sweep_two_stage", 4096, two_stage_text,
             "posthoc", "greedy", None, True),
)}


def instance_order(workload: Workload, seed: int) -> list[int]:
    """The pool indices a run visits, in order; a function of the seed only."""
    return np.random.default_rng(seed).permutation(workload.pool).tolist()


# -- pipeline -------------------------------------------------------------

class CheckError(Exception):
    """An output differs from what the benchmark expects."""


@dataclass
class Solved:
    value: float
    passes: int
    fine: int
    internals: int
    leaves: int
    traces: list          # AnytimeTrace per refined decision


def set_up(text: str):
    """JSON text -> parsed, validated diagram and its compiled network."""
    D = _mod("idrefine.diagram")
    diagram = D.parse_diagram(text)
    report = D.validate(diagram)
    if not report.ok:
        raise CheckError("validate: " + "; ".join(report.violations))
    return diagram, _mod("idrefine.engine").compile_network(diagram)


def solve(workload: Workload, diagram, network) -> Solved:
    if workload.multistage:
        policy, by_decision = _mod("idrefine.multistage").sweep_back(diagram, workload.config())
        traces = list(by_decision.values())
        last = [t.records[-1] for t in traces]
        return Solved(policy.value_normalized, sum(r.passes for r in last),
                      sum(r.fine_queries for r in last),
                      sum(r.internal_vertices for r in last), sum(r.leaves for r in last),
                      traces)
    engine = _mod("idrefine.engine").Engine(network)
    _, trace = _mod("idrefine.refine").refine(engine, "d", workload.config())
    last = trace.records[-1]
    return Solved(last.value_normalized, engine.counter.passes, engine.counter.fine,
                  last.internal_vertices, last.leaves, [trace])


def oracle_value(workload: Workload, diagram) -> float:
    O = _mod("idrefine.oracle")
    if workload.multistage:
        return O.oracle_optimal_multistage(diagram).value
    return O.oracle_optimal(diagram, "d").value


def pin_of(solved: Solved) -> list:
    return [solved.value, solved.passes, solved.fine, solved.internals, solved.leaves]


def check(workload: Workload, solved: Solved, oracle: float, pin: list) -> None:
    """Raise CheckError unless the outputs match the pins, the oracle and the
    anytime property."""
    got = pin_of(solved)
    if abs(got[0] - pin[0]) > VALUE_TOL or got[1:] != pin[1:]:
        raise CheckError(f"[value, passes, fine, internals, leaves] = {got}, pinned {pin}")
    if workload.complete and abs(solved.value - oracle) > VALUE_TOL:
        raise CheckError(f"complete value {solved.value!r} != oracle {oracle!r}")
    if solved.value > oracle + VALUE_TOL:
        raise CheckError(f"value {solved.value!r} exceeds the optimum {oracle!r}")
    for trace in solved.traces:
        rows = list(csv.DictReader(io.StringIO(trace.to_csv())))
        values = [float(r["value_normalized"]) for r in rows]
        if any(b < a - VALUE_TOL for a, b in zip(values, values[1:])):
            raise CheckError("trace value column decreases")
        if values[-1] != trace.records[-1].value_normalized:
            raise CheckError("trace CSV disagrees with its last record")


def joint_states(diagram) -> int:
    """Joint states the brute-force oracle enumerates, from the domain sizes."""
    D = _mod("idrefine.diagram")
    return math.prod(len(node.variable.outcomes) for node in diagram.nodes.values()
                     if not isinstance(node, D.ValueNode))


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0
