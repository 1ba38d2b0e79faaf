"""Influence diagram data model.

A diagram is a DAG of discrete chance nodes (with conditional probability
tables), decision nodes (whose parents are the variables observed before
acting), and exactly one value node (a utility table over its parents).
Diagrams are immutable after construction and safe to share across runs.

The on-disk format is a single JSON document::

    {"nodes": [{"name": .., "kind": "chance"|"decision"|"value",
                "outcomes": [..], "parents": [..], "table": [..]}, ..],
     "decision_order": [..]}

Tables are row-major over parent configurations: parents vary slowest
first in declaration order, child outcomes fastest.  Value nodes omit
``outcomes`` and give ``table`` as raw utilities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import product
from typing import Iterator, Union

import numpy as np

ROW_SUM_TOL = 1e-9


class DiagramError(ValueError):
    """Malformed diagram text or structurally inconsistent diagram."""


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with a fixed, significant outcome order."""

    name: str
    outcomes: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.outcomes)

    def index_of(self, outcome: str) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise DiagramError(f"variable {self.name!r} has no outcome {outcome!r}") from None


@dataclass(eq=False)
class ChanceNode:
    variable: Variable
    parents: tuple[str, ...]
    # axes (*parents, own outcome); every parent-configuration row sums to 1
    cpt: np.ndarray

    @property
    def name(self) -> str:
        return self.variable.name


@dataclass(eq=False)
class DecisionNode:
    variable: Variable
    parents: tuple[str, ...]  # informational predecessors, declaration order

    @property
    def name(self) -> str:
        return self.variable.name


@dataclass(eq=False)
class ValueNode:
    name: str
    parents: tuple[str, ...]
    utility: np.ndarray  # axes (*parents,), raw problem units


Node = Union[ChanceNode, DecisionNode, ValueNode]


@dataclass(eq=False)
class InfluenceDiagram:
    """Named node set plus the decision ordering.

    ``nodes`` preserves declaration order, which is the universal
    tie-break order used everywhere downstream.
    """

    nodes: dict[str, Node]
    decision_order: tuple[str, ...]

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise DiagramError(f"unknown node name {name!r}") from None

    def variable(self, name: str) -> Variable:
        node = self.node(name)
        if isinstance(node, ValueNode):
            raise DiagramError(f"value node {name!r} has no outcomes")
        return node.variable

    @property
    def value_node(self) -> ValueNode:
        for node in self.nodes.values():
            if isinstance(node, ValueNode):
                return node
        raise DiagramError("diagram has no value node")

    @property
    def decisions(self) -> tuple[str, ...]:
        return tuple(n for n, nd in self.nodes.items() if isinstance(nd, DecisionNode))

    def predecessors(self, decision: str) -> tuple[Variable, ...]:
        node = self.node(decision)
        if not isinstance(node, DecisionNode):
            raise DiagramError(f"{decision!r} is not a decision node")
        return tuple(self.variable(p) for p in node.parents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InfluenceDiagram):
            return NotImplemented
        if list(self.nodes) != list(other.nodes):
            return False
        if self.decision_order != other.decision_order:
            return False
        for a, b in zip(self.nodes.values(), other.nodes.values()):
            if type(a) is not type(b) or a.parents != b.parents:
                return False
            if isinstance(a, ValueNode):
                if a.name != b.name or not np.array_equal(a.utility, b.utility):
                    return False
            else:
                if a.variable != b.variable:
                    return False
                if isinstance(a, ChanceNode) and not np.array_equal(a.cpt, b.cpt):
                    return False
        return True


def _row_problems(rows: np.ndarray, where: str = "table") -> list[str]:
    """Every problem of a block of probability rows, up to ROW_SUM_TOL:
    first entries outside [0, 1], then a row that does not sum to 1.  Both
    checks are written so that NaN fails them."""
    problems = []
    if not ((rows >= -ROW_SUM_TOL) & (rows <= 1 + ROW_SUM_TOL)).all():
        problems.append(f"{where}: probabilities must lie in [0, 1]")
    sums = rows.sum(axis=1)
    ok = np.abs(sums - 1.0) <= ROW_SUM_TOL
    if not ok.all():
        i = int(np.argmin(ok))
        problems.append(f"{where}: row {i} does not sum to 1, it sums to {sums[i]!r}")
    return problems


def normalize_rows(rows: np.ndarray, where: str = "table") -> np.ndarray:
    """Renormalize CPT rows that are within ROW_SUM_TOL of 1; reject others.

    Normalization iterates to an exact floating-point fixpoint so that
    serialize/parse round-trips reproduce identical tables.  Generators
    use this on freshly sampled rows for the same reason.
    """
    problems = _row_problems(rows, where)
    if problems:
        raise DiagramError(problems[0])
    rows = np.clip(rows, 0.0, 1.0)
    for _ in range(4):
        sums = rows.sum(axis=1)
        if (sums == 1.0).all():
            return rows
        rows = rows / sums[:, None]
    for i in range(rows.shape[0]):
        s = rows[i].sum()
        if s != 1.0:
            rows[i, int(np.argmax(rows[i]))] += 1.0 - s
    return rows


def _build_variable(name: str, outcomes, where: str) -> Variable:
    if not isinstance(outcomes, list) or len(outcomes) < 2:
        raise DiagramError(f"{where}: needs at least 2 outcomes")
    if any(not isinstance(o, str) for o in outcomes):
        raise DiagramError(f"{where}: outcome labels must be strings")
    if len(set(outcomes)) != len(outcomes):
        raise DiagramError(f"{where}: duplicate outcome labels")
    return Variable(name, tuple(outcomes))


def parse_diagram(text: str) -> InfluenceDiagram:
    """Parse the JSON diagram format; raises DiagramError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DiagramError(f"syntax error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise DiagramError("document must be an object with a 'nodes' list")

    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise DiagramError("'nodes' must be a non-empty list")

    variables: dict[str, Variable] = {}
    kinds: dict[str, str] = {}
    for spec in raw_nodes:
        if not isinstance(spec, dict):
            raise DiagramError(f"every node must be an object, got {spec!r}")
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise DiagramError("every node needs a non-empty string 'name'")
        if name in kinds:
            raise DiagramError(f"duplicate node name {name!r}")
        kind = spec.get("kind")
        if kind not in ("chance", "decision", "value"):
            raise DiagramError(f"node {name!r}: kind must be chance, decision or value")
        kinds[name] = kind
        if kind == "value":
            if "outcomes" in spec:
                raise DiagramError(f"value node {name!r} must not declare outcomes")
        else:
            variables[name] = _build_variable(name, spec.get("outcomes"), f"node {name!r}")

    n_value = sum(1 for k in kinds.values() if k == "value")
    if n_value != 1:
        raise DiagramError(f"diagram must have exactly one value node, found {n_value}")

    nodes: dict[str, Node] = {}
    for spec in raw_nodes:
        name, kind = spec["name"], kinds[spec["name"]]
        parents = spec.get("parents", [])
        if not isinstance(parents, list):
            raise DiagramError(f"node {name!r}: 'parents' must be a list")
        for p in parents:
            if not isinstance(p, str):
                raise DiagramError(f"node {name!r}: parent references must be strings, got {p!r}")
            if p not in kinds:
                raise DiagramError(f"node {name!r}: unresolved parent reference {p!r}")
            if kinds[p] == "value":
                raise DiagramError(f"node {name!r}: the value node cannot be a parent")
        if len(set(parents)) != len(parents):
            raise DiagramError(f"node {name!r}: duplicate parent")
        parent_doms = tuple(variables[p].arity for p in parents)
        n_configs = math.prod(parent_doms)

        if kind == "decision":
            if "table" in spec:
                raise DiagramError(f"decision node {name!r} must not carry a table")
            nodes[name] = DecisionNode(variables[name], tuple(parents))
            continue

        table = spec.get("table")
        if not isinstance(table, list):
            raise DiagramError(f"node {name!r}: missing 'table'")
        # bool is a subclass of int, and np.asarray would also take strings
        # such as "0.7" and nested lists
        if not {*map(type, table)} <= {int, float}:
            raise DiagramError(f"node {name!r}: table entries must be numbers in a flat list")
        try:
            flat = np.asarray(table, dtype=float)
        except OverflowError:
            raise DiagramError(f"node {name!r}: table entries must be finite numbers") from None

        if kind == "chance":
            arity = variables[name].arity
            if flat.size != n_configs * arity:
                raise DiagramError(
                    f"node {name!r}: table has {flat.size} entries, expected {n_configs * arity}")
            rows = normalize_rows(flat.reshape(n_configs, arity), f"node {name!r}")
            cpt = rows.reshape(parent_doms + (arity,))
            nodes[name] = ChanceNode(variables[name], tuple(parents), cpt)
        else:
            if flat.size != n_configs:
                raise DiagramError(
                    f"value node {name!r}: table has {flat.size} entries, expected {n_configs}")
            if not np.isfinite(flat).all():
                raise DiagramError(f"value node {name!r}: utilities must be finite")
            if not math.isfinite(float(flat.max()) - float(flat.min())):
                raise DiagramError(f"value node {name!r}: the utility range must be finite")
            nodes[name] = ValueNode(name, tuple(parents), flat.reshape(parent_doms))

    declared_decisions = [n for n, k in kinds.items() if k == "decision"]
    order = doc.get("decision_order", declared_decisions)
    if (not isinstance(order, list) or not all(isinstance(d, str) for d in order)
            or sorted(order) != sorted(declared_decisions)):
        raise DiagramError("'decision_order' must list every decision node exactly once")

    return InfluenceDiagram(nodes, tuple(order))


def load_diagram(path) -> InfluenceDiagram:
    with open(path, encoding="utf-8") as fh:
        return parse_diagram(fh.read())


def serialize_diagram(diagram: InfluenceDiagram) -> str:
    """Inverse of parse_diagram; float values round-trip exactly."""
    out = []
    for node in diagram.nodes.values():
        if isinstance(node, ChanceNode):
            out.append({"name": node.name, "kind": "chance",
                        "outcomes": list(node.variable.outcomes),
                        "parents": list(node.parents),
                        "table": node.cpt.ravel(order="C").tolist()})
        elif isinstance(node, DecisionNode):
            out.append({"name": node.name, "kind": "decision",
                        "outcomes": list(node.variable.outcomes),
                        "parents": list(node.parents)})
        else:
            out.append({"name": node.name, "kind": "value",
                        "parents": list(node.parents),
                        "table": node.utility.ravel(order="C").tolist()})
    return json.dumps({"nodes": out, "decision_order": list(diagram.decision_order)}, indent=2)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate(diagram: InfluenceDiagram) -> ValidationReport:
    """Check every structural invariant; violations are report entries, not errors."""
    report = ValidationReport()
    add = report.violations.append

    value_nodes = [n for n, nd in diagram.nodes.items() if isinstance(nd, ValueNode)]
    if len(value_nodes) != 1:
        add(f"expected exactly one value node, found {len(value_nodes)}")
    for name, node in diagram.nodes.items():
        for p in node.parents:
            if p not in diagram.nodes:
                add(f"node {name!r}: unresolved parent {p!r}")
            elif isinstance(diagram.nodes[p], ValueNode):
                add(f"node {name!r}: value node {p!r} has an outgoing arc")
        if isinstance(node, ValueNode):
            u = node.utility
            if not np.isfinite(u).all():
                add(f"value node {name!r}: non-finite utilities")
            elif u.size and not math.isfinite(float(u.max()) - float(u.min())):
                add(f"value node {name!r}: the utility range is not finite")
            continue
        var = node.variable
        if var.arity < 2:
            add(f"node {name!r}: fewer than 2 outcomes")
        if len(set(var.outcomes)) != var.arity:
            add(f"node {name!r}: duplicate outcome labels")
        if isinstance(node, ChanceNode):
            doms = tuple(diagram.variable(p).arity for p in node.parents
                         if p in diagram.nodes and not isinstance(diagram.nodes[p], ValueNode))
            expected = doms + (var.arity,)
            if node.cpt.shape != expected:
                add(f"node {name!r}: table shape {node.cpt.shape} != {expected}")
            elif var.arity:  # with no outcomes there are no rows to check
                report.violations += _row_problems(node.cpt.reshape(-1, var.arity),
                                                  f"node {name!r}")

    graph = {name: set(node.parents) for name, node in diagram.nodes.items()}
    acyclic = True
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        acyclic = False
        add(f"arc graph contains a cycle: {e.args[1]}")

    decisions = diagram.decisions
    if sorted(diagram.decision_order) != sorted(decisions):
        add("decision_order must list every decision node exactly once")
    elif acyclic:
        children: dict[str, set[str]] = {n: set() for n in diagram.nodes}
        for name, node in diagram.nodes.items():
            for p in node.parents:
                if p in children:
                    children[p].add(name)
        for i, d in enumerate(diagram.decision_order):
            descendants = set()
            stack = [d]
            while stack:
                for c in children.get(stack.pop(), ()):
                    if c not in descendants:
                        descendants.add(c)
                        stack.append(c)
            for listed_before in diagram.decision_order[:i]:
                if listed_before in descendants:
                    add(f"decision_order: {listed_before!r} is listed before {d!r} "
                        f"but is a descendant of it")
    return report


def information_states(diagram: InfluenceDiagram, decision: str) -> Iterator[dict[str, str]]:
    """Enumerate complete assignments to a decision's predecessors.

    Yields exactly the product of predecessor arities, lexicographically by
    declaration order (first-declared predecessor varies slowest).
    """
    preds = diagram.predecessors(decision)
    names = [v.name for v in preds]
    for combo in product(*(v.outcomes for v in preds)):
        yield dict(zip(names, combo))
