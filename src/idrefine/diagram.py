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

``parse_diagram`` checks JSON shapes only: objects, lists, unique
non-empty string names, kinds, at least 2 string outcomes, string parents
and tables as flat lists of numbers that fit a float.  ``validate`` owns
every other rule, NaN and infinite entries included; ``parse_diagram``
raises the first violation it reports, then renormalizes the CPT rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
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

    def resolve_decision(self, decision: str | None) -> str:
        """The decision named, or, with none named, the diagram's only one."""
        n = len(self.decisions)
        if decision is None and n != 1:
            raise DiagramError(f"decision must be named: the diagram has {n} decisions"
                               if n else "diagram has no decision node")
        return self.decisions[0] if decision is None else decision

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
        problems.append(f"{where}: row {i} does not sum to 1, it sums to {float(sums[i])!r}")
    return problems


def normalize_rows(rows: np.ndarray, where: str = "table") -> np.ndarray:
    """Renormalize CPT rows that are within ROW_SUM_TOL of 1, to an exact
    floating-point fixpoint so that serialize/parse round-trips reproduce
    identical tables; reject other rows."""
    problems = _row_problems(rows, where)
    if problems:
        raise DiagramError(problems[0])
    return _fixpoint(rows)


def _fixpoint(rows: np.ndarray) -> np.ndarray:
    rows = np.clip(rows, 0.0, 1.0)
    for _ in range(4):
        sums = rows.sum(axis=1)
        if (sums == 1.0).all():
            return rows
        rows = rows / sums[:, None]
    for row in rows:
        _settle(row)
    return rows


def _settle(row: np.ndarray) -> None:
    """Move entries of a row that sums to within a few ulps of 1 until it
    sums to exactly 1.0.

    Entries are tried largest first.  Each takes the step 1 - sum, then
    single ulps while the sum stays on the same side of 1.  The sum is
    monotone in every entry, so the ulp steps either land on 1.0 or cross
    it; a crossing means the summation's roundings skip 1.0 for every value
    of that entry, and the next entry is tried.  The loops are bounded, and
    an entry no larger than four times the gap is never moved, so no entry
    changes sign.
    """
    for k in np.argsort(-row, kind="stable"):
        gap = 1.0 - row.sum()
        if gap == 0.0 or row[k] <= 4.0 * abs(gap):
            return
        row[k] += gap
        below = row.sum() < 1.0
        for _ in range(1024):
            s = row.sum()
            if s == 1.0 or (s < 1.0) != below:
                break
            row[k] = np.nextafter(row[k], 2.0 if below else 0.0)


# A broadcast product whose innermost axis longer than 1 is short and
# broadcast in one operand makes numpy run one inner loop per few entries.
# Engine plans and the oracle make such a product of at least SPLIT_MIN
# entries, on an axis of at most SPLIT_AXIS, one np.multiply per entry of
# that axis (split_product).  Timed after a solve on binary stars, split over
# unsplit reads 1.01 at 2,048 entries, 0.98-0.99 at 4,096 and 0.95-0.97 at
# 8,192 (an engine or oracle joint product); at 8,192 entries, 0.35-0.78 on
# an axis of 3, 0.58-1.29 on 4 and 1.56-2.92 on 8.
SPLIT_MIN, SPLIT_AXIS = 8192, 3


@lru_cache(maxsize=256)
def split_product(left: tuple[int, ...], right: tuple[int, ...], shape: tuple[int, ...]):
    """None, or a (left, right, result) index per entry of the last axis of
    ``shape`` longer than 1 if the gate above splits a product onto it of
    operands so shaped; the one broadcast on that axis is indexed by ()."""
    if math.prod(shape) < SPLIT_MIN:
        return None
    k = len(shape) - 1  # some axis is longer than 1, as SPLIT_MIN > 1
    while shape[k] == 1:
        k -= 1
    if shape[k] > SPLIT_AXIS or min(left[k], right[k]) > 1:
        return None
    cuts = [(slice(None),) * k + (slice(t, t + 1),) for t in range(shape[k])]
    return tuple((at if left[k] > 1 else (), at if right[k] > 1 else (), at) for at in cuts)


def _node(spec, names) -> Node:
    """Check one node's JSON shapes and build it, with its table flat."""
    if not isinstance(spec, dict):
        raise DiagramError(f"every node must be an object, got {spec!r}")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise DiagramError("every node needs a non-empty string 'name'")
    if name in names:
        raise DiagramError(f"duplicate node name {name!r}")
    kind = spec.get("kind")
    if kind not in ("chance", "decision", "value"):
        raise DiagramError(f"node {name!r}: kind must be chance, decision or value")
    outcomes = spec.get("outcomes")
    if kind == "value" and "outcomes" in spec:
        raise DiagramError(f"value node {name!r} must not declare outcomes")
    if kind != "value" and (not isinstance(outcomes, list) or len(outcomes) < 2
                            or any(not isinstance(o, str) for o in outcomes)):
        raise DiagramError(f"node {name!r}: needs at least 2 outcomes, as a list of strings")
    variable = Variable(name, tuple(outcomes)) if kind != "value" else None
    parents = spec.get("parents", [])
    if not isinstance(parents, list) or any(not isinstance(p, str) for p in parents):
        raise DiagramError(f"node {name!r}: 'parents' must be a list, and parent references "
                           f"must be strings")
    parents = tuple(parents)
    if kind == "decision":
        if "table" in spec:
            raise DiagramError(f"decision node {name!r} must not carry a table")
        return DecisionNode(variable, parents)
    table = spec.get("table")
    if not isinstance(table, list):
        raise DiagramError(f"node {name!r}: missing 'table'")
    # bool is a subclass of int, and np.asarray would also take strings
    # such as "0.7" and nested lists
    if not {*map(type, table)} <= {int, float}:
        raise DiagramError(f"node {name!r}: table entries must be numbers in a flat list")
    try:
        table = np.asarray(table, dtype=float)
    except OverflowError:
        raise DiagramError(f"node {name!r}: table entries must be finite numbers") from None
    return ChanceNode(variable, parents, table) if variable else ValueNode(name, parents, table)


def parse_diagram(text: str) -> InfluenceDiagram:
    """Parse the JSON diagram format into a diagram that passes validate;
    raises DiagramError on any defect (see the module docstring)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DiagramError(f"syntax error at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DiagramError("the document nests too deeply") from None
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise DiagramError("document must be an object with a 'nodes' list")
    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        raise DiagramError("'nodes' must be a non-empty list")
    nodes: dict[str, Node] = {}
    for raw in doc["nodes"]:
        node = _node(raw, nodes)
        nodes[node.name] = node
    order = doc.get("decision_order",
                    [n for n, node in nodes.items() if isinstance(node, DecisionNode)])
    if not isinstance(order, list) or any(not isinstance(d, str) for d in order):
        raise DiagramError("'decision_order' must be a list of strings")

    # give each flat table the shape of its parents where the size fits;
    # validate reports an unresolved parent before the node's table
    arity = {n: node.variable.arity for n, node in nodes.items()
             if not isinstance(node, ValueNode)}
    for node in nodes.values():
        shape = tuple(arity[p] for p in node.parents if p in arity)
        if isinstance(node, ChanceNode) and node.cpt.size == math.prod(shape) * arity[node.name]:
            node.cpt = node.cpt.reshape(shape + (arity[node.name],))
        elif isinstance(node, ValueNode) and node.utility.size == math.prod(shape):
            node.utility = node.utility.reshape(shape)
    diagram = InfluenceDiagram(nodes, tuple(order))

    if violations := validate(diagram).violations:
        raise DiagramError(violations[0])
    for node in nodes.values():
        if isinstance(node, ChanceNode):
            rows = _fixpoint(node.cpt.reshape(-1, node.variable.arity))
            node.cpt = rows.reshape(node.cpt.shape)
    return diagram


def load_diagram(path) -> InfluenceDiagram:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_diagram(fh.read())
    except UnicodeDecodeError as e:
        raise DiagramError(f"the file is not UTF-8 text: {e.reason}") from None


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


def _ancestors(nodes: dict[str, Node]) -> tuple[dict[str, set[str]], list[str]]:
    """One depth-first walk along parent arcs.  Returns each node's set of
    ancestors and, if the arcs close a cycle, that cycle in arc order with
    its first node repeated at the end (the sets are then incomplete)."""
    ancestors: dict[str, set[str]] = {}
    for root in nodes:
        if root in ancestors:
            continue
        path, pending = [root], [iter(nodes[root].parents)]
        while pending:
            for p in pending[-1]:
                if p in path:
                    return ancestors, [p, *reversed(path[path.index(p):])]
                if p in nodes and p not in ancestors:
                    path.append(p)
                    pending.append(iter(nodes[p].parents))
                    break
            else:
                pending.pop()
                name = path.pop()
                parents = [p for p in nodes[name].parents if p in nodes]
                ancestors[name] = set(parents).union(*(ancestors[p] for p in parents))
    return ancestors, []


def validate(diagram: InfluenceDiagram) -> ValidationReport:
    """Check every structural rule.  Violations are report entries: validate
    never raises, whatever the diagram holds."""
    report = ValidationReport()
    add = report.violations.append
    nodes = diagram.nodes

    n_value = sum(isinstance(node, ValueNode) for node in nodes.values())
    if n_value != 1:
        add(f"expected exactly one value node, found {n_value}")
    for name, node in nodes.items():
        shape = []
        for p in node.parents:
            if p not in nodes:
                add(f"node {name!r}: unresolved parent {p!r}")
            elif isinstance(nodes[p], ValueNode):
                add(f"node {name!r}: value node {p!r} has an outgoing arc")
            else:
                shape.append(nodes[p].variable.arity)
        if len(set(node.parents)) != len(node.parents):
            add(f"node {name!r}: duplicate parent")
        if isinstance(node, ValueNode):
            table = node.utility
            if not np.isfinite(table).all():
                add(f"value node {name!r}: non-finite utilities")
            elif table.size and not math.isfinite(float(table.max()) - float(table.min())):
                add(f"value node {name!r}: the utility range is not finite "
                    f"(max - min overflows); the utility range must be finite")
        else:
            var = node.variable
            if var.arity < 2:
                add(f"node {name!r}: fewer than 2 outcomes")
            if len(set(var.outcomes)) != var.arity:
                add(f"node {name!r}: duplicate outcome labels")
            if isinstance(node, DecisionNode):
                continue
            table = node.cpt
            shape.append(var.arity)
        shape = tuple(shape)
        if table.shape != shape:
            add(f"node {name!r}: table has {table.size} entries in shape {table.shape}, "
                f"expected {math.prod(shape)} in shape {shape}")
        elif isinstance(node, ChanceNode) and var.arity:  # no outcomes, no rows
            report.violations += _row_problems(table.reshape(-1, var.arity), f"node {name!r}")

    ancestors, cycle = _ancestors(nodes)
    if cycle:
        add(f"arc graph contains a cycle: {cycle}")
    order = diagram.decision_order
    if sorted(order) != sorted(diagram.decisions):
        add("decision_order must list every decision node exactly once")
    elif not cycle:
        report.violations += [
            f"decision_order: {before!r} is listed before {d!r} but is a descendant of it"
            for i, d in enumerate(order) for before in order[:i] if d in ancestors[before]]
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
