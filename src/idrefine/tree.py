"""Decision-tree policies and their incremental extension.

A tree for a decision maps every information state to an action: internal
vertices are labelled by observable predecessors, leaves by actions.  A
leaf's value is the normalized expected value of its action in its
context; the tree's value is the reach-probability-weighted sum over
leaves.  Extending a leaf on a variable replaces it with an internal
vertex whose children carry the maximizing action for each refined
context, which never decreases the tree value.

Leaves whose context has probability zero are marked pruned: they inherit
the parent leaf's action, contribute nothing to the value, and are never
extended.

Trees are single-owner mutable values.  A leaf caches the
CandidateEvaluation of every candidate it has explored, the record of what
the counters were already charged, so that a greedy exploration pays for
queries once.  The candidates a leaf has not yet explored are evaluated
together, in one Calibration.evaluate_candidates call.  A leaf also keeps
its leaf joint (Calibration.leaf_joint) once one is known.  The root's is
contracted by init_tree, which reads the root's action from it.  Extending
a leaf hands each child that can still be extended a slice of that joint,
a numpy view, and drops the leaf's own reference, so on a star topology
the root's joint is the one contraction of a run.

A tree maps its open leaves, those that can still be extended, to their
parents, None for the root (DecisionTree.open).  Every test of whether a
leaf can be extended reads it, so a leaf of another tree, or one already
replaced, is not open.  Only open leaves hold a leaf joint or uncharged
sibling results.  The links live in the tree, not in the vertices, so that
no vertex refers back up and a dropped tree is freed at once, not by the
cycle collector.

Greedy exploration (best_extension) evaluates siblings together.  The
first time it explores a leaf whose parent has two or more unexplored
children holding joints, it evaluates every candidate of all of them in
one stacked pass (engine.evaluate_siblings).  Each sibling keeps its
results uncharged, apart from its cache, and is charged when it is
explored, exactly as if it had been evaluated then: one calibration pass
plus two passes per candidate.  A lone leaf is a group of one, evaluated
by its own calibration; extend and evi never form a group.

A tree keeps its internal-vertex and leaf counts and its value up to date
as extend() grows it, so reading them costs no walk.  The value is held as
Shewchuk partials (Shewchuk 1997, the algorithm behind math.fsum): the
exact sum of every leaf's value * reach, read out correctly rounded, so it
does not depend on the order in which the leaves were made.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping, Union

import numpy as np

from .diagram import Variable
from .engine import (CandidateEvaluation, Engine, ZERO_PROB, ZeroProbabilityError,
                     evaluate_siblings)

Context = tuple[tuple[str, str], ...]


@dataclass(eq=False)
class Leaf:
    action: str
    value: float   # normalized expected value of action in this context
    reach: float   # probability of the context
    context: Context
    pruned: bool = False
    cache: dict[str, CandidateEvaluation] = field(default_factory=dict, repr=False)
    joint: np.ndarray | None = field(default=None, repr=False)  # Calibration.leaf_joint
    # this leaf's share of evaluate_siblings; an entry is charged once in cache
    uncharged: dict[str, CandidateEvaluation] | None = field(default=None, repr=False)


@dataclass(eq=False)
class Internal:
    variable: str
    children: dict[str, "Vertex"]  # outcome label -> child, declaration order
    gain: float  # tree-value increase recorded when this vertex was created


Vertex = Union[Leaf, Internal]


@dataclass(eq=False)
class DecisionTree:
    decision: str
    actions: tuple[str, ...]
    predecessors: tuple[Variable, ...]
    u_min: float
    u_max: float
    root: Vertex
    # running statistics, kept current by extend(); see tree_counts/tree_value
    internals: int = field(init=False)
    leaves: int = field(init=False)      # non-pruned
    partials: list[float] = field(init=False, repr=False)
    open: dict[Leaf, Internal | None] = field(init=False, repr=False)  # leaf -> parent

    def __post_init__(self) -> None:
        self.internals = self.leaves = 0
        self.partials = []
        self.open = {}
        depth = len(self.predecessors)
        parent: dict[Vertex, Internal | None] = {self.root: None}
        for v in iter_vertices(self.root):
            if isinstance(v, Internal):
                self.internals += 1
                parent.update(dict.fromkeys(v.children.values(), v))
            elif not v.pruned:
                self.leaves += 1
                _add_exact(self.partials, v.value * v.reach)
                if len(v.context) < depth:
                    self.open[v] = parent[v]

    def denormalize(self, value: float) -> float:
        return value * (self.u_max - self.u_min) + self.u_min


def init_tree(engine: Engine, decision: str) -> DecisionTree:
    """Single-leaf tree holding the best unconditional action, two passes:
    the calibration of the empty context and a value pass on it
    (Calibration.best_action), which reads the root's leaf joint.  The root
    keeps that joint for its first exploration if it is open.
    """
    net = engine.network
    engine._check_decision(decision)  # before the calibration charges its pass
    cal = engine.calibrate({})
    action, value = cal.best_action(decision)
    tree = DecisionTree(decision, net.outcomes[decision], net.diagram.predecessors(decision),
                        net.u_min, net.u_max, Leaf(action, value, 1.0, ()))
    if tree.root in tree.open:
        tree.root.joint = cal.leaf_joint(decision)
    return tree


def iter_vertices(root: Vertex) -> Iterator[Vertex]:
    """Every vertex under root, depth-first, children in outcome-declaration order."""
    stack: list[Vertex] = [root]
    while stack:
        v = stack.pop()
        yield v
        if isinstance(v, Internal):
            stack.extend(reversed(v.children.values()))


def iter_leaves(tree: DecisionTree) -> Iterator[Leaf]:
    """All leaves in depth-first, outcome-declaration order."""
    return (v for v in iter_vertices(tree.root) if isinstance(v, Leaf))


def iter_internals(tree: DecisionTree) -> Iterator[Internal]:
    return (v for v in iter_vertices(tree.root) if isinstance(v, Internal))


def _add_exact(partials: list[float], x: float) -> None:
    """Add x to non-overlapping partials without rounding (Shewchuk 1997)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def tree_counts(tree: DecisionTree) -> tuple[int, int]:
    """(internal vertices, non-pruned leaves)."""
    return tree.internals, tree.leaves


def tree_value(tree: DecisionTree) -> float:
    """Expected value: sum over non-pruned leaves of value times reach.

    The sum is correctly rounded (math.fsum of the exact partials kept as
    the tree grew), so it is the same float whatever the extension order.
    """
    return math.fsum(tree.partials)


def extensions(tree: DecisionTree, leaf: Leaf) -> tuple[Variable, ...]:
    """Predecessors absent from the leaf's context, in declaration order."""
    seen = dict(leaf.context)
    return tuple(v for v in tree.predecessors if v.name not in seen)


def find_leaf(tree: DecisionTree, where: Context | Mapping[str, str]) -> Leaf:
    """Locate the leaf a context path or a variable assignment leads to."""
    assignment = dict(where)
    v = tree.root
    while isinstance(v, Internal):
        v = v.children[assignment[v.variable]]
    return v


def _require_open(tree: DecisionTree, leaf: Leaf,
                  variable: str | None = None) -> tuple[Variable, ...]:
    """The leaf's extensions; raises ValueError, before anything is charged,
    unless the leaf is open and variable (if given) is one of them."""
    if leaf not in tree.open:
        if leaf.pruned:
            raise ValueError("a pruned leaf cannot be extended")
        if not extensions(tree, leaf):
            raise ValueError("leaf context already contains every predecessor")
        raise ValueError("leaf does not belong to this tree")
    exts = extensions(tree, leaf)
    if variable is not None and all(v.name != variable for v in exts):
        raise ValueError(f"{variable!r} is not a possible extension of this leaf")
    return exts


def _explore(tree: DecisionTree, leaf: Leaf, names: list[str], engine: Engine) -> None:
    """Evaluate and cache the named candidates not yet cached, in one
    evaluate_candidates call: one calibration pass plus two passes per
    candidate.  The calibration is handed the leaf's joint, and the leaf
    keeps the one it ends with."""
    missing = [name for name in names if name not in leaf.cache]
    if missing:
        cal = engine.calibrate(dict(leaf.context), leaf.joint)
        leaf.cache.update(zip(missing, cal.evaluate_candidates(tree.decision, missing,
                                                               leaf.uncharged)))
        leaf.joint = cal.leaf_joint(tree.decision)


def _evaluate_group(tree: DecisionTree, leaf: Leaf, names: list[str], engine: Engine) -> None:
    """Evaluate the named candidates, every predecessor the leaf's context
    lacks, of the leaf and of each unexplored sibling holding a joint, in
    one stacked pass, and leave them uncharged on each.  Fewer than two
    such leaves, or a context of probability zero among them, leave every
    leaf to be evaluated alone when it is explored."""
    parent = tree.open[leaf]
    if parent is None or leaf.joint is None or leaf.cache or leaf.uncharged is not None:
        return
    group = [c for c in parent.children.values()
             if c in tree.open and c.joint is not None and not c.cache
             and c.uncharged is None]
    if len(group) < 2:
        return
    try:
        evaluated = evaluate_siblings(engine.network, tree.decision, names,
                                      [c.joint for c in group])
    except ZeroProbabilityError:
        return
    for c, evs in zip(group, evaluated):
        c.uncharged = dict(zip(names, evs))


def _gain(leaf: Leaf, ev: CandidateEvaluation) -> float:
    """Tree-value increase from swapping the leaf for this extension."""
    total = 0.0
    for j in range(len(ev.outcomes)):
        reach = leaf.reach * float(ev.probs[j])
        if reach >= ZERO_PROB:
            total += float(ev.values[j]) * reach
    return total - leaf.value * leaf.reach


def evi(tree: DecisionTree, leaf: Leaf, variable: str, engine: Engine) -> float:
    """Expected value of improvement from extending the leaf on a variable.

    Leaves the tree unchanged; the result is reach-weighted so values are
    comparable across leaves, and is never below -1e-9.
    """
    _require_open(tree, leaf, variable)
    _explore(tree, leaf, [variable], engine)
    return _gain(leaf, leaf.cache[variable])


def best_extension(tree: DecisionTree, leaf: Leaf, engine: Engine) -> tuple[str, float]:
    """Greedy choice: the extension with the largest improvement.

    Evaluates every candidate (ties break by declaration order) and caches
    each result on the leaf, so a following extend() issues no queries.
    Uncached exploration costs one calibration pass plus two passes per
    candidate.  The first exploration of a leaf evaluates its unexplored
    siblings with it, uncharged (see the module docstring).
    """
    exts = _require_open(tree, leaf)
    names = [v.name for v in exts]
    _evaluate_group(tree, leaf, names, engine)
    _explore(tree, leaf, names, engine)
    best_name, best_gain = None, None
    for v in exts:
        g = _gain(leaf, leaf.cache[v.name])
        if best_gain is None or g > best_gain:
            best_name, best_gain = v.name, g
    return best_name, best_gain


def extend(tree: DecisionTree, leaf: Leaf, variable: str, engine: Engine) -> Internal:
    """Replace an open leaf with an internal vertex over one extension variable.

    Children below the zero-probability threshold are marked pruned and
    inherit the parent leaf's action.  Reuses a cached evaluation when the
    leaf was explored before; otherwise costs one calibration pass plus
    two passes for the chosen candidate.  The children that are not pruned
    and can still be extended become open, each with the leaf's joint
    sliced at its outcome, a view; the leaf leaves tree.open and drops its
    joint.  A call that raises leaves the tree as it was.
    """
    exts = _require_open(tree, leaf, variable)
    _explore(tree, leaf, [variable], engine)
    ev = leaf.cache[variable]

    children: dict[str, Vertex] = {}
    for j, outcome in enumerate(ev.outcomes):
        reach = leaf.reach * float(ev.probs[j])
        context = leaf.context + ((variable, outcome),)
        if reach < ZERO_PROB:
            children[outcome] = Leaf(leaf.action, 0.0, reach, context, pruned=True)
        else:
            children[outcome] = Leaf(ev.actions[j], float(ev.values[j]), reach, context)
    gain = _gain(leaf, ev)
    if gain < -1e-9:
        raise RuntimeError(f"extension decreased the tree value by {-gain!r}")
    node = Internal(variable, children, gain)
    parent = tree.open.pop(leaf)
    if parent is None:
        tree.root = node
    else:
        parent.children[leaf.context[-1][1]] = node
    kept = [c for c in children.values() if not c.pruned]
    if len(exts) > 1:
        prefix = (slice(None),) * [v.name for v in exts].index(variable)  # axes before it
        for j, c in enumerate(children.values()):
            if not c.pruned:
                tree.open[c] = node
                if leaf.joint is not None:
                    c.joint = leaf.joint[prefix + (j,)]
    leaf.joint = leaf.uncharged = None
    tree.internals += 1
    tree.leaves += len(kept) - 1
    _add_exact(tree.partials, -(leaf.value * leaf.reach))
    for c in kept:
        _add_exact(tree.partials, c.value * c.reach)
    return node


def apply_policy(tree: DecisionTree, state: dict[str, str]) -> str:
    """Action prescribed for a complete information state."""
    missing = [v.name for v in tree.predecessors if v.name not in state]
    if missing:
        raise ValueError(f"incomplete information state, missing {missing}")
    return find_leaf(tree, state).action


def to_table(tree: DecisionTree) -> list[dict]:
    """Tabular decision function: one row per information state."""
    rows = []
    for combo in product(*(v.outcomes for v in tree.predecessors)):
        state = {v.name: o for v, o in zip(tree.predecessors, combo)}
        leaf = find_leaf(tree, state)
        rows.append({"state": state, "action": leaf.action,
                     "value_normalized": leaf.value,
                     "value_raw": tree.denormalize(leaf.value)})
    return rows


def vertex_to_json(vertex: Vertex) -> dict:
    if isinstance(vertex, Leaf):
        return {"action": vertex.action, "value": vertex.value,
                "prob": vertex.reach, "pruned": vertex.pruned}
    return {"var": vertex.variable,
            "children": {o: vertex_to_json(c) for o, c in vertex.children.items()}}


def policy_json(tree: DecisionTree) -> dict:
    value = tree_value(tree)
    return {"decision": tree.decision,
            "value_normalized": value,
            "value_raw": tree.denormalize(value),
            "tree": vertex_to_json(tree.root)}


def dumps_policy(tree: DecisionTree) -> str:
    return json.dumps(policy_json(tree), indent=2)
