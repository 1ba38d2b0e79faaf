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

Trees are single-owner mutable values.  A tree starts as one leaf
(init_tree) and grows by extend, grow or grow_drawn.  It maps its open
leaves, those that can still be extended, to their parents, None for the
root (DecisionTree.open).  Every test of whether a leaf can be extended
reads it, so a leaf of another tree, or one already replaced, is not
open.  The links live in the tree, not in the vertices, so that no
vertex refers back up and a dropped tree is freed at once, not by the
cycle collector.

An open leaf carries its context checked once (engine.CheckedContext:
its findings as outcome indices, its missing predecessors and, once the
engine has it, its leaf joint), which every exploration of the leaf
calibrates and a stacked pass reads its candidates from.  init_tree has
the engine check the root's context, whose calibration contracts the
root's joint; below it, every joint is a slice of its parent's (extend:
CheckedContext.child; grow, grow_drawn: a gather of the level's stack), so
on a star topology the root's joint is the one contraction of a run and
the root's findings the only ones checked.

Leaf by leaf, a leaf allocates nothing more until it is explored.  Then it
keeps one record (Explored): the row (engine.Row) of every candidate known
for it, and the gain of each candidate the counters were charged for.  A
candidate is charged, and its gain computed, once, when first read
(_explore, shared by best_extension, evi and extend), with the others not
yet charged, in one read on the leaf's calibration (Calibration.rows).
_stack records the rows of one stacked pass per joint shape
(engine.stack_rows) uncharged.  best_extension stacks a leaf's siblings on
its first exploration, since a run that may stop early would strand a
larger group's work uncharged; in a run that will explore every open
leaf, random_extension stacks the leaf's cohort, every open leaf whose
joint has its shape: it charges one candidate per leaf, so it strands
k - 1 of k stacked results anyway.

A greedy run that will explore every open leaf need not go leaf by leaf:
a leaf's greedy split depends only on its own context, so the serving
order changes the trace, not the tree.  From a root that is open and
holds its joint (growable), grow puts every split in place at once,
breadth-first, reading each level, the root's included, in one charged
stacked pass per joint shape (Engine.explore_stack).  It makes a Leaf or
Internal only for a vertex of the grown tree, and for each split a record
(Grown) from which refine replays the run, in any order.  A random run
that will explore every open leaf is drawn first where, besides, no child
can be pruned (drawable, refine.draw); grow_drawn then puts its splits in
place alike, reading only each context's drawn candidate, one stacked
pass per joint shape and drawn axis.  Any other run goes leaf by leaf.

A tree keeps its internal-vertex and leaf counts and its value up to date
as extend() and grow() grow it, so reading them costs no walk.  The
value is one exact integer, the sum of every leaf's value * reach scaled
by 2**1074 (every finite float is a multiple of 2**-1074), read out by one
integer division, which Python rounds correctly: it equals math.fsum of
the products, whatever the order in which the leaves were made.
"""

from __future__ import annotations

import json
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

import numpy as np

from .diagram import Variable
from .engine import ZERO_PROB, CheckedContext, Engine, Row, stack_rows

Context = tuple[tuple[str, str], ...]


class Explored(NamedTuple):
    """A leaf's record: the row of each candidate evaluated for it, and the
    gain of each charged to the counters; a candidate is charged exactly
    when it has one."""
    evaluations: dict[str, Row]
    gains: dict[str, float]


@dataclass(eq=False, slots=True)
class Leaf:
    action: str
    value: float   # normalized expected value of action in this context
    reach: float   # probability of the context
    context: Context
    pruned: bool = False
    # kept by the tree: an open leaf's checked context (with its leaf joint), and its record
    checked: CheckedContext | None = field(default=None, init=False, repr=False)
    explored: Explored | None = field(default=None, init=False, repr=False)


@dataclass(eq=False)
class Internal:
    variable: str
    children: dict[str, "Vertex"]  # outcome label -> child, declaration order
    gain: float  # tree-value increase recorded when this vertex was created


Vertex = Union[Leaf, Internal]

_SCALE = 2 ** 1074  # every finite float times this is an integer


def _exact(x: float) -> int:
    n, d = x.as_integer_ratio()  # x * 2**1074 exactly, as d = 2**k with k <= 1074
    return n << (1075 - d.bit_length())


@dataclass(eq=False)
class DecisionTree:
    decision: str
    actions: tuple[str, ...]
    predecessors: tuple[Variable, ...]
    u_min: float
    u_max: float
    root: Vertex
    # running statistics, kept current by extend() and grow(); see tree_value
    internals: int = field(init=False)
    leaves: int = field(init=False)      # non-pruned
    exact: int = field(init=False, repr=False)  # the value times 2**1074
    open: dict[Leaf, Internal | None] = field(init=False, repr=False)  # leaf -> parent

    def __post_init__(self) -> None:
        if not isinstance(self.root, Leaf):
            raise TypeError(f"a tree starts as a Leaf (init_tree), not {type(self.root).__name__}")
        self.internals, self.leaves = 0, 1
        self.exact = _exact(self.root.value * self.root.reach)
        self.open = {self.root: None} if self.predecessors else {}

    def denormalize(self, value: float) -> float:
        return value * (self.u_max - self.u_min) + self.u_min


def init_tree(engine: Engine, decision: str) -> DecisionTree:
    """Single-leaf tree holding the best unconditional action, two passes:
    the calibration of the empty context and a value pass on it
    (Calibration.best_action), which reads the root's leaf joint and keeps
    it on the root's context.  An open root keeps that context for its first
    exploration.
    """
    net = engine.network
    root = engine.context(decision, {})  # checks the decision before the calibration charges
    action, value = engine.calibrate(root).best_action()
    tree = DecisionTree(decision, net.outcomes[decision], net.diagram.predecessors(decision),
                        net.u_min, net.u_max, Leaf(action, value, 1.0, ()))
    if tree.root in tree.open:
        tree.root.checked = root
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


def tree_counts(tree: DecisionTree) -> tuple[int, int]:
    """(internal vertices, non-pruned leaves)."""
    return tree.internals, tree.leaves


def tree_value(tree: DecisionTree) -> float:
    """Expected value: sum over non-pruned leaves of value times reach,
    correctly rounded, so the same float whatever the extension order."""
    return tree.exact / _SCALE


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


def open_context(tree: DecisionTree, leaf: Leaf, variable: str | None = None) -> CheckedContext:
    """The open leaf's checked context, whose ``missing`` names its
    extensions in declaration order; raises ValueError, before anything is
    charged, unless the leaf is open and has variable (if given)."""
    if leaf not in tree.open:
        if leaf.pruned:
            raise ValueError("a pruned leaf cannot be extended")
        if not extensions(tree, leaf):
            raise ValueError("leaf context already contains every predecessor")
        raise ValueError("leaf does not belong to this tree")
    if variable is not None and variable not in leaf.checked.missing:
        raise ValueError(f"{variable!r} is not a possible extension of this leaf")
    return leaf.checked


def _explore(leaf: Leaf, names: tuple[str, ...], engine: Engine) -> Explored:
    """The open leaf's record, with the named candidates charged, and their
    gains recorded.  Those not yet charged are charged in one read on the
    leaf's calibration, of a stacked pass's rows if one made them."""
    record = leaf.explored or Explored({}, {})
    todo = [name for name in names if name not in record.gains] if record.gains else names
    if todo:
        known = record.evaluations
        # a stacked pass evaluated every candidate, or none
        stacked = [known[name] for name in todo] if todo[0] in known else None
        rows = engine.calibrate(leaf.checked).rows(todo, stacked)
        if stacked is None:
            known.update(zip(todo, rows))
        leaf.explored = record
        for name, row in zip(todo, rows):
            record.gains[name] = _gain(leaf, row)
    return record


def _stack(leaves: Iterable[Leaf]) -> None:
    """Record every candidate's rows, uncharged, on each of the given
    unexplored leaves whose contexts hold joints, one stacked pass per joint
    shape (stack_rows); a leaf alone in its shape, or of probability zero,
    is left to be explored alone."""
    shapes: dict[tuple[int, ...], list[Leaf]] = {}
    for leaf in leaves:
        if leaf.explored is None and leaf.checked.joint is not None:
            shapes.setdefault(leaf.checked.shape, []).append(leaf)
    for group in shapes.values():
        if len(group) > 1:
            for c, rows in zip(group, stack_rows([m.checked.joint for m in group])):
                if rows is not None:
                    c.explored = Explored(dict(zip(c.checked.missing, rows)), {})


def _gain(leaf: Leaf, row: Row) -> float:
    """Tree-value increase from swapping the leaf for the extension of this row."""
    total = 0.0
    for p, v in zip(row[1], row[2]):
        reach = leaf.reach * p
        if reach >= ZERO_PROB:
            total += v * reach
    return total - leaf.value * leaf.reach


def evi(tree: DecisionTree, leaf: Leaf, variable: str, engine: Engine) -> float:
    """Expected value of improvement from extending the leaf on a variable.

    Leaves the tree unchanged; the result is reach-weighted so values are
    comparable across leaves, and is never below -1e-9.
    """
    open_context(tree, leaf, variable)
    return _explore(leaf, (variable,), engine).gains[variable]


def best_extension(tree: DecisionTree, leaf: Leaf, engine: Engine) -> tuple[str, float]:
    """Greedy choice: the extension with the largest improvement.

    Charges every candidate (ties break by declaration order), so a
    following extend() issues no queries: one calibration pass plus two
    passes per candidate not charged yet.  The first exploration of a leaf
    evaluates its unexplored siblings with it (see the module docstring).
    """
    names = open_context(tree, leaf).missing
    parent = tree.open[leaf]
    if leaf.explored is None and parent is not None:
        _stack([c for c in parent.children.values() if c in tree.open])
    gains = _explore(leaf, names, engine).gains
    best = max(names, key=gains.__getitem__)  # the first of equal maxima
    return best, gains[best]


def random_extension(tree: DecisionTree, leaf: Leaf, engine: Engine,
                     rng: np.random.Generator, *, cohort: bool = False) -> str:
    """Random choice: an extension drawn uniformly, in declaration order.

    Charges nothing; the extend() that follows charges one calibration pass
    plus two passes for the drawn candidate.  With ``cohort`` (only for a
    caller that will explore every open leaf), the leaf's cohort is first
    evaluated in one stacked pass (see the module docstring), and extend
    reads the drawn candidate from it; the draw is the same either way.
    """
    names = open_context(tree, leaf).missing
    if cohort and leaf.explored is None and leaf.checked.joint is not None:
        shape = leaf.checked.shape  # explored is tested first: most open leaves are
        _stack([c for c in tree.open if c.explored is None and c.checked.shape == shape])
    return names[int(rng.integers(len(names)))]


def extend(tree: DecisionTree, leaf: Leaf, variable: str, engine: Engine) -> Internal:
    """Replace an open leaf with an internal vertex over one extension variable.

    Children below the zero-probability threshold are marked pruned and
    inherit the parent leaf's action.  Reuses the leaf's record when the
    candidate was charged before; otherwise costs one calibration pass plus
    two passes for it.  The children that are not pruned and can still be
    extended become open, each with the leaf's context plus the child's
    outcome (CheckedContext.child); the leaf leaves tree.open and drops its
    context.  A call that raises leaves the tree as it was."""
    checked = open_context(tree, leaf, variable)
    record = _explore(leaf, (variable,), engine)
    gain = record.gains[variable]
    if gain < -1e-9:
        raise RuntimeError(f"extension decreased the tree value by {-gain!r}")
    (best, probs, values), node = record.evaluations[variable], Internal(variable, {}, gain)
    outcomes, stays_open = checked.network.outcomes[variable], len(checked.missing) > 1
    for j, (outcome, p, a, value) in enumerate(zip(outcomes, probs, best, values)):
        reach = leaf.reach * p
        context = leaf.context + ((variable, outcome),)
        if reach < ZERO_PROB:
            node.children[outcome] = Leaf(leaf.action, 0.0, reach, context, pruned=True)
            continue
        child = node.children[outcome] = Leaf(tree.actions[a], value, reach, context)
        tree.leaves += 1
        tree.exact += _exact(value * reach)
        if stays_open:
            tree.open[child] = node
            child.checked = checked.child(variable, j)
    tree.internals, tree.leaves = tree.internals + 1, tree.leaves - 1
    tree.exact -= _exact(leaf.value * leaf.reach)
    _place(tree, leaf, node)
    return node


def _place(tree: DecisionTree, leaf: Leaf, node: Internal) -> None:
    """Put the vertex in the open leaf's place, uncounted; the leaf leaves
    tree.open and drops its checked context, and with it its leaf joint."""
    parent = tree.open.pop(leaf)
    if parent is None:
        tree.root = node
    else:
        parent.children[leaf.context[-1][1]] = node
    leaf.checked = None


# A split grow put in place of a leaf, as refine's replay serves it: gain and
# variable, the leaf's context size, what exploring the leaf charged, the changes
# in the non-pruned leaf count and exact value, the splits of the leaves it opened.
Grown = namedtuple("Grown", "gain variable depth fine passes leaves exact opened")


def grow(tree: DecisionTree, engine: Engine) -> Grown:
    """Put the greedy split of the root, and of every leaf below it that
    would be open, in place, bringing the counts and the value up to date;
    returns the root's split (see the module docstring).  The tree must be
    as init_tree made it and growable.  Each level, the root's included, is
    read in one stacked pass per joint shape (Engine.explore_stack), each
    context charged as best_extension would charge it and split on the
    first of its equal maximum gains, computed as _gain computes them; a
    negative gain raises RuntimeError.  A call that raises,
    ZeroProbabilityError for a root of probability zero, leaves the tree as
    it was.
    """
    outcomes, labels, root = engine.network.outcomes, tree.actions, tree.root
    # joint shape -> (joints, entries); an entry holds missing predecessors, context, action,
    # the dict and key its split goes in, the list its record goes in (siblings in order),
    # reach, value * reach, its _exact
    placed, heads, t = {}, [], root.value * root.reach
    level = {root.checked.shape: ([root.checked.joint[None]], [
        (root.checked.missing, root.context, root.action, placed, root, heads, root.reach, t,
         _exact(t))])}
    internals = leaves = exact = 0
    while level:
        below: dict = {}
        for joints, entries in level.values():
            stack = np.concatenate(joints) if len(joints) > 1 else joints[0]
            rows, fine, passes = engine.explore_stack(stack)
            runs = defaultdict(lambda: ([], [], []))  # per candidate: contexts split, born, kept
            for s, ((names, context, action, parent, at, records, reach, base, scaled),
                    candidates) in enumerate(zip(entries, rows)):
                for i, (_, probs, values) in enumerate(candidates):
                    total = 0.0
                    for p, v in zip(probs, values):
                        r = reach * p
                        if r >= ZERO_PROB:
                            total += v * r
                    total -= base
                    if not i or total > gain:  # the first of equal maxima
                        k, gain = i, total
                if gain < -1e-9:
                    raise RuntimeError(f"extension decreased the tree value by {-gain!r}")
                variable, (best, probs, values) = names[k], candidates[k]
                rest, node = names[:k] + names[k + 1:], Internal(variable, {}, gain)
                parent[at] = node
                split_here, born, kept = runs[k]
                split_here.append(s)
                opened, count, change = [], 0, -scaled
                for o, a, p, v in zip(outcomes[variable], best, probs, values):
                    r, c = reach * p, context + ((variable, o),)
                    kept.append(r >= ZERO_PROB)
                    if not kept[-1]:
                        node.children[o] = Leaf(action, 0.0, r, c, pruned=True)
                        continue
                    t = v * r
                    e, count = _exact(t), count + 1
                    change += e
                    if rest:  # the split a level below takes its place
                        node.children[o] = None
                        born.append((rest, c, labels[a], node.children, o, opened, r, t, e))
                    else:
                        node.children[o] = Leaf(labels[a], v, r, c)
                records.append(Grown(gain, variable, len(context), fine, passes, count - 1,
                                     change, opened))
                internals, leaves, exact = internals + 1, leaves + count - 1, exact + change
            for k, (split_here, born, kept) in runs.items():
                if born:  # the children's joints, copied in C order, which decides how sums add
                    shape = stack.shape[1:1 + k] + stack.shape[2 + k:]
                    axes = (0, 1 + k, *(i for i in range(1, stack.ndim) if i != 1 + k))
                    joints, more = below.setdefault(shape, ([], []))
                    joints.append(stack[split_here].transpose(axes).reshape(-1, *shape)[kept])
                    more += born
        level = below
    _place(tree, root, placed[root])
    tree.internals, tree.leaves = tree.internals + internals, tree.leaves + leaves
    tree.exact += exact
    return heads[0]


def grow_drawn(tree: DecisionTree, engine: Engine, drawn: list) -> None:
    """Put every split of a random run drawn first (refine.draw) in place,
    as grow does, each on the axis its plan drew, and append its record
    (opened empty) to its plan: [axis, the children's plans if they split in
    turn], ``drawn`` the root's.  The tree must be as init_tree made it and
    drawable, so no child is pruned.  Each level is read in one stacked pass
    per joint shape and axis, each context charged as extend charges it."""
    outcomes, labels, root = engine.network.outcomes, tree.actions, tree.root
    # (joint shape, axis) -> (joints, entries); an entry holds its plan, missing predecessors,
    # context, the dict and key its split goes in, reach, value * reach, its _exact
    placed, t = {}, root.value * root.reach
    level = {(None, drawn[0]): ([root.checked.joint[None]], [
        (drawn, root.checked.missing, root.context, placed, root, root.reach, t, _exact(t))])}
    internals = leaves = exact = 0
    while level:
        below: dict = {}
        for (_, k), (joints, entries) in level.items():
            stack = np.concatenate(joints) if len(joints) > 1 else joints[0]
            rows, fine, passes = engine.explore_stack(stack, k)
            groups = defaultdict(lambda: ([], []))  # per axis drawn below: children, entries
            for s, ((plan, names, context, parent, at, reach, base, scaled),
                    ((best, probs, values),)) in enumerate(zip(entries, rows)):
                gain = 0.0
                for p, v in zip(probs, values):
                    gain += v * (reach * p)
                gain -= base
                if gain < -1e-9:
                    raise RuntimeError(f"extension decreased the tree value by {-gain!r}")
                variable, rest = names[k], names[:k] + names[k + 1:]
                node, change = Internal(variable, {}, gain), -scaled
                parent[at] = node
                for j, (o, a, p, v) in enumerate(zip(outcomes[variable], best, probs, values)):
                    r, c = reach * p, context + ((variable, o),)
                    t = v * r
                    e = _exact(t)
                    change += e
                    if rest:  # the split a level below takes its place
                        children, more = groups[plan[1][j][0]]
                        children.append(s * len(best) + j)
                        more.append((plan[1][j], rest, c, node.children, o, r, t, e))
                    node.children[o] = None if rest else Leaf(labels[a], v, r, c)
                plan.append(Grown(gain, variable, len(context), fine, passes, len(best) - 1,
                                  change, ()))
                internals, leaves, exact = internals + 1, leaves + len(best) - 1, exact + change
            if groups:  # the children's joints, copied in C order, which decides how sums add
                shape = stack.shape[1:1 + k] + stack.shape[2 + k:]
                axes = (0, 1 + k, *(i for i in range(1, stack.ndim) if i != 1 + k))
                block = stack.transpose(axes).reshape(-1, *shape)
                for axis, (children, more) in groups.items():
                    joints, born = below.setdefault((shape, axis), ([], []))
                    joints.append(block[children])
                    born += more
        level = below
    _place(tree, root, placed[root])
    tree.internals, tree.leaves = tree.internals + internals, tree.leaves + leaves
    tree.exact += exact


def growable(tree: DecisionTree) -> bool:
    """Whether the tree, as init_tree made it, has an open root holding its
    joint, where grow and grow_drawn start."""
    return tree.root in tree.open and tree.root.checked.joint is not None


def drawable(tree: DecisionTree) -> bool:
    """Whether the tree is growable, and its root joint's full contexts
    (summed over decision and proxy, over its total) are all at least
    2 * ZERO_PROB, so no reach rounds below ZERO_PROB."""
    joint = tree.root.checked.joint if growable(tree) else None
    return joint is not None and joint.sum(axis=(-2, -1)).min() >= 2 * ZERO_PROB * joint.sum()


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
