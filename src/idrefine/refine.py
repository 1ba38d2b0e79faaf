"""The anytime refinement loop.

Starting from a single-leaf tree (tree.init_tree, where every tree
starts), repeatedly choose a leaf, choose an extension variable for it,
and extend, until a stopping rule fires or no open leaf remains.  Every
intermediate tree is a usable policy; the trace records value and query
cost after the initial tree and after each extension.

Leaf choice and extension choice are orthogonal and pluggable:

* leaf strategies: ``posthoc`` (a max-gain priority queue over the
  extensions made; all leaves an extension opened are served before the
  queue is consulted again; ties break by seeded RNG) or ``random``
  (uniform over the open leaves, drawn from a list kept in depth-first
  order: each extension's opened leaves are spliced in where the leaf it
  replaced stood, so no draw rescans the tree);
* extension strategies: ``greedy`` (best improvement, all candidates
  charged and recorded) or ``random`` (uniform over candidates, only the
  drawn one charged).  Each run stacks the leaves it will read, one pass
  per joint shape.  A bounded greedy run stacks a leaf's unexplored
  siblings with it, so that a stop strands little stacked work; a bounded
  random run stacks none.  In a run with no bound, which explores every
  open leaf, random extension leaf by leaf stacks the leaf's cohort, and
  grown and drawn runs each whole level (below).

A run with no bound is grown or drawn only from the root's held joint
(tree.growable), and otherwise goes leaf by leaf.  A greedy one is grown:
a greedy split depends only on the leaf's own context, so tree.grow
first puts every split in place, charging each leaf as best_extension
would; then the loop replays the run from grow's records, serving them
in the leaf strategy's order, one selector step and one trace record per
extension.  A random one is drawn where, besides, no child can be pruned
(tree.drawable): draw makes every draw first, then tree.grow_drawn puts
every split in place, and the loop serves their records as drawn.
Either way the trace, the tree, the counters and the observer's events
are those of extending leaf by leaf, but every query, and any error one
raises (a context of probability zero, a split that lowers the value),
comes before the first event reaches the observer.  A bounded run would
compute splits past its stop, and posthoc leaf choice reads random
splits' gains, so neither grows.

A fixed seed makes a run fully deterministic.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .engine import Engine
from .tree import (_SCALE, DecisionTree, Grown, best_extension, drawable, extend, grow,
                   grow_drawn, growable, init_tree, random_extension, tree_counts, tree_value)

CSV_HEADER = "iteration,fine_queries,passes,internal_vertices,leaves,value_normalized,value_raw"

LEAF_STRATEGIES = ("posthoc", "random")
EXTENSION_STRATEGIES = ("greedy", "random")


@dataclass
class StoppingRule:
    """When to stop refining: at the first bound reached, or, with no bound
    (``unbounded``), when the tree is complete, which run_to_complete must
    then ask for; with a bound, run_to_complete changes nothing."""

    max_extensions: int | None = None
    max_passes: int | None = None
    min_evi: float | None = None
    run_to_complete: bool = False

    def __post_init__(self):
        if not self.run_to_complete and self.unbounded:
            raise ValueError("stopping rule needs at least one bound or run_to_complete")
        for name, bound in (("max_extensions", self.max_extensions),
                            ("max_passes", self.max_passes)):
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must not be negative, got {bound}")
        if self.min_evi is not None and math.isnan(self.min_evi):
            raise ValueError("min_evi must be a number, got nan")

    def budget_reached(self, iterations: int, engine: Engine) -> bool:
        if self.max_extensions is not None and iterations >= self.max_extensions:
            return True
        if self.max_passes is not None and engine.counter.passes >= self.max_passes:
            return True
        return False

    @property
    def unbounded(self) -> bool:
        """True when no bound is set, so a run explores every open leaf."""
        return self.max_extensions is None and self.max_passes is None and self.min_evi is None


@dataclass
class RefinementConfig:
    leaf_strategy: str = "posthoc"
    extension_strategy: str = "greedy"
    stop: StoppingRule = field(default_factory=lambda: StoppingRule(run_to_complete=True))
    seed: int = 0

    def __post_init__(self):
        if self.leaf_strategy not in LEAF_STRATEGIES:
            raise ValueError(f"unknown leaf strategy {self.leaf_strategy!r}")
        if self.extension_strategy not in EXTENSION_STRATEGIES:
            raise ValueError(f"unknown extension strategy {self.extension_strategy!r}")
        if self.stop.min_evi is not None and self.extension_strategy != "greedy":
            raise ValueError("min_evi stopping applies to the greedy extension strategy only")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


class TraceRecord(NamedTuple):
    iteration: int
    fine_queries: int
    passes: int
    internal_vertices: int
    leaves: int
    value_normalized: float
    value_raw: float


@dataclass
class AnytimeTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.iteration},{r.fine_queries},{r.passes},"
                         f"{r.internal_vertices},{r.leaves},"
                         f"{r.value_normalized!r},{r.value_raw!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExtensionEvent:
    """Per-extension instrumentation passed to an observer callback."""

    iteration: int
    context_size: int
    variable: str
    gain: float
    fine_delta: int
    passes_delta: int


class PosthocSelector:
    """Serve leaves under the internal vertex whose creation gained most.

    Each extension is notified once, with its gain and the leaves it
    opened, served in order when its turn comes; equal gains break at
    random (seeded).  The leaves it starts with are served first.  A leaf
    is whatever the caller extends: a Leaf, or the split grown for it.
    """

    def __init__(self, leaves: list, rng: np.random.Generator):
        self._rng = rng
        self._seq = count()
        self._heap: list[tuple[float, float, int, list]] = []
        self._pending: deque = deque(leaves)

    def notify_extended(self, gain: float, opened: list) -> None:
        tie = self._rng.random()  # one draw per extension, whatever it opened
        if opened:
            heapq.heappush(self._heap, (-gain, tie, next(self._seq), opened))

    def next_leaf(self):
        while not self._pending:
            if not self._heap:
                return None
            self._pending.extend(heapq.heappop(self._heap)[3])
        return self._pending.popleft()


class RandomLeafSelector:
    """Uniform choice over the open leaves.

    Given the open leaves in depth-first order, the order of iter_leaves,
    it keeps them so: the leaves each extension opened are spliced in where
    the leaf last served stood, so a seeded draw picks the same leaf as an
    index into a fresh scan would.  notify_extended must follow the
    next_leaf whose leaf was extended.
    """

    def __init__(self, leaves: list, rng: np.random.Generator):
        self._rng = rng
        self._leaves = list(leaves)
        self._served: int | None = None

    def notify_extended(self, gain: float, opened: list) -> None:
        i, self._served = self._served, None  # a second call fails on None
        self._leaves[i:i + 1] = opened

    def next_leaf(self):
        if not self._leaves:
            return None
        self._served = int(self._rng.integers(len(self._leaves)))
        return self._leaves[self._served]


def draw(tree: DecisionTree, engine: Engine, rng: np.random.Generator) -> list[Grown]:
    """The records of a random run with no bound on a tree that drawable
    accepts, in the order it extends: every leaf and variable is drawn
    first, on plans (tree.grow_drawn's) standing for the open leaves, with
    the rng calls of the leaf-by-leaf run in their order; then grow_drawn
    puts every split in place."""
    outcomes, order = engine.network.outcomes, []
    root = [None, None, tree.root.checked.missing]  # a plan, until drawn its missing predecessors
    selector = RandomLeafSelector([root], rng)
    while (plan := selector.next_leaf()) is not None:
        missing = plan.pop()
        plan[0] = k = int(rng.integers(len(missing)))
        rest = missing[:k] + missing[k + 1:]
        plan[1] = [[None, None, rest] for _ in outcomes[missing[k]]] if rest else []
        order.append(plan)
        selector.notify_extended(0.0, plan[1])
    grow_drawn(tree, engine, root)
    return [plan[2] for plan in order]


def refine(engine: Engine, decision: str, config: RefinementConfig | None = None,
           observer: Callable[[ExtensionEvent], None] | None = None,
           ) -> tuple[DecisionTree, AnytimeTrace]:
    """Run the anytime loop for one decision; returns the tree and its trace.

    The trace holds one record for the initial tree and one per extension;
    its value column is non-decreasing.  Budget bounds are checked between
    iterations, so an iteration in flight may overshoot them slightly.
    However the run stops, the leaves still open drop their records of
    exploration and their contexts' leaf joints, so the returned tree does
    not keep the root's joint or any sibling results it was never charged
    for alive; they keep their contexts, so the tree can still be extended.
    A run with no bound may be grown or drawn first (see the module docstring).
    """
    config = config or RefinementConfig()
    rng = np.random.default_rng(config.seed)
    trace = AnytimeTrace()

    tree = init_tree(engine, decision)
    counter = engine.counter
    degenerate = engine.network.degenerate  # any policy is optimal: nothing to explore
    stop, greedy = config.stop, config.extension_strategy == "greedy"
    random_leaf = config.leaf_strategy == "random"
    # with no bound, every open leaf is explored, so every stacked leaf is read
    cohort = stop.unbounded
    # with no bound, a greedy run is grown, and a random one drawn, where it can be
    grown = cohort and not degenerate and (greedy and growable(tree)
                                           or random_leaf and drawable(tree))
    # the counters, counts and value, as each extension changes them
    fine, passes, internals, leaves, exact = *counter.snapshot(), *tree_counts(tree), tree.exact
    iterations, value = 0, tree_value(tree)
    if grown and not greedy:  # every draw is made first; its records are served as drawn
        drawn = iter(draw(tree, engine, rng))
        next_leaf, notify = (lambda: next(drawn, None)), (lambda gain, opened: None)
    else:
        selector = (RandomLeafSelector if random_leaf else PosthocSelector)(
            [grow(tree, engine)] if grown else list(tree.open), rng)
        next_leaf, notify = selector.next_leaf, selector.notify_extended
    while True:
        trace.records.append(TraceRecord(iterations, fine, passes, internals, leaves, value,
                                         tree.denormalize(value)))
        if degenerate or stop.budget_reached(iterations, engine):
            break
        served = next_leaf()
        if served is None:
            break
        if grown:  # what the split grown or drawn in the leaf's place changed
            gain, variable, depth, fine_spent, passes_spent, added, change, opened = served
            fine, passes, internals = fine + fine_spent, passes + passes_spent, internals + 1
            leaves, exact = leaves + added, exact + change
        else:
            leaf, depth = served, len(served.context)
            if greedy:
                variable, gain = best_extension(tree, leaf, engine)
                if stop.min_evi is not None and gain < stop.min_evi:
                    break
            else:
                variable = random_extension(tree, leaf, engine, rng, cohort=cohort)
            node = extend(tree, leaf, variable, engine)
            gain, opened = node.gain, [c for c in node.children.values() if c in tree.open]
            fine_spent, passes_spent = counter.fine - fine, counter.passes - passes
            (fine, passes), (internals, leaves), exact = (counter.snapshot(), tree_counts(tree),
                                                          tree.exact)
        notify(gain, opened)
        iterations += 1
        value = exact / _SCALE
        if observer is not None:
            observer(ExtensionEvent(iterations, depth, variable, gain, fine_spent, passes_spent))
    for leaf in tree.open:
        leaf.checked.joint = leaf.explored = None
    return tree, trace
