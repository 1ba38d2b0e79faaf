"""Brute-force ground truth over the dense joint.

These oracles never touch the inference engine: the chance tables are
broadcast into one array over every chance and decision variable and
multiplied, with no elimination, and the mass is binned by (information
state, action).  They are the independent reference that the engine and
the refinement algorithms are tested against.

Results are bit-reproducible for a given diagram.  A configuration's
chance weight is 1.0 times the tables in node-declaration order; a joint
of SPLIT_MIN entries or more has its products split where split_product
says (_multiply), each entry the same product of the same floats.  Each
(information state, action) bin adds its terms in the joint's lexicographic
order onto 0.0, as ``np.bincount`` would: with the binned axes last in C
order, each bin is a column whose rows ``ndarray.sum(axis=0)`` adds in
order.  Along a lone axis ``ndarray.sum`` adds pairwise, so a one-column
sum (the multistage value, and the single-decision value's sums over
information states, in state order) runs through ``np.cumsum``, and a
one-row sum is that row plus 0.0.

Decisions other than the queried one are treated as uniform, matching how
an unfixed decision enters the compiled network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .diagram import SPLIT_MIN, ChanceNode, DiagramError, InfluenceDiagram, ValueNode, split_product

DEFAULT_CAP = 1 << 20
# _choose: argmax up to this many states, a column pass above; timed after a
# solve, argmax is 3% faster at 1,024 states, even at 2,048, 5% slower at 4,096
_ARGMAX_STATES = 1024


class StateSpaceCapError(ValueError):
    """Joint enumeration would exceed the configured size cap."""


@dataclass(eq=False)
class OracleResult:
    """The optimal decision function for one decision and its value.

    The per-state arrays run over information states in ``product`` order
    of the predecessors' outcomes.  The label-keyed tables ``table``,
    ``per_state`` and ``state_probs`` are built from them on first read.
    """

    decision: str
    predecessors: tuple[str, ...]
    value: float       # normalized optimal expected value
    raw_value: float
    outcomes: tuple[tuple[str, ...], ...]  # per predecessor
    actions: tuple[str, ...]
    best: np.ndarray          # per state: index of the optimal action
    state_values: np.ndarray  # per state: its normalized value (0.0 if impossible)
    state_masses: np.ndarray  # per state: its probability

    def _keyed(self, values) -> dict[tuple[str, ...], object]:
        return dict(zip(product(*self.outcomes), values))

    @cached_property
    def table(self) -> dict[tuple[str, ...], str]:
        """Information state (outcome labels, predecessor order) -> optimal action."""
        return self._keyed(self.actions[a] for a in self.best.tolist())

    @cached_property
    def per_state(self) -> dict[tuple[str, ...], float]:
        """Normalized value of the best action (0.0 for impossible states)."""
        return self._keyed(self.state_values.tolist())

    @cached_property
    def state_probs(self) -> dict[tuple[str, ...], float]:
        return self._keyed(self.state_masses.tolist())


@dataclass(eq=False)
class MultistageOracleResult:
    tables: dict[str, dict[tuple[str, ...], str]]
    value: float
    raw_value: float


def _layout(diagram: InfluenceDiagram, cap: int):
    """Joint axes: one per chance or decision variable, declaration order."""
    names = [n for n, nd in diagram.nodes.items() if not isinstance(nd, ValueNode)]
    doms = tuple(diagram.variable(n).arity for n in names)
    if math.prod(doms) > cap:
        raise StateSpaceCapError(
            f"joint state space {math.prod(doms)} exceeds cap {cap}")
    return doms, {n: i for i, n in enumerate(names)}


def _argsort(seq) -> list[int]:
    """np.argsort of a short list, without the cost of making it an array."""
    return sorted(range(len(seq)), key=seq.__getitem__)


def _spread(table: np.ndarray, axes, doms) -> np.ndarray:
    """``table`` (one axis per joint axis in ``axes``) broadcastable over the joint."""
    shape = [1] * len(doms)
    for ax in axes:
        shape[ax] = doms[ax]
    return table.transpose(_argsort(axes)).reshape(shape)


def _index(axes, doms) -> np.ndarray:
    """Lexicographic index of the variables on ``axes`` (first slowest),
    broadcastable over the joint."""
    sizes = [doms[ax] for ax in axes]
    return _spread(np.arange(math.prod(sizes)).reshape(sizes), axes, doms)


def _multiply(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """a * b, into ``out`` if given (b an array of a's ndim, or a float with
    ``out``), split where split_product says; for joints over SPLIT_MIN."""
    if out is None:
        if a.size * b.size < SPLIT_MIN:  # no smaller than a * b, read at no cost
            return a * b
        out = np.empty(tuple(map(max, a.shape, b.shape)))
    cuts = split_product(a.shape, getattr(b, "shape", (1,) * a.ndim), out.shape)
    if cuts is None:
        return np.multiply(a, b, out=out)
    for left, right, at in cuts:
        np.multiply(a[left], b[right] if right else b, out=out[at])
    return out


def _joint(diagram: InfluenceDiagram, doms, pos):
    """Chance weight of every joint configuration and the utility, each
    broadcastable over the joint (size 1 on an axis none of its tables spans)."""
    multiply = _multiply if math.prod(doms) >= SPLIT_MIN else np.multiply
    p = np.ones((1,) * len(doms))
    for name, node in diagram.nodes.items():
        if isinstance(node, ChanceNode):
            p = multiply(p, _spread(node.cpt, [pos[q] for q in (*node.parents, name)], doms))
    value = diagram.value_node
    return p, _spread(value.utility, [pos[q] for q in value.parents], doms)


def _state_action(p, u, weight, doms, states, action):
    """Bin the weighted joint by (information state on axes ``states``,
    action on axis ``action``): (num, den) as (#states, #actions) arrays,
    den summing p * weight and num the same mass times u."""
    axes = [*states, action]
    order = [ax for ax in range(len(doms)) if ax not in axes] + axes
    # C order over (the other axes, the binned axes): each bin is a column,
    # its rows in the joint's order; np.multiply writes through the view
    binned = np.empty([doms[ax] for ax in order])
    multiply = _multiply if binned.size >= SPLIT_MIN else np.multiply
    mass = multiply(p, weight, binned.transpose(_argsort(order)))
    rows = binned.reshape(-1, math.prod(doms[ax] for ax in axes))
    den = _sequential_sum(rows).reshape(-1, doms[action])
    mass *= u
    return _sequential_sum(rows).reshape(den.shape), den


def _sequential_sum(x: np.ndarray):
    """x[0] + x[1] + ... along axis 0, onto 0.0 in order, as a loop adds;
    ndarray.sum does so only over two or more columns, else adds pairwise."""
    if len(x) == 1:  # one pass, not a sum and then a pass adding 0.0
        return x[0] + 0.0
    total = x.sum(axis=0) if x.ndim == 2 and x.shape[1] > 1 else np.cumsum(x, axis=0)[-1]
    total += 0.0  # an all -0.0 sum reads 0.0, as it does from 0.0
    return total


def _choose(num, den):
    """Per state: the best action (first on ties, 0 if impossible) and E[u]
    of every action (-inf where impossible)."""
    eu = np.divide(num, den, out=np.full_like(num, -np.inf), where=den > 0.0)
    if len(eu) <= _ARGMAX_STATES:  # argmax(axis=1) makes one call per state
        return eu.argmax(axis=1), eu
    best, top = np.zeros(len(eu), dtype=np.intp), eu[:, 0]
    for a in range(1, eu.shape[1]):  # the first maximum, as argmax (no NaN here)
        best += (eu[:, a] > top) * (a - best)
        top = np.maximum(top, eu[:, a])
    return best, eu


def state_action_values(diagram: InfluenceDiagram, decision: str,
                        cap: int = DEFAULT_CAP):
    """Raw E[u | state, action] and state probabilities by enumeration.

    Every decision other than the queried one is weighted uniformly.
    Returns (predecessor variables, num, den) where num/den are arrays of
    shape (#states, #actions): den[w, a] is P(state w, uniform others) and
    num[w, a] the corresponding utility mass.
    """
    preds = diagram.predecessors(decision)  # raises unless it is a decision node
    doms, pos = _layout(diagram, cap)
    uniform = math.prod(1.0 / diagram.variable(e).arity
                        for e in diagram.decisions if e != decision)
    p, u = _joint(diagram, doms, pos)
    num, den = _state_action(p, u, uniform, doms, [pos[v.name] for v in preds],
                             pos[decision])
    return preds, num, den


def oracle_optimal(diagram: InfluenceDiagram, decision: str | None = None,
                   cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact optimal tabular decision function for one decision, with none
    named the diagram's only one (resolve_decision).

    Ties break by action declaration order; impossible states get the
    first action and a zero value contribution.
    """
    decision = diagram.resolve_decision(decision)
    preds, num, den = state_action_values(diagram, decision, cap)
    u = diagram.value_node.utility
    u_min, u_max = float(u.min()), float(u.max())
    span = u_max - u_min

    best, eu = _choose(num, den)
    chosen = np.arange(0, num.size, num.shape[1]) + best  # flat index of (state, best)
    # den already marginalizes everything but the fixed own action, so for
    # a state over non-descendants it equals P(state) directly
    mass = den.take(chosen)  # >= 0; exactly 0.0 for an impossible state
    impossible = mass == 0.0
    eu = eu.take(chosen)
    eu[impossible] = 0.0  # no 0 * -inf below
    if span == 0.0:
        value, raw_value = 0.5, u_min
        state_values = np.where(impossible, 0.0, 0.5)
    else:
        raw_value = float(_sequential_sum(mass * eu))
        value = (raw_value - u_min * float(_sequential_sum(mass))) / span
        state_values = (eu - u_min) / span
        state_values[impossible] = 0.0
    return OracleResult(decision, tuple(v.name for v in preds), value, raw_value,
                        tuple(v.outcomes for v in preds),
                        diagram.variable(decision).outcomes, best, state_values, mass)


def oracle_optimal_multistage(diagram: InfluenceDiagram,
                              cap: int = DEFAULT_CAP) -> MultistageOracleResult:
    """Exhaustive backward induction over full information states.

    Processes decisions last to first; while computing a decision, later
    decisions act by their already-computed tables and earlier ones are
    weighted uniformly (they may still appear in the conditioning state).
    """
    doms, pos = _layout(diagram, cap)
    order = diagram.decision_order
    if not order:
        raise DiagramError("diagram has no decision node")
    p, u = _joint(diagram, doms, pos)

    chosen: dict[str, np.ndarray] = {}
    consistent = True  # later decisions act by their tables
    for k in range(len(order) - 1, -1, -1):
        d = order[k]
        uniform = math.prod(1.0 / diagram.variable(e).arity for e in order[:k])
        states = [pos[v.name] for v in diagram.predecessors(d)]
        num, den = _state_action(p, u, uniform * consistent, doms, states, pos[d])
        chosen[d] = _choose(num, den)[0]
        acted = chosen[d][_index(states, doms)]
        consistent = consistent & (_index([pos[d]], doms) == acted)
    raw_value = float(_sequential_sum((p * consistent * u).ravel()))

    utility = diagram.value_node.utility
    u_min, u_max = float(utility.min()), float(utility.max())
    span = u_max - u_min
    value = 0.5 if span == 0.0 else (raw_value - u_min) / span

    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for d in order:
        actions = diagram.variable(d).outcomes
        states = product(*(v.outcomes for v in diagram.predecessors(d)))
        tables[d] = {labels: actions[a] for labels, a in zip(states, chosen[d])}
    return MultistageOracleResult(tables, value, raw_value)
