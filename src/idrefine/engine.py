"""Exact inference over the compiled chance-only network.

An influence diagram is compiled into a network of chance variables only:
every decision becomes a uniform root variable, and the value node becomes
a binary proxy variable whose true-probability is the utility normalized to
[0, 1].  ChanceNetwork.fix_decision then fixes decisions last to first, each
by swapping its one factor for its contingency table.  Queries are answered
exactly by variable elimination (Zhang & Poole 1994): factors keep the axis
order they are built with, and the order is greedy min-size, searched over a
per-variable index of the variables each shares a factor with.  A query's
plan, the order plus each step's transposes and reshapes onto the step's
axes, depends only on the restricted factors' scopes and shapes, the
targets and the variables' indices, so it is built once and kept in a
bounded process-wide cache.  A step multiplies the factors that mention the
eliminated variable left to right, as broadcast numpy products, and sums
the variable out into a C-contiguous array.  The plan, not each call,
makes a product that diagram.split_product picks one np.multiply per entry
of its short innermost axis; each entry is the same IEEE product.

Query costs are tracked by two counters with join-tree semantics,
independent of the elimination backend:

* ``passes`` counts evidence-conditioned propagation passes: one per
  calibration of a context and one per value pass read from it, and one
  per call of Engine.posteriors or Engine.action_value;
* ``fine`` counts extracted posterior/value numbers; a calibration's leaf
  joint is a lookup and costs nothing.

Exploring a context for a decision works from the context's *leaf joint*:
the unnormalized joint over the decision's predecessors missing from the
context (in declaration order), the decision and the proxy.  A calibration
computes it with one contraction and keeps it on its CheckedContext, and
each candidate's (candidate, decision, proxy) joint is a sum over it.
Sums that keep the (decision, proxy) tail go through _keep, np.einsum on all
but tiny stacks; sums reducing it (_choose) keep ndarray.sum's pairwise order.
Adding the finding X = x to the context slices the leaf joint at x, as new
evidence slices a calibrated clique (Shafer & Shenoy 1990; Jensen,
Lauritzen & Olesen 1990): CheckedContext.child hands the child that slice,
a numpy view, and a calibration of the child contracts and restricts
nothing.  The joint is computed only when it is no larger than the largest
factor restricted to the context, which holds whenever one utility spans
the missing predecessors; otherwise each candidate takes its own
contraction.  The counters charge the same either way.  All of a context's
candidates are evaluated in one call: their joints are stacked by shape
and memory layout, and the argmax, the gather and the divisions (_choose)
run, and are read out, once per stack.

A candidate's result is a Row: per outcome of the candidate, the index of
the maximizing action, P(outcome | context) and that action's normalized
value, as plain lists; it is the only form a result takes.  Contexts whose
leaf joints have one shape, such as siblings, which differ only in the
outcome of one variable, are evaluated together by stack_rows: their leaf
joints are stacked, the stack axis is kept through every sum, and each
stack's contexts x candidates rows are read out at once.  The contexts may
lack different predecessors, as many and of the same arities.  That pass
is uncounted; each context is charged when its calibration reads its rows
(Calibration.rows), the same as evaluating it then, or, with no
calibration made, by Engine.explore_stack, which may read one candidate,
the same axis, per context; and every row is bit-identical to evaluating
that context alone, because a single context goes through the same sums
and _choose as a stack of one.

Findings are outcome labels, checked once per context: Engine.context
checks a caller's evidence for exploring one decision, charging nothing,
and makes a CheckedContext, which holds the findings as outcome indices
and the decision's missing predecessors, the leaf joint's axes before the
decision's.  CheckedContext.child adds one finding on a missing
predecessor, valid by construction, so a tree derives every context below
its root without a check.  Engine.calibrate, the one way into exploring a
context, takes only a CheckedContext checked against its engine's network,
as it is: the type, not the findings' values, decides what is trusted, and
anything else raises before the pass is charged.  A calibration explores
its context's decision.  An action/value pair (best_action) costs 2: the
calibration and a value pass, the candidate with no split, which reads the
joint of decision and proxy (the leaf joint summed over its predecessor
axes) through the same _choose.  Engine.posteriors and Engine.action_value
answer a caller's findings directly: each checks them, charges its one
pass and reads each posterior from its own contraction.

A ChanceNetwork is immutable; per-run query state (counters) lives in an
Engine, which is single-owner.  Distinct engines over one network may run
concurrently.
"""

from __future__ import annotations

import heapq
import math
import string
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .diagram import (ChanceNode, DecisionNode, DiagramError, InfluenceDiagram, ValueNode,
                      split_product)

ZERO_PROB = 1e-12
Row = tuple[list[int], list[float], list[float]]  # per outcome: action, P(outcome), value
# _marginal halves leaf joints of more entries: below, a numpy call costs
# more than halving saves.  The pinned bits depend on it: it is no tuning knob.
_HALVING_MIN = 1024
_EINSUM_MIN = 256  # below it, np.einsum's fixed cost outweighs its gain (_keep)


class ZeroProbabilityError(ValueError):
    """Evidence describes a logically impossible context (probability zero)."""


@dataclass
class QueryCounter:
    """Monotone query-cost counters: nothing lowers them."""

    fine: int = 0
    passes: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.fine, self.passes)


@dataclass(frozen=True)
class PolicyCpt:
    """A decision function encoded as a CPT over (parents..., decision)."""

    parents: tuple[str, ...]
    table: np.ndarray  # axes (*parents, decision outcome)


class _Factor(NamedTuple):
    vars: tuple[str, ...]  # one axis per variable, in this order
    values: np.ndarray


def _restrict(f: _Factor, evidence: Mapping[str, int]) -> _Factor:
    if not any(v in evidence for v in f.vars):
        return f
    slicer = tuple(evidence.get(v, slice(None)) for v in f.vars)
    return _Factor(tuple(v for v in f.vars if v not in evidence), f.values[slicer])


def _elimination_order(scopes: Iterable[tuple[str, ...]], targets: tuple[str, ...],
                       index: Mapping[str, int], doms: Mapping[str, int]) -> list[str]:
    """Greedy min-size elimination order for factors over the given scopes:
    each step eliminates the hidden variable whose elimination makes the
    smallest factor (ties by network index).

    Each variable keeps the set of variables it shares a factor with, and
    each hidden one the size of the factor its elimination would make, kept
    in a heap.  When one is eliminated, its set is merged into each hidden
    neighbour's, whose size alone changes and is pushed anew.
    """
    neighbours: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            neighbours.setdefault(v, set()).update(scope)
    size = {v: math.prod(doms[u] for u in near if u != v)
            for v, near in neighbours.items() if v not in targets}
    heap = [(n, index[v], v) for v, n in size.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        n, _, var = heapq.heappop(heap)
        if size.get(var) != n:  # eliminated, or its size changed since the push
            continue
        del size[var]
        near = neighbours[var]
        for u in near:
            if u in size:
                merged = neighbours[u]
                merged |= near
                merged -= {u, var}
                size[u] = math.prod(doms[w] for w in merged)
                heapq.heappush(heap, (size[u], index[u], u))
        order.append(var)
    return order


class _Step(NamedTuple):
    """One step of a plan: the product of some factors, each transposed and
    reshaped onto the step's axes, then, for an elimination step, a sum
    over axis 0, the eliminated variable.  Factors are numbered in the
    order they arise: the query's factors, then one per step."""

    # (factor, axes, shape, split), the split None or (product shape, split_product's)
    operands: tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple | None], ...]
    inplace: int  # operands from this one on are multiplied into the product in place
    reduce: bool


# Plans are keyed by scopes, not by network: every pooled diagram and every
# fix_decision builds a fresh network, and a two-stage sweep's queries
# share two plans across diagrams.  Where leaf joints are refused, a leaf's
# candidate queries share their plans with its siblings'; 128 covers leaves
# of up to 128 candidates.
_PLANS = 128


def _step(scopes: list[tuple[str, ...]], take: Sequence[int], axes: tuple[str, ...],
          doms: Mapping[str, int], reduce: bool) -> _Step:
    """The product of the factors numbered ``take``, in that order, onto ``axes``."""
    place = {v: a for a, v in enumerate(axes)}
    operands, covered, inplace, product = [], set(), len(take), ()
    for k, i in enumerate(take):
        scope = scopes[i]
        covered.update(scope)
        shape = tuple(doms[v] if v in scope else 1 for v in axes)
        grown = tuple(map(max, product, shape)) if k else shape
        cuts = split_product(product, shape, grown) if k else None
        operands.append((i, tuple(sorted(range(len(scope)), key=lambda a: place[scope[a]])),
                         shape, cuts and (grown, cuts)))
        product = grown
        # the product is first allocated, with every axis, by operand k
        if k and axes and inplace == len(take) and len(covered) == len(axes):
            inplace = k + 1
    return _Step(tuple(operands), inplace, reduce)


@lru_cache(maxsize=_PLANS)
def _plan(scopes: tuple[tuple[str, ...], ...], shapes: tuple[tuple[int, ...], ...],
          targets: tuple[str, ...], ranks: tuple[int, ...]) -> tuple[_Step, ...]:
    """The steps of _query for factors over the given scopes and shapes,
    ``ranks`` being each scope variable's network index, scope by scope.

    Each hidden variable, in _elimination_order, is summed out of the
    product of the live factors that mention it, oldest first; the result,
    axes in index order, is the newest factor.  The last step multiplies
    the live factors, oldest first, onto the targets.
    """
    index = dict(zip((v for scope in scopes for v in scope), ranks))
    doms = {v: n for scope, shape in zip(scopes, shapes) for v, n in zip(scope, shape)}
    made, live, steps = list(scopes), set(range(len(scopes))), []
    holders: dict[str, set[int]] = {}
    for i, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, set()).add(i)
    for var in _elimination_order(scopes, targets, index, doms):
        take = sorted(holders.pop(var))
        kept = tuple(sorted({u for i in take for u in made[i]} - {var}, key=index.__getitem__))
        steps.append(_step(made, take, (var,) + kept, doms, True))
        live.difference_update(take)
        live.add(len(made))
        for u in kept:
            holders[u].difference_update(take)
            holders[u].add(len(made))
        made.append(kept)
    steps.append(_step(made, sorted(live), targets, doms, False))
    return tuple(steps)


def _execute(plan: tuple[_Step, ...], factors: list[np.ndarray]) -> np.ndarray:
    """Run a plan on a list of the factors' values, which it uses up.
    Products multiply operands left to right, eliminations sum axis 0 by
    ndarray.sum, never np.einsum, and each result is C-contiguous: layout
    orders later sums (_marginal, _choose) and groups joints (_evaluate).
    A product the plan splits (_step) is made a slice at a time, in the same
    layout, each entry the same product of the same two floats."""
    for operands, inplace, reduce in plan:
        product = None
        for k, (i, axes, shape, split) in enumerate(operands):
            factor = factors[i].transpose(axes).reshape(shape)
            factors[i] = None  # each factor is used once
            if product is None:
                product = factor
            elif split:
                out = np.empty(split[0]) if k < inplace else product
                for left, right, at in split[1]:
                    np.multiply(product[left], factor[right], out=out[at])
                product = out
            elif k < inplace:
                product = np.multiply(product, factor, order="C")
            else:
                np.multiply(product, factor, out=product)
        if reduce:
            product = product.sum(axis=0)
        # np.asarray keeps a 0-d result 0-d, where np.ascontiguousarray would not
        factors.append(np.asarray(product, order="C"))
    return factors[-1]


def _query(net: "ChanceNetwork", factors: Iterable[_Factor], evidence: Mapping[str, int],
           targets: tuple[str, ...]) -> np.ndarray:
    """Unnormalized joint P(targets, evidence), axes in target order, by
    eliminating the hidden variables in _elimination_order: the cached plan
    for the restricted factors' scopes, shapes and indices, executed."""
    index = net.index
    work = [_restrict(f, evidence) for f in factors]
    scopes = tuple(f.vars for f in work)
    plan = _plan(scopes, tuple(f.values.shape for f in work), targets,
                 tuple(index[v] for scope in scopes for v in scope))
    return _execute(plan, [f.values for f in work])


@dataclass(frozen=True, eq=False)
class ChanceNetwork:
    """Compiled chance-only model: one factor per variable, plus metadata."""

    diagram: InfluenceDiagram
    fixed_policies: dict[str, PolicyCpt]
    outcomes: dict[str, tuple[str, ...]]
    doms: dict[str, int]  # variable -> number of outcomes
    index: dict[str, int]  # variable -> declaration rank, proxy last
    factors: dict[str, _Factor]
    proxy: str
    u_min: float
    u_max: float

    @property
    def degenerate(self) -> bool:
        """True when the utility is constant; any policy is then optimal."""
        return self.u_max == self.u_min

    def fix_decision(self, decision: str, policy: PolicyCpt) -> "ChanceNetwork":
        """This network with the last unfixed decision acting by a policy.

        The decision's uniform root factor is swapped for the policy's
        contingency table, a CPT over the predecessors it uses; every other
        factor, and the factors' order, is kept.  Decisions are fixed last
        to first, so the fixed ones always cover a suffix of the decision
        order.  The policy reads an ordered subsequence of the decision's
        parents, as contingency_from_tree makes it.
        """
        order = self.diagram.decision_order
        if order[:len(order) - len(self.fixed_policies)][-1:] != (decision,):
            raise ValueError(f"{decision!r} is not the last unfixed decision: fixed "
                             f"policies must cover a suffix of the decision order")
        remaining = iter(self.diagram.nodes[decision].parents)
        if not all(p in remaining for p in policy.parents):
            raise ValueError(f"a policy for {decision!r} must read an ordered subsequence "
                             f"of its parents, not {policy.parents}")
        expected = tuple(self.doms[p] for p in policy.parents) + (self.doms[decision],)
        if policy.table.shape != expected:
            raise ValueError(f"contingency table for {decision!r} has shape "
                             f"{policy.table.shape}, expected {expected}")
        return replace(self, fixed_policies={**self.fixed_policies, decision: policy},
                       factors={**self.factors,
                                decision: _Factor(policy.parents + (decision,), policy.table)})


def compile_network(diagram: InfluenceDiagram) -> ChanceNetwork:
    """Compile a diagram with every decision unfixed.

    Decisions become uniform roots; ChanceNetwork.fix_decision fixes them,
    last to first.  The value node becomes a binary proxy with P(true) the
    utility scaled to [0, 1]; a constant utility yields a degenerate
    network (flagged, not an error) with P(true) = 0.5 everywhere.
    """
    value = diagram.value_node
    proxy = value.name
    names = [n for n in diagram.nodes if n != proxy] + [proxy]
    index = {n: i for i, n in enumerate(names)}
    outcomes: dict[str, tuple[str, ...]] = {}
    for n, node in diagram.nodes.items():
        if not isinstance(node, ValueNode):
            outcomes[n] = node.variable.outcomes
    outcomes[proxy] = ("false", "true")
    doms = {v: len(o) for v, o in outcomes.items()}

    u = value.utility
    u_min, u_max = float(u.min()), float(u.max())
    if u_max == u_min:
        p_true = np.full(u.shape, 0.5)
    else:
        p_true = (u - u_min) / (u_max - u_min)

    factors: dict[str, _Factor] = {}
    for n, node in diagram.nodes.items():
        if isinstance(node, ChanceNode):
            factors[n] = _Factor(node.parents + (n,), node.cpt)
        elif isinstance(node, DecisionNode):
            factors[n] = _Factor((n,), np.full(doms[n], 1.0 / doms[n]))
        else:
            vals = np.stack([1.0 - p_true, p_true], axis=-1)
            factors[n] = _Factor(node.parents + (proxy,), vals)

    return ChanceNetwork(diagram, {}, outcomes, doms, index, factors, proxy, u_min, u_max)


class CheckedContext:
    """A context checked once, for exploring one decision of one network:
    its findings as outcome indices, the decision's predecessors it lacks,
    in declaration order, and the shape of its leaf joint, whose axes are
    those predecessors, the decision and the proxy.  ``joint`` is that leaf
    joint once the engine has it (Calibration.leaf_joint), else None: the
    one cached part of the value, which its owner may drop.

    Made only by Engine.context, from a caller's evidence, and by child;
    Engine.calibrate takes one without checking it again.
    """

    __slots__ = ("network", "decision", "findings", "missing", "shape", "joint")

    def __init__(self, network: ChanceNetwork, decision: str, findings: dict[str, int],
                 missing: tuple[str, ...], shape: tuple[int, ...],
                 joint: np.ndarray | None = None):
        self.network = network
        self.decision = decision
        self.findings = findings  # shared with every calibration of it; never mutated
        self.missing = missing
        self.shape = shape
        self.joint = joint

    def __deepcopy__(self, memo: dict) -> "CheckedContext":
        # a context of its own, sharing every field: a tree and its copy drop joints apart
        return CheckedContext(self.network, self.decision, self.findings, self.missing,
                              self.shape, self.joint)

    def child(self, variable: str, index: int) -> "CheckedContext":
        """This context plus the finding that a missing predecessor takes its
        index-th outcome, holding its joint sliced there, a view, if this
        context holds one; anything else raises ValueError."""
        missing, shape, joint = self.missing, self.shape, self.joint
        try:
            k = missing.index(variable)  # one scan of missing
        except ValueError:
            k = -1
        if k < 0 or type(index) is not int or not 0 <= index < shape[k]:
            raise ValueError(f"{variable!r} = {index!r} is not a finding this context lacks")
        return CheckedContext(self.network, self.decision, {**self.findings, variable: index},
                              missing[:k] + missing[k + 1:], shape[:k] + shape[k + 1:],
                              None if joint is None else joint[(slice(None),) * k + (index,)])


class Engine:
    """Query session over a ChanceNetwork, with its own counters."""

    def __init__(self, network: ChanceNetwork):
        self.network = network
        self.counter = QueryCounter()

    # -- helpers ---------------------------------------------------------

    def _evidence_idx(self, evidence: Mapping[str, str]) -> dict[str, int]:
        outcomes, proxy = self.network.outcomes, self.network.proxy
        out: dict[str, int] = {}
        for var, outcome in evidence.items():
            labels = outcomes.get(var)
            if labels is None or var == proxy:
                raise DiagramError(f"unknown variable {var!r} in evidence")
            if outcome not in labels:
                raise DiagramError(f"variable {var!r} has no outcome {outcome!r}")
            out[var] = labels.index(outcome)
        return out

    def _check_decision(self, decision: str, evidence: Iterable[str]) -> None:
        self.network.diagram.predecessors(decision)  # raises unless it is a decision node
        if decision in self.network.fixed_policies:
            raise ValueError(f"decision {decision!r} is already fixed in this network")
        if decision in evidence:
            raise ValueError(f"evidence must not assign the decision {decision!r}")

    def _posterior(self, findings: dict[str, int], variable: str) -> np.ndarray:
        """P(variable | findings) over declared outcomes, uncounted."""
        net = self.network
        joint = _query(net, net.factors.values(), findings, (variable,))
        total = joint.sum()
        if total < ZERO_PROB:
            raise ZeroProbabilityError("context has probability zero")
        return joint / total

    # -- counted query operations ----------------------------------------

    def best_action(self, decision: str, evidence: Mapping[str, str]) -> tuple[str, float]:
        """Maximizing action and its normalized value in the given context.

        Calibration.best_action on a calibration of the context: the
        calibration and a value pass, two passes in all.
        """
        return self.calibrate(self.context(decision, evidence)).best_action()

    def action_value(self, decision: str, action: str, evidence: Mapping[str, str]) -> float:
        """Normalized expected value of one fixed action in a context: one
        pass over the context plus the action."""
        net = self.network
        self._check_decision(decision, evidence)
        findings = self._evidence_idx({**evidence, decision: action})
        self.counter.passes += 1
        self.counter.fine += net.doms[decision]
        return float(self._posterior(findings, net.proxy)[1])

    def posterior(self, variable: str, evidence: Mapping[str, str]) -> dict[str, float]:
        """Exact P(variable | evidence) as an outcome-keyed mapping."""
        return self.posteriors([variable], evidence)[variable]

    def posteriors(self, variables: Iterable[str],
                   evidence: Mapping[str, str]) -> dict[str, dict[str, float]]:
        """Posteriors for several variables under one context (a single pass)."""
        net = self.network
        variables = list(variables)
        for var in variables:
            if var not in net.outcomes or var == net.proxy:
                raise DiagramError(f"unknown variable {var!r}")
            if var in evidence:
                raise ValueError(f"{var!r} is assigned in the context")
        findings = self._evidence_idx(evidence)
        self.counter.passes += 1
        out: dict[str, dict[str, float]] = {}
        for var in variables:
            dist = self._posterior(findings, var)
            self.counter.fine += net.doms[var]
            out[var] = dict(zip(net.outcomes[var], dist.tolist()))
        return out

    def context(self, decision: str, evidence: Mapping[str, str]) -> CheckedContext:
        """The evidence as a checked context for exploring the decision.

        Each finding gives an outcome label; the decision must be unfixed
        and unassigned.  Checking charges nothing.
        """
        self._check_decision(decision, evidence)
        net, findings = self.network, self._evidence_idx(evidence)
        missing = tuple(p for p in net.diagram.nodes[decision].parents if p not in findings)
        return CheckedContext(net, decision, findings, missing,
                              tuple(net.doms[v] for v in missing) + (net.doms[decision], 2))

    def calibrate(self, context: CheckedContext) -> "Calibration":
        """Enter a checked context for exploring its decision (one pass).

        The context must come from this engine's network (Engine.context or
        CheckedContext.child); anything else raises before the pass is
        charged.  A context holding its leaf joint, e.g. a slice of its
        parent's, is explored from it.
        """
        if type(context) is not CheckedContext:
            raise ValueError(f"calibrate takes a CheckedContext (Engine.context), "
                             f"not {type(context).__name__}")
        if context.network is not self.network:
            raise ValueError("the context was checked against another network")
        self.counter.passes += 1
        return Calibration(self, context)

    def explore_stack(self, stack: np.ndarray, axis: int | None = None
                      ) -> tuple[list[list[Row]], int, int]:
        """stack_rows, of every candidate or the axis-th alone, for the
        contexts whose leaf joints are the stack's rows, each charged, with
        no Calibration made, what calibrating it and reading those rows would
        charge, and that charge, (fine, passes); a context of probability
        zero raises ZeroProbabilityError."""
        fine = 2 * (sum(stack.shape[1:-2]) if axis is None else stack.shape[1 + axis])
        passes = 1 + 2 * (stack.ndim - 3 if axis is None else 1)
        self.counter.fine += len(stack) * fine
        self.counter.passes += len(stack) * passes
        rows = stack_rows(stack, axis)
        if None in rows:
            raise ZeroProbabilityError("context has probability zero")
        return rows, fine, passes

    # -- uncounted diagnostics -------------------------------------------

    def context_probability(self, evidence: Mapping[str, str]) -> float:
        """Exact P(evidence); 0 for impossible contexts, never an error."""
        net = self.network
        ev = self._evidence_idx(evidence)
        return float(_query(net, net.factors.values(), ev, ()))

    def network_value(self) -> float:
        """Normalized expected value of the network as compiled, P(proxy true)."""
        net = self.network
        joint = _query(net, net.factors.values(), {}, (net.proxy,))
        return float(joint[1] / joint.sum())


class Calibration:
    """A checked context being explored for its decision.

    Created only through Engine.calibrate, which counts the pass.  The
    factors are restricted to the context on first use, so a calibration of
    a context holding its leaf joint restricts none.
    """

    def __init__(self, engine: Engine, context: CheckedContext):
        self._engine = engine
        self._context = context
        self._restricted: list[_Factor] | None = None
        self._halves: dict[tuple[int, int], np.ndarray] = {}

    @property
    def _factors(self) -> list[_Factor]:
        if self._restricted is None:
            self._restricted = [_restrict(f, self._context.findings)
                                for f in self._engine.network.factors.values()]
        return self._restricted

    def leaf_joint(self) -> np.ndarray | None:
        """Unnormalized joint over (the decision's predecessors missing from
        the context, in declaration order; the decision; the proxy), or None
        where it would be larger than the largest restricted factor.

        The context's joint if it holds one; otherwise computed and stored on
        the context.  Its axes and shape are the checked context's, and
        CheckedContext.child slices it for the context extended by one
        outcome of a missing predecessor.
        """
        context = self._context
        if context.joint is None:
            net = self._engine.network
            largest = max(math.prod(net.doms[v] for v in f.vars if v not in context.findings)
                          for f in net.factors.values())
            if math.prod(context.shape) <= largest:
                context.joint = _query(net, self._factors, {},
                                       context.missing + (context.decision, net.proxy))
        return context.joint

    def _candidate_joint(self, variable: str) -> np.ndarray:
        """The unnormalized joint of (variable, decision, proxy), as a stack
        of one: a sum over the context's leaf joint, or one contraction where
        it holds none."""
        context = self._context
        if context.joint is not None:
            return _marginal(context.joint[None], context.missing.index(variable), self._halves)
        net = self._engine.network
        targets = (context.decision, variable, net.proxy)
        return _query(net, self._factors, {}, targets).swapaxes(0, 1)[None]

    def evaluate_candidate(self, variable: str) -> Row:
        """rows for one variable."""
        return self.rows((variable,))[0]

    def best_action(self) -> tuple[str, float]:
        """Maximizing action and its normalized value in this context.

        Ties break by action declaration order.  Counted as the value pass
        on this calibration, one pass, served by the joint of decision and
        proxy: the leaf joint summed over its predecessor axes, or one
        contraction where there is none.  This is a candidate with no
        split, one outcome that is the context itself.
        """
        eng, decision = self._engine, self._context.decision
        net = eng.network
        joint = self.leaf_joint()
        eng.counter.passes += 1
        eng.counter.fine += 2 * net.doms[decision]
        joint = (_query(net, self._factors, {}, (decision, net.proxy)) if joint is None
                 else _keep(joint[None], 1, 1)[0])
        best, _, values = _choose(joint[None, None])
        return net.outcomes[decision][best[0, 0]], float(values[0, 0])

    def rows(self, variables: Sequence[str], stacked: list[Row] | None = None) -> list[Row]:
        """Each extension variable's Row, counted as two passes (action
        selection, then a value pass following the selected per-outcome
        actions), served by its joint of variable, decision and proxy (see
        _choose).  The candidates are the checked context's missing
        predecessors.  ``stacked``, if given, holds their results, in order,
        from an uncounted stacked pass: they are charged and returned as given.
        """
        eng, context = self._engine, self._context
        net, missing = eng.network, context.missing
        if not set(variables).issubset(missing):
            bad = next(v for v in variables if v not in missing)
            raise ValueError(f"{bad!r} is not a possible extension here: it is not a "
                             f"missing predecessor of {context.decision!r}")
        eng.counter.passes += 2 * len(variables)
        eng.counter.fine += 2 * sum(map(net.doms.__getitem__, variables))
        if stacked is None and variables:
            self.leaf_joint()
            stacked = _evaluate([self._candidate_joint(v) for v in variables])
        return stacked or []


def stack_rows(joints: Sequence[np.ndarray] | np.ndarray,
               axis: int | None = None) -> list[list[Row] | None]:
    """Every candidate's rows for contexts of one decision whose leaf joints
    have one shape, in one stacked pass, uncounted: per context, the list
    Calibration.rows gives for it alone, bit for bit, or None where it has
    probability zero (alone, it raises ZeroProbabilityError).  A context's
    candidates are its joint's predecessor axes, in order, or the axis-th;
    each context is charged when it reads its rows (Calibration.rows'
    ``stacked``).  ``joints`` may be them stacked, in C order."""
    stack, halves, keep = np.asarray(joints), {}, range(len(joints))
    axes = range(stack.ndim - 3) if axis is None else (axis,)
    marginals = [_marginal(stack, k, halves) for k in axes]
    try:
        flat = _evaluate(marginals)
    except ZeroProbabilityError:  # leave out each context with a row _choose rejects
        totals = np.min([j.sum(axis=(1, 2, 3)) for j in marginals], axis=0)
        keep = np.flatnonzero(totals >= ZERO_PROB).tolist()
        flat = _evaluate([j[keep] for j in marginals]) if keep else []
    out: list[list[Row] | None] = [None] * len(joints)
    m = len(marginals)
    for s, row in zip(keep, range(0, len(flat), m)):
        out[s] = flat[row:row + m]
    return out


def _marginal(stack: np.ndarray, k: int,
              halves: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """Stacked leaf joints summed down to their k-th predecessor axis, the
    decision and the proxy, keeping the stack axis (axis 0).

    While one joint has more than _HALVING_MIN entries, the predecessor
    axes are halved towards axis k, and each half is summed once and kept
    in ``halves``: all m marginals of a joint of size N then cost about 2N
    additions instead of m * N.  What is left is summed directly, each sum
    one _keep.  A stack of one is halved and summed exactly as a stack of many.
    """
    joint, lo, hi = stack, 0, stack.ndim - 3
    while hi - lo > 1 and joint.size > _HALVING_MIN * len(joint):
        mid = (lo + hi) // 2
        keep = (lo, mid) if k < mid else (mid, hi)
        if keep not in halves:
            halves[keep] = _keep(joint, 1 + keep[0] - lo, 1 + keep[1] - lo)
        joint, (lo, hi) = halves[keep], keep
    return _keep(joint, 1 + k - lo, 2 + k - lo) if hi - lo > 1 else joint


@lru_cache(maxsize=None)  # (ndim, lo, hi), ndim at most 52, einsum's letters
def _keeping(ndim: int, lo: int, hi: int) -> tuple[str, tuple[int, ...]]:
    axes = string.ascii_letters[:ndim]
    drop = tuple(i for i in range(1, ndim - 2) if not lo <= i < hi)
    return f"{axes}->{axes[0]}{axes[lo:hi]}{axes[-2:]}", drop


def _keep(stack: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The stack summed over all axes but 0, lo to hi - 1 and the last two,
    in ndarray.sum's order and bits: from _EINSUM_MIN entries by np.einsum,
    which skips sum's inner loop per 4-entry tail."""
    subscripts, drop = _keeping(stack.ndim, lo, hi)
    return stack.sum(axis=drop) if stack.size < _EINSUM_MIN else np.einsum(subscripts, stack)


def _evaluate(joints: list[np.ndarray]) -> list[Row]:
    """Candidate rows from their joints, the i-th joint with axes (context,
    outcome, decision, proxy) for each context's i-th candidate: the row of
    context s's i-th candidate is at s * len(joints) + i.  Joints of equal
    shape and memory layout are stacked (np.concatenate keeps a layout its
    inputs share), and _choose runs, and is read out as lists, once per
    stack.  The layout decides the order in which a row's total is summed,
    so every row is bit-identical to evaluating that candidate alone, in
    that context alone.  A stack of one is that joint."""
    groups: dict[tuple, list[int]] = {}
    for i, joint in enumerate(joints):
        groups.setdefault((joint.shape, joint.strides), []).append(i)
    m, g = len(joints), len(joints[0])
    out: list[Row] = [None] * (g * m)  # type: ignore[list-item]
    for group in groups.values():
        parts = [joints[i] for i in group]
        best, probs, values = _choose(np.concatenate(parts) if len(parts) > 1 else parts[0])
        for row, r in enumerate(zip(best.tolist(), probs.tolist(), values.tolist())):
            out[row % g * m + group[row // g]] = r
    return out


def _choose(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximizing action per outcome, P(outcome | context) and that
    action's normalized value, for a stack of unnormalized joints with axes
    (row, outcome, decision, proxy), a row being one candidate in one
    context; each result has axes (row, outcome).

    The proxy = true slice gives the maximizing actions, ties by action
    declaration order.  An unfixed decision is a uniform root, so the slice
    at action a is the joint with the decision forced to a, divided by the
    decision's arity; the slices at the selected actions, times that
    arity, are the joint under the per-outcome policy.  An outcome of
    probability zero gets value 0.
    """
    context = stack.sum(axis=(1, 2, 3))
    if min(context.tolist()) < ZERO_PROB:
        raise ZeroProbabilityError("context has probability zero")
    m, x, arity = stack.shape[:3]
    best = stack[..., 1].argmax(axis=2)  # (m, x)
    rows = stack.reshape(m * x, arity, 2)[np.arange(m * x), best.ravel()]
    chosen = rows.reshape(m, x, 2) * arity
    totals = chosen.sum(axis=2)
    probs = totals / context[:, None]
    values = np.divide(chosen[..., 1], totals, out=np.zeros(totals.shape),
                       where=totals > 0.0)
    return best, probs, values
