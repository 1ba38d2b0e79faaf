"""Independent brute-force reference computations for the test suite.

Everything here enumerates the raw joint straight from the diagram's
tables, bypassing the compiled network and the elimination engine, so the
engine is checked against a genuinely separate code path.  The six
exceptions are bit-exact references for faster replacements:
``loop_oracle`` is the oracle's former per-state loop over
``state_action_values``, ``loop_candidate`` is the former per-candidate
arithmetic of ``Calibration.evaluate_candidate``, giving the candidate's
row (per outcome: best action index, probability and value, as lists),
``sum_keep`` and ``sum_marginal`` are the engine's ``_keep`` and
``_marginal`` with every sum an ``ndarray.sum``, as before ``_keep`` summed
by ``np.einsum``,
``loop_elimination_order`` is the former elimination-order search of
``_query``, ``einsum_query`` is the former ``_query``, which ran each
elimination step as one ``np.einsum``, and ``loop_gain`` is the former
per-call gain of a leaf's extension.  ``rescan_open`` recomputes a tree's
open leaves by a walk, apart from the record extend() keeps, and
``assert_statistics`` checks a tree's counts, value and open leaves
against walks,
``charged`` and ``uncharged`` read a leaf's record of exploration,
``calibrate`` calibrates a caller's findings, given as labels, and
``no_decision_json`` is a valid diagram that has no decision node.
``loop_state_action`` and ``loop_consistent_total`` enumerate the joint
one configuration at a time with the oracle's arithmetic in the oracle's
order, so that its binning can be compared bit for bit.
"""

import json
import math
from itertools import product

import numpy as np

from idrefine.diagram import ChanceNode, DecisionNode, ValueNode
from idrefine.engine import (_HALVING_MIN, ZERO_PROB, ZeroProbabilityError,
                             _elimination_order, _Factor, _query, _restrict)
from idrefine.fixtures import MINI_WEATHER_JSON
from idrefine.oracle import state_action_values
from idrefine.tree import Leaf, extensions, policy_json, tree_counts, tree_value


def _frame(diagram):
    names = [n for n, nd in diagram.nodes.items() if not isinstance(nd, ValueNode)]
    doms = [diagram.variable(n).arity for n in names]
    pos = {n: i for i, n in enumerate(names)}
    return names, doms, pos


def _weight(diagram, pos, config):
    """Joint weight of one configuration, decisions uniform."""
    p = 1.0
    for name, node in diagram.nodes.items():
        if isinstance(node, ChanceNode):
            idx = tuple(config[pos[q]] for q in node.parents) + (config[pos[name]],)
            p *= float(node.cpt[idx])
        elif isinstance(node, DecisionNode):
            p *= 1.0 / node.variable.arity
        if p == 0.0:
            return 0.0
    return p


def _consistent(diagram, pos, config, evidence):
    for var, outcome in evidence.items():
        if config[pos[var]] != diagram.variable(var).outcomes.index(outcome):
            return False
    return True


def enum_probability(diagram, evidence):
    """P(evidence) with every decision uniform."""
    names, doms, pos = _frame(diagram)
    total = 0.0
    for config in product(*(range(d) for d in doms)):
        if _consistent(diagram, pos, config, evidence):
            total += _weight(diagram, pos, config)
    return total


def enum_posterior(diagram, variable, evidence):
    """P(variable | evidence) as an outcome-keyed dict, decisions uniform."""
    names, doms, pos = _frame(diagram)
    var = diagram.variable(variable)
    mass = [0.0] * var.arity
    for config in product(*(range(d) for d in doms)):
        if _consistent(diagram, pos, config, evidence):
            mass[config[pos[variable]]] += _weight(diagram, pos, config)
    total = sum(mass)
    return {o: m / total for o, m in zip(var.outcomes, mass)}


def enum_action_value(diagram, decision, action, evidence):
    """Raw E[u | evidence, decision=action], other decisions uniform."""
    names, doms, pos = _frame(diagram)
    value_node = diagram.value_node
    ev = dict(evidence)
    ev[decision] = action
    num = den = 0.0
    for config in product(*(range(d) for d in doms)):
        if not _consistent(diagram, pos, config, ev):
            continue
        p = _weight(diagram, pos, config)
        if p == 0.0:
            continue
        idx = tuple(config[pos[q]] for q in value_node.parents)
        num += p * float(value_node.utility[idx])
        den += p
    return num / den


def enum_best_action(diagram, decision, evidence):
    """(action, raw value) maximizing enum_action_value, declaration ties."""
    best = None
    for action in diagram.variable(decision).outcomes:
        v = enum_action_value(diagram, decision, action, evidence)
        if best is None or v > best[1]:
            best = (action, v)
    return best


def normalized(diagram, raw):
    u = diagram.value_node.utility
    lo, hi = float(u.min()), float(u.max())
    return (raw - lo) / (hi - lo)


def _joint_terms(diagram):
    """(configuration, chance weight, utility) of every joint configuration,
    in lexicographic declaration order; the weight is multiplied onto 1.0
    in node order."""
    _, doms, pos = _frame(diagram)
    value = diagram.value_node
    chance = [(tuple(pos[q] for q in (*node.parents, name)), node.cpt)
              for name, node in diagram.nodes.items() if isinstance(node, ChanceNode)]
    for config in product(*(range(d) for d in doms)):
        p = 1.0
        for axes, cpt in chance:
            p *= float(cpt[tuple(config[ax] for ax in axes)])
        yield config, p, float(value.utility[tuple(config[pos[q]] for q in value.parents)])


def loop_state_action(diagram, decision):
    """(num, den) of state_action_values, shape (#states, #actions), one
    joint configuration at a time: each configuration's weight times the
    uniform weight of the other decisions lands in its (state, action) bin,
    den adding it and num it times u, each bin onto 0.0 in joint order."""
    _, doms, pos = _frame(diagram)
    bins = [pos[v.name] for v in diagram.predecessors(decision)] + [pos[decision]]
    uniform = math.prod(1.0 / diagram.variable(e).arity
                        for e in diagram.decisions if e != decision)
    size = math.prod(doms[ax] for ax in bins)
    num, den = [0.0] * size, [0.0] * size
    for config, p, u in _joint_terms(diagram):
        b = 0
        for ax in bins:
            b = b * doms[ax] + config[ax]
        mass = p * uniform
        den[b] += mass
        num[b] += mass * u
    shape = (-1, doms[pos[decision]])
    return np.array(num).reshape(shape), np.array(den).reshape(shape)


def loop_consistent_total(diagram, tables):
    """The raw value of oracle_optimal_multistage given its tables: onto
    0.0 in joint order, each configuration's weight times 1 if every
    decision acts by its table there (else 0), times u."""
    names, _, _ = _frame(diagram)
    outcomes = [diagram.variable(n).outcomes for n in names]
    total = 0.0
    for config, p, u in _joint_terms(diagram):
        labels = {n: o[i] for n, o, i in zip(names, outcomes, config)}
        consistent = all(
            tables[d][tuple(labels[v.name] for v in diagram.predecessors(d))] == labels[d]
            for d in diagram.decision_order)
        total += p * float(consistent) * u
    return total


def loop_oracle(diagram, decision, sums=None):
    """(table, per_state, state_probs, value, raw_value) of oracle_optimal,
    one information state at a time, adding in state order, from ``sums``,
    (num, den) as state_action_values gives them, or from that call."""
    preds = diagram.predecessors(decision)
    num, den = sums or state_action_values(diagram, decision)[1:]
    actions = diagram.variable(decision).outcomes
    u = diagram.value_node.utility
    u_min, u_max = float(u.min()), float(u.max())
    span = u_max - u_min
    table, per_state, state_probs = {}, {}, {}
    raw_total = prob_total = 0.0
    eu = np.divide(num, den, out=np.full_like(num, -np.inf), where=den > 0.0)
    best = eu.argmax(axis=1)
    for w, labels in enumerate(product(*(v.outcomes for v in preds))):
        a = best[w]
        table[labels] = actions[a]
        if den[w, a] <= 0.0:  # impossible state
            per_state[labels] = 0.0
            state_probs[labels] = 0.0
            continue
        p_state = float(den[w, a])
        state_probs[labels] = p_state
        per_state[labels] = 0.5 if span == 0.0 else (eu[w, a] - u_min) / span
        raw_total += p_state * eu[w, a]
        prob_total += p_state
    if span == 0.0:
        return table, per_state, state_probs, 0.5, u_min
    return table, per_state, state_probs, (raw_total - u_min * prob_total) / span, raw_total


def sum_keep(stack, lo, hi):
    """engine._keep as ndarray.sum: the stack summed over every axis but
    axis 0, axes lo to hi - 1 and the last two."""
    return stack.sum(axis=tuple(i for i in range(1, stack.ndim - 2) if not lo <= i < hi))


def sum_marginal(stack, k, halves):
    """engine._marginal with every sum an ndarray.sum (sum_keep): the same
    halves, kept in ``halves``, and the same final sum down to axis k."""
    joint, lo, hi = stack, 0, stack.ndim - 3
    while hi - lo > 1 and joint.size > _HALVING_MIN * len(joint):
        mid = (lo + hi) // 2
        keep = (lo, mid) if k < mid else (mid, hi)
        if keep not in halves:
            halves[keep] = sum_keep(joint, 1 + keep[0] - lo, 1 + keep[1] - lo)
        joint, (lo, hi) = halves[keep], keep
    return sum_keep(joint, 1 + k - lo, 2 + k - lo) if hi - lo > 1 else joint


def loop_candidate(cal, decision, variable):
    """One candidate's row, (best, probs, values), evaluated on its own, as
    Calibration.evaluate_candidate did before the candidates of a leaf were
    stacked, its joint from sum_marginal; it charges nothing."""
    net, missing = cal._engine.network, cal._context.missing
    leaf = cal.leaf_joint()
    if leaf is not None and variable in missing:
        joint = sum_marginal(leaf[None], missing.index(variable), {})[0].swapaxes(0, 1)
    else:
        joint = _query(net, cal._factors, {}, (decision, variable, net.proxy))
    context = float(joint.sum())
    if context < ZERO_PROB:
        raise ZeroProbabilityError("context has probability zero")
    action_idx = np.argmax(joint[:, :, 1], axis=0)
    chosen = joint[action_idx, np.arange(len(action_idx))] * net.doms[decision]
    totals = chosen.sum(axis=1)
    probs = totals / context
    safe = np.where(totals > 0.0, totals, 1.0)
    values = np.where(totals > 0.0, chosen[:, 1] / safe, 0.0)
    return action_idx.tolist(), probs.tolist(), values.tolist()


def calibrate(engine, decision, evidence, joint=None):
    """engine.calibrate of the evidence checked by Engine.context for
    exploring the decision, the context holding ``joint`` if given."""
    context = engine.context(decision, evidence)
    context.joint = joint
    return engine.calibrate(context)


def no_decision_json():
    """mini_weather without its decision node, the utility over W alone."""
    doc = json.loads(MINI_WEATHER_JSON)
    doc["nodes"] = [n for n in doc["nodes"] if n["kind"] != "decision"]
    doc["nodes"][-1].update(parents=["W"], table=[20, 70])
    doc["decision_order"] = []
    return json.dumps(doc)


def loop_gain(leaf, row):
    """A leaf's gain from the extension of a row, (best, probs, values), as
    tree.py computed it before gains were recorded: outcome by outcome,
    each probability and value read as a float."""
    _, probs, values = row
    total = 0.0
    for j in range(len(probs)):
        reach = leaf.reach * float(probs[j])
        if reach >= ZERO_PROB:
            total += float(values[j]) * reach
    return total - leaf.value * leaf.reach


def charged(leaf):
    """The rows a leaf has been charged for, by candidate name."""
    record = leaf.explored
    return {} if record is None else {n: record.evaluations[n] for n in record.gains}


def uncharged(leaf):
    """The names of the candidates a leaf holds rows of, uncharged."""
    record = leaf.explored
    return set() if record is None else set(record.evaluations) - set(record.gains)


def loop_elimination_order(scopes, targets, index, doms):
    """The order in which _query used to eliminate the hidden variables of
    factors over the given scopes: each step rebuilds, for every hidden
    variable, the scope of the factors that mention it, and eliminates the
    one with the smallest (size, index)."""
    work = [tuple(scope) for scope in scopes]
    hidden = sorted({v for f in work for v in f} - set(targets), key=index.__getitem__)
    order = []
    while hidden:
        best = None
        for v in hidden:
            scope = {u for f in work if v in f for u in f}
            scope.discard(v)
            key = (math.prod(doms[u] for u in scope), index[v])
            if best is None or key < best[0]:
                best = (key, v, scope)
        _, var, scope = best
        hidden.remove(var)
        work = [f for f in work if var not in f] + [tuple(scope)]
        order.append(var)
    return order


_MAX_OPERANDS = 32  # np.einsum's operand limit under numpy 1.x


def _contract(factors, keep):
    """Product of the factors, multiplied left to right and summed down to
    the variables in ``keep``, axes in that order."""
    if len(factors) > _MAX_OPERANDS:
        head = factors[:_MAX_OPERANDS]
        union = tuple(dict.fromkeys(v for f in head for v in f.vars))
        factors = [_Factor(union, _contract(head, union))] + factors[_MAX_OPERANDS:]
        return _contract(factors, keep)
    labels = {}
    operands = []
    for f in factors:
        operands += [f.values, [labels.setdefault(v, len(labels)) for v in f.vars]]
    return np.einsum(*operands, [labels[v] for v in keep])


def einsum_query(net, factors, evidence, targets):
    """Unnormalized joint P(targets, evidence), axes in target order, as
    _query computed it before plans: each step one np.einsum over the
    factors that mention the eliminated variable."""
    index = net.index
    work = [_restrict(f, evidence) for f in factors]
    for var in _elimination_order([f.vars for f in work], targets, index, net.doms):
        related = [f for f in work if var in f.vars]
        work = [f for f in work if var not in f.vars]
        kept = tuple(sorted({u for f in related for u in f.vars if u != var},
                            key=index.__getitem__))
        work.append(_Factor(kept, _contract(related, kept)))
    return _contract(work, targets)


def rescan_open(tree, vertex=None, parent=None):
    """Every leaf under vertex (default: the root) that is not pruned and
    whose context lacks a predecessor, mapped to its parent (None for the
    root), by a recursive walk."""
    vertex = tree.root if vertex is None else vertex
    if isinstance(vertex, Leaf):
        complete = len(vertex.context) == len(tree.predecessors)
        return {} if vertex.pruned or complete else {vertex: parent}
    links = {}
    for child in vertex.children.values():
        links.update(rescan_open(tree, child, vertex))
    return links


def recount(vertex):
    """(internal vertices, non-pruned leaves, value * reach of each such leaf),
    by a recursive walk."""
    if isinstance(vertex, Leaf):
        return (0, 0, []) if vertex.pruned else (0, 1, [vertex.value * vertex.reach])
    internals, leaves, products = 1, 0, []
    for child in vertex.children.values():
        i, l, p = recount(child)
        internals, leaves, products = internals + i, leaves + l, products + p
    return internals, leaves, products


def assert_statistics(tree):
    internals, leaves, products = recount(tree.root)
    assert tree_counts(tree) == (internals, leaves)
    assert tree.open == rescan_open(tree)
    assert tree_value(tree) == math.fsum(products)
    assert policy_json(tree)["value_normalized"] == tree_value(tree)
    named = {v.name: v for v in tree.predecessors}
    for leaf in tree.open:  # what extend derived equals what the context says
        assert leaf.checked.missing == tuple(v.name for v in extensions(tree, leaf))
        assert {x: named[x].outcomes[o]
                for x, o in leaf.checked.findings.items()} == dict(leaf.context)
