"""Sweep-back over diagrams with several decisions.

Decisions are processed last to first.  The diagram is compiled once, and
each finished decision function is fixed in the network
(ChanceNetwork.fix_decision): the decision's uniform root factor is swapped
for a contingency table over exactly the predecessors the tree actually
uses, which acts by the tree deterministically (uniform rows for contexts
unreachable under pruning).  Decisions not yet processed stay uniform
roots, which realizes the assumption that the decision maker acts randomly
for any decision a context does not mention.

The anytime property is per decision only; the orchestrator takes a
refinement configuration (optionally per decision) and returns one trace
per decision plus the joint policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping

import numpy as np

from .diagram import DiagramError, InfluenceDiagram
from .engine import ChanceNetwork, Engine, PolicyCpt, compile_network
from .refine import AnytimeTrace, ExtensionEvent, RefinementConfig, refine
from .tree import DecisionTree, find_leaf, iter_internals, vertex_to_json


@dataclass(eq=False)
class CompiledPolicy:
    decision: str
    tree: DecisionTree
    contingency: PolicyCpt


@dataclass(eq=False)
class MultistagePolicy:
    policies: list[CompiledPolicy]  # in decision order
    value_normalized: float
    value_raw: float


def used_predecessors(tree: DecisionTree) -> tuple[str, ...]:
    """Predecessors appearing as internal vertices anywhere in the tree."""
    used = {v.variable for v in iter_internals(tree)}
    return tuple(v.name for v in tree.predecessors if v.name in used)


def contingency_from_tree(tree: DecisionTree) -> PolicyCpt:
    """Deterministic CPT over the used predecessors, acting by the tree.

    Rows whose path hits a pruned leaf are uniform: such contexts have
    probability zero upstream, so any distribution is value-equivalent.
    """
    used = used_predecessors(tree)
    used_vars = [v for v in tree.predecessors if v.name in used]
    n_actions = len(tree.actions)
    doms = tuple(v.arity for v in used_vars)
    table = np.zeros(doms + (n_actions,))
    for combo in product(*(range(v.arity) for v in used_vars)):
        leaf = find_leaf(tree, {v.name: v.outcomes[i] for v, i in zip(used_vars, combo)})
        if leaf.pruned:
            table[combo] = 1.0 / n_actions
        else:
            table[combo + (tree.actions.index(leaf.action),)] = 1.0
    return PolicyCpt(used, table)


def compile_decision(net: ChanceNetwork, decision: str, tree: DecisionTree) -> ChanceNetwork:
    """Fix one decision by its tree (ChanceNetwork.fix_decision)."""
    pred_names = {v.name for v in tree.predecessors}
    for vertex in iter_internals(tree):
        if vertex.variable not in pred_names:
            raise ValueError(f"tree splits on {vertex.variable!r}, which is not an "
                             f"informational predecessor of {decision!r}")
    return net.fix_decision(decision, contingency_from_tree(tree))


def sweep_back(diagram: InfluenceDiagram,
               config: RefinementConfig | Mapping[str, RefinementConfig] | None = None,
               observer: Callable[[str, ExtensionEvent], None] | None = None,
               ) -> tuple[MultistagePolicy, dict[str, AnytimeTrace]]:
    """Refine each decision from last to first, compiling as it goes.

    The joint value is the first decision's tree value (its trace's last
    record), which already accounts for every later decision acting by its
    compiled policy.
    """
    order = diagram.decision_order
    if not order:
        raise DiagramError("diagram has no decision node")

    def config_for(d: str) -> RefinementConfig:
        if config is None:
            return RefinementConfig()
        if isinstance(config, RefinementConfig):
            return config
        return config.get(d, RefinementConfig())

    net = compile_network(diagram)
    traces: dict[str, AnytimeTrace] = {}
    compiled: dict[str, CompiledPolicy] = {}
    for d in reversed(order):
        engine = Engine(net)
        hook = None if observer is None else (lambda ev, _d=d: observer(_d, ev))
        tree, trace = refine(engine, d, config_for(d), observer=hook)
        traces[d] = trace
        net = compile_decision(net, d, tree)
        compiled[d] = CompiledPolicy(d, tree, net.fixed_policies[d])

    final = traces[order[0]].records[-1]
    policy = MultistagePolicy([compiled[d] for d in order], final.value_normalized,
                              final.value_raw)
    return policy, traces


def multistage_policy_json(policy: MultistagePolicy) -> dict:
    return {"value_normalized": policy.value_normalized,
            "value_raw": policy.value_raw,
            "policies": [{"decision": p.decision,
                          "used_predecessors": list(p.contingency.parents),
                          "tree": vertex_to_json(p.tree.root)}
                         for p in policy.policies]}


def dumps_multistage_policy(policy: MultistagePolicy) -> str:
    return json.dumps(multistage_policy_json(policy), indent=2)
