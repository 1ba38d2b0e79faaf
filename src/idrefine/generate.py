"""Seeded random problem generators.

The RNG is numpy's PCG64 (``numpy.random.default_rng``); the sampling
order below is part of the contract, so a seed pins a diagram exactly and
changing either is a breaking change.

Single-decision template: n parentless chance predecessors, each an arc
into the decision and into the value node.

* chance priors, node index order: binary nodes draw one uniform number p
  on (0, 1) for the first outcome; wider nodes draw ``arity`` uniforms and
  normalize;
* utility entries, row-major over (c1, .., cn, d): uniform on [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import (ChanceNode, DecisionNode, InfluenceDiagram, ValueNode,
                      Variable, normalize_rows)


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    seed: int
    arity: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


def gen_random_id(spec: GeneratorSpec) -> InfluenceDiagram:
    """Instantiate the single-decision template for the given spec."""
    rng = np.random.default_rng(spec.seed)
    arity = spec.arity
    outs = tuple(f"v{i}" for i in range(arity))
    nodes: dict[str, object] = {}
    chance_names = []
    for k in range(1, spec.n + 1):
        name = f"c{k}"
        chance_names.append(name)
        if arity == 2:
            p = float(rng.uniform())
            prior = np.array([p, 1.0 - p])
        else:
            draws = rng.uniform(size=arity)
            prior = draws / draws.sum()
        # exact-fixpoint normalization keeps serialize/parse round-trips identical
        prior = normalize_rows(prior[None, :])[0]
        nodes[name] = ChanceNode(Variable(name, outs), (), prior)

    actions = tuple(f"a{i}" for i in range(arity))
    nodes["d"] = DecisionNode(Variable("d", actions), tuple(chance_names))

    shape = (arity,) * spec.n + (arity,)
    utility = rng.random(size=shape)
    nodes["v"] = ValueNode("v", tuple(chance_names) + ("d",), utility)
    return InfluenceDiagram(nodes, ("d",))


def gen_two_stage(seed: int) -> InfluenceDiagram:
    """Seeded two-decision problem exercising the sweep-back machinery.

    Structure: binary chance c1, c2; first decision d1 observes c1; chance
    m depends on d1 and c2; second decision d2 observes d1 and m; utility
    over (c1, d1, m, d2).  The intermediate node m is a descendant of d1,
    and d1 itself sits in d2's information set.
    """
    rng = np.random.default_rng(seed)
    b = ("y", "n")
    nodes: dict[str, object] = {}
    for name in ("c1", "c2"):
        p = float(rng.uniform())
        prior = normalize_rows(np.array([[p, 1.0 - p]]))[0]
        nodes[name] = ChanceNode(Variable(name, b), (), prior)
    nodes["d1"] = DecisionNode(Variable("d1", ("go", "wait")), ("c1",))
    rows = rng.uniform(size=(2, 2))
    cpt = np.stack([rows, 1.0 - rows], axis=-1)  # axes (d1, c2, m)
    cpt = normalize_rows(cpt.reshape(-1, 2)).reshape(2, 2, 2)
    nodes["m"] = ChanceNode(Variable("m", b), ("d1", "c2"), cpt)
    nodes["d2"] = DecisionNode(Variable("d2", ("buy", "skip")), ("d1", "m"))
    nodes["v"] = ValueNode("v", ("c1", "d1", "m", "d2"), rng.random(size=(2, 2, 2, 2)))
    return InfluenceDiagram(nodes, ("d1", "d2"))
