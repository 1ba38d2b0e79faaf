import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import charged, rescan_open, uncharged
from idrefine.diagram import DecisionNode, InfluenceDiagram, ValueNode, Variable
from idrefine.engine import Calibration, Engine, compile_network
from idrefine.fixtures import (constant_utility, deterministic_exclusion,
                               mini_weather, mini_weather_coin)
from idrefine.generate import GeneratorSpec, gen_random_id, gen_two_stage
from idrefine.harness import greedy_query_bound
from idrefine.oracle import oracle_optimal
from idrefine.refine import (CSV_HEADER, EXTENSION_STRATEGIES, LEAF_STRATEGIES,
                             PosthocSelector, RandomLeafSelector, RefinementConfig,
                             StoppingRule, refine)
from idrefine.tree import (Internal, Leaf, best_extension, extend, extensions, init_tree,
                           iter_leaves, random_extension, tree_value)

TOL = 1e-9


def open_leaves(tree):
    """The tree's open leaves in depth-first order, as a selector starts with them."""
    return [l for l in iter_leaves(tree) if l in tree.open]


def notify(selector, tree, vertex):
    """Tell the selector of an extension as refine does: the vertex's gain
    and the leaves it opened, in outcome order."""
    selector.notify_extended(vertex.gain,
                             [c for c in vertex.children.values() if c in tree.open])


def run(diagram, decision=None, observer=None, **cfg):
    decision = decision or diagram.decision_order[0]
    engine = Engine(compile_network(diagram))
    tree, trace = refine(engine, decision, RefinementConfig(**cfg), observer=observer)
    return engine, tree, trace


class TestConfig:
    def test_stop_rule_needs_a_bound(self):
        with pytest.raises(ValueError, match="at least one bound"):
            StoppingRule()

    @pytest.mark.parametrize("bounds, message", [
        ({"max_extensions": -1}, "max_extensions must not be negative"),
        ({"max_passes": -3, "run_to_complete": True}, "max_passes must not be negative"),
        ({"min_evi": float("nan")}, "min_evi must be a number")])
    def test_stop_rule_rejects_invalid_bounds(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            StoppingRule(**bounds)

    def test_stop_rule_replace_is_checked(self):
        with pytest.raises(ValueError, match="max_extensions must not be negative"):
            replace(StoppingRule(run_to_complete=True), max_extensions=-1)

    def test_stop_rule_zero_bounds_allowed(self):
        StoppingRule(max_extensions=0, max_passes=0, min_evi=0.0)

    @pytest.mark.parametrize("bound", ["max_extensions", "max_passes", "min_evi"])
    def test_stop_rule_unbounded(self, bound):
        """Any one bound makes a rule bounded, with or without run_to_complete."""
        assert StoppingRule(run_to_complete=True).unbounded
        for complete in (False, True):
            assert not StoppingRule(**{bound: 0}, run_to_complete=complete).unbounded

    def test_min_evi_requires_greedy(self):
        with pytest.raises(ValueError, match="greedy"):
            RefinementConfig(extension_strategy="random",
                             stop=StoppingRule(min_evi=0.1))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="leaf strategy"):
            RefinementConfig(leaf_strategy="best")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must not be negative, got -1"):
            RefinementConfig(seed=-1)


class TestLoop:
    def test_mini_weather_two_records(self):
        _, tree, trace = run(mini_weather())
        assert len(trace.records) == 2
        assert trace.records[-1].value_normalized == pytest.approx(0.812, abs=TOL)
        assert trace.records[0].passes == 2

    def test_max_extensions_zero(self):
        _, tree, trace = run(mini_weather(), stop=StoppingRule(max_extensions=0))
        assert isinstance(tree.root, Leaf)
        assert len(trace.records) == 1

    def test_degenerate_single_record(self):
        _, tree, trace = run(constant_utility())
        assert len(trace.records) == 1
        assert trace.records[0].value_normalized == pytest.approx(0.5)

    def test_min_evi_stops_before_worthless_split(self):
        diagram = mini_weather_coin(2)
        # after splitting on the report, remaining candidates are worthless coins
        _, tree, trace = run(diagram, stop=StoppingRule(min_evi=1e-6))
        assert len(trace.records) == 2
        assert isinstance(tree.root, Internal)
        assert tree.root.variable == "R"

    def test_max_passes_budget(self):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=5))
        engine, tree, trace = run(diagram, stop=StoppingRule(max_passes=20))
        full_engine, _, _ = run(diagram)
        assert trace.records[-1].passes < full_engine.counter.passes

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 4))
    def test_trace_value_monotone_and_costs_increasing(self, seed, n):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        for strategies in (("posthoc", "greedy"), ("random", "random")):
            _, _, trace = run(diagram, leaf_strategy=strategies[0],
                              extension_strategy=strategies[1], seed=seed)
            records = trace.records
            for prev, cur in zip(records, records[1:]):
                assert cur.value_normalized >= prev.value_normalized - TOL
                assert cur.fine_queries > prev.fine_queries
                assert cur.passes > prev.passes

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 4))
    def test_both_strategies_converge_to_oracle(self, seed, n):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        oracle = oracle_optimal(diagram, "d")
        for strategies in (("posthoc", "greedy"), ("random", "random")):
            _, tree, _ = run(diagram, leaf_strategy=strategies[0],
                             extension_strategy=strategies[1], seed=seed)
            assert tree_value(tree) == pytest.approx(oracle.value, abs=TOL)


class TestQueryAccounting:
    def test_greedy_leaf_exploration_pass_formula(self):
        n = 4
        diagram = gen_random_id(GeneratorSpec(n=n, seed=11))
        events = []
        run(diagram, observer=events.append)
        assert len(events) == 2 ** n - 1
        for ev in events:
            assert ev.passes_delta == 2 * (n - ev.context_size) + 1

    def test_random_extension_costs_three_passes(self):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=11))
        events = []
        run(diagram, leaf_strategy="random", extension_strategy="random",
            seed=0, observer=events.append)
        assert all(ev.passes_delta == 3 for ev in events)

    @given(n=st.integers(2, 4), b=st.integers(2, 3), seed=st.integers(0, 500))
    def test_greedy_fine_total_under_query_bound(self, n, b, seed):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=b))
        engine, _, _ = run(diagram, seed=seed)
        assert engine.counter.fine < greedy_query_bound(n, b)

    def test_n8_fine_budget(self):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=2))
        engine, tree, _ = run(diagram)
        assert tree_value(tree) == pytest.approx(
            oracle_optimal(diagram, "d").value, abs=TOL)
        assert engine.counter.fine < 8 * 2 ** 9


class TestPosthocSelector:
    def test_root_leaf_served_first(self):
        eng = Engine(compile_network(mini_weather()))
        tree = init_tree(eng, "D")
        sel = PosthocSelector(open_leaves(tree), np.random.default_rng(0))
        assert sel.next_leaf() is tree.root

    def test_leaves_of_best_vertex_served_in_outcome_order(self):
        diagram = mini_weather_coin()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        sel = PosthocSelector(open_leaves(tree), np.random.default_rng(0))
        root_leaf = sel.next_leaf()
        vertex = extend(tree, root_leaf, "R", eng)
        notify(sel, tree, vertex)
        first = sel.next_leaf()
        assert first is vertex.children["sunny"]
        extend(tree, first, "C1", eng)
        second = sel.next_leaf()
        assert second is vertex.children["rainy"]

    def test_higher_gain_vertex_served_before_lower(self):
        """Split the root, then both its children; whichever of the two
        vertices is notified first, the one that gained more is served
        first, all its leaves before any of the other's."""
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=3, seed=1))))
        tree = init_tree(eng, "d")
        sel = PosthocSelector(open_leaves(tree), np.random.default_rng(0))
        notify(sel, tree, extend(tree, sel.next_leaf(), "c1", eng))
        low, high = sorted((extend(tree, sel.next_leaf(), "c2", eng) for _ in range(2)),
                           key=lambda vertex: vertex.gain)
        assert low.gain < high.gain
        notify(sel, tree, low)
        notify(sel, tree, high)
        served = [sel.next_leaf() for _ in range(4)]
        assert served == (list(high.children.values()) + list(low.children.values()))
        assert sel.next_leaf() is None

    def test_equal_gains_same_seed_identical_order(self):
        diagram = gen_random_id(GeneratorSpec(n=3, seed=7))
        runs = []
        for _ in range(2):
            events = []
            run(diagram, seed=42, observer=events.append)
            runs.append([(e.context_size, e.variable) for e in events])
        assert runs[0] == runs[1]


class TestRandomLeafSelector:
    def test_single_extensible_leaf(self):
        eng = Engine(compile_network(mini_weather()))
        tree = init_tree(eng, "D")
        sel = RandomLeafSelector(open_leaves(tree), np.random.default_rng(0))
        assert sel.next_leaf() is tree.root

    def test_uniform_over_leaves(self):
        diagram = gen_random_id(GeneratorSpec(n=3, seed=1))
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "d")
        extend(tree, tree.root, "c1", eng)
        for leaf in [l for l in iter_leaves(tree)]:
            extend(tree, leaf, "c2", eng)
        leaves = [l for l in iter_leaves(tree) if extensions(tree, l)]
        assert len(leaves) == 4
        sel = RandomLeafSelector(open_leaves(tree), np.random.default_rng(123))
        counts = {id(l): 0 for l in leaves}
        draws = 10_000
        for _ in range(draws):
            counts[id(sel.next_leaf())] += 1
        sigma = (draws * 0.25 * 0.75) ** 0.5
        for c in counts.values():
            assert abs(c - draws / 4) < 5 * sigma

    def test_seeded_reproducibility(self):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=3))
        sequences = []
        for _ in range(2):
            events = []
            run(diagram, leaf_strategy="random", extension_strategy="random",
                seed=9, observer=events.append)
            sequences.append([(e.context_size, e.variable) for e in events])
        assert sequences[0] == sequences[1]

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 5), arity=st.integers(2, 3),
           exclusion=st.booleans())
    def test_kept_list_equals_rescan(self, seed, n, arity, exclusion):
        diagram = (deterministic_exclusion() if exclusion
                   else gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity)))
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, diagram.decision_order[0])
        rng = np.random.default_rng(seed)
        sel = RandomLeafSelector(open_leaves(tree), rng)
        while (leaf := sel.next_leaf()) is not None:
            candidates = extensions(tree, leaf)
            variable = candidates[int(rng.integers(len(candidates)))].name
            notify(sel, tree, extend(tree, leaf, variable, eng))
            assert sel._leaves == rescan(tree)

    @pytest.mark.parametrize("extension", ["random", "greedy"])
    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2), (6, 3)])
    def test_same_events_as_rescanning_selector(self, monkeypatch, extension, n, seed):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        cfg = dict(leaf_strategy="random", extension_strategy=extension, seed=seed)
        events = []
        run(diagram, observer=events.append, **cfg)
        monkeypatch.setattr(sys.modules["idrefine.refine"], "RandomLeafSelector",
                            RescanningSelector)
        reference = []
        run(diagram, observer=reference.append, **cfg)
        assert len(events) == 2 ** n - 1
        assert events == reference


def rescan(tree):
    return [l for l in iter_leaves(tree) if not l.pruned and extensions(tree, l)]


class RescanningSelector:
    """Reference: a uniform draw, on every call, over a fresh depth-first
    scan of the leaves it started with and those each extension opened,
    a served leaf standing for the leaves it opened.  It serves whatever
    refine serves: a tree's leaves, or the records grown for them."""

    def __init__(self, leaves, rng):
        self._rng, self._roots, self._opened, self._served = rng, list(leaves), {}, None

    def notify_extended(self, gain, opened):
        self._opened[id(self._served)] = list(opened)

    def scan(self, leaves):
        for leaf in leaves:
            if id(leaf) in self._opened:
                yield from self.scan(self._opened[id(leaf)])
            else:
                yield leaf

    def next_leaf(self):
        candidates = list(self.scan(self._roots))
        if not candidates:
            return None
        self._served = candidates[int(self._rng.integers(len(candidates)))]
        return self._served


class TestTreeWalks:
    """A run walks the tree a bounded number of times, not once per iteration."""

    def walks(self, monkeypatch, n, **cfg):
        counted = []
        # sys.modules: the package re-exports the function refine as idrefine.refine
        targets = [(sys.modules["idrefine.tree"], "iter_vertices"),
                   (sys.modules["idrefine.tree"], "iter_leaves")]
        for module, name in targets:
            def counting(*args, _original=getattr(module, name), _name=name):
                counted.append(_name)
                return _original(*args)
            monkeypatch.setattr(module, name, counting)
        _, _, trace = run(gen_random_id(GeneratorSpec(n=n, seed=n)), **cfg)
        monkeypatch.undo()
        assert trace.records[-1].internal_vertices == 2 ** n - 1
        return len(counted)

    @pytest.mark.parametrize("leaf, extension", [("posthoc", "greedy"),
                                                 ("random", "random"),
                                                 ("random", "greedy")])
    def test_walk_count_independent_of_iterations(self, monkeypatch, leaf, extension):
        """A new tree is one leaf, counted with no walk, and each selector
        starts from its open leaves and is told the leaves each extension
        opens, so no run walks the tree."""
        small = self.walks(monkeypatch, 4, leaf_strategy=leaf, extension_strategy=extension)
        large = self.walks(monkeypatch, 7, leaf_strategy=leaf, extension_strategy=extension)
        assert small == large == 0


class TestOpenLeaves:
    """tree.open, kept by extend(), equals a rescan of the tree after every
    extension, whichever strategies choose the leaf and the variable."""

    @pytest.mark.parametrize("leaf", LEAF_STRATEGIES)
    @pytest.mark.parametrize("extension", EXTENSION_STRATEGIES)
    @given(seed=st.integers(0, 3_000), n=st.integers(2, 4), arity=st.integers(2, 3),
           exclusion=st.booleans())
    def test_open_matches_rescan(self, leaf, extension, seed, n, arity, exclusion):
        diagram = deterministic_exclusion() if exclusion else gen_random_id(
            GeneratorSpec(n=n, seed=seed, arity=arity))
        engine = Engine(compile_network(diagram))
        tree = init_tree(engine, diagram.decision_order[0])
        rng = np.random.default_rng(seed)
        selector = (PosthocSelector if leaf == "posthoc" else RandomLeafSelector)(
            open_leaves(tree), rng)
        assert tree.open == rescan_open(tree) == {tree.root: None}
        while (chosen := selector.next_leaf()) is not None:
            if extension == "greedy":
                variable, _ = best_extension(tree, chosen, engine)
            else:
                variable = random_extension(tree, chosen, engine, rng)
            notify(selector, tree, extend(tree, chosen, variable, engine))
            assert tree.open == rescan_open(tree)
        assert not tree.open


def holds_joint(leaf):
    return leaf.checked is not None and leaf.checked.joint is not None


class TestLeafJointsReleased:
    """However a run stops, it keeps no leaf joint, so the root joint the
    open leaves' joints were sliced from can be freed, and no sibling
    results it was never charged for; the open leaves keep their checked
    contexts, so the tree can still be extended."""

    @pytest.mark.parametrize("stop", [StoppingRule(max_extensions=60),
                                      StoppingRule(max_passes=400),
                                      StoppingRule(min_evi=1e-3),
                                      StoppingRule(max_extensions=0)])
    def test_budgeted_greedy_run(self, monkeypatch, stop):
        tree_module = sys.modules["idrefine.tree"]
        grouped = []

        def recording(leaves, _original=tree_module._stack):
            _original(leaves)
            grouped.extend(c for c in leaves if uncharged(c))
        monkeypatch.setattr(tree_module, "_stack", recording)
        engine, tree, _ = run(gen_random_id(GeneratorSpec(n=12, seed=0)), stop=stop)
        leaves = list(iter_leaves(tree))
        assert tree.open and all(l.checked is not None for l in tree.open)
        assert not any(holds_joint(l) or uncharged(l) for l in leaves)
        never_charged = {l for l in grouped if not charged(l)}
        assert never_charged <= set(leaves)
        # each of these stops lands between two siblings of one group
        assert bool(never_charged) == (stop.max_extensions != 0)
        leaf = next(iter(tree.open))  # the returned tree can still be extended
        variable, gain = best_extension(tree, leaf, engine)
        assert extend(tree, leaf, variable, engine).gain == gain

    @pytest.mark.parametrize("leaf", LEAF_STRATEGIES)
    @pytest.mark.parametrize("extension", EXTENSION_STRATEGIES)
    def test_complete_run(self, leaf, extension):
        _, tree, _ = run(gen_random_id(GeneratorSpec(n=5, seed=2, arity=3)),
                         leaf_strategy=leaf, extension_strategy=extension, seed=1)
        assert not tree.open
        assert not any(holds_joint(l) or uncharged(l) for l in iter_leaves(tree))

    def test_degenerate_network(self):
        _, tree, trace = run(constant_utility())
        assert len(trace.records) == 1
        assert tree.open == {tree.root: None}
        assert tree.root.checked.joint is None and tree.root.explored is None

    def test_root_without_predecessors_keeps_none(self):
        nodes = {"d": DecisionNode(Variable("d", ("a", "b")), ()),
                 "v": ValueNode("v", ("d",), np.array([0.0, 1.0]))}
        tree = init_tree(Engine(compile_network(InfluenceDiagram(nodes, ("d",)))), "d")
        assert (tree.root.action, tree.root.value, tree.root.checked) == ("b", 1.0, None)


class TestEngineQueries:
    """A complete run on the star template contracts once, to the root's
    leaf joint: the root's action is read from it, and every later
    evaluation slices it.  A complete greedy run evaluates each leaf it
    explores once, in one stacked pass per level of the tree.  A two-stage
    sweep compiles its network once and contracts once per decision."""

    @staticmethod
    def counting(monkeypatch, module, name):
        counted = []

        def counter(*args, _original=getattr(module, name)):
            counted.append(1)
            return _original(*args)
        monkeypatch.setattr(module, name, counter)
        return counted

    def queries(self, monkeypatch, n, **cfg):
        counted = self.counting(monkeypatch, sys.modules["idrefine.engine"], "_query")
        _, _, trace = run(gen_random_id(GeneratorSpec(n=n, seed=n)), **cfg)
        monkeypatch.undo()
        assert trace.records[-1].internal_vertices == 2 ** n - 1
        return len(counted)

    @pytest.mark.parametrize("leaf, extension", [("posthoc", "greedy"),
                                                 ("random", "random")])
    def test_query_count_independent_of_n(self, monkeypatch, leaf, extension):
        assert self.queries(monkeypatch, 4, leaf_strategy=leaf, extension_strategy=extension) == 1
        assert self.queries(monkeypatch, 7, leaf_strategy=leaf, extension_strategy=extension) == 1

    @pytest.mark.parametrize("n", [4, 7])
    def test_each_explored_leaf_stacked_once(self, monkeypatch, n):
        """Each leaf the run explores is explored once, as a row of one
        stacked pass per level, the root's a stack of one; a star's leaves
        of one level have joints of one shape.  No leaf is read alone on a
        calibration."""
        rows, alone = [], []

        def counting(engine, stack, axis=None, _original=Engine.explore_stack):
            rows.append(len(stack))  # the contexts stacked
            return _original(engine, stack, axis)

        def reading(cal, variables, stacked=None, _original=Calibration.rows):
            alone.append(stacked)
            return _original(cal, variables, stacked)
        monkeypatch.setattr(Engine, "explore_stack", counting)
        monkeypatch.setattr(Calibration, "rows", reading)
        _, tree, trace = run(gen_random_id(GeneratorSpec(n=n, seed=n)))
        monkeypatch.undo()
        assert trace.records[-1].internal_vertices == 2 ** n - 1
        assert (rows, alone) == ([2 ** k for k in range(n)], [])

    @pytest.mark.parametrize("seed", range(4))
    def test_two_stage_sweep(self, monkeypatch, seed):
        multistage = sys.modules["idrefine.multistage"]
        queries = self.counting(monkeypatch, sys.modules["idrefine.engine"], "_query")
        compiles = self.counting(monkeypatch, multistage, "compile_network")
        multistage.sweep_back(gen_two_stage(seed))
        monkeypatch.undo()
        assert (len(queries), len(compiles)) == (2, 1)


class TestTraceCsv:
    def test_header_and_shape(self):
        _, _, trace = run(mini_weather())
        lines = trace.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(trace.records)
        assert lines[1].startswith("0,4,2,0,1,")

    def test_byte_identical_across_runs(self):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=8))
        outputs = []
        for _ in range(2):
            _, _, trace = run(diagram, leaf_strategy="random",
                              extension_strategy="random", seed=4)
            outputs.append(trace.to_csv())
        assert outputs[0] == outputs[1]
