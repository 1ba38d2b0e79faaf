import copy
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_statistics, charged, loop_gain, uncharged
from idrefine.engine import ZERO_PROB, Calibration, Engine, compile_network
from idrefine.fixtures import (constant_utility, deterministic_exclusion,
                               mini_weather, mini_weather_coin, weather3)
from idrefine.generate import GeneratorSpec, gen_random_id
from idrefine.oracle import oracle_optimal
from idrefine.refine import RefinementConfig, refine
from idrefine.tree import (_SCALE, DecisionTree, Explored, Leaf, _exact, _gain,
                           apply_policy, best_extension, evi, extend, extensions,
                           find_leaf, init_tree, iter_leaves, to_table,
                           tree_counts, tree_value, vertex_to_json)

TOL = 1e-9


def fresh(diagram):
    eng = Engine(compile_network(diagram))
    return eng, init_tree(eng, diagram.decision_order[0])


class TestInitTree:
    def test_mini_weather(self):
        eng, tree = fresh(mini_weather())
        assert isinstance(tree.root, Leaf)
        assert tree.root.action == "leave"
        assert tree.root.value == pytest.approx(0.70, abs=TOL)
        assert tree.root.reach == 1.0
        assert eng.counter.passes == 2

    def test_degenerate_first_action(self):
        eng, tree = fresh(constant_utility())
        assert tree.root.action == "take"
        assert tree.root.value == pytest.approx(0.5)

    def test_tree_starts_only_as_one_leaf(self):
        """A tree is made around one leaf, as init_tree makes it; a grown
        vertex, or anything else, is refused with a TypeError before any
        statistic is read from it."""
        eng, tree = fresh(mini_weather_coin())
        node = extend(tree, tree.root, "R", eng)
        fields = (tree.decision, tree.actions, tree.predecessors, tree.u_min, tree.u_max)
        for root in (node, None, "leave"):
            with pytest.raises(TypeError, match="starts as a Leaf .*, not "
                                                + type(root).__name__):
                DecisionTree(*fields, root)
        made = DecisionTree(*fields, Leaf("leave", 0.7, 1.0, ()))
        assert (made.internals, made.leaves, tree_value(made)) == (0, 1, 0.7)
        assert made.open == {made.root: None}

    def test_two_passes_everywhere(self):
        for diagram in (mini_weather(), weather3(), deterministic_exclusion(),
                        gen_random_id(GeneratorSpec(n=5, seed=3))):
            eng, _ = fresh(diagram)
            assert eng.counter.passes == 2


class TestTreeValue:
    def test_single_leaf(self):
        _, tree = fresh(mini_weather())
        assert tree_value(tree) == pytest.approx(0.70, abs=TOL)

    def test_complete_tree(self):
        eng, tree = fresh(mini_weather())
        extend(tree, tree.root, "R", eng)
        assert tree_value(tree) == pytest.approx(0.812, abs=TOL)
        assert tree.denormalize(tree_value(tree)) == pytest.approx(81.2, abs=TOL)

    @given(seed=st.integers(0, 3_000), n=st.integers(2, 4))
    def test_complete_tree_matches_oracle(self, seed, n):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        eng = Engine(compile_network(diagram))
        tree, _ = refine(eng, "d")
        assert tree_value(tree) == pytest.approx(
            oracle_optimal(diagram, "d").value, abs=TOL)


class TestExtend:
    def test_root_split_on_report(self):
        eng, tree = fresh(mini_weather())
        node = extend(tree, tree.root, "R", eng)
        assert node.variable == "R"
        sunny, rainy = node.children["sunny"], node.children["rainy"]
        assert (sunny.action, rainy.action) == ("leave", "take")
        assert sunny.reach == pytest.approx(0.69, abs=TOL)
        assert node.gain == pytest.approx(0.112, abs=TOL)

    def test_irrelevant_coin_keeps_action(self):
        diagram = mini_weather_coin()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        node = extend(tree, tree.root, "C1", eng)
        assert [c.action for c in node.children.values()] == ["leave", "leave"]
        assert node.gain == pytest.approx(0.0, abs=TOL)

    def test_impossible_child_pruned(self):
        diagram = deterministic_exclusion()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        extend(tree, tree.root, "A", eng)
        a0 = find_leaf(tree, (("A", "a0"),))
        node = extend(tree, a0, "B", eng)
        impossible = node.children["b1"]
        assert impossible.pruned
        assert impossible.reach == 0.0
        assert impossible.action == a0.action  # inherited
        assert not node.children["b0"].pruned

    def test_extending_pruned_leaf_fails(self):
        diagram = deterministic_exclusion()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        extend(tree, tree.root, "A", eng)
        a0 = find_leaf(tree, (("A", "a0"),))
        extend(tree, a0, "B", eng)
        pruned = find_leaf(tree, (("A", "a0"), ("B", "b1")))
        with pytest.raises(ValueError, match="pruned"):
            extend(tree, pruned, "C", eng)

    def test_extending_complete_leaf_fails(self):
        eng, tree = fresh(mini_weather())
        extend(tree, tree.root, "R", eng)
        leaf = find_leaf(tree, (("R", "sunny"),))
        with pytest.raises(ValueError, match="every predecessor"):
            extend(tree, leaf, "R", eng)

    def test_variable_already_in_context_fails(self):
        diagram = mini_weather_coin()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        extend(tree, tree.root, "R", eng)
        leaf = find_leaf(tree, (("R", "sunny"),))
        with pytest.raises(ValueError, match="not a possible extension"):
            extend(tree, leaf, "R", eng)

    def test_foreign_leaf_rejected(self):
        eng, tree = fresh(mini_weather())
        _, other = fresh(mini_weather())
        with pytest.raises(ValueError, match="does not belong"):
            extend(tree, other.root, "R", eng)

    @staticmethod
    def reject_strangers(call):
        """call(tree, leaf, engine) on a leaf of another tree and on one
        already replaced, below the root, raises and charges and changes
        nothing."""
        eng, tree = fresh(mini_weather_coin(2))
        other_eng, other = fresh(mini_weather_coin(2))
        extend(tree, tree.root, "R", eng)
        extend(other, other.root, "R", other_eng)
        sunny = find_leaf(tree, (("R", "sunny"),))
        extend(tree, sunny, "C1", eng)
        before = (eng.counter.snapshot(), tree_counts(tree), tree_value(tree), dict(tree.open))
        for stranger in (find_leaf(other, (("R", "sunny"),)), sunny):
            record = charged(stranger), uncharged(stranger)
            with pytest.raises(ValueError, match="does not belong"):
                call(tree, stranger, eng)
            assert (charged(stranger), uncharged(stranger)) == record
        assert (eng.counter.snapshot(), tree_counts(tree), tree_value(tree),
                tree.open) == before

    def test_foreign_or_replaced_inner_leaf_rejected(self):
        """tree.open tells a leaf of this tree from a leaf of another tree
        or one already replaced, below the root too."""
        self.reject_strangers(lambda tree, leaf, eng: extend(tree, leaf, "C2", eng))

    @pytest.mark.parametrize("call", [
        lambda tree, leaf, eng: evi(tree, leaf, "C2", eng),
        lambda tree, leaf, eng: best_extension(tree, leaf, eng)],
        ids=["evi", "best_extension"])
    def test_foreign_or_replaced_leaf_not_explored(self, call):
        self.reject_strangers(call)

    def test_deep_copy_extends_apart(self):
        """A deep copy links its own vertices, so extending an inner leaf of
        the copy leaves the original as it was."""
        eng, tree = fresh(mini_weather_coin(2))
        extend(tree, tree.root, "R", eng)
        copied = copy.deepcopy(tree)
        extend(copied, find_leaf(copied, (("R", "rainy"),)), "C1", eng)
        assert isinstance(find_leaf(tree, (("R", "rainy"),)), Leaf)
        assert_statistics(tree)
        assert_statistics(copied)
        assert tree_counts(copied) == (2, 3)

    def test_deep_copy_drops_its_joints_apart(self):
        """A deep copy's open leaf holds a checked context of its own that
        shares the original's leaf joint, so dropping the copy's joint, as
        refine does at the end of a run, keeps the original's; both still
        extend to the same vertex."""
        eng, tree = fresh(gen_random_id(GeneratorSpec(n=3, seed=1)))
        copied = copy.deepcopy(tree)
        joint = tree.root.checked.joint
        assert joint is not None and copied.root.checked is not tree.root.checked
        assert copied.root.checked.joint is joint
        copied.root.checked.joint = None
        assert tree.root.checked.joint is joint
        assert extend(copied, copied.root, "c2", eng).gain == \
            extend(tree, tree.root, "c2", eng).gain

    def test_greedy_cache_makes_extend_free(self):
        eng, tree = fresh(mini_weather_coin())
        best_extension(tree, tree.root, eng)
        before = eng.counter.snapshot()
        extend(tree, tree.root, "R", eng)
        assert eng.counter.snapshot() == before


class TestEvi:
    def test_root_report(self):
        eng, tree = fresh(mini_weather())
        assert evi(tree, tree.root, "R", eng) == pytest.approx(0.112, abs=TOL)

    def test_irrelevant_coin_zero(self):
        eng, tree = fresh(mini_weather_coin())
        assert evi(tree, tree.root, "C1", eng) == pytest.approx(0.0, abs=TOL)

    @given(seed=st.integers(0, 2_000))
    def test_definitional_consistency(self, seed):
        diagram = gen_random_id(GeneratorSpec(n=3, seed=seed))
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "d")
        predicted = evi(tree, tree.root, "c2", eng)
        copied = copy.deepcopy(tree)
        extend(copied, copied.root, "c2", eng)
        assert predicted == pytest.approx(
            tree_value(copied) - tree_value(tree), abs=TOL)

    @given(seed=st.integers(0, 2_000))
    def test_never_negative(self, seed):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=seed))
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "d")
        for v in extensions(tree, tree.root):
            assert evi(tree, tree.root, v.name, eng) >= -TOL

    def test_locality_across_tree_states(self):
        # the same context yields the same improvement no matter what the
        # rest of the tree looks like
        diagram = weather3()

        eng1 = Engine(compile_network(diagram))
        t1 = init_tree(eng1, "Take")
        extend(t1, t1.root, "View", eng1)
        leaf1 = find_leaf(t1, (("View", "sunny"),))
        first = evi(t1, leaf1, "Report", eng1)

        eng2 = Engine(compile_network(diagram))
        t2 = init_tree(eng2, "Take")
        extend(t2, t2.root, "View", eng2)
        cloudy = find_leaf(t2, (("View", "cloudy"),))
        extend(t2, cloudy, "Report", eng2)  # unrelated extension elsewhere
        leaf2 = find_leaf(t2, (("View", "sunny"),))
        second = evi(t2, leaf2, "Report", eng2)
        assert first == pytest.approx(second, abs=TOL)


class TestBestExtension:
    def test_prefers_informative_variable(self):
        eng, tree = fresh(mini_weather_coin())
        name, gain = best_extension(tree, tree.root, eng)
        assert name == "R"
        assert gain == pytest.approx(0.112, abs=TOL)

    def test_singleton_candidate(self):
        eng, tree = fresh(mini_weather())
        name, _ = best_extension(tree, tree.root, eng)
        assert name == "R"

    def test_all_zero_ties_break_by_declaration(self):
        diagram = mini_weather_coin(2)
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        extend(tree, tree.root, "R", eng)
        leaf = find_leaf(tree, (("R", "sunny"),))
        name, gain = best_extension(tree, leaf, eng)
        assert name == "C1"
        assert gain == pytest.approx(0.0, abs=TOL)

    def test_pass_cost_is_two_per_candidate_plus_one(self):
        eng, tree = fresh(mini_weather_coin(2))
        before = eng.counter.passes
        best_extension(tree, tree.root, eng)
        assert eng.counter.passes - before == 2 * 3 + 1

    def test_one_batched_evaluation_per_explored_leaf(self, monkeypatch):
        calls = []
        original = Calibration.rows

        def counting(cal, variables, *rest):
            calls.append(tuple(variables))
            return original(cal, variables, *rest)

        monkeypatch.setattr(Calibration, "rows", counting)
        eng, tree = fresh(gen_random_id(GeneratorSpec(n=4, seed=0)))
        name, _ = best_extension(tree, tree.root, eng)
        assert calls == [("c1", "c2", "c3", "c4")]
        extend(tree, tree.root, name, eng)
        assert len(calls) == 1



def candidate_row(probs, values):
    """A row (best, probs, values) over len(probs) outcomes, every action index 0."""
    return [0] * len(probs), probs, values


class TestGains:
    """Each candidate's gain is computed once, when it is charged, and is bit
    for bit the former per-call loop (helpers.loop_gain)."""

    @given(arity=st.sampled_from([2, 3, 4, 9]), reach=st.floats(1e-9, 1.0),
           value=st.floats(0.0, 1.0), data=st.data())
    def test_matches_loop(self, arity, reach, value, data):
        """Random probabilities and values, some probabilities putting the
        child's reach just below, at or just above ZERO_PROB."""
        edge = ZERO_PROB / reach
        prob = st.one_of(st.floats(0.0, 1.0),
                         st.sampled_from([math.nextafter(edge, 0.0), edge,
                                          math.nextafter(edge, 1.0)]))
        probs = data.draw(st.lists(prob, min_size=arity, max_size=arity))
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=arity, max_size=arity))
        leaf, row = Leaf("a", value, reach, ()), candidate_row(probs, values)
        assert _gain(leaf, row).hex() == loop_gain(leaf, row).hex()

    def test_outcome_order_at_arity_nine(self):
        """At nine outcomes numpy's pairwise sum adds in another order and
        differs in the last bit here; the gain adds in outcome order."""
        rng = np.random.default_rng(1)
        probs, values = rng.dirichlet(np.ones(9)).tolist(), rng.random(9).tolist()
        leaf, row = Leaf("a", 0.0, 0.3, ()), candidate_row(probs, values)
        pairwise = float(np.sum(np.array(values) * (0.3 * np.array(probs))))
        assert _gain(leaf, row) == loop_gain(leaf, row) != pairwise

    @given(seed=st.integers(0, 10_000), arity=st.sampled_from([2, 3, 4, 9]))
    def test_recorded_gains_match_loop(self, seed, arity):
        """best_extension records every candidate's gain on the leaf, and each
        is loop_gain of that candidate's row."""
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=3 if arity < 9 else 2,
                                                                 seed=seed, arity=arity))))
        tree = init_tree(eng, "d")
        name, gain = best_extension(tree, tree.root, eng)
        record = tree.root.explored
        assert set(record.gains) == set(record.evaluations) == {v.name for v in tree.predecessors}
        for v, row in record.evaluations.items():
            assert record.gains[v].hex() == loop_gain(tree.root, row).hex()
        assert gain == record.gains[name] == max(record.gains.values())

    def test_first_maximum_on_exact_ties(self):
        """Equal gains go to the first candidate in declaration order, read
        from the record without a query."""
        eng, tree = fresh(mini_weather_coin(3))
        names = [v.name for v in extensions(tree, tree.root)]
        tree.root.explored = Explored({}, dict(zip(names, [0.25, 0.5, 0.5, 0.5])))
        before = eng.counter.snapshot()
        assert best_extension(tree, tree.root, eng) == (names[1], 0.5)
        tree.root.explored.gains.update(dict.fromkeys(names, 0.0))
        assert best_extension(tree, tree.root, eng) == (names[0], 0.0)
        assert eng.counter.snapshot() == before

    def test_extend_reuses_the_gain(self, monkeypatch):
        eng, tree = fresh(mini_weather_coin(2))
        name, gain = best_extension(tree, tree.root, eng)

        def unused(*args):
            raise AssertionError("gain computed twice")
        monkeypatch.setattr(sys.modules["idrefine.tree"], "_gain", unused)
        assert extend(tree, tree.root, name, eng).gain == gain


finite = st.one_of(st.floats(-1e300, 1e300),
                   st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


class TestExactValue:
    """The tree value is one integer, the sum of _exact(value * reach) over
    the leaves, read out by one division by _SCALE."""

    @settings(max_examples=200)
    @given(xs=st.lists(finite, max_size=30), data=st.data())
    def test_readout_is_fsum(self, xs, data):
        """Mixed signs, subnormals, signed zeros and exact cancellations:
        the readout is math.fsum, whatever the order of the additions, and
        adding then removing a term leaves it as it was."""
        if xs:
            xs = xs + [-x for x in data.draw(st.lists(st.sampled_from(xs), max_size=5))]
        total = sum(_exact(x) for x in xs)
        assert (total / _SCALE).hex() == math.fsum(xs).hex()
        shuffled = data.draw(st.permutations(xs))
        assert (sum(_exact(x) for x in shuffled) / _SCALE).hex() == (total / _SCALE).hex()
        term = data.draw(finite)
        assert ((total + _exact(term) - _exact(term)) / _SCALE).hex() == (total / _SCALE).hex()

    @given(x=finite)
    def test_exact_scaling(self, x):
        n, d = x.as_integer_ratio()
        assert _exact(x) * d == n * _SCALE

class TestApplyPolicy:
    def test_complete_tree(self):
        eng, tree = fresh(mini_weather())
        extend(tree, tree.root, "R", eng)
        assert apply_policy(tree, {"R": "rainy"}) == "take"
        assert apply_policy(tree, {"R": "sunny"}) == "leave"

    def test_single_leaf_ignores_state(self):
        _, tree = fresh(mini_weather())
        assert apply_policy(tree, {"R": "rainy"}) == "leave"

    def test_partial_path_ignores_unused_variables(self):
        # tree shaped like: View at the root, Report consulted only under cloudy
        eng, tree = fresh(weather3())
        extend(tree, tree.root, "View", eng)
        cloudy = find_leaf(tree, (("View", "cloudy"),))
        extend(tree, cloudy, "Report", eng)
        sunny_leaf = find_leaf(tree, (("View", "sunny"),))
        action = apply_policy(tree, {"View": "sunny", "Report": "rainy"})
        assert action == sunny_leaf.action

    def test_incomplete_state_rejected(self):
        eng, tree = fresh(mini_weather())
        with pytest.raises(ValueError, match="incomplete information state"):
            apply_policy(tree, {})

    def test_pruned_leaf_returns_inherited_action(self):
        diagram = deterministic_exclusion()
        eng = Engine(compile_network(diagram))
        tree, _ = refine(eng, "D")
        state = {"A": "a0", "B": "b1", "C": "c0"}
        assert apply_policy(tree, state) in ("go", "stay")


class TestToTable:
    def test_complete_mini_weather(self):
        eng, tree = fresh(mini_weather())
        extend(tree, tree.root, "R", eng)
        rows = to_table(tree)
        assert [(r["state"]["R"], r["action"]) for r in rows] == [
            ("sunny", "leave"), ("rainy", "take")]
        assert rows[0]["value_raw"] == pytest.approx(2100 / 23, abs=1e-6)

    def test_single_leaf_256_identical_rows(self):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=1))
        _, tree = fresh(diagram)
        rows = to_table(tree)
        assert len(rows) == 256
        assert len({r["action"] for r in rows}) == 1

    @given(seed=st.integers(0, 2_000))
    def test_matches_oracle_where_unique(self, seed):
        diagram = gen_random_id(GeneratorSpec(n=3, seed=seed))
        eng = Engine(compile_network(diagram))
        tree, _ = refine(eng, "d")
        oracle = oracle_optimal(diagram, "d")
        preds = oracle.predecessors
        for row in to_table(tree):
            key = tuple(row["state"][p] for p in preds)
            # oracle ties are broken arbitrarily; compare where meaningful
            if oracle.state_probs[key] > 0:
                assert row["action"] == oracle.table[key]


class TestStructuralInvariants:
    @given(seed=st.integers(0, 3_000))
    def test_leaf_reach_partitions_unity(self, seed):
        diagram = deterministic_exclusion() if seed % 3 == 0 else gen_random_id(
            GeneratorSpec(n=3, seed=seed))
        decision = diagram.decision_order[0]
        eng = Engine(compile_network(diagram))
        tree, _ = refine(eng, decision, RefinementConfig(seed=seed))
        assert sum(l.reach for l in iter_leaves(tree)) == pytest.approx(1.0, abs=TOL)

    @given(seed=st.integers(0, 3_000))
    def test_gain_additivity_and_monotonicity(self, seed):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=seed))
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "d")
        value = tree_value(tree)
        while True:
            leaf = next((l for l in iter_leaves(tree)
                         if not l.pruned and extensions(tree, l)), None)
            if leaf is None:
                break
            name, gain = best_extension(tree, leaf, eng)
            extend(tree, leaf, name, eng)
            new_value = tree_value(tree)
            assert new_value >= value - TOL
            assert new_value == pytest.approx(value + gain, abs=TOL)
            value = new_value

    @given(seed=st.integers(0, 3_000))
    def test_no_variable_repeats_on_any_path(self, seed):
        diagram = gen_random_id(GeneratorSpec(n=4, seed=seed))
        eng = Engine(compile_network(diagram))
        tree, _ = refine(eng, "d", RefinementConfig(
            leaf_strategy="random", extension_strategy="random", seed=seed))
        for leaf in iter_leaves(tree):
            names = [v for v, _ in leaf.context]
            assert len(names) == len(set(names))


class TestRunningStatistics:
    """extend() keeps the counts and the correctly rounded value current."""

    def grow(self, diagram, data, steps, first=()):
        """Extend `first` ((context, variable) pairs), then up to `steps`
        drawn leaves on drawn variables, checking after every extend."""
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, diagram.decision_order[0])
        assert_statistics(tree)
        for context, variable in first:
            extend(tree, find_leaf(tree, context), variable, eng)
            assert_statistics(tree)
        for _ in range(steps):
            open_leaves = [l for l in iter_leaves(tree)
                           if not l.pruned and extensions(tree, l)]
            if not open_leaves:
                break
            leaf = data.draw(st.sampled_from(open_leaves))
            variable = data.draw(st.sampled_from(extensions(tree, leaf))).name
            extend(tree, leaf, variable, eng)
            assert_statistics(tree)
        return tree

    @given(seed=st.integers(0, 3_000), n=st.integers(2, 5), arity=st.integers(2, 3),
           steps=st.integers(0, 40), data=st.data())
    def test_random_extension_sequences(self, seed, n, arity, steps, data):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
        self.grow(diagram, data, steps)

    @given(data=st.data())
    def test_pruned_leaves_excluded(self, data):
        # B copies A, so splitting a0 on B prunes its b1 child
        tree = self.grow(deterministic_exclusion(), data, 5,
                         first=[((), "A"), ((("A", "a0"),), "B")])
        assert find_leaf(tree, (("A", "a0"), ("B", "b1"))).pruned


class TestSerialization:
    def test_schema_keys(self):
        eng, tree = fresh(mini_weather())
        extend(tree, tree.root, "R", eng)
        doc = vertex_to_json(tree.root)
        assert set(doc) == {"var", "children"}
        assert set(doc["children"]) == {"sunny", "rainy"}
        leaf = doc["children"]["sunny"]
        assert set(leaf) == {"action", "value", "prob", "pruned"}
        assert leaf["pruned"] is False

    def test_deterministic_bytes(self):
        out = []
        for _ in range(2):
            eng, tree = fresh(mini_weather())
            extend(tree, tree.root, "R", eng)
            out.append(json.dumps(vertex_to_json(tree.root)))
        assert out[0] == out[1]
