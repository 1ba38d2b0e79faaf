import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (enum_best_action, loop_consistent_total, loop_oracle, loop_state_action,
                     normalized)
from idrefine.diagram import (SPLIT_MIN, DecisionNode, DiagramError, InfluenceDiagram,
                              ValueNode, information_states, parse_diagram)
from idrefine.engine import Engine, compile_network
from idrefine.fixtures import (CAR_BUYER_TABLE_NODES, car_buyer_template, constant_utility,
                               deterministic_exclusion, mini_weather)
from idrefine.generate import GeneratorSpec, gen_random_id, gen_two_stage
from idrefine.oracle import (_ARGMAX_STATES, StateSpaceCapError, _index, oracle_optimal,
                             oracle_optimal_multistage, state_action_values)

TOL = 1e-9


class TestSingleDecision:
    def test_mini_weather_by_hand(self):
        # hand enumeration of the 8-cell joint:
        #   EU(take|sunny)=560/23, EU(leave|sunny)=2100/23
        #   EU(take|rainy)=1820/31, EU(leave|rainy)=700/31
        # P(sunny)=0.69 -> value 0.69*2100/23 + 0.31*1820/31 = 81.2
        result = oracle_optimal(mini_weather())
        assert result.table == {("sunny",): "leave", ("rainy",): "take"}
        assert result.value == pytest.approx(0.812, abs=TOL)
        assert result.raw_value == pytest.approx(81.2, abs=TOL)
        assert result.state_probs[("sunny",)] == pytest.approx(0.69, abs=TOL)
        assert result.per_state[("sunny",)] == pytest.approx(21 / 23, abs=TOL)

    def test_value_matches_per_state_identity(self):
        result = oracle_optimal(mini_weather())
        mixed = sum(result.state_probs[s] * result.per_state[s] for s in result.table)
        assert mixed == pytest.approx(result.value, abs=TOL)

    def test_degenerate_all_first_action(self):
        result = oracle_optimal(constant_utility())
        assert set(result.table.values()) == {"take"}
        assert result.value == pytest.approx(0.5)

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 4))
    def test_dominates_random_tables(self, seed, n):
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        preds, num, den = state_action_values(diagram, "d")
        result = oracle_optimal(diagram, "d")
        rng = np.random.default_rng(seed)
        n_states, n_actions = num.shape
        picks = rng.integers(n_actions, size=(1000, n_states))
        values = num[np.arange(n_states), picks].sum(axis=1)
        assert (result.raw_value >= values - TOL).all()

    def test_not_a_decision(self):
        with pytest.raises(DiagramError, match="^'W' is not a decision node$"):
            oracle_optimal(mini_weather(), "W")

    def test_cap(self):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=0))
        with pytest.raises(StateSpaceCapError):
            oracle_optimal(diagram, "d", cap=100)

    def test_counters_untouched(self):
        diagram = mini_weather()
        engine = Engine(compile_network(diagram))
        oracle_optimal(diagram)
        assert engine.counter.snapshot() == (0, 0)


class TestAgainstIndependentEnumeration:
    """The oracle against the separate per-state enumeration in helpers.py."""

    @staticmethod
    def assert_matches(diagram, decision, every=1):
        """Every ``every``-th information state's action and values."""
        result = oracle_optimal(diagram, decision)
        _, num, den = state_action_values(diagram, decision)
        actions = diagram.variable(decision).outcomes
        for w, state in enumerate(information_states(diagram, decision)):
            if w % every:
                continue
            labels = tuple(state.values())
            action, raw = enum_best_action(diagram, decision, state)
            a = actions.index(result.table[labels])
            assert result.table[labels] == action
            assert num[w, a] / den[w, a] == pytest.approx(raw, abs=TOL)
            assert result.per_state[labels] == pytest.approx(
                normalized(diagram, raw), abs=TOL)

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_diagrams(self, n, arity):
        for seed in range(2):
            self.assert_matches(gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity)), "d")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_stage_every_decision(self, seed):
        diagram = gen_two_stage(seed)
        for decision in diagram.decisions:
            self.assert_matches(diagram, decision)

    def test_star_above_split_gate(self):
        """An n = 13 binary star, whose last joint product (2^13 entries)
        and binned mass split (oracle._multiply): every 1,024th state
        against the enumeration, and the value, float.hex, against the
        per-state loop over helpers.py's loop over every joint configuration."""
        diagram = gen_random_id(GeneratorSpec(n=13, seed=0))
        assert 2 ** 13 >= SPLIT_MIN
        self.assert_matches(diagram, "d", every=1024)
        result = oracle_optimal(diagram, "d")
        value = loop_oracle(diagram, "d", loop_state_action(diagram, "d"))[3]
        assert float(result.value).hex() == float(value).hex()


class TestAgainstPerStateLoop:
    """Bit for bit against the per-state loop in helpers.py: the same sums
    in the same order, so == and float.hex, never approx."""

    @staticmethod
    def assert_identical(diagram, decision):
        result = oracle_optimal(diagram, decision)
        table, per_state, state_probs, value, raw_value = loop_oracle(diagram, decision)
        assert float(result.value).hex() == float(value).hex()
        assert float(result.raw_value).hex() == float(raw_value).hex()
        assert list(result.table.items()) == list(table.items())
        assert list(result.per_state.items()) == list(per_state.items())
        assert list(result.state_probs.items()) == list(state_probs.items())

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_diagrams(self, n, arity):
        for seed in range(3):
            self.assert_identical(gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity)), "d")

    @pytest.mark.parametrize("seed", range(6))
    def test_two_stage_every_decision(self, seed):
        diagram = gen_two_stage(seed)
        for decision in diagram.decisions:
            self.assert_identical(diagram, decision)

    def test_impossible_states(self):
        diagram = deterministic_exclusion()
        assert 0.0 in oracle_optimal(diagram).state_probs.values()
        self.assert_identical(diagram, diagram.decisions[0])

    def test_zero_span(self):
        self.assert_identical(constant_utility(), "D")

    @pytest.mark.parametrize("n, arity", [(11, 2), (7, 3)])
    def test_many_states(self, n, arity):
        """More states than _choose hands to argmax, half of them with a tie."""
        diagram = gen_random_id(GeneratorSpec(n=n, seed=0, arity=arity))
        utility = diagram.value_node.utility
        utility[::2, ..., -1] = utility[::2, ..., 0]
        assert len(oracle_optimal(diagram).best) > _ARGMAX_STATES
        self.assert_identical(diagram, "d")


def seeded_car_buyer(seed):
    """The car-buyer structure with seeded tables: three decisions, the
    first of which observes nothing."""
    rng = np.random.default_rng(seed)
    doc = car_buyer_template()
    arity = {n["name"]: len(n.get("outcomes", ())) for n in doc["nodes"]}
    for node in doc["nodes"]:
        if node["name"] in CAR_BUYER_TABLE_NODES:
            configs = math.prod(arity[q] for q in node["parents"])
            if node["kind"] == "chance":
                rows = rng.uniform(size=(configs, arity[node["name"]]))
                rows /= rows.sum(axis=1, keepdims=True)
            else:
                rows = rng.uniform(size=configs)
            node["table"] = rows.ravel().tolist()
    return parse_diagram(json.dumps(doc))


def reordered_star(n, seed):
    """A star whose decision lists its predecessors last to first, so its
    state axes run against the joint's axis order."""
    diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
    nodes = dict(diagram.nodes)
    nodes["d"] = DecisionNode(nodes["d"].variable, nodes["d"].parents[::-1])
    return InfluenceDiagram(nodes, ("d",))


class TestBinningAgainstJointLoop:
    """state_action_values and the multistage raw value bit for bit
    against helpers.py's loop over every joint configuration: the same
    products and the same per-bin sums in the same order."""

    @staticmethod
    def assert_identical(diagram, decision):
        _, num, den = state_action_values(diagram, decision)
        ref_num, ref_den = loop_state_action(diagram, decision)
        assert num.shape == ref_num.shape and den.shape == ref_den.shape
        assert num.tobytes() == ref_num.tobytes()
        assert den.tobytes() == ref_den.tobytes()

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stars(self, n, arity):
        for seed in range(2):
            self.assert_identical(gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity)), "d")

    @pytest.mark.parametrize("seed", range(4))
    def test_two_stage_every_decision(self, seed):
        diagram = gen_two_stage(seed)
        for decision in diagram.decisions:
            self.assert_identical(diagram, decision)

    def test_star_above_split_gate(self):
        """An n = 13 binary star: _joint's last product (2^13 entries) and
        the binned mass, broadcast on their short innermost axis, are split
        (oracle._multiply); the multistage total over it too."""
        diagram = gen_random_id(GeneratorSpec(n=13, seed=0))
        assert 2 ** 13 >= SPLIT_MIN
        self.assert_identical(diagram, "d")
        result = oracle_optimal_multistage(diagram)
        expected = loop_consistent_total(diagram, result.tables)
        assert float(result.raw_value).hex() == float(expected).hex()

    def test_state_axes_against_joint_order(self):
        self.assert_identical(reordered_star(4, 0), "d")

    def test_impossible_states(self):
        diagram = deterministic_exclusion()
        self.assert_identical(diagram, "D")
        value = diagram.value_node
        diagram.nodes[value.name] = ValueNode(value.name, value.parents, -1.0 - value.utility)
        # an impossible state's bins now add -0.0 terms only, and read 0.0
        assert (diagram.value_node.utility < 0.0).all()
        self.assert_identical(diagram, "D")

    def test_decision_with_no_predecessors(self):
        diagram = seeded_car_buyer(0)
        assert diagram.predecessors("first_test") == ()
        for decision in diagram.decisions:
            self.assert_identical(diagram, decision)

    @pytest.mark.parametrize("diagram", [gen_two_stage(0), gen_two_stage(1), seeded_car_buyer(0),
                                         mini_weather(), deterministic_exclusion()])
    def test_multistage_total(self, diagram):
        """One bin over the whole joint: a pairwise sum would differ."""
        result = oracle_optimal_multistage(diagram)
        expected = loop_consistent_total(diagram, result.tables)
        assert float(result.raw_value).hex() == float(expected).hex()


@given(data=st.data())
def test_index_is_ravel_multi_index(data):
    doms = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    axes = data.draw(st.permutations(range(len(doms))))
    axes = axes[:data.draw(st.integers(0, len(doms)))]
    key = np.broadcast_to(_index(axes, doms), doms)
    if axes:
        grids = np.indices(doms)
        expected = np.ravel_multi_index([grids[ax] for ax in axes], [doms[ax] for ax in axes])
    else:
        expected = np.zeros(doms, dtype=np.intp)
    assert key.dtype == np.intp
    assert np.array_equal(key, expected)


class TestMultistage:
    def test_single_decision_agrees_with_plain_oracle(self):
        diagram = mini_weather()
        multi = oracle_optimal_multistage(diagram)
        single = oracle_optimal(diagram)
        assert multi.value == pytest.approx(single.value, abs=TOL)
        assert multi.tables["D"] == single.table

    @given(seed=st.integers(0, 2_000))
    def test_beats_uniform_random_play(self, seed):
        diagram = gen_two_stage(seed)
        result = oracle_optimal_multistage(diagram)
        # value of acting uniformly at random is the plain network mean
        eng = Engine(compile_network(diagram))
        assert result.value >= eng.network_value() - TOL

    def test_cap(self):
        with pytest.raises(StateSpaceCapError):
            oracle_optimal_multistage(gen_two_stage(0), cap=4)
