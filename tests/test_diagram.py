import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idrefine.diagram import (DiagramError, InfluenceDiagram, Variable,
                              information_states, parse_diagram, serialize_diagram,
                              validate)
from idrefine.fixtures import MINI_WEATHER_JSON, mini_weather, weather3
from idrefine.generate import GeneratorSpec, gen_random_id, gen_two_stage


def mutate(base_json, fn):
    doc = json.loads(base_json)
    fn(doc)
    return json.dumps(doc)


class TestParse:
    def test_mini_weather_structure(self):
        d = mini_weather()
        kinds = {n: type(nd).__name__ for n, nd in d.nodes.items()}
        assert kinds == {"W": "ChanceNode", "R": "ChanceNode",
                         "D": "DecisionNode", "V": "ValueNode"}
        assert d.decision_order == ("D",)
        assert d.variable("D").outcomes == ("take", "leave")
        assert d.node("D").parents == ("R",)

    def test_row_sum_error(self):
        bad = mutate(MINI_WEATHER_JSON, lambda doc: doc["nodes"][0].update(table=[0.6, 0.3]))
        with pytest.raises(DiagramError, match="sums to"):
            parse_diagram(bad)

    def test_row_within_tolerance_renormalized(self):
        doc = json.loads(MINI_WEATHER_JSON)
        doc["nodes"][0]["table"] = [0.7, 0.3 - 1e-10]
        d = parse_diagram(json.dumps(doc))
        assert abs(d.node("W").cpt.sum() - 1.0) == 0.0

    def test_missing_value_node(self):
        bad = mutate(MINI_WEATHER_JSON, lambda doc: doc["nodes"].pop())
        with pytest.raises(DiagramError, match="exactly one value node"):
            parse_diagram(bad)

    def test_two_value_nodes(self):
        def add(doc):
            doc["nodes"].append({"name": "V2", "kind": "value",
                                 "parents": ["W"], "table": [1, 2]})
        with pytest.raises(DiagramError, match="exactly one value node"):
            parse_diagram(mutate(MINI_WEATHER_JSON, add))

    def test_duplicate_name(self):
        def dup(doc):
            doc["nodes"].insert(1, dict(doc["nodes"][0]))
        with pytest.raises(DiagramError, match="duplicate node name"):
            parse_diagram(mutate(MINI_WEATHER_JSON, dup))

    def test_unresolved_parent(self):
        bad = mutate(MINI_WEATHER_JSON,
                     lambda doc: doc["nodes"][1].update(parents=["NOPE"]))
        with pytest.raises(DiagramError, match="unresolved parent"):
            parse_diagram(bad)

    def test_syntax_error_reports_position(self):
        with pytest.raises(DiagramError, match=r"syntax error at line \d+ column \d+"):
            parse_diagram('{"nodes": [,]}')

    def test_wrong_table_size(self):
        bad = mutate(MINI_WEATHER_JSON,
                     lambda doc: doc["nodes"][1].update(table=[0.9, 0.1]))
        with pytest.raises(DiagramError, match="expected 4"):
            parse_diagram(bad)

    def test_single_outcome_rejected(self):
        bad = mutate(MINI_WEATHER_JSON,
                     lambda doc: doc["nodes"][0].update(outcomes=["sun"], table=[1.0]))
        with pytest.raises(DiagramError, match="at least 2 outcomes"):
            parse_diagram(bad)


class TestValidate:
    def test_fixtures_clean(self):
        for d in (mini_weather(), weather3()):
            assert validate(d).ok

    def test_cycle_detected(self):
        doc = json.loads(MINI_WEATHER_JSON)
        doc["nodes"][0]["parents"] = ["R"]
        doc["nodes"][0]["table"] = [0.7, 0.3, 0.7, 0.3]
        d = parse_diagram(json.dumps(doc))
        report = validate(d)
        assert any("cycle" in v for v in report.violations)

    def test_two_value_nodes_reported(self):
        d = mini_weather()
        d2 = InfluenceDiagram(dict(d.nodes), d.decision_order)
        value = d.nodes["V"]
        d2.nodes["V2"] = type(value)("V2", value.parents, value.utility)
        report = validate(d2)
        assert any("exactly one value node" in v for v in report.violations)

    def test_value_outgoing_arc_reported(self):
        d = mini_weather()
        d.nodes["R"].parents = ("V",)
        report = validate(d)
        assert any("outgoing arc" in v for v in report.violations)

    def test_decision_order_mismatch(self):
        d = mini_weather()
        d2 = InfluenceDiagram(dict(d.nodes), ())
        report = validate(d2)
        assert any("decision_order" in v for v in report.violations)

    def test_decision_order_against_topology(self):
        d = gen_two_stage(0)
        d2 = InfluenceDiagram(dict(d.nodes), ("d2", "d1"))
        report = validate(d2)
        assert not report.ok

    def test_nan_probability_row_reported(self):
        d = mini_weather()
        d.nodes["W"].cpt = np.array([np.nan, 1.0])
        report = validate(d)
        assert any("does not sum to 1" in v for v in report.violations)

    def test_probability_out_of_range_reported(self):
        d = mini_weather()
        d.nodes["W"].cpt = np.array([1.5, -0.5])  # sums to 1
        report = validate(d)
        assert report.violations == ["node 'W': probabilities must lie in [0, 1]"]

    def test_chance_variable_without_outcomes_reported(self):
        d = mini_weather()
        d.nodes["W"].variable = Variable("W", ())
        d.nodes["W"].cpt = np.zeros((0,))
        report = validate(d)
        assert "node 'W': fewer than 2 outcomes" in report.violations

    def test_utility_range_overflow_reported(self):
        d = mini_weather()
        d.nodes["V"].utility = np.array([[1e308, -1e308], [1e308, -1e308]])
        report = validate(d)
        assert any("utility range is not finite" in v for v in report.violations)

    def test_integer_table_entries_accepted(self):
        d = parse_diagram(mutate(MINI_WEATHER_JSON,
                                 lambda doc: doc["nodes"][0].update(table=[1, 0])))
        assert d.nodes["W"].cpt.tolist() == [1.0, 0.0]
        assert validate(d).ok

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
    def test_generator_output_always_valid(self, seed, n):
        assert validate(gen_random_id(GeneratorSpec(n=n, seed=seed))).ok


class TestRoundTrip:
    def test_mini_weather(self):
        d = mini_weather()
        assert parse_diagram(serialize_diagram(d)) == d

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           arity=st.integers(2, 3))
    def test_generated(self, seed, n, arity):
        d = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
        again = parse_diagram(serialize_diagram(d))
        assert again == d
        assert serialize_diagram(again) == serialize_diagram(d)

    @given(seed=st.integers(0, 10_000))
    def test_two_stage(self, seed):
        d = gen_two_stage(seed)
        assert parse_diagram(serialize_diagram(d)) == d

    @given(row=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
    def test_normalization_reaches_fixpoint(self, row):
        total = sum(row)
        table = [x / total for x in row]
        doc = {"nodes": [
            {"name": "X", "kind": "chance", "outcomes": [f"o{i}" for i in range(len(row))],
             "parents": [], "table": table},
            {"name": "D", "kind": "decision", "outcomes": ["a", "b"], "parents": ["X"]},
            {"name": "V", "kind": "value", "parents": ["D"], "table": [0, 1]},
        ]}
        d = parse_diagram(json.dumps(doc))
        assert parse_diagram(serialize_diagram(d)) == d


class TestInformationStates:
    def test_mini_weather(self):
        states = list(information_states(mini_weather(), "D"))
        assert states == [{"R": "sunny"}, {"R": "rainy"}]

    def test_empty_predecessors(self):
        doc = {"nodes": [
            {"name": "D", "kind": "decision", "outcomes": ["a", "b"], "parents": []},
            {"name": "V", "kind": "value", "parents": ["D"], "table": [0, 1]},
        ]}
        states = list(information_states(parse_diagram(json.dumps(doc)), "D"))
        assert states == [{}]

    def test_template_n8_has_256_states(self):
        d = gen_random_id(GeneratorSpec(n=8, seed=0))
        assert sum(1 for _ in information_states(d, "d")) == 256

    def test_unknown_node(self):
        with pytest.raises(DiagramError, match="unknown node"):
            list(information_states(mini_weather(), "nope"))

    @given(seed=st.integers(0, 1000), n=st.integers(1, 6))
    def test_count_matches_arity_product(self, seed, n):
        d = gen_random_id(GeneratorSpec(n=n, seed=seed))
        expected = math.prod(v.arity for v in d.predecessors("d"))
        assert sum(1 for _ in information_states(d, "d")) == expected

    def test_order_is_lexicographic_first_slowest(self):
        d = weather3()
        states = list(information_states(d, "Take"))
        assert states[0] == {"Report": "sunny", "View": "sunny"}
        assert states[1] == {"Report": "sunny", "View": "cloudy"}
        assert states[3] == {"Report": "cloudy", "View": "sunny"}
