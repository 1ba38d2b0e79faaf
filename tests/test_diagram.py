import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idrefine.cli import main
from idrefine.diagram import (ChanceNode, DiagramError, InfluenceDiagram, ValueNode,
                              Variable, information_states, parse_diagram,
                              serialize_diagram, validate)
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

    def test_cycle_rejected(self):
        doc = json.loads(MINI_WEATHER_JSON)
        doc["nodes"][0]["parents"] = ["R"]
        doc["nodes"][0]["table"] = [0.7, 0.3, 0.7, 0.3]
        with pytest.raises(DiagramError, match=r"cycle: \['W', 'R', 'W'\]"):
            parse_diagram(json.dumps(doc))

    def test_decision_order_against_topology_rejected(self):
        doc = json.loads(serialize_diagram(gen_two_stage(0)))
        doc["decision_order"] = ["d2", "d1"]
        with pytest.raises(DiagramError, match="'d2' is listed before 'd1'"):
            parse_diagram(json.dumps(doc))


class TestValidate:
    def test_fixtures_clean(self):
        for d in (mini_weather(), weather3()):
            assert validate(d).ok

    def test_report_is_falsy_when_invalid(self):
        d = mini_weather()
        assert validate(d)
        d.nodes["W"].variable = Variable("W", ("sun", "sun"))
        assert not validate(d)

    def test_cycle_detected(self):
        d = mini_weather()
        d.nodes["W"].parents = ("R",)
        d.nodes["W"].cpt = np.array([[0.7, 0.3], [0.7, 0.3]])
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

    def test_duplicate_parent_reported(self):
        d = mini_weather()
        d.nodes["D"].parents = ("R", "R")
        assert validate(d).violations == ["node 'D': duplicate parent"]

    def test_value_table_shape_reported(self):
        d = mini_weather()
        d.nodes["V"].utility = d.nodes["V"].utility.ravel()
        assert validate(d).violations == [
            "node 'V': table has 4 entries in shape (4,), expected 4 in shape (2, 2)"]

    def test_integer_table_entries_accepted(self):
        d = parse_diagram(mutate(MINI_WEATHER_JSON,
                                 lambda doc: doc["nodes"][0].update(table=[1, 0])))
        assert d.nodes["W"].cpt.tolist() == [1.0, 0.0]
        assert validate(d).ok

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
    def test_generator_output_always_valid(self, seed, n):
        assert validate(gen_random_id(GeneratorSpec(n=n, seed=seed))).ok


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
NEAR_MISSES = st.sampled_from(["W", "R", "D", "V", "chance", "decision", "value"])
FIELD_VALUES = (JSON_VALUES | NEAR_MISSES | st.lists(NEAR_MISSES, max_size=3)
                | st.lists(st.integers(-1, 2) | st.floats(), max_size=8))


@st.composite
def mutated_mini_weather(draw):
    """mini_weather with node fields (or decision_order) replaced or dropped."""
    doc = json.loads(MINI_WEATHER_JSON)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(doc["nodes"])))
        target, key = ((doc, "decision_order") if i == len(doc["nodes"]) else
                       (doc["nodes"][i],
                        draw(st.sampled_from(["name", "kind", "outcomes", "parents", "table"]))))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(FIELD_VALUES)
    return doc


class TestParseFuzz:
    @given(doc=JSON_VALUES | mutated_mini_weather())
    def test_valid_diagram_or_diagram_error(self, tmp_path_factory, doc):
        text = json.dumps(doc)
        try:
            diagram = parse_diagram(text)
        except DiagramError:
            diagram = None
        else:
            assert validate(diagram).ok
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["validate", str(path)])
        assert code == (1 if diagram is None else 0)


def _mutate(d: InfluenceDiagram, mutation: str, name: str) -> bool:
    """Apply one in-code mutation; True if it surely breaks a rule."""
    node = d.nodes[name]
    table = {ChanceNode: "cpt", ValueNode: "utility"}.get(type(node))
    if mutation == "drop-parent":
        node.parents = node.parents[1:]
    elif mutation == "duplicate-parent":
        node.parents += node.parents[:1]
        return bool(node.parents)
    elif mutation == "self-loop":
        node.parents += (name,)
        return True
    elif mutation == "swap-order":
        d.decision_order = d.decision_order[::-1]
    elif mutation == "zero-outcomes" and not isinstance(node, ValueNode):
        node.variable = Variable(name, ())
        return True
    elif table and mutation == "wrong-shape":
        setattr(node, table, np.zeros(5))
        return True
    elif table and mutation in ("nan", "out-of-range"):
        values = getattr(node, table).copy()
        values.flat[0] = np.nan if mutation == "nan" else 1.5
        setattr(node, table, values)
        return mutation == "nan" or isinstance(node, ChanceNode)
    return False


class TestValidateFuzz:
    @given(fixture=st.sampled_from([mini_weather, weather3, lambda: gen_two_stage(3)]),
           data=st.data())
    def test_validate_never_raises(self, fixture, data):
        d = fixture()
        for _ in range(data.draw(st.integers(1, 3))):
            mutation = data.draw(st.sampled_from(
                ["drop-parent", "duplicate-parent", "self-loop", "swap-order",
                 "zero-outcomes", "wrong-shape", "nan", "out-of-range"]))
            # a later drop-parent can undo an earlier mutation, not the last one
            broken = _mutate(d, mutation, data.draw(st.sampled_from(list(d.nodes))))
        report = validate(d)
        assert all(isinstance(v, str) for v in report.violations)
        if broken:
            assert not report.ok


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

    def test_row_one_adjustment_cannot_settle(self):
        """c4's prior: moving its largest entry by 1 - sum overshoots, and
        no value of that entry makes the row sum to exactly 1.0."""
        d = gen_random_id(GeneratorSpec(n=4, seed=33, arity=3))
        assert d.nodes["c4"].cpt.sum() == 1.0
        assert parse_diagram(serialize_diagram(d)) == d

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

    def test_not_a_decision(self):
        with pytest.raises(DiagramError, match="^'W' is not a decision node$"):
            mini_weather().predecessors("W")

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
