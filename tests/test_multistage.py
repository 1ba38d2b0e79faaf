import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import enum_action_value, no_decision_json
from idrefine.diagram import parse_diagram, validate
from idrefine.engine import Engine, compile_network
from idrefine.fixtures import mini_weather
from idrefine.generate import gen_two_stage
from idrefine.multistage import (compile_decision, contingency_from_tree,
                                 multistage_policy_json, sweep_back,
                                 used_predecessors)
from idrefine.oracle import oracle_optimal_multistage
from idrefine.refine import RefinementConfig, StoppingRule, refine
from idrefine.tree import apply_policy, extend, find_leaf, init_tree

TOL = 1e-9


def complete_tree(diagram, decision="D"):
    eng = Engine(compile_network(diagram))
    tree, _ = refine(eng, decision)
    return tree


class TestContingency:
    def test_complete_tree_rows_deterministic(self):
        diagram = mini_weather()
        tree = complete_tree(diagram)
        assert used_predecessors(tree) == ("R",)
        cpt = contingency_from_tree(tree)
        assert cpt.parents == ("R",)
        # R=sunny -> leave, R=rainy -> take
        assert cpt.table[0].tolist() == [0.0, 1.0]
        assert cpt.table[1].tolist() == [1.0, 0.0]

    def test_single_leaf_tree_is_parentless(self):
        diagram = mini_weather()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        cpt = contingency_from_tree(tree)
        assert cpt.parents == ()
        assert cpt.table.tolist() == [0.0, 1.0]  # always leave

    def test_pruned_context_row_uniform(self):
        from idrefine.fixtures import deterministic_exclusion
        diagram = deterministic_exclusion()
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "D")
        extend(tree, tree.root, "A", eng)
        a0 = find_leaf(tree, (("A", "a0"),))
        extend(tree, a0, "B", eng)
        cpt = contingency_from_tree(tree)
        assert cpt.parents == ("A", "B")
        assert cpt.table[0, 1].tolist() == [0.5, 0.5]  # (a0, b1) is impossible
        assert sorted(cpt.table[0, 0].tolist()) == [0.0, 1.0]

    @given(seed=st.integers(0, 2_000))
    def test_soundness_on_reachable_states(self, seed):
        diagram = gen_two_stage(seed)
        eng = Engine(compile_network(diagram))
        tree, _ = refine(eng, "d2")
        cpt = contingency_from_tree(tree)
        for state in (dict(zip(("d1", "m"), combo))
                      for combo in [("go", "y"), ("go", "n"), ("wait", "y"), ("wait", "n")]):
            idx = tuple(diagram.variable(p).outcomes.index(state[p]) for p in cpt.parents)
            row = cpt.table[idx]
            chosen = diagram.variable("d2").outcomes[int(np.argmax(row))]
            assert apply_policy(tree, state) == chosen


class TestCompileDecision:
    def test_network_reflects_policy(self):
        diagram = mini_weather()
        tree = complete_tree(diagram)
        net = compile_decision(compile_network(diagram), "D", tree)
        assert list(net.fixed_policies) == ["D"]
        eng = Engine(net)
        # acting by the optimal policy: joint value equals the tree value
        assert eng.network_value() == pytest.approx(0.812, abs=TOL)
        # D now behaves as a deterministic child of R
        assert eng.posterior("D", {"R": "rainy"})["take"] == pytest.approx(1.0)

    def test_foreign_split_variable_rejected(self):
        d1 = mini_weather()
        tree = complete_tree(d1)
        tree.predecessors = tuple()  # simulate a tree claiming no predecessors
        with pytest.raises(ValueError, match="not an informational predecessor"):
            compile_decision(compile_network(d1), "D", tree)


class TestSweepBack:
    @given(seed=st.integers(0, 3_000))
    def test_matches_backward_induction_oracle(self, seed):
        diagram = gen_two_stage(seed)
        policy, traces = sweep_back(diagram)
        oracle = oracle_optimal_multistage(diagram)
        assert policy.value_normalized == pytest.approx(oracle.value, abs=TOL)
        assert set(traces) == {"d1", "d2"}

    def test_single_decision_reduces_to_refine(self):
        diagram = mini_weather()
        policy, traces = sweep_back(diagram)
        assert policy.value_normalized == pytest.approx(0.812, abs=TOL)
        assert [p.decision for p in policy.policies] == ["D"]

    @given(seed=st.integers(0, 2_000))
    def test_joint_value_consistent_with_final_network(self, seed):
        diagram = gen_two_stage(seed)
        policy, _ = sweep_back(diagram)
        net = compile_network(diagram)
        for p in reversed(policy.policies):
            net = net.fix_decision(p.decision, p.contingency)
        final = Engine(net)
        assert final.network_value() == pytest.approx(policy.value_normalized, abs=TOL)

    def test_refining_a_compiled_decision_rejected(self):
        diagram = gen_two_stage(0)
        policy, _ = sweep_back(diagram)
        d2 = next(p for p in policy.policies if p.decision == "d2")
        net = compile_network(diagram).fix_decision("d2", d2.contingency)
        with pytest.raises(ValueError, match="already fixed"):
            refine(Engine(net), "d2")

    def test_no_decision_node(self):
        """A diagram with no decision node is valid, but there is nothing to
        sweep back, nor to solve for the multistage oracle."""
        diagram = parse_diagram(no_decision_json())
        assert validate(diagram).ok
        with pytest.raises(ValueError, match="diagram has no decision node"):
            sweep_back(diagram)
        with pytest.raises(ValueError, match="diagram has no decision node"):
            oracle_optimal_multistage(diagram)

    def test_per_decision_budgets(self):
        diagram = gen_two_stage(4)
        configs = {
            "d2": RefinementConfig(stop=StoppingRule(max_extensions=0)),
            "d1": RefinementConfig(stop=StoppingRule(run_to_complete=True)),
        }
        policy, traces = sweep_back(diagram, configs)
        assert len(traces["d2"].records) == 1
        assert [p.decision for p in policy.policies] == ["d1", "d2"]

    @given(seed=st.integers(0, 1_000))
    def test_uncompiled_decisions_enter_queries_uniformly(self, seed):
        # while refining d2, queries that omit d1 must average over its
        # actions uniformly; checked against explicit mixture enumeration
        diagram = gen_two_stage(seed)
        eng = Engine(compile_network(diagram))
        net = eng.network
        direct = eng.action_value("d2", "buy", {"m": "y"}) * (net.u_max - net.u_min) + net.u_min
        mixture = 0.0
        weight = 0.0
        from helpers import enum_probability
        for a in ("go", "wait"):
            w = enum_probability(diagram, {"m": "y", "d1": a})
            mixture += w * enum_action_value(diagram, "d2", "buy", {"m": "y", "d1": a})
            weight += w
        assert direct == pytest.approx(mixture / weight, abs=TOL)


class TestExport:
    def test_policy_json_shape(self):
        diagram = gen_two_stage(0)
        policy, _ = sweep_back(diagram)
        doc = multistage_policy_json(policy)
        assert set(doc) == {"value_normalized", "value_raw", "policies"}
        assert [p["decision"] for p in doc["policies"]] == ["d1", "d2"]
        for p in doc["policies"]:
            assert set(p) == {"decision", "used_predecessors", "tree"}
        json.dumps(doc)  # serializable
