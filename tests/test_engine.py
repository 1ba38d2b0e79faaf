import json
import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (assert_statistics, calibrate, charged, einsum_query, enum_action_value,
                     enum_best_action, enum_posterior, enum_probability, loop_candidate,
                     loop_elimination_order, normalized, sum_keep, sum_marginal, uncharged)
from idrefine.diagram import (SPLIT_AXIS, ChanceNode, DecisionNode, DiagramError,
                              InfluenceDiagram, ValueNode, Variable, normalize_rows,
                              parse_diagram, split_product)
from idrefine.engine import (_PLANS, ZERO_PROB, Calibration, Engine, PolicyCpt,
                             ZeroProbabilityError, _HALVING_MIN, _choose, _elimination_order,
                             _execute, _keep, _marginal, _plan, _query, compile_network,
                             stack_rows)
from idrefine.fixtures import (constant_utility, deterministic_exclusion,
                               mini_weather, mini_weather_coin)
from idrefine.generate import GeneratorSpec, gen_random_id, gen_two_stage
from idrefine.multistage import dumps_multistage_policy, sweep_back
from idrefine.refine import RefinementConfig, StoppingRule, refine
from idrefine.tree import (best_extension, drawable, dumps_policy, evi, extend, extensions,
                          find_leaf, grow, init_tree, iter_internals, iter_leaves, tree_value)

TOL = 1e-9


@pytest.fixture
def mini_engine():
    return Engine(compile_network(mini_weather()))


class TestCompile:
    def test_mini_weather_normalization(self, mini_engine):
        net = mini_engine.network
        assert (net.u_min, net.u_max) == (0.0, 100.0)
        assert not net.degenerate
        assert set(net.outcomes) == {"W", "R", "D", "V"}
        assert net.outcomes["V"] == ("false", "true")

    def test_value_given_action(self, mini_engine):
        # brute force: EU(leave) = 0.7 * 100 = 70, normalized 0.70
        assert mini_engine.action_value("D", "leave", {}) == pytest.approx(0.70, abs=TOL)

    def test_degenerate_flag(self):
        net = compile_network(constant_utility())
        assert net.degenerate

    def test_uncompiled_decisions_are_uniform_roots(self, mini_engine):
        dist = mini_engine.posterior("D", {})
        assert dist == {"take": pytest.approx(0.5), "leave": pytest.approx(0.5)}


class TestFixDecision:
    """ChanceNetwork.fix_decision, the one way a decision gets a policy."""

    GO = PolicyCpt((), np.array([1.0, 0.0]))
    BUY = PolicyCpt(("m",), np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_fixed_policies_must_be_suffix(self):
        net = compile_network(gen_two_stage(0))
        with pytest.raises(ValueError, match="suffix"):
            net.fix_decision("d1", self.GO)
        with pytest.raises(ValueError, match="suffix"):
            net.fix_decision("m", self.GO)
        assert net.fixed_policies == {}

    def test_fixed_twice_rejected(self):
        net = compile_network(gen_two_stage(0)).fix_decision("d2", self.BUY)
        with pytest.raises(ValueError, match="'d2' is not the last unfixed decision"):
            net.fix_decision("d2", self.BUY)

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3), (2, 2, 2)])
    def test_table_shape_checked(self, shape):
        net = compile_network(gen_two_stage(0))
        with pytest.raises(ValueError, match="has shape"):
            net.fix_decision("d2", PolicyCpt(("m",), np.full(shape, 0.5)))

    @pytest.mark.parametrize("parents", [("v",), ("c2",), ("m", "d1"), ("m", "m")],
                             ids=["proxy", "unobserved", "reordered", "repeated"])
    def test_policy_must_read_the_decisions_parents(self, parents):
        net = compile_network(gen_two_stage(0))
        with pytest.raises(ValueError, match="ordered subsequence"):
            net.fix_decision("d2", PolicyCpt(parents, np.full((2,) * len(parents) + (2,), 0.5)))

    @pytest.mark.parametrize("parents", [(), ("d1",), ("m",), ("d1", "m")])
    def test_policy_over_a_subsequence_accepted(self, parents):
        net = compile_network(gen_two_stage(0))
        table = np.full((2,) * len(parents) + (2,), 0.5)
        assert net.fix_decision("d2", PolicyCpt(parents, table)).fixed_policies["d2"].parents \
            == parents

    def test_swaps_one_factor_in_place(self):
        fresh = compile_network(gen_two_stage(0))
        net = fresh.fix_decision("d2", self.BUY).fix_decision("d1", self.GO)
        assert list(net.factors) == list(fresh.factors)
        assert list(net.fixed_policies) == ["d2", "d1"]
        for name, factor in net.factors.items():
            if name in ("d1", "d2"):
                assert factor.vars == net.fixed_policies[name].parents + (name,)
                assert factor.values is net.fixed_policies[name].table
            else:
                assert factor is fresh.factors[name]
        assert fresh.fixed_policies == {}
        assert Engine(net).posterior("d2", {"m": "n"}) == {"buy": 0.0, "skip": 1.0}


class TestBestAction:
    def test_empty_context(self, mini_engine):
        assert mini_engine.best_action("D", {}) == ("leave", pytest.approx(0.70, abs=TOL))

    def test_rainy(self, mini_engine):
        action, value = mini_engine.best_action("D", {"R": "rainy"})
        assert action == "take"
        assert value == pytest.approx(1820 / 3100, abs=TOL)

    def test_sunny(self, mini_engine):
        action, value = mini_engine.best_action("D", {"R": "sunny"})
        assert action == "leave"
        assert value == pytest.approx(2100 / 2300, abs=TOL)

    def test_tie_breaks_by_declaration_order(self):
        eng = Engine(compile_network(constant_utility()))
        action, value = eng.best_action("D", {})
        assert action == "take"
        assert value == pytest.approx(0.5)

    def test_zero_probability_context(self):
        eng = Engine(compile_network(deterministic_exclusion()))
        with pytest.raises(ZeroProbabilityError):
            eng.best_action("D", {"A": "a0", "B": "b1"})

    def test_unknown_variable(self, mini_engine):
        with pytest.raises(DiagramError):
            mini_engine.best_action("D", {"Q": "x"})

    def test_unknown_action(self, mini_engine):
        with pytest.raises(DiagramError, match="variable 'D' has no outcome 'nope'"):
            mini_engine.action_value("D", "nope", {})


class TestPosteriors:
    def test_report_prior(self, mini_engine):
        assert mini_engine.posterior("R", {}) == {
            "sunny": pytest.approx(0.69, abs=TOL),
            "rainy": pytest.approx(0.31, abs=TOL)}

    def test_weather_given_sunny(self, mini_engine):
        dist = mini_engine.posterior("W", {"R": "sunny"})
        assert dist["sun"] == pytest.approx(21 / 23, abs=TOL)
        assert dist["rain"] == pytest.approx(2 / 23, abs=TOL)

    def test_batched_single_pass(self, mini_engine):
        before = mini_engine.counter.snapshot()
        out = mini_engine.posteriors(["W", "R"], {})
        fine, passes = (mini_engine.counter.fine - before[0],
                        mini_engine.counter.passes - before[1])
        assert passes == 1
        assert fine == 4
        assert set(out) == {"W", "R"}

    def test_assigned_variable_rejected(self, mini_engine):
        with pytest.raises(ValueError):
            mini_engine.posterior("R", {"R": "sunny"})

    def test_zero_probability_evidence(self):
        eng = Engine(compile_network(deterministic_exclusion()))
        with pytest.raises(ZeroProbabilityError):
            eng.posterior("C", {"A": "a0", "B": "b1"})


class TestContextProbability:
    def test_sunny(self, mini_engine):
        assert mini_engine.context_probability({"R": "sunny"}) == pytest.approx(0.69, abs=TOL)

    def test_empty(self, mini_engine):
        assert mini_engine.context_probability({}) == pytest.approx(1.0, abs=TOL)

    def test_impossible_returns_zero(self):
        eng = Engine(compile_network(deterministic_exclusion()))
        assert eng.context_probability({"A": "a0", "B": "b1"}) == 0.0

    def test_uncounted(self, mini_engine):
        before = mini_engine.counter.snapshot()
        mini_engine.context_probability({"R": "sunny"})
        assert mini_engine.counter.snapshot() == before


class TestCounterDiscipline:
    def test_best_action(self, mini_engine):
        mini_engine.best_action("D", {})
        assert mini_engine.counter.snapshot() == (4, 2)

    def test_posterior(self, mini_engine):
        mini_engine.posterior("R", {})
        assert mini_engine.counter.snapshot() == (2, 1)

    def test_action_value(self, mini_engine):
        mini_engine.action_value("D", "take", {})
        assert mini_engine.counter.snapshot() == (2, 1)

    def test_posteriors_share_one_pass(self, mini_engine):
        """posteriors of two variables costs one pass, and each result
        equals posterior of that variable alone, which costs one more."""
        both = mini_engine.posteriors(["W", "D"], {"R": "rainy"})
        assert mini_engine.counter.snapshot() == (4, 1)
        for var in ("W", "D"):
            assert mini_engine.posterior(var, {"R": "rainy"}) == both[var]
        assert mini_engine.counter.snapshot() == (8, 3)

    def test_candidate_evaluation(self, mini_engine):
        cal = calibrate(mini_engine, "D", {})
        cal.evaluate_candidate("R")
        assert mini_engine.counter.snapshot() == (4, 3)


class TestOneWayIn:
    """Every Calibration comes from Engine.calibrate, which charges its pass."""

    @pytest.fixture
    def tally(self, monkeypatch):
        counts = {"made": 0, "calibrate": 0}
        init, counted = Calibration.__init__, Engine.calibrate

        def counting_init(self, *args, **kwargs):
            counts["made"] += 1
            init(self, *args, **kwargs)

        def counting_calibrate(self, *args, **kwargs):
            counts["calibrate"] += 1
            return counted(self, *args, **kwargs)

        monkeypatch.setattr(Calibration, "__init__", counting_init)
        monkeypatch.setattr(Engine, "calibrate", counting_calibrate)
        return counts

    @staticmethod
    def refine_complete(leaf, extension):
        net = compile_network(gen_random_id(GeneratorSpec(n=6, seed=3)))
        refine(Engine(net), "d", RefinementConfig(leaf_strategy=leaf,
                                                  extension_strategy=extension, seed=3))

    @staticmethod
    def engine_queries():
        eng = Engine(compile_network(mini_weather()))
        eng.best_action("D", {"R": "sunny"})
        eng.action_value("D", "take", {"R": "rainy"})
        eng.posteriors(["W", "R"], {})

    SCENARIOS = {
        "posthoc-greedy": lambda: TestOneWayIn.refine_complete("posthoc", "greedy"),
        "random-random": lambda: TestOneWayIn.refine_complete("random", "random"),
        "random-greedy": lambda: refine(
            Engine(compile_network(gen_random_id(GeneratorSpec(n=6, seed=3)))), "d",
            RefinementConfig(leaf_strategy="random", stop=StoppingRule(max_passes=200), seed=3)),
        "two-stage-sweep": lambda: [sweep_back(gen_two_stage(s)) for s in range(3)],
        "engine-queries": lambda: TestOneWayIn.engine_queries(),
    }

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_every_calibration_is_counted(self, tally, scenario):
        self.SCENARIOS[scenario]()
        assert tally["made"] == tally["calibrate"] > 0

    def test_action_value_calibrates_the_context_and_action(self, tally, mini_engine):
        """action_value charges its own pass over the context plus the
        action and makes no calibration."""
        assert mini_engine.action_value("D", "take", {"R": "rainy"}) \
            == pytest.approx(1820 / 3100, abs=TOL)
        assert mini_engine.counter.snapshot() == (2, 1)
        assert tally == {"made": 0, "calibrate": 0}


class TestRejectedCallsChargeNothing:
    """A call rejected for its arguments raises before it charges a pass or
    a fine query, whatever the engine has already spent."""

    METHODS = ("context", "calibrate", "best_action", "action_value", "posterior",
               "posteriors")

    @given(data=st.data())
    def test_counters_unchanged(self, data):
        """Findings are checked by Engine.context, best_action, action_value
        and the posteriors; calibrate rejects a Mapping, whatever it holds,
        and a context checked against another network."""
        eng = Engine(compile_network(mini_weather()))
        eng.best_action("D", {})
        method = data.draw(st.sampled_from(self.METHODS))
        evidence = data.draw(st.sampled_from([{}, {"R": "sunny"}, {"W": "rain"}]))
        decision, action = "D", data.draw(st.sampled_from(["take", "leave"]))
        free = [v for v in ("W", "R", "D") if v not in evidence]
        targets = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=3))
        if method == "calibrate":
            defects = ["mapping", "checked findings", "another network"]
        else:
            defects = ["unknown variable", "value node", "unknown outcome"]
        if method in ("context", "best_action", "action_value"):
            defects += ["non-decision", "assigns decision"]
        if method == "action_value":
            defects += ["unknown action"]
        if method in ("posterior", "posteriors"):
            defects += ["assigned target", "unknown target", "value-node target"]
        defect = data.draw(st.sampled_from(defects))
        context = evidence
        if defect == "checked findings":  # outcome indices, as a checked context holds them
            context = eng.context(decision, evidence).findings
        elif defect == "another network":
            context = Engine(compile_network(mini_weather())).context(decision, evidence)
        elif defect == "unknown variable":
            evidence = {**evidence, "Q": "x"}
        elif defect == "value node":
            evidence = {**evidence, "V": data.draw(st.sampled_from(["false", "true"]))}
        elif defect == "unknown outcome":  # an outcome index is not a label
            outcome = data.draw(st.sampled_from(["cloudy", 0, 1, 2, -1, True, 1.0]))
            evidence = {**evidence, data.draw(st.sampled_from(["W", "R"])): outcome}
        elif defect == "non-decision":
            decision = data.draw(st.sampled_from(["W", "R", "V", "Q"]))
        elif defect == "assigns decision":
            evidence = {**evidence, "D": data.draw(st.sampled_from(["take", "leave"]))}
        elif defect == "unknown action":
            action = "nope"
        elif defect == "assigned target":
            evidence = evidence or {"R": "sunny"}
            targets = targets + [next(iter(evidence))]
        elif defect != "mapping":
            targets = targets + ["Q" if defect == "unknown target" else "V"]
        call = {"context": lambda: eng.context(decision, evidence),
                "calibrate": lambda: eng.calibrate(context),
                "best_action": lambda: eng.best_action(decision, evidence),
                "action_value": lambda: eng.action_value(decision, action, evidence),
                "posterior": lambda: eng.posterior(targets[-1], evidence),
                "posteriors": lambda: eng.posteriors(targets, evidence)}[method]
        before = eng.counter.snapshot()
        with pytest.raises(ValueError):  # DiagramError is a ValueError
            call()
        assert eng.counter.snapshot() == before

    def test_init_tree_for_a_non_decision_or_a_fixed_one(self, mini_engine):
        with pytest.raises(DiagramError, match="not a decision node"):
            init_tree(mini_engine, "W")
        assert mini_engine.counter.snapshot() == (0, 0)
        eng = Engine(compile_network(gen_two_stage(0)).fix_decision(
            "d2", PolicyCpt(("m",), np.array([[1.0, 0.0], [0.0, 1.0]]))))
        with pytest.raises(ValueError, match="already fixed"):
            init_tree(eng, "d2")
        assert eng.counter.snapshot() == (0, 0)

    def test_unknown_posterior_target_is_a_diagram_error(self, mini_engine):
        for target in ("Q", "V"):
            with pytest.raises(DiagramError, match=f"unknown variable '{target}'"):
                mini_engine.posteriors([target], {})
        assert mini_engine.counter.snapshot() == (0, 0)


class TestFindingsByIndex:
    """Findings are outcome labels; only a checked context holds indices."""

    def test_indices_are_unknown_outcomes(self, mini_engine):
        """{"R": 1} and {"R": True} name no outcome of R: Engine.context,
        posteriors and action_value reject them before anything is charged."""
        for evidence in ({"R": 1}, {"R": True}):
            for call in (lambda: mini_engine.context("D", evidence),
                         lambda: mini_engine.posteriors(["W"], evidence),
                         lambda: mini_engine.action_value("D", "take", evidence)):
                with pytest.raises(DiagramError, match="variable 'R' has no outcome"):
                    call()
        assert mini_engine.counter.snapshot() == (0, 0)

    def test_trust_comes_from_the_type(self, mini_engine):
        """Engine.calibrate takes a checked context as it is, and nothing
        else: a plain dict, of labels or of the very indices a checked
        context holds, is rejected before anything is charged, and so is a
        context checked against another network."""
        checked = mini_engine.context("D", {"R": "rainy"})
        assert checked.findings == {"R": 1} and checked.missing == ()
        for evidence in ({}, {"R": "rainy"}, checked.findings):
            with pytest.raises(ValueError, match="takes a CheckedContext"):
                mini_engine.calibrate(evidence)
        foreign = Engine(compile_network(mini_weather())).context("D", {"R": "rainy"})
        with pytest.raises(ValueError, match="another network"):
            mini_engine.calibrate(foreign)
        assert mini_engine.counter.snapshot() == (0, 0)
        assert mini_engine.calibrate(checked).best_action() \
            == mini_engine.best_action("D", {"R": "rainy"})


def fixed_two_stage(seed):
    """gen_two_stage's network with d2 fixed by a seeded deterministic
    policy over all its parents, so that d1 can be explored."""
    net = compile_network(gen_two_stage(seed))
    parents = net.diagram.nodes["d2"].parents
    rng = np.random.default_rng(seed)
    table = np.eye(2)[rng.integers(2, size=tuple(net.doms[p] for p in parents))]
    return net.fix_decision("d2", PolicyCpt(parents, table))


class TestCheckedContext:
    """A context reached by CheckedContext.child calibrates as the same
    context made by Engine.context from labels does, bit for bit and charge
    for charge."""

    @staticmethod
    def explore(eng, context):
        """(counter delta, leaf joint, best action, candidate rows),
        or the exception raised in their place."""
        before = eng.counter.snapshot()
        try:
            cal = eng.calibrate(context)
            result = [cal.leaf_joint(), cal.best_action(), cal.rows(context.missing)]
        except ZeroProbabilityError as err:
            result = [type(err)]
        after = eng.counter.snapshot()
        return [(after[0] - before[0], after[1] - before[1])] + result

    @given(data=st.data())
    def test_same_as_labels(self, data):
        kind = data.draw(st.sampled_from(["star", "mixed arity", "two-stage"]))
        seed = data.draw(st.integers(0, 10_000))
        if kind == "star":
            net = compile_network(gen_random_id(GeneratorSpec(
                n=data.draw(st.integers(1, 8)), seed=seed, arity=data.draw(st.integers(2, 3)))))
            decision = "d"
        elif kind == "mixed arity":
            net = compile_network(mixed_arity_diagram(seed, every=data.draw(st.booleans())))
            decision = "d"
        else:
            net, decision = fixed_two_stage(seed), "d1"
        parents = net.diagram.nodes[decision].parents
        chosen = data.draw(st.lists(st.sampled_from(parents), unique=True))
        by_child, labels = Engine(net).context(decision, {}), {}
        for v in chosen:
            j = data.draw(st.integers(0, net.doms[v] - 1))
            by_child, labels[v] = by_child.child(v, j), net.outcomes[v][j]
        by_labels = Engine(net).context(decision, labels)
        assert by_child.findings == by_labels.findings
        assert by_child.missing == by_labels.missing == tuple(p for p in parents
                                                              if p not in labels)
        assert by_child.shape == by_labels.shape
        got = self.explore(Engine(net), by_child)
        ref = self.explore(Engine(net), by_labels)
        assert got[0] == ref[0]
        if len(ref) == 2:
            assert got == ref
            return
        (_, joint, action, evs), (_, ref_joint, ref_action, refs) = got, ref
        assert (joint is None) == (ref_joint is None)
        if joint is not None:
            assert joint.shape == ref_joint.shape and joint.tobytes() == ref_joint.tobytes()
        assert action == ref_action
        assert len(evs) == len(refs)
        assert evs == refs  # every field of every row

    @pytest.mark.parametrize("variable, index", [("R", 0), ("W", 5), ("D", 0), ("V", 1),
                                                 ("Q", 0), ("C1", 2), ("C1", -1),
                                                 ("C1", True), ("C1", 1.0)])
    def test_child_adds_only_a_missing_finding(self, variable, index):
        """child on anything but a missing predecessor and one of its
        outcome indices raises, and charges nothing."""
        eng = Engine(compile_network(mini_weather_coin(2)))
        checked = eng.context("D", {"R": "sunny"})
        assert checked.missing == ("C1", "C2")
        with pytest.raises(ValueError, match="not a finding"):
            checked.child(variable, index)
        assert eng.counter.snapshot() == (0, 0)
        assert checked.child("C1", 1).findings == {"R": 0, "C1": 1}
        assert checked.findings == {"R": 0}

    @pytest.mark.parametrize("by_child", [True, False])
    def test_candidates_are_missing_predecessors(self, by_child):
        """A context's candidates are its missing predecessors, whether
        CheckedContext.child derived it or Engine.context made it; any other
        name is rejected before anything is charged."""
        eng = Engine(compile_network(mini_weather_coin(2)))
        root = eng.context("D", {})
        context = root.child("C1", 0) if by_child else eng.context("D", {"C1": "h"})
        assert context.findings == {"C1": 0} and context.missing == ("R", "C2")
        cal = eng.calibrate(context)
        cal.leaf_joint()
        before = eng.counter.snapshot()
        for variables in (["C1"], ["W"], ["R", "D"], ["Q"]):
            with pytest.raises(ValueError, match="missing predecessor"):
                cal.rows(variables)
        assert eng.counter.snapshot() == before


class TestCandidateEvaluation:
    def test_matches_per_child_queries(self, mini_engine):
        cal = calibrate(mini_engine, "D", {})
        best, probs, values = cal.evaluate_candidate("R")
        labels = mini_engine.network.outcomes["D"]
        assert len(probs) == len(values) == 2  # sunny, rainy
        assert [labels[a] for a in best] == ["leave", "take"]
        assert probs[0] == pytest.approx(0.69, abs=TOL)
        assert values[0] == pytest.approx(2100 / 2300, abs=TOL)
        assert values[1] == pytest.approx(1820 / 3100, abs=TOL)

    def test_impossible_child_gets_zero_prob(self):
        eng = Engine(compile_network(deterministic_exclusion()))
        cal = calibrate(eng, "D", {"A": "a0"})
        _, probs, values = cal.evaluate_candidate("B")
        assert probs[1] == 0.0
        assert values[1] == 0.0


def check_candidate(diagram, decision, context, variable):
    """evaluate_candidate against the enumeration, outcome by outcome."""
    cal = calibrate(Engine(compile_network(diagram)), decision, context)
    check_evaluation(diagram, decision, context, variable, cal.evaluate_candidate(variable))


def check_evaluation(diagram, decision, context, variable, row):
    """A candidate's row against the enumeration: per outcome of the
    variable, the best action's label (of the decision's outcomes), the
    outcome's probability and the action's normalized value."""
    best, probs, values = row
    posterior = enum_posterior(diagram, variable, context)
    outcomes, labels = diagram.variable(variable).outcomes, diagram.variable(decision).outcomes
    assert len(best) == len(probs) == len(values) == len(outcomes)
    for j, outcome in enumerate(outcomes):
        child = {**context, variable: outcome}
        action, _ = enum_best_action(diagram, decision, child)
        assert labels[best[j]] == action
        assert probs[j] == pytest.approx(posterior[outcome], abs=TOL)
        raw = enum_action_value(diagram, decision, action, child)
        assert values[j] == pytest.approx(normalized(diagram, raw), abs=TOL)


class TestCandidateAgainstEnumeration:
    @given(seed=st.integers(0, 10_000))
    def test_random_id(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        arity = int(rng.integers(2, 4))
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
        preds = [v.name for v in diagram.predecessors("d")]
        order = rng.permutation(n)
        k = int(rng.integers(0, n))
        context = {preds[i]: f"v{int(rng.integers(arity))}" for i in order[:k]}
        check_candidate(diagram, "d", context, preds[order[k]])

    @given(seed=st.integers(0, 10_000))
    def test_two_stage_second_decision(self, seed):
        diagram = gen_two_stage(seed)
        check_candidate(diagram, "d2", {}, "d1")
        check_candidate(diagram, "d2", {}, "m")
        check_candidate(diagram, "d2", {"m": "n"}, "d1")
        check_candidate(diagram, "d2", {"d1": "wait"}, "m")


def partial_utility_diagram(seed):
    """Chance predecessors c1..cn of d, each maybe a child of the one before;
    the utility reads d and a random subset of them, so the leaf joint can
    be larger than every factor."""
    rng = np.random.default_rng(seed)
    n, arity = (3, 3) if rng.integers(2) else (int(rng.integers(3, 5)), 2)
    outs = tuple(f"v{i}" for i in range(arity))
    names = [f"c{k}" for k in range(1, n + 1)]
    nodes = {}
    for k, name in enumerate(names):
        parents = (names[k - 1],) if k and rng.integers(2) else ()
        cpt = rng.uniform(0.05, 1.0, size=(arity,) * len(parents) + (arity,))
        rows = normalize_rows((cpt / cpt.sum(axis=-1, keepdims=True)).reshape(-1, arity))
        nodes[name] = ChanceNode(Variable(name, outs), parents, rows.reshape(cpt.shape))
    nodes["d"] = DecisionNode(Variable("d", ("a0", "a1")), tuple(names))
    read = tuple(c for c in names if rng.integers(2))
    nodes["v"] = ValueNode("v", read + ("d",), rng.random(size=(arity,) * len(read) + (2,)))
    return InfluenceDiagram(nodes, ("d",))


class TestLeafJoint:
    def test_guard(self):
        """The joint is computed only where it is no larger than the
        largest restricted factor, here the utility."""
        diagram = gen_random_id(GeneratorSpec(n=3, seed=1))
        assert calibrate(Engine(compile_network(diagram)), "d", {}).leaf_joint().shape \
            == (2,) * 5
        diagram.nodes["v"] = ValueNode("v", ("c1", "d"), np.array([[0.0, 1.0], [1.0, 0.5]]))
        eng = Engine(compile_network(diagram))
        assert calibrate(eng, "d", {}).leaf_joint() is None
        assert calibrate(eng, "d", {"c2": "v0", "c3": "v1"}).leaf_joint().shape == (2, 2, 2)

    def test_halved_sums_match_child_queries(self):
        """Joints of more than 1,024 entries are summed by halving their
        axes; every candidate still matches separate queries in the child
        contexts, at the root and on a slice of the root's joint."""
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=10, seed=3))))
        root = calibrate(eng, "d", {})
        joint = root.leaf_joint()
        assert joint.size == 2 ** 12
        for context, cal in (({}, root), ({"c1": "v1"}, calibrate(eng, "d", {"c1": "v1"},
                                                                  joint[1]))):
            reach = eng.context_probability(context)
            labels = eng.network.outcomes["d"]
            for var in (f"c{k}" for k in range(1, 11) if f"c{k}" not in context):
                best, probs, values = cal.evaluate_candidate(var)
                assert len(best) == len(eng.network.outcomes[var])
                for j, outcome in enumerate(eng.network.outcomes[var]):
                    child = {**context, var: outcome}
                    action, value = eng.best_action("d", child)
                    assert labels[best[j]] == action
                    assert values[j] == pytest.approx(value, abs=TOL)
                    assert probs[j] == pytest.approx(
                        eng.context_probability(child) / reach, abs=TOL)

    def test_handed_joint_of_wrong_shape_rejected(self):
        """A child context holds its parent's leaf joint sliced at its
        finding (CheckedContext.child), a view of the child's shape, and
        evaluates as the same context checked from labels, which contracts
        its own."""
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=3, seed=1))))
        root = eng.context("d", {})
        joint = eng.calibrate(root).leaf_joint()
        assert root.joint is joint
        child, checked = root.child("c1", 0), eng.context("d", {"c1": "v0"})
        assert child.joint.base is joint and child.joint.shape == child.shape
        assert checked.joint is None
        sliced = eng.calibrate(child).evaluate_candidate("c2")
        fresh = eng.calibrate(checked).evaluate_candidate("c2")
        assert sliced[0] == fresh[0]  # the best actions
        assert sliced[1] == pytest.approx(fresh[1], abs=TOL)
        assert sliced[2] == pytest.approx(fresh[2], abs=TOL)

    @given(seed=st.integers(0, 10_000))
    def test_greedy_tree_matches_enumeration(self, seed):
        """Grow a tree greedily to depth 2 and explore the leaves below:
        every cached evaluation, whether from a sliced joint, a joint
        computed at the leaf or per-candidate contractions, matches the
        enumeration."""
        diagram = partial_utility_diagram(seed)
        eng = Engine(compile_network(diagram))
        tree = init_tree(eng, "d")
        frontier = [tree.root]
        for _ in range(2):
            children = []
            for leaf in frontier:
                node = extend(tree, leaf, best_extension(tree, leaf, eng)[0], eng)
                children += [c for c in node.children.values() if not c.pruned]
            frontier = children
        for leaf in frontier:
            if extensions(tree, leaf):
                best_extension(tree, leaf, eng)
        for leaf in iter_leaves(tree):
            for v, row in charged(leaf).items():
                check_evaluation(diagram, "d", dict(leaf.context), v, row)


def mixed_arity_diagram(seed, every):
    """Chance predecessors c1..cn of d, c1 binary, c2 ternary and the rest
    either, each maybe a child of the one before.  The utility reads d and
    every predecessor (leaf joints are computed) or all but c1 (a leaf joint
    over c1 is refused)."""
    rng = np.random.default_rng(seed)
    names = [f"c{k}" for k in range(1, int(rng.integers(2, 6)) + 1)]
    nodes = {}
    for k, name in enumerate(names):
        arity = (2, 3)[k] if k < 2 else int(rng.integers(2, 4))
        parents = (names[k - 1],) if k and rng.integers(2) else ()
        shape = tuple(nodes[p].variable.arity for p in parents) + (arity,)
        cpt = rng.uniform(0.05, 1.0, size=shape)
        rows = normalize_rows((cpt / cpt.sum(axis=-1, keepdims=True)).reshape(-1, arity))
        outs = tuple(f"v{i}" for i in range(arity))
        nodes[name] = ChanceNode(Variable(name, outs), parents, rows.reshape(shape))
    actions = ("a0", "a1", "a2")[:int(rng.integers(2, 4))]
    nodes["d"] = DecisionNode(Variable("d", actions), tuple(names))
    read = tuple(names if every else names[1:])
    shape = tuple(nodes[c].variable.arity for c in read) + (len(actions),)
    nodes["v"] = ValueNode("v", read + ("d",), rng.random(size=shape))
    return InfluenceDiagram(nodes, ("d",))


def decision_only_star(seed, n, arity):
    """gen_random_id's star with a utility that reads every predecessor but
    depends on the decision only: every split's gain is zero up to
    rounding, so the split is decided by the gains' last bits."""
    diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
    value = diagram.nodes["v"]
    weights = np.random.default_rng(seed).random(arity)
    utility = np.broadcast_to(weights, value.utility.shape).copy()
    return InfluenceDiagram({**diagram.nodes, "v": ValueNode("v", value.parents, utility)},
                            ("d",))


def tied_star(n):
    """A star of n ternary predecessors, identically distributed with dyadic
    probabilities, and three actions, utility 1 where some predecessor's
    outcome index is the action's: the predecessors are interchangeable and
    the arithmetic exact, so every leaf's candidates have equal gains."""
    outs, names = ("v0", "v1", "v2"), [f"c{k}" for k in range(1, n + 1)]
    nodes = {c: ChanceNode(Variable(c, outs), (), np.array([0.5, 0.25, 0.25])) for c in names}
    nodes["d"] = DecisionNode(Variable("d", ("a0", "a1", "a2")), tuple(names))
    grid = np.indices((3,) * (n + 1))
    utility = (grid[:-1] == grid[-1]).any(axis=0).astype(float)
    nodes["v"] = ValueNode("v", tuple(names) + ("d",), utility)
    return InfluenceDiagram(nodes, ("d",))


class TestStackedCandidates:
    """Calibration.rows bit for bit against loop_candidate in helpers.py,
    charged as one evaluate_candidate call per candidate."""

    @staticmethod
    def assert_identical(net, decision, context, joint, variables):
        eng, single = Engine(net), Engine(net)
        rows = calibrate(eng, decision, context, joint).rows(variables)
        cal = calibrate(single, decision, context, joint)
        for v in variables:
            cal.evaluate_candidate(v)
        assert eng.counter.snapshot() == single.counter.snapshot()
        reference = calibrate(Engine(net), decision, context, joint)
        assert len(rows) == len(variables)
        for v, row in zip(variables, rows):
            assert len(row[1]) == net.doms[v]  # one entry per outcome of the candidate
            assert_same_evaluation(row, loop_candidate(reference, decision, v))
        return rows

    @pytest.mark.parametrize("mode", ["computed", "refused", "sliced"])
    @given(seed=st.integers(0, 10_000))
    def test_matches_per_candidate_arithmetic(self, mode, seed):
        rng = np.random.default_rng(seed)
        net = compile_network(mixed_arity_diagram(seed, every=mode != "refused"))
        names = list(net.diagram.nodes["d"].parents)
        known = [n for n in names[1:] if rng.integers(2)]
        context = {n: net.outcomes[n][int(rng.integers(net.doms[n]))] for n in known}
        joint = None
        if mode == "sliced":
            joint = calibrate(Engine(net), "d", context).leaf_joint()
            missing = [n for n in names if n not in context]
            k = int(rng.integers(len(missing)))
            j = int(rng.integers(net.doms[missing[k]]))
            context[missing[k]] = net.outcomes[missing[k]][j]
            joint = joint[(slice(None),) * k + (j,)]
        leaf = calibrate(Engine(net), "d", context, joint).leaf_joint()
        assert (leaf is None) == (mode == "refused")
        variables = [str(n) for n in rng.permutation([n for n in names if n not in context])]
        self.assert_identical(net, "d", context, joint, variables)

    def test_impossible_child(self):
        net = compile_network(deterministic_exclusion())
        (_, probs, values), _ = self.assert_identical(net, "D", {"A": "a0"}, None, ["B", "C"])
        assert probs[1] == 0.0 and values[1] == 0.0

    def test_impossible_context(self):
        eng = Engine(compile_network(deterministic_exclusion()))
        with pytest.raises(ZeroProbabilityError):
            calibrate(eng, "D", {"A": "a0", "B": "b1"}).rows(["C"])
        with pytest.raises(ZeroProbabilityError):
            loop_candidate(calibrate(Engine(eng.network), "D", {"A": "a0", "B": "b1"}), "D", "C")

    def test_rejects_non_candidates(self, mini_engine):
        cal = calibrate(mini_engine, "D", {})
        for variable in ("D", "V", "nope"):
            with pytest.raises(ValueError, match="not a possible extension"):
                cal.rows(["R", variable])
        assert mini_engine.counter.snapshot() == (0, 1)


class TestStackRows:
    """stack_rows, the one stacked pass, read out as rows: for every context
    and candidate, the row a lone calibration reads, bit for bit."""

    @given(data=st.data())
    def test_rows_as_evaluations(self, data):
        """A level of contexts split alike from the root, some scaled below
        ZERO_PROB: the rows are candidate-major per context, also where one
        stack has several _choose groups (mixed arities), and a context of
        probability zero is left out (None) while the others keep their
        rows."""
        seed = data.draw(st.integers(0, 10_000))
        if data.draw(st.booleans()):
            n, arity = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 3))
            net = compile_network(gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity)))
        else:
            net = compile_network(mixed_arity_diagram(seed, every=True))
        root = Engine(net).context("d", {})
        Engine(net).calibrate(root).leaf_joint()
        contexts = [root]
        for _ in range(data.draw(st.integers(0, min(len(root.missing) - 1, 4)))):
            k = data.draw(st.integers(0, len(contexts[0].missing) - 1))
            variable = contexts[0].missing[k]
            contexts = [c.child(variable, j) for c in contexts for j in range(net.doms[variable])]
        scaled = data.draw(st.lists(st.booleans(), min_size=len(contexts),
                                    max_size=len(contexts)))
        for c, s in zip(contexts, scaled):
            if s:
                c.joint = c.joint * 1e-13
        joints = [c.joint for c in contexts]
        choices = []

        def choosing(stack, _original=sys.modules["idrefine.engine"]._choose):
            choices.append(1)
            return _original(stack)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys.modules["idrefine.engine"], "_choose", choosing)
            stacked = stack_rows(joints)
        if None not in stacked:  # no retry: one _choose group per candidate arity
            assert len(choices) == len({net.doms[v] for v in contexts[0].missing})
        for c, rows in zip(contexts, stacked, strict=True):
            alone = Engine(net).calibrate(c)
            try:
                expected = alone.rows(c.missing)
            except ZeroProbabilityError:
                assert rows is None
                continue
            assert repr(rows) == repr(expected)


def bits(array):
    """The array's entries as their bit patterns, and its strides."""
    return array.view(np.int64).tolist(), array.strides


class TestTailKeepingSums:
    """_keep, behind every sum that keeps the (decision, proxy) tail, one
    np.einsum from _EINSUM_MIN entries, and _marginal and
    Calibration.best_action, which call it, bit for bit against ndarray.sum
    (sum_keep and sum_marginal in helpers.py)."""

    @staticmethod
    def star(arities, actions):
        """Uniform roots c0.. of the given arities, all parents of d, and a
        utility that reads them and d."""
        names = [f"c{k}" for k in range(len(arities))]
        nodes = {c: ChanceNode(Variable(c, tuple(f"v{i}" for i in range(a))), (),
                               np.full(a, 1.0 / a)) for c, a in zip(names, arities)}
        nodes["d"] = DecisionNode(Variable("d", tuple(f"a{i}" for i in range(actions))),
                                  tuple(names))
        nodes["v"] = ValueNode("v", tuple(names) + ("d",), np.ones(tuple(arities) + (actions,)))
        return InfluenceDiagram(nodes, ("d",))

    @pytest.mark.parametrize("halved", [False, True])
    @given(data=st.data())
    def test_bit_for_bit_with_ndarray_sum(self, halved, data):
        """Stacks of 1-3 leaf joints over 1-8 predecessor axes of arity 2-4,
        each joint at most _HALVING_MIN entries or, halved, more, in C order
        or as a slice of a larger stack at one predecessor, as
        CheckedContext.child makes them; entries spread over many binades,
        so that any other order of additions shows in the last bits."""
        arities = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=8))
        actions, size = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        while math.prod(arities) > 4096 or (
                not halved and math.prod(arities) * actions * 2 > _HALVING_MIN):
            arities.pop()
        while halved and math.prod(arities) * actions * 2 <= _HALVING_MIN:
            if min(arities) < 4:
                arities[arities.index(min(arities))] += 1
            else:
                arities.append(4)
        shape = (size, *arities, actions, 2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        if data.draw(st.booleans()):  # a child's view: one more axis, sliced
            k = data.draw(st.integers(1, len(shape) - 2))
            parent = (*shape[:k], data.draw(st.integers(2, 4)), *shape[k:])
            stack = rng.random(parent) * 10.0 ** rng.uniform(-12, 0, parent)
            stack = stack[(slice(None),) * k + (data.draw(st.integers(0, parent[k] - 1)),)]
        else:
            stack = rng.random(shape) * 10.0 ** rng.uniform(-12, 0, shape)
        p = len(arities)
        for lo in range(1, p + 2):
            for hi in range(lo, p + 2):  # every kept block; lo == hi drops all
                got, ref = _keep(stack, lo, hi), sum_keep(stack, lo, hi)
                if hi - lo == p:  # nothing dropped: einsum may return a view
                    assert got.tolist() == ref.tolist()
                else:
                    assert bits(got) == bits(ref)
        halves, ref_halves = {}, {}
        for k in range(p):
            assert bits(_marginal(stack, k, halves)) == bits(sum_marginal(stack, k, ref_halves))
        assert halves.keys() == ref_halves.keys() and bool(halves) == halved
        eng = Engine(compile_network(self.star(arities, actions)))
        for joint in stack:
            context = eng.context("d", {})
            context.joint = joint
            best, _, values = _choose(joint.sum(axis=tuple(range(p)))[None, None])
            assert eng.calibrate(context).best_action() == (f"a{best[0, 0]}", values[0, 0])


def assert_same_evaluation(row, ref):
    """Two rows of one candidate, (best, probs, values), equal entry for entry."""
    assert tuple(row) == tuple(ref)


class TestSiblingGroups:
    """best_extension evaluates a leaf's unexplored siblings with it in one
    stacked pass (stack_rows) and charges each when it is explored,
    as if it were evaluated then, alone."""

    @pytest.mark.parametrize("mode", ["computed", "refused", "sliced"])
    @given(seed=st.integers(0, 10_000))
    def test_each_sibling_as_if_explored_alone(self, mode, seed):
        """Explore breadth first, as posthoc serves leaves, and split each
        leaf on a drawn variable (binary or ternary).  Every explored leaf's
        results are bit for bit loop_candidate's on that leaf alone, and
        the counters move as evaluating it alone moves them.  "computed"
        explores the root and its children, "sliced" also the grandchildren
        (slices of slices); "refused" is "sliced" where the root's joint is
        refused."""
        rng = np.random.default_rng(seed)
        net = compile_network(mixed_arity_diagram(seed, every=mode != "refused"))
        eng = Engine(net)
        tree = init_tree(eng, "d")
        frontier, grouped = [tree.root], 0
        for _ in range(2 if mode == "computed" else 3):
            children = []
            for leaf in frontier:
                names = [v.name for v in extensions(tree, leaf)]
                if leaf.pruned or not names:
                    continue
                joint = leaf.checked.joint
                reference = calibrate(Engine(net), "d", dict(leaf.context), joint)
                expected = [loop_candidate(reference, "d", v) for v in names]
                alone = Engine(net)
                calibrate(alone, "d", dict(leaf.context), joint).rows(names)
                grouped += bool(uncharged(leaf))
                before = eng.counter.snapshot()
                best_extension(tree, leaf, eng)
                after = eng.counter.snapshot()
                assert (after[0] - before[0], after[1] - before[1]) == alone.counter.snapshot()
                for v, ref in zip(names, expected):
                    assert_same_evaluation(charged(leaf)[v], ref)
                node = extend(tree, leaf, names[int(rng.integers(len(names)))], eng)
                children += node.children.values()
            frontier = children
        assert grouped > 0 or mode == "refused"

    @pytest.mark.parametrize("seed", range(3))
    def test_halving_decided_per_joint(self, seed):
        """Each child of an n = 9 star's root has a joint of _HALVING_MIN
        entries, summed directly; the stack of both has twice as many and
        must be summed directly too, or the results change in the last bits."""
        eng, tree, children = self.split_root(seed, n=9, variable="c5")
        assert children[0].checked.joint.size == _HALVING_MIN
        names = [v.name for v in extensions(tree, children[0])]
        expected = [[loop_candidate(calibrate(Engine(eng.network), "d", dict(c.context),
                                              c.checked.joint), "d", v)
                     for v in names] for c in children]
        best_extension(tree, children[0], eng)
        assert uncharged(children[1]) == set(names)  # evaluated in one group
        best_extension(tree, children[1], eng)
        for child, refs in zip(children, expected):
            for v, ref in zip(names, refs):
                assert_same_evaluation(charged(child)[v], ref)

    @staticmethod
    def split_root(seed=2, n=4, variable="c2"):
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=n, seed=seed))))
        tree = init_tree(eng, "d")
        return eng, tree, list(extend(tree, tree.root, variable, eng).children.values())

    def test_zero_probability_sibling_is_left_alone(self):
        """A sibling whose rows would raise ZeroProbabilityError (its joint
        scaled below ZERO_PROB here) is left out of the group: the leaf
        explored gets the results it gets alone, and the sibling, never
        recorded, raises only when it is explored, as it does alone."""
        eng, tree, (first, second) = self.split_root()
        second.checked.joint = second.checked.joint * 1e-13
        names = [v.name for v in extensions(tree, first)]
        alone = calibrate(Engine(eng.network), "d", dict(first.context), first.checked.joint)
        expected = alone.rows(names)
        best_extension(tree, first, eng)
        for v, ref in zip(names, expected):
            assert_same_evaluation(charged(first)[v], ref)
        assert not uncharged(first) and second.explored is None
        with pytest.raises(ZeroProbabilityError):
            calibrate(Engine(eng.network), "d", dict(second.context),
                      second.checked.joint).rows(names)
        with pytest.raises(ZeroProbabilityError):
            best_extension(tree, second, eng)

    def test_evi_on_an_uncharged_sibling_charges_as_before(self):
        """evi on a leaf holding uncharged results costs a calibration and
        one candidate, and a later best_extension the calibration and the
        rest, exactly as on a tree where no group formed."""
        eng, tree, (first, second) = self.split_root()
        best_extension(tree, first, eng)
        assert uncharged(second) and not charged(second)
        ref_eng, ref_tree, (_, ref_second) = self.split_root()
        for call in (lambda t, leaf, e: evi(t, leaf, "c3", e), best_extension):
            before, ref_before = eng.counter.snapshot(), ref_eng.counter.snapshot()
            assert call(tree, second, eng) == call(ref_tree, ref_second, ref_eng)
            delta = [a - b for a, b in zip(eng.counter.snapshot(), before)]
            assert delta == [a - b for a, b in zip(ref_eng.counter.snapshot(), ref_before)]
        assert delta == [2 * 2 * 2, 1 + 2 * 2]  # the two candidates evi did not read
        for v, row in charged(second).items():
            assert_same_evaluation(row, charged(ref_second)[v])

    READS = {"evi": lambda tree, leaf, eng: evi(tree, leaf, "c3", eng),
             "best_extension": best_extension,
             "extend": lambda tree, leaf, eng: extend(tree, leaf, "c3", eng).gain}

    @pytest.mark.parametrize("order", [("evi", "best_extension", "extend"),
                                       ("best_extension", "evi", "extend"),
                                       ("evi", "evi", "extend"),
                                       ("extend",)])
    def test_grouped_sibling_charged_once(self, monkeypatch, order):
        """Whichever of evi, best_extension and extend reads a grouped
        sibling first, each candidate is charged once, when first read: a
        calibration pass for each read that charges, plus two passes and
        twice its outcomes in fine queries per candidate.  The results come
        from the group, with no evaluation, and equal those of a tree where
        no group formed."""
        eng, tree, (first, second) = self.split_root()
        best_extension(tree, first, eng)
        names = [v.name for v in extensions(tree, second)]
        assert uncharged(second) == set(names) and not charged(second)
        ref_eng, ref_tree, (_, ref_second) = self.split_root()
        evaluations = []

        def counting(*args, _original=sys.modules["idrefine.engine"]._evaluate):
            evaluations.append(1)
            return _original(*args)
        monkeypatch.setattr(sys.modules["idrefine.engine"], "_evaluate", counting)
        done, start, ref_start = set(), eng.counter.snapshot(), ref_eng.counter.snapshot()
        for read in order:
            new = (set(names) if read == "best_extension" else {"c3"}) - done
            done |= new
            expected = self.READS[read](ref_tree, ref_second, ref_eng)
            before, calls = eng.counter.snapshot(), len(evaluations)
            assert self.READS[read](tree, second, eng) == expected
            assert len(evaluations) == calls
            delta = [a - b for a, b in zip(eng.counter.snapshot(), before)]
            assert delta == [2 * 2 * len(new), 1 + 2 * len(new) if new else 0]
        spent = [a - b for a, b in zip(eng.counter.snapshot(), start)]
        assert spent == [a - b for a, b in zip(ref_eng.counter.snapshot(), ref_start)]

    @pytest.mark.parametrize("leaf", ["random", "posthoc"])
    def test_random_extension_stacks_only_complete_runs(self, monkeypatch, leaf):
        """A bounded random-extension run forms no group.  A complete one
        stacks more than one leaf's siblings: cohorts leaf by leaf (posthoc
        leaf choice), or, drawn (random leaf choice, refine.draw), each
        level's contexts by drawn axis (Engine.explore_stack).  Either way it
        charges each extension only the drawn candidate: a calibration pass
        plus two passes, and twice its outcomes in fine queries."""
        tree_module = sys.modules["idrefine.tree"]
        stacks = []

        def counting(joints, _original=tree_module.stack_rows):
            stacks.append(len(joints))
            return _original(joints)

        def drawing(engine, stack, axis=None, _original=Engine.explore_stack):
            stacks.append(len(stack))
            return _original(engine, stack, axis)
        monkeypatch.setattr(tree_module, "stack_rows", counting)
        monkeypatch.setattr(Engine, "explore_stack", drawing)
        net = compile_network(gen_random_id(GeneratorSpec(n=6, seed=3)))
        for stop in (StoppingRule(max_extensions=40), StoppingRule(max_passes=120)):
            _, trace = refine(Engine(net), "d", RefinementConfig(
                leaf_strategy=leaf, extension_strategy="random", stop=stop, seed=3))
            assert trace.records[-1].internal_vertices >= 30
        assert stacks == []
        events = []
        refine(Engine(net), "d", RefinementConfig(leaf_strategy=leaf, extension_strategy="random",
                                                  seed=3), observer=events.append)
        assert max(stacks) > 2  # binary predecessors: more than one leaf's siblings
        assert len(events) == 2 ** 6 - 1
        assert all((ev.passes_delta, ev.fine_delta) == (3, 2 * 2) for ev in events)


def holding(mp):
    """Patch refine's init_tree to record, per decision, whether the tree
    it makes has an open root holding its joint; returns that dict."""
    held, refine_module = {}, sys.modules["idrefine.refine"]

    def starting(engine, decision, _original=refine_module.init_tree):
        tree = _original(engine, decision)
        held[decision] = tree.root in tree.open and tree.root.checked.joint is not None
        return tree
    mp.setattr(refine_module, "init_tree", starting)
    return held


class TestCohorts:
    """In a run with no bound, random_extension stacks a leaf's cohort,
    every unexplored open leaf whose joint has the leaf's joint's shape,
    whatever its parent, and a greedy run whose root holds its joint is
    grown (tree.grow), each level's contexts, the root's included, stacked
    by joint shape (Engine.explore_stack).  Each leaf is stacked at most
    once, and each result is bit for bit that of evaluating the leaf alone.
    A grown run charges every stacked result; random extension charges only
    the drawn candidate of each leaf, and the other results cost wall time
    but never the counters."""

    @staticmethod
    def stacking(mp):
        """Patch the tree's stack_rows to record each stack as (leaf joints,
        rows), and Calibration.rows to record each read as (checked context,
        the leaf joint it held, the stacked rows it was handed or None);
        returns both."""
        tree_module = sys.modules["idrefine.tree"]
        stacks, reads = [], []

        def recording(joints, _original=tree_module.stack_rows):
            results = _original(joints)
            stacks.append((list(joints), results))
            return results

        def reading(cal, variables, stacked=None, _original=Calibration.rows):
            reads.append((cal._context, cal._context.joint, stacked))
            return _original(cal, variables, stacked)
        mp.setattr(tree_module, "stack_rows", recording)
        mp.setattr(Calibration, "rows", reading)
        return stacks, reads

    @staticmethod
    def assert_as_if_alone(results):
        """Each (checked context, leaf joint, stacked rows) holds bit for bit
        the rows a lone calibration of the context holding that joint reads
        (repr tells -0.0 from 0.0)."""
        for c, joint, rows in results:
            c.joint = joint
            assert repr(rows) == repr(Engine(c.network).calibrate(c).rows(c.missing))

    @staticmethod
    def exploring(mp):
        """Patch Engine.explore_stack to record each stack it explores as
        (stack, its results); returns the list."""
        explored = []

        def recording(engine, stack, axis=None, _original=Engine.explore_stack):
            result = _original(engine, stack, axis)
            explored.append((stack, result))
            return result
        mp.setattr(Engine, "explore_stack", recording)
        return explored

    @given(data=st.data())
    def test_complete_run(self, data):
        """A complete greedy run, under either leaf strategy, explores each
        context exactly once.  A tree whose root holds its joint is grown:
        each context is one row of one stacked pass, the root a stack of
        one, and none is read alone (Calibration.rows); each stacked row's
        results are bit for bit those of a stack of that row alone, and the
        root's children's those of their calibrations; and on stars with
        n >= 3 some stack spans more than one sibling group.  A tree whose
        root joint the engine refused (coins, mixed arity without c1 in the
        utility) goes leaf by leaf, each context read once on its
        calibration, and explores no stack.  Where every root holds its
        joint, the run stacks no cohort or sibling group (stack_rows)."""
        kind = data.draw(st.sampled_from(["star", "mixed arity", "two-stage", "coins"]))
        seed = data.draw(st.integers(0, 10_000))
        config = RefinementConfig(leaf_strategy=data.draw(st.sampled_from(["posthoc", "random"])),
                                  seed=seed)
        every = kind == "mixed arity" and data.draw(st.booleans())
        with pytest.MonkeyPatch.context() as mp:
            stacks, reads = self.stacking(mp)
            explored = self.exploring(mp)
            held = holding(mp)
            if kind == "star":
                n = data.draw(st.integers(1, 8))
                arity = data.draw(st.integers(2, 3))
                diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
                tree, _ = refine(Engine(compile_network(diagram)), "d", config)
                trees = [tree]
                assert tree.internals == (arity ** n - 1) // (arity - 1)
            elif kind == "two-stage":
                diagram = gen_two_stage(seed)
                trees = [p.tree for p in sweep_back(diagram, config)[0].policies]
            else:
                diagram = (mixed_arity_diagram(seed, every=every)
                           if kind == "mixed arity" else mini_weather_coin(3))
                trees = [refine(Engine(compile_network(diagram)), diagram.decision_order[0],
                                config)[0]]
        assert all(held.values()) == (kind in ("star", "two-stage") or every)
        assert sum(len(stack) for stack, _ in explored) \
            == sum(t.internals for t in trees if held[t.decision])
        assert len(reads) == sum(t.internals for t in trees if not held[t.decision])
        if all(held.values()):
            assert stacks == [] and reads == []
        alone = Engine(compile_network(diagram))
        for stack, (results, fine, passes) in explored:
            for s in range(len(stack)):
                own, own_fine, own_passes = alone.explore_stack(stack[s:s + 1])
                assert (own_fine, own_passes) == (fine, passes)
                assert repr(own) == repr(results[s:s + 1])
        if kind == "star":  # the root, a stack of one, then its children, each as its calibration
            assert len(explored[0][0]) == 1
        if kind == "star" and n >= 2:
            root = alone.context("d", {})
            alone.calibrate(root).leaf_joint()
            stack, (results, _, _) = explored[1]
            assert len(stack) == arity
            for j, rows in enumerate(results):
                child = root.child(trees[0].root.variable, j)
                assert repr(rows) == repr(alone.calibrate(child).rows(child.missing))
            if n >= 3:  # a level's stack spans more than one sibling group
                assert any(len(stack) > arity for stack, _ in explored)

    @given(data=st.data())
    def test_random_extension_as_if_alone(self, data):
        """A complete random-extension run made leaf by leaf, under either
        leaf strategy, writes the trace CSV and the policy JSON of the same
        run with no stacking (_stack a no-op) byte for byte.  Each leaf is
        stacked at most once, each stacked leaf reads its drawn candidate's
        row from its stack, and every stacked row is as if evaluated alone.
        A random leaf choice goes leaf by leaf where tree.drawable refuses
        the root, as both runs here have it do; else it is drawn
        (TestDrawing)."""
        leaf = data.draw(st.sampled_from(["random", "posthoc"]))
        seed = data.draw(st.integers(0, 10_000))
        star = data.draw(st.booleans())
        if star:
            n, arity = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 3))
            diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
        else:
            diagram = mixed_arity_diagram(seed, every=True)
        net = compile_network(diagram)
        config = RefinementConfig(leaf_strategy=leaf, extension_strategy="random", seed=seed)
        refine_module = sys.modules["idrefine.refine"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine_module, "drawable", lambda tree: False)
            stacks, reads = self.stacking(mp)
            tree, trace = refine(Engine(net), "d", config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine_module, "drawable", lambda tree: False)
            mp.setattr(sys.modules["idrefine.tree"], "_stack", lambda *args: None)
            lone_tree, lone_trace = refine(Engine(net), "d", config)
        # as lines, so that a failure names the first row that differs without a long diff
        assert trace.to_csv().splitlines() == lone_trace.to_csv().splitlines()
        assert dumps_policy(tree).splitlines() == dumps_policy(lone_tree).splitlines()
        # each stacked leaf is stacked once, and read once, for the drawn
        # candidate, from its stack's rows, which are as if evaluated alone
        members = {id(j): rows for joints, results in stacks for j, rows in zip(joints, results)}
        assert len(members) == sum(len(joints) for joints, _ in stacks)
        read = [(c, joint, rows) for c, joint, rows in reads if rows is not None]
        assert sorted(id(joint) for _, joint, _ in read) == sorted(members)
        assert all(any(row is rows[0] for row in members[id(joint)]) for _, joint, rows in read)
        self.assert_as_if_alone([(c, joint, members[id(joint)]) for c, joint, _ in read])
        if star and n >= 2:  # the root's children at least form a cohort
            assert stacks

    def test_zero_probability_member_left_out(self):
        """A member of a level whose rows would raise ZeroProbabilityError
        (its joint scaled below ZERO_PROB) is left out of stack_rows'
        stack, the other members getting the results they get alone; the
        tree's open leaves keep their checked contexts, and each other
        member extends to the vertex, at the charges, of a fresh tree.
        grow on a tree whose root joint is so scaled raises
        ZeroProbabilityError, as evaluating the root alone does, and leaves
        the tree as it was."""
        eng, tree, _ = TestSiblingGroups.split_root()
        for child in list(tree.open):
            extend(tree, child, "c3", eng)
        leaves = list(tree.open)
        assert len(leaves) == 4 and len({l.context[0] for l in leaves}) == 2
        zero = leaves[2]
        zero.checked.joint = zero.checked.joint * 1e-13
        names = zero.checked.missing
        with pytest.raises(ZeroProbabilityError):
            Engine(eng.network).calibrate(zero.checked).rows(names)
        results = stack_rows([l.checked.joint for l in leaves])
        assert [rows is None for rows in results] == [l is zero for l in leaves]
        self.assert_as_if_alone([(l.checked, l.checked.joint, rows)
                                 for l, rows in zip(leaves, results) if rows is not None])
        assert list(tree.open) == leaves and all(l.checked is not None for l in tree.open)
        ref_eng, ref_tree, _ = TestSiblingGroups.split_root()
        for child in list(ref_tree.open):
            extend(ref_tree, child, "c3", ref_eng)
        for leaf, ref in zip(leaves, list(ref_tree.open)):
            if leaf is zero:
                continue
            variable = leaf.checked.missing[0]
            before, ref_before = eng.counter.snapshot(), ref_eng.counter.snapshot()
            assert extend(tree, leaf, variable, eng).gain == \
                extend(ref_tree, ref, variable, ref_eng).gain
            delta = [a - b for a, b in zip(eng.counter.snapshot(), before)]
            assert delta == [a - b for a, b in zip(ref_eng.counter.snapshot(), ref_before)]
        assert dumps_policy(tree).splitlines() == dumps_policy(ref_tree).splitlines()
        root_eng = Engine(eng.network)
        rooted = init_tree(root_eng, "d")
        root = rooted.root
        root.checked.joint = root.checked.joint * 1e-13
        with pytest.raises(ZeroProbabilityError):
            Engine(eng.network).calibrate(root.checked).rows(root.checked.missing)
        value, before = rooted.exact, dumps_policy(rooted)
        with pytest.raises(ZeroProbabilityError):
            grow(rooted, root_eng)
        assert rooted.root is root and list(rooted.open) == [root] and root.checked is not None
        assert (rooted.internals, rooted.exact, dumps_policy(rooted)) == (0, value, before)


def shared_parent_diagram(seed):
    """Binary roots c1, c2 and c4, c3 a child of (c1, c2), d observing all
    four, and a utility over (c1, c2, c4, d), tables drawn by the seed.  The
    root's leaf joint (64 entries) is larger than the utility (32), and is
    refused; the joint of a context that knows c3 fits."""
    rng = np.random.default_rng(seed)
    outs, nodes = ("v0", "v1"), {}
    for name, parents in (("c1", ()), ("c2", ()), ("c3", ("c1", "c2")), ("c4", ())):
        cpt = rng.uniform(0.05, 1.0, size=(2,) * len(parents) + (2,))
        rows = normalize_rows((cpt / cpt.sum(axis=-1, keepdims=True)).reshape(-1, 2))
        nodes[name] = ChanceNode(Variable(name, outs), parents, rows.reshape(cpt.shape))
    nodes["d"] = DecisionNode(Variable("d", ("a0", "a1")), ("c1", "c2", "c3", "c4"))
    nodes["v"] = ValueNode("v", ("c1", "c2", "c4", "d"), rng.random(size=(2,) * 4))
    return InfluenceDiagram(nodes, ("d",))


def chain_diagram(seed, n=5):
    """Binary chance nodes c0 -> c1 -> ... -> c(n-1), d observing all n,
    and a utility over (c(n-1), c0, d), tables drawn by the seed.  No
    factor has more than 16 entries, so the root's leaf joint (2^(n+2)) is
    refused."""
    rng = np.random.default_rng(seed)
    outs, nodes, names = ("v0", "v1"), {}, [f"c{k}" for k in range(n)]
    for k, name in enumerate(names):
        parents = (names[k - 1],) if k else ()
        cpt = rng.uniform(0.05, 1.0, size=(2,) * len(parents) + (2,))
        rows = normalize_rows((cpt / cpt.sum(axis=-1, keepdims=True)).reshape(-1, 2))
        nodes[name] = ChanceNode(Variable(name, outs), parents, rows.reshape(cpt.shape))
    nodes["d"] = DecisionNode(Variable("d", ("a0", "a1")), tuple(names))
    nodes["v"] = ValueNode("v", (names[-1], names[0], "d"), rng.random(size=(2, 2, 2)))
    return InfluenceDiagram(nodes, ("d",))


class TestGrowth:
    """A complete greedy run whose root holds its joint is grown and
    replayed (tree.grow, then the records grow returns); one whose root
    joint the engine refused (exclusion, coins, mixed arity without c1 in
    the utility, shared parent, chain) goes leaf by leaf.  The same run
    bounded only by max_extensions=10**9 extends leaf by leaf.  Both write
    the same trace CSV bytes, policy JSON bytes, observer events and
    counters, and the grown tree's counts and value are those of a walk of
    it, and of the trace's last record.  On wide stars (arity 4 to 9) a
    gain sums 8 or more outcomes, where numpy's pairwise order would differ
    from the leaf-by-leaf run's left to right."""

    @given(data=st.data())
    def test_same_as_extending_leaf_by_leaf(self, data):
        kind = data.draw(st.sampled_from(["star", "wide star", "mixed arity", "exclusion",
                                          "coins", "two-stage", "decision only", "ties",
                                          "shared parent", "chain"]))
        leaf = data.draw(st.sampled_from(["posthoc", "random"]))
        seed = data.draw(st.integers(0, 10_000))
        refused = kind in ("exclusion", "coins", "shared parent", "chain")
        if kind in ("star", "wide star"):
            n, arity = ((data.draw(st.integers(1, 8)), data.draw(st.integers(2, 3)))
                        if kind == "star" else
                        (data.draw(st.integers(1, 2)), data.draw(st.integers(4, 9))))
            diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
        elif kind == "mixed arity":
            every = data.draw(st.booleans())
            diagram, refused = mixed_arity_diagram(seed, every=every), not every
        elif kind == "exclusion":
            diagram = deterministic_exclusion()
        elif kind == "coins":  # the root's joint is refused, its children's computed
            diagram = mini_weather_coin(3)
        elif kind == "shared parent":  # the joints of contexts that know c3 are computed
            diagram = shared_parent_diagram(seed)
        elif kind == "chain":
            diagram = chain_diagram(seed)
        elif kind == "decision only":
            n, arity = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 3))
            diagram = decision_only_star(seed, n, arity)
        elif kind == "ties":
            diagram = tied_star(data.draw(st.integers(2, 4)))
            eng = Engine(compile_network(diagram))
            tied = init_tree(eng, "d")
            assert len({evi(tied, tied.root, c.name, eng) for c in tied.predecessors}) == 1
        else:
            diagram = gen_two_stage(seed)
        assert (self.check(diagram, leaf, seed) == []) == refused

    @pytest.mark.parametrize("leaf", ["posthoc", "random"])
    @pytest.mark.parametrize("diagram", [
        deterministic_exclusion(), mini_weather_coin(3), mixed_arity_diagram(0, every=False),
        shared_parent_diagram(0), shared_parent_diagram(4), chain_diagram(0)],
        ids=["exclusion", "coins", "mixed arity", "shared parent 0", "shared parent 4", "chain"])
    def test_refused_root_not_grown(self, diagram, leaf):
        """Each kind whose root joint the engine refuses, at fixed draws:
        the complete run is not grown, and writes the bounded run's bytes."""
        assert self.check(diagram, leaf, 0) == []

    @staticmethod
    def check(diagram, leaf, seed):
        """Run the diagram's decisions (sweep_back where it has more than
        one) to completion and bounded, under the leaf strategy; assert
        what the class docstring states, and that the bounded run grows
        nothing and the complete run grows exactly the decisions whose root
        holds its joint; returns the decisions grown."""
        refine_module = sys.modules["idrefine.refine"]
        runs = []
        for stop in (StoppingRule(run_to_complete=True), StoppingRule(max_extensions=10 ** 9)):
            config = RefinementConfig(leaf_strategy=leaf, stop=stop, seed=seed)
            events, grown = [], []
            with pytest.MonkeyPatch.context() as mp:
                def growing(tree, engine, _original=refine_module.grow):
                    grown.append(tree.decision)
                    return _original(tree, engine)
                mp.setattr(refine_module, "grow", growing)
                held = holding(mp)
                if len(diagram.decision_order) > 1:
                    policy, traces = sweep_back(diagram, config,
                                                observer=lambda d, ev: events.append((d, ev)))
                    trees = [p.tree for p in policy.policies]
                    traces = [traces[t.decision] for t in trees]
                    counters = None  # each decision's engine is sweep_back's; its trace has them
                else:
                    engine = Engine(compile_network(diagram))
                    tree, trace = refine(engine, diagram.decision_order[0], config,
                                         observer=events.append)
                    trees, traces, counters = [tree], [trace], engine.counter.snapshot()
                    assert counters == (trace.records[-1].fine_queries,
                                        trace.records[-1].passes)
            if stop.unbounded:  # the grown trees' own counts and value
                for tree, trace in zip(trees, traces):
                    assert_statistics(tree)
                    last = trace.records[-1]
                    assert not tree.open and (last.internal_vertices, last.leaves,
                                              last.value_normalized) == (
                        tree.internals, tree.leaves, tree_value(tree))
            # as lines, so that a failure names the first row that differs without a long diff
            runs.append(([line for t in traces for line in t.to_csv().splitlines()],
                         [line for t in trees for line in dumps_policy(t).splitlines()],
                         events, counters, grown, held))
        (csv, policies, events, counters, grown, held), reference = runs
        assert csv == reference[0]
        assert policies == reference[1]
        assert events == reference[2]
        assert counters == reference[3]
        assert grown == [d for d, root in held.items() if root] and reference[4] == []
        return grown

    @pytest.mark.parametrize("explore", [
        lambda tree, leaf, eng: extend(tree, leaf, "c1", eng),
        lambda tree, leaf, eng: evi(tree, leaf, "c1", eng),
        best_extension], ids=["extend", "evi", "best_extension"])
    def test_grown_leaf_not_explored(self, explore):
        """grow puts a vertex in place of init_tree's open root, and of every
        leaf below it that would be open, and returns the root's record,
        whose opened records are its children's: the tree it leaves has no
        open leaf, and exploring any of its leaves raises ValueError and
        charges nothing."""
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=3, seed=1))))
        tree = init_tree(eng, "d")
        grown = grow(tree, eng)
        assert (grown.depth, grown.variable) == (0, tree.root.variable)
        assert [g.depth for g in grown.opened] == [1, 1] and [
            g.variable for g in grown.opened] == [n.variable for n in tree.root.children.values()]
        assert not tree.open and tree.internals == 7
        before = eng.counter.snapshot()
        for leaf in iter_leaves(tree):
            with pytest.raises(ValueError):
                explore(tree, leaf, eng)
        assert eng.counter.snapshot() == before


class TestDrawing:
    """A random run with no bound (random leaf and extension) whose root
    tree.drawable accepts is drawn and grown first (refine.draw), then
    replayed; the same run bounded by max_extensions at its own extension
    count goes leaf by leaf, since a bounded run is never drawn.  Both
    write the same trace CSV bytes, policy JSON bytes, gains (repr),
    counters and observer events, decision by decision under sweep_back.
    A root that drawable refuses, and any other random run, goes leaf by
    leaf."""

    @staticmethod
    def solve(diagram, stops, seed, leaf="random"):
        """(trace CSV lines, policy JSON lines, gains, counters, events, the
        decisions drawn) of a random-extension run of every decision, each
        stopped by its rule in ``stops``; counters are those of a
        single-decision run (sweep_back's traces hold each decision's)."""
        refine_module, drawn, events = sys.modules["idrefine.refine"], [], []
        config = {d: RefinementConfig(leaf_strategy=leaf, extension_strategy="random",
                                      stop=stop, seed=seed) for d, stop in stops.items()}
        with pytest.MonkeyPatch.context() as mp:
            def drawing(tree, *args, _original=refine_module.draw):
                drawn.append(tree.decision)
                return _original(tree, *args)
            mp.setattr(refine_module, "draw", drawing)
            if len(stops) > 1:
                policy, traces = sweep_back(diagram, config,
                                            observer=lambda d, ev: events.append((d, ev)))
                trees, counters = [p.tree for p in policy.policies], None
                traces = [traces[t.decision] for t in trees]
                policies = dumps_multistage_policy(policy)
            else:
                (d, config), = config.items()
                engine = Engine(compile_network(diagram))
                tree, trace = refine(engine, d, config,
                                     observer=lambda ev: events.append((d, ev)))
                trees, traces, counters = [tree], [trace], engine.counter.snapshot()
                policies = dumps_policy(tree)
        # as lines, so that a failure names the first row that differs without a long diff
        return ([line for t in traces for line in t.to_csv().splitlines()],
                policies.splitlines(), [repr(v.gain) for t in trees for v in iter_internals(t)],
                counters, events, drawn)

    def assert_as_leaf_by_leaf(self, diagram, seed):
        """The decisions a complete run drew, after checking its outputs
        against the leaf-by-leaf run's."""
        order = diagram.decision_order
        complete = self.solve(diagram, {d: StoppingRule(run_to_complete=True) for d in order},
                              seed)
        extended = {d: sum(e == d for e, _ in complete[4]) for d in order}
        bounded = self.solve(diagram, {d: StoppingRule(max_extensions=extended[d])
                                       for d in order}, seed)
        for got, expected in zip(complete[:5], bounded[:5]):
            assert got == expected
        assert bounded[5] == []
        return complete[5]

    @given(data=st.data())
    def test_same_as_extending_leaf_by_leaf(self, data):
        kind = data.draw(st.sampled_from(["star", "two-stage", "mixed arity", "no predecessors",
                                          "degenerate"]))
        seed = data.draw(st.integers(0, 10_000))
        if kind == "star":
            arity = data.draw(st.integers(2, 4))
            n = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[arity]))
            diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=arity))
        elif kind == "two-stage":
            diagram = gen_two_stage(seed)
        elif kind == "mixed arity":
            diagram = mixed_arity_diagram(seed, every=data.draw(st.booleans()))
        elif kind == "no predecessors":
            diagram = InfluenceDiagram({"d": DecisionNode(Variable("d", ("a", "b")), ()),
                                        "v": ValueNode("v", ("d",), np.array([0.0, 1.0]))},
                                       ("d",))
        else:
            diagram = constant_utility()
        drawn = self.assert_as_leaf_by_leaf(diagram, seed)
        if kind == "two-stage":
            assert drawn == ["d2", "d1"]
        else:
            d = diagram.decision_order[0]
            net = compile_network(diagram)
            assert drawn == ([d] if not net.degenerate and drawable(init_tree(Engine(net), d))
                             else [])

    @staticmethod
    def rare(p):
        """One chance node X, rare with probability p; D observes X, and V
        favours y exactly when X is rare."""
        x = ChanceNode(Variable("X", ("common", "rare")), (), np.array([1.0 - p, p]))
        d = DecisionNode(Variable("D", ("x", "y")), ("X",))
        v = ValueNode("V", ("X", "D"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        return InfluenceDiagram({"X": x, "D": d, "V": v}, ("D",))

    @pytest.mark.parametrize("p, drawn", [(1e-13, False), (1.5e-12, False), (3e-12, True)])
    def test_rare_context(self, p, drawn):
        """A root whose smallest full context lies below ZERO_PROB (its leaf
        is pruned) or below 2 * ZERO_PROB is refused, and the run goes leaf
        by leaf; at 3e-12 it is drawn.  Either way the outputs are those of
        the leaf-by-leaf run."""
        diagram = self.rare(p)
        assert drawable(init_tree(Engine(compile_network(diagram)), "D")) == drawn
        assert self.assert_as_leaf_by_leaf(diagram, 0) == (["D"] if drawn else [])
        assert find_leaf(self.run(diagram), {"X": "rare"}).pruned == (p < ZERO_PROB)

    @staticmethod
    def run(diagram, leaf="random", engine=None, observer=None):
        """The tree of a complete random-extension run, seed 3."""
        engine = engine or Engine(compile_network(diagram))
        config = RefinementConfig(leaf_strategy=leaf, extension_strategy="random", seed=3)
        return refine(engine, diagram.decision_order[0], config, observer=observer)[0]

    def test_drawn_path(self):
        """A drawn run calibrates only the root, once, in init_tree (the
        root's drawn candidate is read from its joint stacked alone), never
        calls extend or random_extension, and makes every query before its
        first observer event, as a grown run does."""
        refine_module, calibrated, called, seen = sys.modules["idrefine.refine"], [], [], []
        with pytest.MonkeyPatch.context() as mp:
            def calibrate(engine, context, _original=Engine.calibrate):
                calibrated.append(context.findings)
                return _original(engine, context)
            mp.setattr(Engine, "calibrate", calibrate)
            for name in ("extend", "random_extension"):
                mp.setattr(refine_module, name, lambda *args, _name=name: called.append(_name))
            diagram = gen_random_id(GeneratorSpec(n=6, seed=3))
            engine = Engine(compile_network(diagram))
            tree = self.run(diagram, engine=engine,
                            observer=lambda ev: seen.append(engine.counter.snapshot()))
        assert calibrated == [{}] and called == []
        assert tree.internals == len(seen) == 2 ** 6 - 1
        assert set(seen) == {engine.counter.snapshot()} == {(4 * len(seen) + 4, 3 * len(seen) + 2)}

    def test_posthoc_leaf_choice_not_drawn(self):
        """Posthoc leaf choice reads the gains, so its random-extension runs
        go leaf by leaf."""
        refine_module, drawn = sys.modules["idrefine.refine"], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine_module, "draw", lambda *args: drawn.append(args))
            tree = self.run(gen_random_id(GeneratorSpec(n=4, seed=3)), leaf="posthoc")
        assert drawn == [] and tree.internals == 2 ** 4 - 1


class TestEliminationOrder:
    @given(data=st.data())
    def test_matches_reference_loop(self, data):
        """The scope index picks the order the former per-step scope search
        picked, on random factor scopes, targets, domains and indices."""
        k = data.draw(st.integers(1, 12))
        names = [f"x{i}" for i in range(k)]
        index = dict(zip(names, data.draw(st.permutations(range(k)))))
        doms = {v: data.draw(st.integers(1, 4)) for v in names}
        scope = st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
        scopes = [tuple(s) for s in data.draw(st.lists(scope, min_size=1, max_size=16))]
        targets = tuple(data.draw(st.lists(st.sampled_from(names), max_size=3, unique=True)))
        assert _elimination_order(scopes, targets, index, doms) \
            == loop_elimination_order(scopes, targets, index, doms)

    def test_grid(self):
        """The pairwise factors of a 15 x 15 grid, arities 2 and 3, shuffled
        indices and two targets: sizes change at every step and tie often."""
        k, rng = 15, np.random.default_rng(15)
        names = [f"x{r}_{c}" for r in range(k) for c in range(k)]
        index = dict(zip(names, rng.permutation(len(names)).tolist()))
        doms = {v: 2 + i % 2 for i, v in enumerate(names)}
        scopes = [(f"x{r}_{c}", f"x{r}_{c + 1}") for r in range(k) for c in range(k - 1)] \
            + [(f"x{r}_{c}", f"x{r + 1}_{c}") for r in range(k - 1) for c in range(k)]
        targets = ("x7_7", "x0_14")
        assert _elimination_order(scopes, targets, index, doms) \
            == loop_elimination_order(scopes, targets, index, doms)


class TestManyFactors:
    def test_more_factors_than_einsum_operands(self):
        """70 independent coins, one observed: after the hidden coins are
        summed out, the last product multiplies more factors than np.einsum
        takes at once."""
        coins = [f"c{i}" for i in range(70)]
        nodes = [{"name": c, "kind": "chance", "outcomes": ["h", "t"], "parents": [],
                  "table": [0.25, 0.75]} for c in coins]
        nodes.append({"name": "d", "kind": "decision", "outcomes": ["a", "b"],
                      "parents": ["c0"]})
        nodes.append({"name": "v", "kind": "value", "parents": ["c0", "d"],
                      "table": [1.0, 0.0, 0.0, 2.0]})
        eng = Engine(compile_network(parse_diagram(json.dumps({"nodes": nodes}))))
        assert eng.context_probability({c: "h" for c in coins}) == pytest.approx(
            0.25 ** 70, rel=1e-12)
        action, value = eng.best_action("d", {})
        assert action == "b"
        assert value == pytest.approx(0.75, abs=TOL)
        best, probs, values = calibrate(eng, "d", {}).evaluate_candidate("c0")
        assert [eng.network.outcomes["d"][a] for a in best] == ["a", "b"]
        assert probs == pytest.approx([0.25, 0.75], abs=TOL)
        assert values == pytest.approx([0.5, 1.0], abs=TOL)


def query_network(kind, seed):
    """A compiled network of the given kind for TestPlannedQuery: a star
    with 1 to 8 predecessors, a mixed-arity diagram, or a two-stage diagram,
    with d2 fixed to a random deterministic policy or not."""
    if kind == "star":
        return compile_network(gen_random_id(GeneratorSpec(n=seed % 8 + 1, seed=seed)))
    if kind.startswith("mixed"):
        return compile_network(mixed_arity_diagram(seed, every=kind == "mixed every"))
    net = compile_network(gen_two_stage(seed))
    if kind == "two-stage fixed":
        rng = np.random.default_rng(seed)
        parents = tuple(p for p in ("d1", "m") if rng.integers(2))
        net = net.fix_decision("d2", PolicyCpt(parents, np.eye(2)[rng.integers(
            2, size=(2,) * len(parents))]))
    return net


class TestPlannedQuery:
    @pytest.mark.parametrize("kind", ["star", "mixed every", "mixed", "two-stage",
                                      "two-stage fixed"])
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_matches_einsum_reference(self, kind, seed, data):
        """_query against einsum_query, the one-einsum-per-step executor it
        replaced, on random evidence and targets (possibly none).  Half the
        cases observe every variable of a factor, which restriction turns
        into a numpy scalar.  Results are C-contiguous, within 1 ulp, and
        bit-equal on stars and two-stage diagrams."""
        net = query_network(kind, seed)
        names = [v for v in net.index if v != net.proxy]
        observed = set(data.draw(st.lists(st.sampled_from(names), unique=True)))
        if data.draw(st.booleans()):
            whole = [f.vars for f in net.factors.values() if net.proxy not in f.vars]
            observed.update(data.draw(st.sampled_from(whole)))
        evidence = {v: data.draw(st.integers(0, net.doms[v] - 1)) for v in sorted(observed)}
        free = [v for v in net.index if v not in evidence]
        targets = tuple(data.draw(st.lists(st.sampled_from(free), unique=True, max_size=4)))
        got = _query(net, net.factors.values(), evidence, targets)
        ref = einsum_query(net, net.factors.values(), evidence, targets)
        assert got.shape == np.shape(ref)
        assert got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_max_ulp(got, ref, maxulp=1)
        if not kind.startswith("mixed"):
            assert np.array_equal(got, ref)

    def test_last_factor_transposed_to_targets(self):
        """Eliminating W and D from mini_weather leaves one factor, axes (R,
        V) in index order; asked for (V, R), the result is still a C-contiguous
        array, as einsum_query's is."""
        net = compile_network(mini_weather())
        got = _query(net, net.factors.values(), {}, ("V", "R"))
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, einsum_query(net, net.factors.values(), {}, ("V", "R")))


class TestPlanCache:
    """A plan is shared by every network whose restricted factors have the
    same scopes, shapes and variable indices, and by no other."""

    @staticmethod
    def roots(arity, first):
        """Roots a (``arity`` outcomes) and b, the one named ``first``
        declared first; d observes both and v reads a, b and d."""
        rng = np.random.default_rng(arity)
        nodes = {}
        for name, k in sorted({"a": arity, "b": 2}.items(), key=lambda kv: kv[0] != first):
            draws = rng.uniform(0.1, 1.0, size=(1, k))
            prior = normalize_rows(draws / draws.sum())[0]
            nodes[name] = ChanceNode(Variable(name, tuple(f"o{i}" for i in range(k))), (), prior)
        nodes["d"] = DecisionNode(Variable("d", ("x", "y")), ("a", "b"))
        nodes["v"] = ValueNode("v", ("a", "b", "d"), rng.random(size=(arity, 2, 2)))
        return compile_network(InfluenceDiagram(nodes, ("d",)))

    @staticmethod
    def query(net, order, targets):
        factors = [net.factors[n] for n in order]
        got = _query(net, factors, {}, targets)
        assert np.array_equal(got, einsum_query(net, factors, {}, targets))
        return got

    def test_arity_is_part_of_the_key(self):
        _plan.cache_clear()
        for arity in (2, 3):
            got = self.query(self.roots(arity, "a"), "abdv", ("a", "v"))
            assert got.shape == (arity, 2)
        assert _plan.cache_info().misses == 2

    def test_each_network_index_is_followed(self):
        """The same scopes, in the same factor order, over networks that
        declare a and b in either order: eliminating a or b first ties on
        size, so each network's index decides, and so does the order of
        the axes kept."""
        _plan.cache_clear()
        nets = [self.roots(2, first) for first in "ab"]
        assert [net.index["a"] < net.index["b"] for net in nets] == [True, False]
        for net in nets:
            self.query(net, "abdv", ("v",))
            self.query(net, "abdv", ("d", "v"))
        assert _plan.cache_info().misses == 4

    def test_two_stage_sweeps_share_plans(self):
        _plan.cache_clear()
        for seed in range(50):
            sweep_back(gen_two_stage(seed))
        assert _plan.cache_info().misses <= 2

    def test_bounded(self):
        for k in range(_PLANS + 10):
            _plan(((f"x{k}",),), ((2,),), (), (0,))
        assert _plan.cache_info().currsize == _PLANS


def reference_execute(plan, factors):
    """_execute without splits: each step's operands multiplied left to
    right by one broadcast np.multiply into a C-order result, axis 0 summed
    out by ndarray.sum where the step eliminates it."""
    for step in plan:
        product = None
        for i, axes, shape, _ in step.operands:
            factor = factors[i].transpose(axes).reshape(shape)
            product = factor if product is None else np.multiply(product, factor, order="C")
        if step.reduce:
            product = product.sum(axis=0)
        factors.append(np.asarray(product, order="C"))
    return factors[-1]


def split_kinds(plan):
    """Each split product's kind: whether it runs in place, and which
    operand is broadcast on the axis it is split along."""
    kinds = set()
    for step in plan:
        for k, (_, _, _, split) in enumerate(step.operands):
            if split:
                left, right, _ = split[1][0]
                kinds.add((k >= step.inplace, "product" if left == () else "factor"))
    return kinds


@contextmanager
def low_split_gate():
    """Every product with a short broadcast innermost axis split, however
    small; plans and splits made meanwhile are dropped from their caches
    before and after."""
    diagram = sys.modules["idrefine.diagram"]
    gate = diagram.SPLIT_MIN
    diagram.SPLIT_MIN = 2
    _plan.cache_clear()
    split_product.cache_clear()
    try:
        yield
    finally:
        diagram.SPLIT_MIN = gate
        _plan.cache_clear()
        split_product.cache_clear()


class TestSplitProducts:
    """A product split along its short innermost axis (split_product) is the
    unsplit product bit for bit, in the same C-contiguous layout."""

    @staticmethod
    def check(scopes, doms, targets, seed):
        """_execute of the plan for factors over ``scopes``, made with the
        gate lowered (low_split_gate), against reference_execute, by
        tobytes(); entries spread over many binades, so that a reordered
        product or sum shows in the last bits."""
        rng = np.random.default_rng(seed)
        shapes = tuple(tuple(doms[v] for v in scope) for scope in scopes)
        values = [rng.random(shape) * 10.0 ** rng.uniform(-12, 0, shape) for shape in shapes]
        index = {v: k for k, v in enumerate(sorted(doms))}
        with low_split_gate():
            plan = _plan(scopes, shapes, targets, tuple(index[v] for s in scopes for v in s))
        got = _execute(plan, list(values))
        ref = reference_execute(plan, list(values))
        assert got.shape == ref.shape == tuple(doms[v] for v in targets)
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == ref.tobytes()
        return plan

    @given(data=st.data())
    def test_bit_for_bit_with_unsplit_products(self, data):
        """1-5 factors over up to 5 variables of arity 2 to SPLIT_AXIS + 1,
        which is not split along, each scope in any axis order, and any of
        their variables as targets, or none (a 0-d result)."""
        arity = st.integers(2, SPLIT_AXIS + 1)
        doms = {f"x{k}": data.draw(arity) for k in range(data.draw(st.integers(1, 5)))}
        names = sorted(doms)
        scope = st.lists(st.sampled_from(names), unique=True, max_size=len(names)).map(tuple)
        scopes = tuple(data.draw(st.lists(scope, min_size=1, max_size=5)))
        used = sorted({v for scope in scopes for v in scope})
        targets = tuple(data.draw(st.lists(st.sampled_from(used), unique=True))) if used else ()
        self.check(scopes, doms, targets, data.draw(st.integers(0, 2 ** 32 - 1)))

    @pytest.mark.parametrize("scopes, targets, kinds", [
        ((("a",), ("b",)), ("a", "b"), {(False, "product")}),
        ((("a", "b"), ("a",)), ("a", "b"), {(False, "factor")}),
        ((("a",), ("a", "b"), ("a",)), ("a", "b"), {(False, "product"), (True, "factor")}),
        ((("b", "a"), ("c",), ("c", "a")), ("c",), {(False, "factor")}),
        ((("a",), ("b",)), (), set()),
        ((("a",), ("l",)), ("a", "l"), set()),
        ((("a",), ("l",)), ("l", "a"), {(False, "factor")}),
    ])
    def test_each_kind_of_split(self, scopes, targets, kinds):
        """The product, or the factor, broadcast on the split axis, out of
        place and in place, in the last step or before an elimination (b,
        then a, summed out), and a 0-d result, which nothing splits; an
        innermost axis l longer than SPLIT_AXIS is not split along, an outer
        one does not stop a split."""
        plan = self.check(scopes, {"a": 3, "b": 2, "c": 2, "l": SPLIT_AXIS + 1}, targets, 0)
        assert split_kinds(plan) == kinds

    def test_plans_split_large_broadcast_products_only(self, monkeypatch):
        """An n = 12 binary star's root contraction splits each product of
        at least SPLIT_MIN entries, all broadcast on their innermost axis;
        a two-stage sweep, whose products are small, splits none."""
        engine, plans = sys.modules["idrefine.engine"], []
        gate = sys.modules["idrefine.diagram"].SPLIT_MIN
        monkeypatch.setattr(engine, "_execute",
                            lambda plan, factors, _original=engine._execute:
                            plans.append(plan) or _original(plan, factors))
        eng = Engine(compile_network(gen_random_id(GeneratorSpec(n=12, seed=0))))
        eng.calibrate(eng.context("d", {})).leaf_joint()
        [(operands, inplace, reduce)] = plans[0]
        grown = np.cumprod([2] * 14)[1:]  # the product's entries after each operand but the first
        assert len(operands) == 14 and inplace == 14 and not reduce
        assert [bool(split) for *_, split in operands[1:]] == list(grown >= gate)
        assert split_kinds(plans[0]) == {(False, "product")}
        plans.clear()
        sweep_back(gen_two_stage(0))
        assert plans and not any(split for plan in plans for step in plan
                                 for *_, split in step.operands)


class TestOneExecutor:
    def test_queries_use_no_einsum(self, monkeypatch):
        """Every query runs through the planned executor: with np.einsum
        raising while engine._query runs, a complete refine, a two-stage
        sweep, context_probability and the 70-coin diagram all run, and so
        does a bounded refine of an n = 8 star, whose leaf joints are large
        enough that their sums reach np.einsum, through _keep."""
        engine, querying, kept = sys.modules["idrefine.engine"], [], []

        def query(*args, _original=engine._query):
            querying.append(True)
            try:
                return _original(*args)
            finally:
                querying.pop()

        def einsum(*args, _original=np.einsum, **kwargs):
            if querying:
                raise AssertionError("np.einsum called in a query")
            kept.append(sys._getframe(1).f_code is _keep.__code__)
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, "_query", query)
        monkeypatch.setattr(np, "einsum", einsum)
        _, trace = refine(Engine(compile_network(mini_weather_coin(3))), "D", RefinementConfig())
        assert trace.records[-1].internal_vertices == 2 ** 4 - 1
        sweep_back(gen_two_stage(0))
        assert Engine(compile_network(mini_weather())).context_probability(
            {"W": "rain", "R": "rainy"}) == pytest.approx(0.3 * 0.8)
        TestManyFactors().test_more_factors_than_einsum_operands()
        star = Engine(compile_network(gen_random_id(GeneratorSpec(n=8, seed=0))))
        refine(star, "d", RefinementConfig(stop=StoppingRule(max_passes=40)))
        assert kept and all(kept)


class TestExactness:
    @given(seed=st.integers(0, 10_000))
    def test_queries_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        eng = Engine(compile_network(diagram))
        preds = [v.name for v in diagram.predecessors("d")]
        k = int(rng.integers(0, n))
        chosen = list(rng.choice(preds, size=k, replace=False))
        evidence = {c: diagram.variable(c).outcomes[int(rng.integers(2))] for c in chosen}

        assert eng.context_probability(evidence) == pytest.approx(
            enum_probability(diagram, evidence), abs=TOL)
        query = next(p for p in preds if p not in evidence)
        assert eng.posterior(query, evidence) == pytest.approx(
            enum_posterior(diagram, query, evidence), abs=TOL)
        action, value = eng.best_action("d", evidence)
        ref_action, ref_raw = enum_best_action(diagram, "d", evidence)
        assert action == ref_action
        assert value == pytest.approx(normalized(diagram, ref_raw), abs=TOL)

    @given(seed=st.integers(0, 10_000))
    def test_best_action_where_leaf_joint_refused(self, seed):
        rng = np.random.default_rng(seed)
        diagram = mixed_arity_diagram(seed, every=False)
        eng = Engine(compile_network(diagram))
        known = [v for v in diagram.predecessors("d")[1:] if rng.integers(2)]
        evidence = {v.name: v.outcomes[int(rng.integers(v.arity))] for v in known}
        assert calibrate(Engine(eng.network), "d", evidence).leaf_joint() is None
        action, value = eng.best_action("d", evidence)
        ref_action, ref_raw = enum_best_action(diagram, "d", evidence)
        assert action == ref_action
        assert value == pytest.approx(normalized(diagram, ref_raw), abs=TOL)

    @given(seed=st.integers(0, 10_000))
    def test_two_stage_queries_match_enumeration(self, seed):
        diagram = gen_two_stage(seed)
        eng = Engine(compile_network(diagram))
        evidence = {"d1": "go"} if seed % 2 else {"m": "y"}
        assert eng.context_probability(evidence) == pytest.approx(
            enum_probability(diagram, evidence), abs=TOL)
        assert eng.posterior("c1", evidence) == pytest.approx(
            enum_posterior(diagram, "c1", evidence), abs=TOL)


class TestLawOfTotalExpectation:
    @given(seed=st.integers(0, 10_000))
    def test_value_decomposes_over_posterior(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        diagram = gen_random_id(GeneratorSpec(n=n, seed=seed))
        eng = Engine(compile_network(diagram))
        preds = [v.name for v in diagram.predecessors("d")]
        x = preds[int(rng.integers(n))]
        rest = [p for p in preds if p != x]
        evidence = {}
        if rest and rng.integers(2):
            c = rest[int(rng.integers(len(rest)))]
            evidence[c] = diagram.variable(c).outcomes[int(rng.integers(2))]
        action = diagram.variable("d").outcomes[int(rng.integers(2))]

        direct = eng.action_value("d", action, evidence)
        posterior = eng.posterior(x, evidence)
        mixed = sum(
            posterior[o] * eng.action_value("d", action, {**evidence, x: o})
            for o in diagram.variable(x).outcomes)
        assert mixed == pytest.approx(direct, abs=TOL)


class TestArgmaxEquivalence:
    @given(seed=st.integers(0, 2_000))
    def test_action_posterior_matches_value_argmax(self, seed):
        diagram = gen_random_id(GeneratorSpec(n=3, seed=seed))
        eng = Engine(compile_network(diagram))
        evidence = {"c1": "v0"} if seed % 2 else {}
        chosen, _ = eng.best_action("d", evidence)
        by_value = max(
            diagram.variable("d").outcomes,
            key=lambda a: eng.action_value("d", a, evidence))
        assert chosen == by_value


class TestDenormalization:
    @given(seed=st.integers(0, 5_000), v=st.floats(0, 1))
    def test_roundtrip_identity(self, seed, v):
        net = compile_network(gen_random_id(GeneratorSpec(n=2, seed=seed)))
        raw = init_tree(Engine(net), "d").denormalize(v)
        assert raw == pytest.approx(v * (net.u_max - net.u_min) + net.u_min, abs=TOL)

    def test_mini_weather_raw(self, mini_engine):
        assert init_tree(mini_engine, "D").denormalize(0.812) == pytest.approx(81.2, abs=TOL)
