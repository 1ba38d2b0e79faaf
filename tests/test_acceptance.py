"""Acceptance suite: one test per criterion, at its stated tolerance.

The terminal summary (see conftest) prints one pass/fail line per
criterion.  Criterion 12 needs the external car-buyer data file and is
skipped (and reported as skipped) when it is absent.
"""

import statistics

import numpy as np
import pytest

from helpers import (enum_best_action, enum_posterior, enum_probability,
                     normalized)
from idrefine.cli import main as cli_main
from idrefine.engine import Engine, compile_network
from idrefine.fixtures import (car_buyer_data_path, deterministic_exclusion,
                               load_car_buyer, mini_weather, mini_weather_coin,
                               weather3)
from idrefine.generate import GeneratorSpec, gen_random_id, gen_two_stage
from idrefine.harness import baseline_states
from idrefine.multistage import sweep_back
from idrefine.oracle import oracle_optimal, oracle_optimal_multistage
from idrefine.refine import RefinementConfig, StoppingRule, refine
from idrefine.tree import (extensions, init_tree, iter_leaves, tree_counts,
                           tree_value)

TOL = 1e-9


def greedy_run(diagram, decision="d", seed=0, observer=None):
    engine = Engine(compile_network(diagram))
    tree, trace = refine(engine, decision, RefinementConfig(seed=seed),
                         observer=observer)
    return engine, tree, trace


def random_run(diagram, decision="d", seed=0, observer=None):
    engine = Engine(compile_network(diagram))
    cfg = RefinementConfig(leaf_strategy="random", extension_strategy="random",
                           seed=seed)
    tree, trace = refine(engine, decision, cfg, observer=observer)
    return engine, tree, trace


@pytest.fixture(scope="module")
def greedy_runs():
    """50 complete greedy runs on generated diagrams, n cycling 2..6."""
    runs = []
    for i in range(50):
        n = 2 + i % 5
        diagram = gen_random_id(GeneratorSpec(n=n, seed=100 + i))
        engine, tree, trace = greedy_run(diagram, seed=i)
        runs.append({"n": n, "fine": engine.counter.fine, "trace": trace,
                     "value": tree_value(tree),
                     "oracle": oracle_optimal(diagram, "d").value})
    return runs


@pytest.fixture(scope="module")
def random_runs():
    """20 complete fully random runs on generated diagrams."""
    runs = []
    for i in range(20):
        n = 2 + i % 3
        diagram = gen_random_id(GeneratorSpec(n=n, seed=300 + i))
        engine, tree, trace = random_run(diagram, seed=i)
        runs.append({"n": n, "trace": trace, "value": tree_value(tree),
                     "oracle": oracle_optimal(diagram, "d").value})
    return runs


def test_c01_oracle_equivalence(greedy_runs):
    for run in greedy_runs:
        assert run["value"] == pytest.approx(run["oracle"], abs=TOL)
    for seed in range(3):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=seed))
        oracle = oracle_optimal(diagram, "d").value
        for run in (greedy_run, random_run):
            _, tree, _ = run(diagram, seed=seed)
            assert tree_value(tree) == pytest.approx(oracle, abs=TOL)


def test_c02_monotone_anytime_profiles(greedy_runs, random_runs):
    for run in greedy_runs + random_runs:
        records = run["trace"].records
        for prev, cur in zip(records, records[1:]):
            assert cur.value_normalized >= prev.value_normalized - TOL


def test_c03_query_bound(greedy_runs):
    for run in greedy_runs:
        assert run["fine"] < 8 * 2 ** (run["n"] + 1)
    for n in (2, 3):
        for seed in (1, 2, 3):
            diagram = gen_random_id(GeneratorSpec(n=n, seed=seed, arity=3))
            engine, tree, _ = greedy_run(diagram, seed=seed)
            assert tree_value(tree) == pytest.approx(
                oracle_optimal(diagram, "d").value, abs=TOL)
            assert engine.counter.fine < 27 / 2 * 3 ** (n + 1)


def test_c04_per_leaf_pass_formula():
    n = 5
    diagram = gen_random_id(GeneratorSpec(n=n, seed=17))  # pruning-free
    events = []
    greedy_run(diagram, seed=0, observer=events.append)
    assert len(events) == 2 ** n - 1
    for ev in events:
        assert ev.passes_delta == 2 * (n - ev.context_size) + 1


def test_c05_first_tree_after_two_passes():
    fixtures = [
        (mini_weather(), "D"),
        (weather3(), "Take"),
        (mini_weather_coin(2), "D"),
        (deterministic_exclusion(), "D"),
        (gen_random_id(GeneratorSpec(n=6, seed=4)), "d"),
        (gen_two_stage(2), "d2"),
    ]
    for diagram, decision in fixtures:
        engine = Engine(compile_network(diagram))
        init_tree(engine, decision)
        assert engine.counter.passes == 2


def test_c06_random_less_work_than_greedy():
    greedy_totals, random_totals = [], []
    for seed in range(20):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=500 + seed))
        engine, _, _ = greedy_run(diagram, seed=seed)
        greedy_totals.append(engine.counter.passes)
        engine, _, _ = random_run(diagram, seed=seed)
        random_totals.append(engine.counter.passes)
    mg = statistics.median(greedy_totals)
    mr = statistics.median(random_totals)
    assert mr < mg
    # the halving observed on the original (unpublished) instances is
    # reported, not asserted
    print(f"\nrandom/greedy median passes: {mr}/{mg} = {mr / mg:.3f} "
          f"(reported reference factor: 0.5)")


def test_c07_random_work_linear_in_tree_size(random_runs):
    for seed in range(5):
        diagram = gen_random_id(GeneratorSpec(n=5, seed=700 + seed))
        _, _, trace = random_run(diagram, seed=seed)
        records = trace.records
        deltas = {records[i].passes - records[i - 1].passes
                  for i in range(1, len(records))}
        assert len(deltas) == 1


def test_c08_multistage_optimality():
    for seed in range(20):
        diagram = gen_two_stage(900 + seed)
        policy, _ = sweep_back(diagram, RefinementConfig(seed=seed))
        oracle = oracle_optimal_multistage(diagram)
        assert policy.value_normalized == pytest.approx(oracle.value, abs=TOL)


def test_c09_zero_probability_pruning():
    diagram = deterministic_exclusion()
    engine, tree, _ = greedy_run(diagram, decision="D", seed=0)
    pruned = [l for l in iter_leaves(tree) if l.pruned]
    assert pruned, "the impossible context must surface as a pruned leaf"
    for leaf in pruned:
        assert leaf.reach < 1e-12
        # never extended: still a leaf although observables remain
        assert extensions(tree, leaf)
        ab = {var: out for var, out in leaf.context if var in ("A", "B")}
        assert ab in ({"A": "a0", "B": "b1"}, {"A": "a1", "B": "b0"})
    assert tree_value(tree) == pytest.approx(
        oracle_optimal(diagram, "D").value, abs=TOL)


def test_c10_engine_exactness():
    rng = np.random.default_rng(2024)
    sizes = [2, 3, 4, 5, 6, 8, 10]  # template vars = n + 1 binaries, max 11
    for i in range(100):
        n = sizes[i % len(sizes)]
        diagram = gen_random_id(GeneratorSpec(n=n, seed=1000 + i))
        engine = Engine(compile_network(diagram))
        preds = [v.name for v in diagram.predecessors("d")]
        k = int(rng.integers(0, min(n, 3)))
        chosen = list(rng.choice(preds, size=k, replace=False))
        evidence = {c: diagram.variable(c).outcomes[int(rng.integers(2))]
                    for c in chosen}
        kind = i % 3
        if kind == 0:
            assert engine.context_probability(evidence) == pytest.approx(
                enum_probability(diagram, evidence), abs=TOL)
        elif kind == 1:
            query = next(p for p in preds if p not in evidence)
            assert engine.posterior(query, evidence) == pytest.approx(
                enum_posterior(diagram, query, evidence), abs=TOL)
        else:
            action, value = engine.best_action("d", evidence)
            ref_action, ref_raw = enum_best_action(diagram, "d", evidence)
            assert action == ref_action
            assert value == pytest.approx(normalized(diagram, ref_raw), abs=TOL)

    # law of total expectation, checked with engine queries only
    for i in range(100):
        n = 2 + i % 4
        diagram = gen_random_id(GeneratorSpec(n=n, seed=2000 + i))
        engine = Engine(compile_network(diagram))
        preds = [v.name for v in diagram.predecessors("d")]
        x = preds[int(rng.integers(n))]
        evidence = {}
        rest = [p for p in preds if p != x]
        if rest and rng.integers(2):
            c = rest[int(rng.integers(len(rest)))]
            evidence[c] = diagram.variable(c).outcomes[int(rng.integers(2))]
        action = diagram.variable("d").outcomes[int(rng.integers(2))]
        direct = engine.action_value("d", action, evidence)
        posterior = engine.posterior(x, evidence)
        mixed = sum(posterior[o] * engine.action_value("d", action, {**evidence, x: o})
                    for o in diagram.variable(x).outcomes)
        assert mixed == pytest.approx(direct, abs=TOL)


def test_c11_determinism(tmp_path):
    from idrefine.diagram import serialize_diagram
    diagram_file = tmp_path / "d.json"
    diagram_file.write_text(serialize_diagram(gen_random_id(GeneratorSpec(n=4, seed=42))))
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.csv"
        policy = tmp_path / f"policy_{tag}.json"
        code = cli_main(["solve", str(diagram_file), "--leaf", "posthoc",
                         "--ext", "greedy", "--seed", "7", "--complete",
                         "--trace", str(trace), "--policy", str(policy)])
        assert code == 0
        outputs.append((trace.read_bytes(), policy.read_bytes()))
    assert outputs[0] == outputs[1]

    sweep_file = tmp_path / "two.json"
    sweep_file.write_text(serialize_diagram(gen_two_stage(11)))
    sweeps = []
    for tag in ("a", "b"):
        policy = tmp_path / f"sweep_{tag}.json"
        code = cli_main(["sweep", str(sweep_file), "--seed", "3", "--complete",
                         "--policy", str(policy)])
        assert code == 0
        sweeps.append(policy.read_bytes())
    assert sweeps[0] == sweeps[1]


def test_c12_car_buyer_reference_numbers():
    path = car_buyer_data_path()
    if path is None:
        pytest.skip("external car-buyer numeric data not provided "
                    "(set CAR_BUYER_DATA to enable)")
    diagram = load_car_buyer(path)

    # exact structural assertions
    assert baseline_states(diagram, "buy") == 96
    engine, tree, trace = greedy_run(diagram, decision="buy", seed=0)
    internals, leaves = tree_counts(tree)
    assert internals == 7
    assert trace.records[0].passes == 2
    optimal = oracle_optimal(diagram, "buy")
    first_value = trace.records[0].value_normalized
    assert optimal.value - first_value < 0.10 * optimal.value

    # query-count figures carry a wide tolerance: the published accounting
    # conventions are not mutually consistent
    policy, traces = sweep_back(diagram, RefinementConfig(seed=0))
    total_passes = sum(t.records[-1].passes for t in traces.values())
    assert total_passes == pytest.approx(33, rel=0.2)

    first_cfg = {d: RefinementConfig(stop=StoppingRule(max_extensions=0))
                 for d in diagram.decision_order}
    first_policy, first_traces = sweep_back(diagram, first_cfg)
    first_passes = sum(t.records[-1].passes for t in first_traces.values())
    assert first_passes == pytest.approx(6, rel=0.2)
    gap = (policy.value_normalized - first_policy.value_normalized)
    print(f"\nfirst-policy value gap: {gap / policy.value_normalized:.1%} "
          f"(reported reference: about 3%)")
