import json

import pytest

from idrefine.diagram import DiagramError, parse_diagram
from idrefine.fixtures import mini_weather, mini_weather_coin
from idrefine.generate import GeneratorSpec, gen_random_id, gen_two_stage
from idrefine.harness import (baseline_states, greedy_query_bound,
                              run_profile, run_sweep_profile, trace_path_for)
from idrefine.multistage import used_predecessors
from idrefine.oracle import oracle_optimal
from idrefine.refine import CSV_HEADER, RefinementConfig, StoppingRule


def recount(vertex: dict) -> tuple[int, int]:
    """(internal vertices, non-pruned leaves) of a policy-JSON tree."""
    if "var" not in vertex:
        return 0, int(not vertex["pruned"])
    counts = [recount(c) for c in vertex["children"].values()]
    return 1 + sum(i for i, _ in counts), sum(l for _, l in counts)


class TestBounds:
    def test_baseline_counts_states(self):
        assert baseline_states(mini_weather(), "D") == 2
        assert baseline_states(gen_random_id(GeneratorSpec(n=8, seed=0)), "d") == 256

    def test_query_bound_binary(self):
        assert greedy_query_bound(8, 2) == 4 * 2 ** 9

    def test_query_bound_needs_b2(self):
        with pytest.raises(ValueError):
            greedy_query_bound(3, 1)


class TestRunProfile:
    def test_unnamed_decision_error_shared_with_the_oracle(self):
        """With no decision named, run_profile and oracle_optimal take a
        diagram's only decision, and on a two-decision diagram both raise
        the one DiagramError."""
        diagram = gen_two_stage(0)
        errors = []
        for solve in (lambda: run_profile(diagram, None, RefinementConfig(), with_oracle=False),
                      lambda: oracle_optimal(diagram)):
            with pytest.raises(DiagramError, match="decision must be named") as err:
                solve()
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        summary, _ = run_profile(mini_weather(), None, RefinementConfig(), with_oracle=False)
        assert summary.decision == oracle_optimal(mini_weather()).decision == "D"

    def test_mini_weather_artifacts(self, tmp_path):
        trace = tmp_path / "t.csv"
        policy = tmp_path / "p.json"
        summary_file = tmp_path / "s.json"
        summary, _ = run_profile(mini_weather(), "D", RefinementConfig(),
                                 trace_path=trace, policy_path=policy,
                                 summary_path=summary_file)
        assert summary.final_value_normalized == pytest.approx(0.812, abs=1e-9)
        assert summary.oracle_gap == pytest.approx(0.0, abs=1e-9)
        assert summary.baseline_states == 2
        assert summary.query_bound_held
        assert trace.read_text().startswith(CSV_HEADER)
        assert json.loads(policy.read_text())["decision"] == "D"
        assert json.loads(summary_file.read_text())["decision"] == "D"

    def test_n8_matches_reference_counts(self):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=1))
        summary, trace = run_profile(diagram, "d", RefinementConfig())
        assert summary.baseline_states == 256
        assert summary.oracle_gap == pytest.approx(0.0, abs=1e-9)
        assert summary.total_fine_queries < summary.query_bound

    def test_random_strategy_rows_track_tree_size(self):
        diagram = gen_random_id(GeneratorSpec(n=8, seed=2))
        cfg = RefinementConfig(leaf_strategy="random",
                               extension_strategy="random", seed=0)
        summary, trace = run_profile(diagram, "d", cfg, with_oracle=False)
        assert len(trace.records) == summary.internal_vertices + 1


class TestSummaryFromTrace:
    """Summaries read the trace's last record; the policy JSON recounts the tree."""

    @pytest.mark.parametrize("diagram, stop, extensions", [
        (gen_random_id(GeneratorSpec(n=5, seed=3)), StoppingRule(run_to_complete=True), 31),
        (gen_random_id(GeneratorSpec(n=5, seed=3)), StoppingRule(max_extensions=3), 3),
        # the second split would be on a worthless coin, so it is evaluated and declined
        (mini_weather_coin(2), StoppingRule(min_evi=1e-6), 1),
    ], ids=["complete", "max-extensions", "min-evi"])
    def test_profile_matches_policy_json(self, tmp_path, diagram, stop, extensions):
        policy = tmp_path / "p.json"
        summary, trace = run_profile(diagram, None, RefinementConfig(stop=stop),
                                     policy_path=policy, with_oracle=False)
        doc = json.loads(policy.read_text())
        assert summary.extensions == extensions
        assert (summary.internal_vertices, summary.leaves) == recount(doc["tree"])
        assert summary.internal_vertices == extensions
        assert summary.final_value_normalized == doc["value_normalized"]
        assert summary.final_value_raw == doc["value_raw"]
        if stop.min_evi is not None:
            assert summary.total_fine_queries > trace.records[-1].fine_queries

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_matches_policy_json(self, tmp_path, seed):
        path = tmp_path / "policy.json"
        summary, policy, _ = run_sweep_profile(gen_two_stage(seed), RefinementConfig(),
                                               policy_path=path, with_oracle=False)
        doc = json.loads(path.read_text())
        assert summary.value_normalized == doc["value_normalized"]
        for entry, compiled in zip(doc["policies"], policy.policies):
            counts = summary.per_decision[entry["decision"]]
            assert (counts["internal_vertices"], counts["leaves"]) == recount(entry["tree"])
            assert counts["used_predecessors"] == entry["used_predecessors"]
            assert tuple(counts["used_predecessors"]) == used_predecessors(compiled.tree)


class TestOracleCap:
    def test_past_the_cap_runs_without_the_oracle(self):
        """x0 observed by d, a utility over (x0, d) and 20 unconnected coins:
        2**22 joint states, past the oracle's 2**20 cap.  The solve still
        finds the optimum, and every oracle field is None."""
        coin = {"kind": "chance", "outcomes": ["h", "t"], "parents": [], "table": [0.5, 0.5]}
        nodes = [dict(coin, name=f"x{i}") for i in range(21)] + [
            {"name": "d", "kind": "decision", "outcomes": ["h", "t"], "parents": ["x0"]},
            {"name": "v", "kind": "value", "parents": ["x0", "d"], "table": [1, 0, 0, 1]}]
        diagram = parse_diagram(json.dumps({"nodes": nodes, "decision_order": ["d"]}))
        summary, _ = run_profile(diagram, "d", RefinementConfig())
        assert summary.final_value_normalized == 1.0
        assert (summary.oracle_value_normalized, summary.oracle_value_raw,
                summary.oracle_gap) == (None, None, None)
        sweep, _, _ = run_sweep_profile(diagram, RefinementConfig())
        assert sweep.value_normalized == 1.0
        assert (sweep.oracle_value_normalized, sweep.oracle_gap) == (None, None)


class TestSweepProfile:
    def test_two_stage(self, tmp_path):
        diagram = gen_two_stage(1)
        summary, policy, traces = run_sweep_profile(
            diagram, RefinementConfig(),
            trace_template=str(tmp_path / "run.csv"),
            policy_path=tmp_path / "policy.json",
            summary_path=tmp_path / "summary.json")
        assert summary.oracle_gap == pytest.approx(0.0, abs=1e-9)
        assert set(summary.per_decision) == {"d1", "d2"}
        assert summary.baseline_states_total == 2 + 4
        assert (tmp_path / "run.d1.csv").exists()
        assert (tmp_path / "run.d2.csv").exists()

    def test_trace_template_substitution(self):
        assert trace_path_for("out.csv", "buy") == "out.buy.csv"
        assert trace_path_for("runs/{decision}.csv", "buy") == "runs/buy.csv"

    def test_trace_template_dot_in_directory(self):
        assert trace_path_for("runs.d/trace", "d1") == "runs.d/trace.d1"
        assert trace_path_for("runs.d/out.csv", "d1") == "runs.d/out.d1.csv"
