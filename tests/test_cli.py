import json

import pytest

from helpers import no_decision_json
from idrefine.cli import main
from idrefine.diagram import DiagramError, load_diagram, parse_diagram
from idrefine.fixtures import MINI_WEATHER_JSON
from idrefine.refine import CSV_HEADER


@pytest.fixture
def mini_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(MINI_WEATHER_JSON)
    return str(path)


@pytest.fixture
def gen_file(tmp_path):
    path = tmp_path / "gen.json"
    assert main(["gen", "--n", "3", "--seed", "7", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def two_stage_file(tmp_path):
    from idrefine.diagram import serialize_diagram
    from idrefine.generate import gen_two_stage
    path = tmp_path / "two.json"
    path.write_text(serialize_diagram(gen_two_stage(5)))
    return str(path)


class TestValidate:
    def test_ok(self, mini_file, capsys):
        assert main(["validate", mini_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_diagram(self, tmp_path, capsys):
        doc = json.loads(MINI_WEATHER_JSON)
        doc["nodes"][0]["parents"] = ["R"]
        doc["nodes"][0]["table"] = [0.7, 0.3, 0.7, 0.3]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "cycle" in capsys.readouterr().out

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(nodes=[1]), "every node must be an object"),
        (lambda doc: doc["nodes"][1].update(parents=[["W"]]),
         "parent references must be strings"),
        (lambda doc: doc.update(decision_order=[1, "D"]), "'decision_order'"),
        (lambda doc: doc["nodes"][0].update(table=[float("nan"), 1.0]),
         "probabilities must lie in"),
        (lambda doc: doc["nodes"][0].update(table=["0.7", "0.3"]),
         "table entries must be numbers"),
        (lambda doc: doc["nodes"][0].update(table=[True, False]),
         "table entries must be numbers"),
        (lambda doc: doc["nodes"][0].update(table=[[0.7], [0.3]]),
         "table entries must be numbers"),
        (lambda doc: doc["nodes"][3].update(table=[10 ** 400, 0, 0, 0]),
         "table entries must be finite numbers"),
        (lambda doc: doc["nodes"][3].update(table=[1e308, -1e308, 1e308, -1e308]),
         "utility range must be finite"),
    ], ids=["node-not-object", "parent-not-string", "order-entry-not-string",
            "nan-probability", "string-entry", "boolean-entry", "nested-table",
            "integer-beyond-float", "utility-range-overflow"])
    def test_malformed_structure_is_a_diagram_error(self, tmp_path, capsys, edit, message):
        doc = json.loads(MINI_WEATHER_JSON)
        edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DiagramError, match=message):
            parse_diagram(path.read_text())
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["nodes"][2].update(table=[0.5, 0.5]),
         "decision node 'D' must not carry a table"),
        (lambda doc: doc["nodes"][0].pop("table"), "node 'W': missing 'table'"),
        (lambda doc: doc.update(nodes=[]), "'nodes' must be a non-empty list"),
        (lambda doc: doc["nodes"][0].update(outcomes=["sun", "sun"]),
         "node 'W': duplicate outcome labels"),
        (lambda doc: doc["nodes"][0].update(table=[0.75, 0.5]),
         "node 'W': row 0 does not sum to 1, it sums to 1.25"),
    ], ids=["decision-table", "missing-table", "no-nodes", "duplicate-outcomes", "row-sum"])
    def test_rejection_message(self, tmp_path, capsys, edit, message):
        """parse_diagram raises exactly this message, and validate prints it."""
        doc = json.loads(MINI_WEATHER_JSON)
        edit(doc)
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DiagramError) as err:
            parse_diagram(path.read_text())
        assert str(err.value) == message
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == message + "\n"

    @pytest.mark.parametrize("content, message", [
        (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
        (b'\xff\xfe{"nodes": 1}', "not UTF-8 text"),
    ], ids=["deep-nesting", "not-utf8"])
    def test_malformed_file_is_a_diagram_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "malformed.json"
        path.write_bytes(content)
        with pytest.raises(DiagramError, match=message):
            load_diagram(path)
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().out


class TestSolve:
    def test_writes_trace_and_policy(self, mini_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        policy = tmp_path / "policy.json"
        code = main(["solve", mini_file, "--decision", "D", "--leaf", "posthoc",
                     "--ext", "greedy", "--seed", "1", "--complete",
                     "--trace", str(trace), "--policy", str(policy)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        doc = json.loads(policy.read_text())
        assert doc["decision"] == "D"
        assert set(doc["tree"]) == {"var", "children"}
        assert "0.812" in capsys.readouterr().out

    def test_complete_is_the_default(self, gen_file, tmp_path):
        """--complete changes nothing: with a bound the bound stops the run,
        and with none the run is complete anyway."""
        traces = {}
        for name, flags in (("bound", ["--max-ext", "2"]),
                            ("complete_bound", ["--complete", "--max-ext", "2"]),
                            ("none", []), ("complete", ["--complete"])):
            traces[name] = tmp_path / f"{name}.csv"
            assert main(["solve", gen_file, *flags, "--trace", str(traces[name])]) == 0
        assert traces["bound"].read_bytes() == traces["complete_bound"].read_bytes()
        assert len(traces["bound"].read_text().splitlines()) == 1 + 3
        assert traces["none"].read_bytes() == traces["complete"].read_bytes()

    def test_missing_decision_is_runtime_error(self, two_stage_file, capsys):
        assert main(["solve", two_stage_file]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_decision(self, mini_file):
        assert main(["solve", mini_file, "--decision", "Q"]) == 2

    def test_min_evi_requires_greedy(self, mini_file, capsys):
        assert main(["solve", mini_file, "--ext", "random", "--min-evi", "0.1"]) == 2
        assert ("min_evi stopping applies to the greedy extension strategy only"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags, message", [
        (["--max-ext", "-1"], "max_extensions must not be negative, got -1"),
        (["--max-passes", "-3"], "max_passes must not be negative, got -3"),
        (["--min-evi", "nan"], "min_evi must be a number, got nan")])
    def test_invalid_stopping_bound_exits_2(self, mini_file, capsys, flags, message):
        assert main(["solve", mini_file, *flags]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_exits_2(self, mini_file, capsys):
        assert main(["solve", mini_file, "--seed", "-1"]) == 2
        assert "error: seed must not be negative, got -1" in capsys.readouterr().err

    def test_invalid_diagram_exits_1(self, tmp_path):
        doc = json.loads(MINI_WEATHER_JSON)
        doc["nodes"][0]["parents"] = ["R"]
        doc["nodes"][0]["table"] = [0.7, 0.3, 0.7, 0.3]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1


class TestDeterminism:
    def test_solve_byte_identical(self, gen_file, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"t{tag}.csv"
            policy = tmp_path / f"p{tag}.json"
            assert main(["solve", gen_file, "--leaf", "random", "--ext", "random",
                         "--seed", "33", "--complete",
                         "--trace", str(trace), "--policy", str(policy)]) == 0
            outputs.append((trace.read_bytes(), policy.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_sweep_byte_identical(self, two_stage_file, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"t{tag}.csv"
            policy = tmp_path / f"p{tag}.json"
            assert main(["sweep", two_stage_file, "--seed", "4", "--complete",
                         "--trace", str(trace), "--policy", str(policy)]) == 0
            outputs.append(((tmp_path / f"t{tag}.d1.csv").read_bytes(),
                            (tmp_path / f"t{tag}.d2.csv").read_bytes(),
                            policy.read_bytes()))
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_budgets_and_outputs(self, two_stage_file, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        code = main(["sweep", two_stage_file, "--complete", "--seed", "0",
                     "--budget", "d2=0", "--policy", str(policy)])
        assert code == 0
        doc = json.loads(policy.read_text())
        d2 = next(p for p in doc["policies"] if p["decision"] == "d2")
        assert set(d2["tree"]) == {"action", "value", "prob", "pruned"}

    def test_unknown_budget_decision(self, two_stage_file):
        assert main(["sweep", two_stage_file, "--budget", "zz=1"]) == 2

    def test_negative_budget_exits_2(self, two_stage_file, capsys):
        assert main(["sweep", two_stage_file, "--budget", "d1=-1"]) == 2
        assert "max_extensions must not be negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("foo", "--budget expects NAME=EXTENSIONS, got 'foo'"),
        ("d2=x", "--budget expects an integer extension count, got 'd2=x'")])
    def test_malformed_budget_is_a_usage_error(self, two_stage_file, capsys, entry, message):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", two_stage_file, "--budget", entry])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: idrefine sweep ") and err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("command", ["sweep", "oracle", "solve", "profile"])
def test_no_decision_node_exits_2(tmp_path, capsys, command):
    path = tmp_path / "none.json"
    path.write_text(no_decision_json())
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: diagram has no decision node\n"


class TestOracle:
    def test_single_decision(self, mini_file, capsys):
        assert main(["oracle", mini_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value_normalized"] == pytest.approx(0.812, abs=1e-9)
        actions = {tuple(r["state"].values()): r["action"] for r in doc["table"]}
        assert actions == {("sunny",): "leave", ("rainy",): "take"}

    def test_not_a_decision_exits_2(self, mini_file, capsys):
        assert main(["oracle", mini_file, "--decision", "W"]) == 2
        assert capsys.readouterr().err == "error: 'W' is not a decision node\n"

    def test_multistage(self, two_stage_file, capsys):
        assert main(["oracle", two_stage_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["tables"]) == {"d1", "d2"}


class TestGenProfile:
    def test_gen_then_everything(self, gen_file, tmp_path, capsys):
        assert main(["validate", gen_file]) == 0
        summary = tmp_path / "summary.json"
        code = main(["profile", gen_file, "--seed", "2", "--complete",
                     "--summary", str(summary)])
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["baseline_states"] == 8
        assert doc["oracle_gap"] == pytest.approx(0.0, abs=1e-9)
        assert doc["query_bound_held"] is True
        assert doc["total_fine_queries"] < doc["query_bound"]

    def test_no_predecessors_is_standard_json(self, tmp_path, capsys):
        doc = json.loads(MINI_WEATHER_JSON)
        doc["nodes"][2]["parents"] = []
        path, summary = tmp_path / "blind.json", tmp_path / "summary.json"
        path.write_text(json.dumps(doc))
        assert main(["profile", str(path), "--summary", str(summary)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for text in (capsys.readouterr().out, summary.read_text()):
            out = json.loads(text, parse_constant=reject)
            assert out["query_bound"] is None and out["query_bound_held"] is None
            assert out["extensions"] == 0

    def test_gen_negative_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert main(["gen", "--n", "3", "--seed", "-1", "-o", str(path)]) == 2
        assert "error: seed must not be negative, got -1" in capsys.readouterr().err
        assert not path.exists()

    def test_gen_ternary(self, tmp_path):
        path = tmp_path / "t.json"
        assert main(["gen", "--n", "2", "--seed", "1", "--arity", "3",
                     "-o", str(path)]) == 0
        assert main(["validate", str(path)]) == 0
