import importlib.util
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from idrefine.engine import Engine, compile_network
from idrefine.fixtures import mini_weather

REPO = Path(__file__).resolve().parent.parent
PINS_LIMIT2 = REPO / "tests" / "data" / "check_pins_limit2.txt"  # check_pins.py --limit 2


def test_anytime_profiles_script(tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_anytime_profiles.py"),
         "--n", "3", "--seeds", "2", "--outdir", str(tmp_path)],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert "median passes to completion" in result.stdout
    assert (tmp_path / "greedy_n3_s0.csv").exists()
    assert (tmp_path / "random_n3_s1.csv").exists()


def test_car_buyer_script_reports_missing_data(tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_car_buyer.py")],
        capture_output=True, text=True, check=False,
        env={k: v for k, v in os.environ.items() if k != "CAR_BUYER_DATA"})
    assert result.returncode == 1
    assert "no car-buyer data file" in result.stderr


def test_check_pins_expect(tmp_path):
    """A run checks every workload's instances up to --limit, with no
    failure; --expect passes against that run's own output, names each
    digest that differs from a doctored copy of it, and reads only the
    summary lines of an output that reported a move.  Last, the first run's
    output equals the committed one in tests/data, so Tier-1 fails when a
    digest moves; the digests rest on numpy's summation kernels, so that
    file names the numpy version it was made with, and another version
    fails here, naming both."""
    script = [sys.executable, str(REPO / "scripts" / "check_pins.py"), "--limit", "2"]
    first = subprocess.run(script, capture_output=True, text=True, check=False)
    assert first.returncode == 0, first.stderr
    for workload in ("greedy_complete", "random_complete", "greedy_budget", "sweep_two_stage"):
        assert f"{workload}: 2 checked, 0 failed" in first.stdout
    expected = tmp_path / "pins.txt"
    expected.write_text(first.stdout)
    again = subprocess.run(script + ["--expect", str(expected)],
                           capture_output=True, text=True, check=False)
    assert (again.returncode, again.stdout) == (0, first.stdout), again.stderr
    rows = first.stdout.splitlines()[1].rpartition("trace rows sha256 ")[2]
    expected.write_text(first.stdout.replace(rows, "0" * len(rows)))
    doctored = subprocess.run(script + ["--expect", str(expected)],
                              capture_output=True, text=True, check=False)
    assert doctored.returncode == 1
    moved = [line for line in doctored.stdout.splitlines() if " moved from " in line]
    assert moved == [f"random_complete: trace rows sha256 moved from {'0' * len(rows)} to {rows}"]
    expected.write_text(doctored.stdout)  # its summary lines hold the digests of this run
    again = subprocess.run(script + ["--expect", str(expected)],
                           capture_output=True, text=True, check=False)
    assert (again.returncode, again.stdout) == (0, first.stdout), again.stderr
    version, _, pinned = PINS_LIMIT2.read_text().partition("\n")
    assert version == f"numpy {np.__version__}", (
        f"{PINS_LIMIT2.name} was made with {version}, this run with numpy {np.__version__}")
    assert first.stdout == pinned


def test_benchmark_tracing_targets_exist(monkeypatch):
    """perfbench/tracing.py finds every function it wraps (it raises
    LookupError for one the library no longer defines where it is looked
    up), records spans through the wrappers and restores the originals on
    exit.  The benchmark directory is imported read-only."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [vars(owner)[attr] for owner, attr, _ in tracing._targets()]
    refine = sys.modules["idrefine.refine"]
    # bounded, so that the run extends leaf by leaf through the wrapped functions
    config = refine.RefinementConfig(stop=refine.StoppingRule(max_extensions=2))
    with tracing.traced(tracing.Tracer()) as tracer:
        refine.refine(Engine(compile_network(mini_weather())), "D", config)
    assert {"refine.refine", "tree.best_extension", "tree.extend",
            "engine.calibrate"} <= set(tracer.totals())
    assert [vars(owner)[attr] for owner, attr, _ in tracing._targets()] == originals


def planted(text, line, replacement):
    """text with its one occurrence of line replaced; a line that moved fails by name."""
    assert text.count(line) == 1, f"the mutation's anchor is not one line of tree.py: {line!r}"
    return text.replace(line, replacement)


def test_ab_solve_script(tmp_path):
    """Both sides this checkout, two instances of every workload: the trace
    CSVs, policies, gains and oracle values agree, and a solve-time ratio,
    an oracle-time ratio and a peak-memory ratio are printed for each
    workload.
    Against a checkout whose policy JSON differs but whose traces do not,
    and whose oracle values are one ulp larger, it names the policies and
    the oracle values and exits 1, on a single-decision workload and on a
    multistage one; against one whose every split's gain is one ulp
    larger, so that its traces and policies do not differ, it names the
    gains and exits 1, on grown, drawn and multistage runs."""
    script = str(REPO / "scripts" / "ab_solve.py")
    result = subprocess.run([sys.executable, script, str(REPO), str(REPO),
                             "--instances", "2", "--rounds", "1"],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    ratio = r"median \d+\.\d{4} \[q1 \d+\.\d{4}, q3 \d+\.\d{4}\]"
    for workload in ("greedy_complete", "random_complete", "greedy_budget", "sweep_two_stage"):
        line = next(l for l in result.stdout.splitlines() if l.startswith(f"{workload}: "))
        assert line.startswith(f"{workload}: 2 instances x 1 rounds, traces, policies, gains "
                               "and oracle values byte-equal; CHANGE/BASE median")
        assert re.search(rf"; oracle CHANGE/BASE {ratio}; median oracle \S+ s -> \S+ s; "
                         rf"peak memory CHANGE/BASE {ratio}; median peak \S+ MiB -> \S+ MiB$",
                         line), line
    shutil.copytree(REPO / "src" / "idrefine", tmp_path / "src" / "idrefine")
    tree_py = tmp_path / "src" / "idrefine" / "tree.py"
    tree_py.write_text(planted(tree_py.read_text(),
                               "return json.dumps(policy_json(tree), indent=2)",
                               "return json.dumps(policy_json(tree), indent=1)"))
    oracle_py = tmp_path / "src" / "idrefine" / "oracle.py"
    oracle_py.write_text(oracle_py.read_text() + textwrap.dedent("""
        def _nudged(oracle):
            def nudged(*args, **kwargs):
                result = oracle(*args, **kwargs)
                result.value = math.nextafter(result.value, math.inf)
                return result
            return nudged


        oracle_optimal = _nudged(oracle_optimal)
        oracle_optimal_multistage = _nudged(oracle_optimal_multistage)
        """))
    for workload in ("greedy_complete", "sweep_two_stage"):
        result = subprocess.run([sys.executable, script, str(REPO), str(tmp_path), workload,
                                 "--instances", "1", "--rounds", "1"],
                                capture_output=True, text=True, check=False)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"{workload} 0: policies differ",
                                              f"{workload} 0: oracle values differ"]
    shutil.rmtree(tmp_path / "src")
    shutil.copytree(REPO / "src" / "idrefine", tmp_path / "src" / "idrefine")
    gain_line = "    gain: float  # tree-value increase recorded when this vertex was created\n"
    nudged = (gain_line + "\n    def __post_init__(self):\n"
              "        self.gain = math.nextafter(self.gain, math.inf)\n")
    tree_py.write_text(planted(planted(tree_py.read_text(), gain_line, nudged),
                               "import json\n", "import json\nimport math\n"))
    for workload in ("greedy_complete", "random_complete", "sweep_two_stage"):
        result = subprocess.run([sys.executable, script, str(REPO), str(tmp_path), workload,
                                 "--instances", "1", "--rounds", "1"],
                                capture_output=True, text=True, check=False)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"{workload} 0: gains differ"]
