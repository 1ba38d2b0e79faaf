import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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


def test_check_pins_script():
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_pins.py"), "--limit", "1"],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    for workload in ("greedy_complete", "random_complete", "greedy_budget", "sweep_two_stage"):
        assert f"{workload}: 1 checked, 0 failed" in result.stdout
