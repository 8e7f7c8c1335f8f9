"""The scripts in `scripts/` run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_wreath_census_honours_a_cap_above_the_table_default():
    # S_7 = W(1, 7) has 5040 elements, above the 5000-element default cap
    # of `class_structure_report`.
    result = run_script("wreath_census.py", "--cap", "5040", "--t-max", "1", "--m-max", "7")
    assert result.returncode == 0, result.stderr
    assert "W(1,7)" in result.stdout
    assert "all groups consistent" in result.stdout


def test_growth_trend_runs():
    result = run_script("growth_trend.py", "-N", "10")
    assert result.returncode == 0, result.stderr
    assert "root at n=" in result.stdout
