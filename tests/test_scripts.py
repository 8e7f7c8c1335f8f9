"""The scripts in `scripts/` run end to end, in a fresh interpreter or under `runpy`."""

import runpy
import sys

import pytest

from helpers import ROOT, run_script
from tricomm import wreath


CENSUS_T3_M3 = """\
     group  order  classes  series  labels     pairs  verdict
-------------------------------------------------------------
    W(1,0)      1        1       1       1         1  ok
    W(1,1)      1        1       1       1         1  ok
    W(1,2)      2        2       2       2         4  ok
    W(1,3)      6        3       3       3        18  ok
    W(2,0)      1        1       1       1         1  ok
    W(2,1)      2        2       2       2         4  ok
    W(2,2)      8        5       5       5        40  ok
    W(2,3)     48       10      10      10       480  ok
    W(3,0)      1        1       1       1         1  ok
    W(3,1)      3        3       3       3         9  ok
    W(3,2)     18        9       9       9       162  ok
    W(3,3)    162       22      22      22      3564  ok

all groups consistent
"""


def test_wreath_census_cap_is_only_the_order_bound():
    # S_7 = W(1, 7) has 5040 elements; only --cap and the structure ceiling
    # bound the family.
    result = run_script("wreath_census.py", "--cap", "5040", "--t-max", "1", "--m-max", "7")
    assert result.returncode == 0, result.stderr
    assert "W(1,7)" in result.stdout
    assert "all groups consistent" in result.stdout
    below = run_script("wreath_census.py", "--cap", "5039", "--t-max", "1", "--m-max", "7")
    assert below.returncode == 0, below.stderr
    assert "W(1,6)" in below.stdout and "W(1,7)" not in below.stdout


def test_wreath_census_output_is_pinned():
    result = run_script("wreath_census.py", "--t-max", "3", "--m-max", "3")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == CENSUS_T3_M3


def test_wreath_census_with_a_huge_m_max_stops_at_the_order_cap():
    # Every W(t, m) above the 2000-element cap is skipped without computing
    # its order in full, so m up to 20000 lists the same groups as m <= 8.
    small = run_script("wreath_census.py", "--t-max", "2", "--m-max", "8")
    huge = run_script("wreath_census.py", "--t-max", "2", "--m-max", "20000", timeout=10)
    assert small.returncode == huge.returncode == 0, huge.stderr
    assert huge.stdout == small.stdout


@pytest.mark.parametrize("bound", [["--cap", "-1"], ["--t-max", "0"]])
def test_wreath_census_refuses_an_empty_family(bound):
    result = run_script("wreath_census.py", *bound)
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1 and "no wreath group" in result.stderr
    assert "all groups consistent" not in result.stdout


def test_wreath_census_refuses_a_t_max_above_the_series_cap_before_listing_the_family():
    # W(t, 0) has order 1 and fits any cap, so the family alone would hold
    # one entry per t.
    result = run_script("wreath_census.py", "--t-max", "4001", "--m-max", "0", timeout=5)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "refused: --t-max 4001 exceeds series-order cap=4000\n"


def test_wreath_census_at_m_zero_takes_no_multiplies():
    # Every W(t, 0) for t <= 4000: P^t truncated at order 0 is 1, so the
    # class counts take no series work.
    result = run_script("wreath_census.py", "--t-max", "4000", "--m-max", "0", timeout=3)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert len(lines) == 2 + 4000 + 2
    assert lines[-3] == f"{'W(4000,0)':>10} {1:>6} {1:>8} {1:>7} {1:>7} {1:>9}  ok"
    assert lines[-1] == "all groups consistent"


def test_wreath_census_checks_its_whole_family_before_the_first_group():
    # W(2,7) is the first group of this family above the structure ceiling;
    # nothing is printed for the groups before it.
    result = run_script("wreath_census.py", "--cap", "100000000", timeout=5)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("refused: W(2,7) structure check")
    assert result.stderr.count("\n") == 1


def test_wreath_census_exits_1_on_an_inconsistency(monkeypatch, capsys):
    report = wreath.class_structure_report

    def pair_count_off_by_one(t, m):
        rep = report(t, m)
        return rep._replace(commuting_pairs=rep.commuting_pairs + 1)

    monkeypatch.setattr(wreath, "class_structure_report", pair_count_off_by_one)
    monkeypatch.setattr(sys, "argv", ["wreath_census.py", "--t-max", "2", "--m-max", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "wreath_census.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "INCONSISTENCIES FOUND" in capsys.readouterr().out
