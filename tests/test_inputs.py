"""No input ends in a traceback: every numeric argument of every subcommand
and of the census script at -1, 0, 1, 10^30 and a non-integer, and each
removed cap flag at -1 and at 10^30, exits with the code README documents.

Each row holds one argument at "{}" and the others at cheap values, so every
run either refuses or finishes well under a second.  CLI rows run in-process
through `main()`; the scripts run in a fresh interpreter.
"""

import pytest

from helpers import run_script
from tricomm.cli import main

HUGE = str(10**30)
VALUES = ("-1", "0", "1", HUGE, "1.5")
CAP_VALUES = ("-1", HUGE)

# Exit codes in VALUES order: 0 success, 1 disagreement, 2 usage or domain
# error, 3 cap refusal.
CLI_ROWS = [
    (["expand", "-N", "{}"], (2, 0, 0, 3, 2)),
    (["expand", "-N", "5", "--corrupt-sigma", "{}"], (2, 2, 0, 2, 2)),
    (["classes", "-N", "{}"], (2, 0, 0, 3, 2)),
    (["brute", "-N", "{}"], (2, 0, 0, 3, 2)),
    (["wreath", "{}", "2"], (2, 2, 0, 3, 2)),
    (["wreath", "2", "{}"], (2, 0, 0, 3, 2)),
    (["wreath", "{}", "2", "--brute"], (2, 2, 0, 3, 2)),
    (["wreath", "2", "{}", "--brute"], (2, 0, 0, 3, 2)),
    (["verify", "-N", "{}", "-K", "1"], (2, 2, 0, 3, 2)),
    (["verify", "-N", "5", "-K", "{}"], (2, 0, 0, 2, 2)),
    (["verify", "-N", "5", "-K", "2", "--corrupt-sigma", "{}"], (2, 2, 1, 2, 2)),
    (["log-check", "-N", "{}"], (2, 2, 0, 3, 2)),
    (["bound-check", "-N", "{}"], (2, 2, 0, 3, 2)),
    # There is no `growth` subcommand: an invalid choice at any value.
    (["growth", "-N", "{}"], (2, 2, 2, 2, 2)),
]

# No subcommand takes a cap flag: each is a usage error at any value.
CAP_ROWS = [
    (["brute", "-N", "3", "--cent-cap", "{}"], (2, 2)),
    (["wreath", "2", "2", "--brute", "--wreath-cap", "{}"], (2, 2)),
    (["verify", "-N", "5", "-K", "3", "--naive-cap", "{}"], (2, 2)),
    (["verify", "-N", "5", "-K", "3", "--cent-cap", "{}"], (2, 2)),
]

SCRIPT_ROWS = [
    ("wreath_census.py", ["--cap", "{}", "--t-max", "2", "--m-max", "2"], (2, 2, 0, 0, 2)),
    ("wreath_census.py", ["--t-max", "{}", "--m-max", "2"], (2, 2, 0, 3, 2)),
    ("wreath_census.py", ["--t-max", "2", "--m-max", "{}"], (2, 0, 0, 0, 2)),
]


def cases(rows, values):
    """One pytest param per (row, value), named by its command line."""
    return [
        pytest.param(*head, args, code, id=" ".join(head + args))
        for *head, argv, codes in rows
        for value, code in zip(values, codes)
        for args in [[value if arg == "{}" else arg for arg in argv]]
    ]


def cli_exit(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.mark.parametrize("argv, code", cases(CLI_ROWS, VALUES) + cases(CAP_ROWS, CAP_VALUES))
def test_cli_input_exits_with_its_documented_code(argv, code, capsys):
    actual = cli_exit(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "internal error" not in err
    assert actual == code, err
    if code in (2, 3):
        assert out == "" and err.count("\n") >= 1
    if code == 3:
        assert err.startswith("refused: ") and err.count("\n") == 1


@pytest.mark.parametrize("script, args, code", cases(SCRIPT_ROWS, VALUES))
def test_script_input_exits_with_its_documented_code(script, args, code):
    result = run_script(script, *args, timeout=10)
    assert "Traceback" not in result.stderr
    assert result.returncode == code, result.stderr
    if code in (2, 3):
        assert result.stdout == ""
    if code == 3:
        assert result.stderr.startswith("refused: ") and result.stderr.count("\n") == 1
