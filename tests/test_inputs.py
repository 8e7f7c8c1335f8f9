"""No input ends in a traceback: every numeric argument of every subcommand
at -1, 0, 1, 10^30 and a non-integer, and each removed cap flag at -1 and at
10^30, exits with the code README documents.

Each row holds one argument at "{}" and the others at cheap values, so every
run either refuses or finishes well under a second.  Rows run in-process
through `main()`.
"""

import pytest

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


def cases(rows, values):
    """One pytest param per (row, value), named by its command line."""
    return [
        pytest.param(args, code, id=" ".join(args))
        for argv, codes in rows
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
