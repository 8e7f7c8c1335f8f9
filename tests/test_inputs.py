"""No input ends in a traceback: every numeric argument of every subcommand
at -1, 0, 1, 10^30 and a non-integer, and each removed cap flag at -1 and at
10^30, exits with the code README documents.

Each row holds one argument at "{}" and the others at cheap values, so every
run either refuses or finishes well under a second.  Rows run in-process
through `main()`.  The library's own input checks that no CLI argument
reaches are pinned by their messages (`LIBRARY_ROWS`).
"""

import re

import pytest

from tricomm import numtheory, partitions, permgroup, wreath
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


# Library calls whose input check no CLI argument reaches, each with the
# exact message of its ValueError.
LIBRARY_ROWS = [
    (numtheory.divisor_weights, (-1,), "divisor_weights requires d_max >= 0, got -1"),
    (partitions.enumerate_partitions, (-1,), "cannot partition a negative integer: -1"),
    (permgroup.enumerate_symmetric, (-1,), "degree must be >= 0, got -1"),
    (permgroup.triples_naive, (-1,), "degree must be >= 0, got -1"),
    (permgroup.triples_centralizer, (-1,), "degree must be >= 0, got -1"),
    (wreath.enumerate_class_labels, (0, 1), "modulus must be >= 1, got 0"),
    (wreath.enumerate_class_labels, (1, -1), "point count must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "fn, args, message",
    LIBRARY_ROWS,
    ids=[f"{fn.__name__}{args}".replace(",)", ")") for fn, args, _ in LIBRARY_ROWS],
)
def test_library_input_check_refuses_with_its_message(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)
