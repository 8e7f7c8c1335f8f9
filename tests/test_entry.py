"""The real entry point, `python -m tricomm.cli`, in a fresh interpreter.

`cli.entry()` flushes both streams after `main()` and ends the process with
`os._exit`, skipping interpreter teardown.  These runs check that every exit
code README documents still arrives whole, with a stdout larger than a pipe
buffer, usage errors and `--help`, and with no traceback and no teardown
warning on stderr.  A failed stdout write through the same entry point is
`test_cli.py::test_failed_stdout_write_is_io_error`.
"""

import pytest

from helpers import run_cli, run_python
from tricomm.cli import main


def assert_clean(stderr):
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


# Exit codes as README documents them (1 disagreement, 2 usage error, 3 cap
# refusal, 0 for --help), with what stdout must hold and how stderr starts.
ROWS = [
    (
        ["verify", "-N", "20", "-K", "4", "--corrupt-sigma", "3"],
        1,
        "identity: FIRST DISAGREEMENT at index 3",
        "",
    ),
    (["expand", "-N", "10", "--bogus"], 2, "", "usage: "),
    (["bound-check", "-N", "1000001"], 3, "", "refused: bound scan to d = 1000001"),
    (["--help"], 0, "bound-check", ""),
]


@pytest.mark.parametrize(
    "argv, code, out_part, err_start", ROWS, ids=[" ".join(row[0]) for row in ROWS]
)
def test_entry_exits_with_its_documented_code(argv, code, out_part, err_start):
    result = run_cli(*argv, timeout=30)
    assert_clean(result.stderr)
    assert result.returncode == code, result.stderr
    assert out_part in result.stdout if out_part else result.stdout == ""
    assert result.stderr.startswith(err_start)
    if code == 3:
        assert result.stderr.count("\n") == 1


def test_entry_writes_more_than_a_pipe_buffer_whole(capsys):
    # About 200 KB, several times a 64 KB pipe buffer: os._exit comes only
    # after the last byte is flushed.
    assert main(["expand", "-N", "2000"]) == 0
    in_process = capsys.readouterr().out
    assert len(in_process) > 150_000
    result = run_cli("expand", "-N", "2000", timeout=30)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == in_process


def test_entry_maps_an_unexpected_exception_to_exit_4():
    # Exit 4, internal error: one stderr line, no traceback, no teardown warning.
    code = "\n".join(
        [
            "import sys",
            "from tricomm import cli, pipeline",
            "def broken(order):",
            "    raise RuntimeError('simulated fault')",
            "pipeline.coeffs_classes = broken",
            "sys.argv = ['tricomm', 'classes', '-N', '5']",
            "cli.entry()",
        ]
    )
    result = run_python("-c", code, timeout=30)
    assert (result.returncode, result.stdout) == (4, "")
    assert result.stderr == "internal error: RuntimeError: simulated fault\n"


def test_entry_skips_interpreter_teardown():
    # An atexit hook registered before entry() never runs: the process ends
    # by os._exit once both streams are flushed.
    code = (
        "import atexit, sys; "
        "atexit.register(lambda: print('teardown ran', file=sys.stderr)); "
        "sys.argv = ['tricomm', 'expand', '-N', '3']; "
        "from tricomm.cli import entry; entry()"
    )
    result = run_python("-c", code, timeout=30)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 1\n1 1\n2 4\n3 8\n", "")
