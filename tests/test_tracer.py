"""The per-layer tracer in `perfbench/` must keep reaching what it wraps.

`perfbench/tracer.py` reads `GroupTable._mul_commutes` as a method and the
`mul` that `enumerate_symmetric` stores, and rebinds names imported with
`from ... import`.  A traced command must print exactly what the untraced
one prints and report no binding left unwrapped.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT

TRACE_MARKER = "perfbench-trace "  # tracer.TRACE_MARKER


def run(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [["brute", "-N", "5"], ["verify", "-N", "8", "-K", "4"], ["wreath", "2", "2", "--brute"]],
    ids=["brute", "verify", "wreath"],
)
def test_traced_run_prints_the_untraced_output_with_every_binding_wrapped(argv):
    plain = run("-m", "tricomm.cli", *argv)
    traced = run(str(ROOT / "perfbench" / "tracer.py"), *argv)
    assert (plain.returncode, traced.returncode) == (0, 0)
    assert traced.stdout == plain.stdout
    head, marker, tail = traced.stderr.rpartition(TRACE_MARKER)
    assert marker and head == plain.stderr
    assert json.loads(tail)["unwrapped"] == []
