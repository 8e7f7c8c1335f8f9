"""The per-layer tracer in `perfbench/` must keep reaching what it wraps.

`perfbench/tracer.py` reads `GroupTable._mul_commutes` as a method and the
`mul` that `enumerate_symmetric` stores, and rebinds names imported with
`from ... import`.  A traced command must print exactly what the untraced
one prints and report no binding left unwrapped.  An import that a library
module never reads is allowed only while the tracer pins it.
"""

import ast
import json

import pytest

from helpers import ROOT, run_cli, run_python

TRACE_MARKER = "perfbench-trace "  # tracer.TRACE_MARKER


@pytest.mark.parametrize(
    "argv",
    [["brute", "-N", "5"], ["verify", "-N", "8", "-K", "4"], ["wreath", "2", "2", "--brute"]],
    ids=["brute", "verify", "wreath"],
)
def test_traced_run_prints_the_untraced_output_with_every_binding_wrapped(argv):
    plain = run_cli(*argv)
    traced = run_python(str(ROOT / "perfbench" / "tracer.py"), *argv)
    assert (plain.returncode, traced.returncode) == (0, 0)
    assert traced.stdout == plain.stdout
    head, marker, tail = traced.stderr.rpartition(TRACE_MARKER)
    assert marker and head == plain.stderr
    assert json.loads(tail)["unwrapped"] == []


def _assigned(tree, name):
    """The literal value assigned to `name` at the top of a module, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_unread_import_is_pinned_by_the_tracer():
    # Read from the source, not imported, so this check needs no perfbench
    # on the path and runs none of its code.
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    pinned = _assigned(tracer, "REQUIRED_BINDINGS")
    unpinned = []
    for path in sorted((ROOT / "src" / "tricomm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread = imported - read - set(pinned.get(path.stem, ()))
        unpinned += [f"{path.stem}.{name}" for name in sorted(unread)]
    assert unpinned == []
