"""Checks on the package source itself."""

import ast
from pathlib import Path

import tautjac


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may live only in
    # one: every module of the package raises its checks explicitly
    paths = sorted(Path(tautjac.__file__).parent.glob("*.py"))
    assert {"lie.py", "operators.py", "poly.py"} <= {path.name for path in paths}
    found = ["%s:%d" % (path.name, node.lineno) for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
