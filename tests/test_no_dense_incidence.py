"""The dense N x N incidence matrix is a test reference only: library code
lists the points of a line with `ProjectiveSpace.lines_points`."""

import ast
import pathlib

import sigmaconics

PACKAGE = pathlib.Path(sigmaconics.__file__).parent


def test_only_projective_calls_incidence():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "projective.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "incidence"]
    assert found == []
