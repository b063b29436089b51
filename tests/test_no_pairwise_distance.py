"""The pairwise rank distance is a test reference only: library code
checks the exterior-set codes with `mrd.orbit_distance`."""

import ast
import pathlib

import sigmaconics

PACKAGE = pathlib.Path(sigmaconics.__file__).parent


def test_only_mrd_calls_min_rank_distance():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "mrd.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "min_rank_distance"]
    assert found == []
