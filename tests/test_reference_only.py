"""Reference-only names: each is the slow or scalar reference of a batch
routine, and no module of the package calls it; the tests compare the two."""

import ast
import pathlib

import pytest

import sigmaconics

PACKAGE = pathlib.Path(sigmaconics.__file__).parent

# name -> the routine that library code uses instead
REFERENCE_ONLY = {
    "incidence": "ProjectiveSpace.lines_points lists the points of a line",
    "min_rank_distance": "mrd.orbit_distance ranks the scalar orbit",
    "nonlinearity_witness": "mrd.orbit_linear compares the code with its span",
    "steiner_generate": "cfsets.cf_verdicts checks the Steiner locus in batch",
    "pencil_collineation_from_form": "cfsets.pencil_normal_form gives the "
                                     "bases and blocks in batch",
    "_torus_supports": "census._orbit_supports keeps one support per "
                       "S3-orbit",
    "_torus_representatives": "census._orbit_representatives yields one "
                              "row per orbit of S3 x Gal x torus",
}


def _calls(name: str) -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == name]
    return found


@pytest.mark.parametrize("name", sorted(REFERENCE_ONLY))
def test_reference_only_name_is_not_called(name):
    assert _calls(name) == [], REFERENCE_ONLY[name]
