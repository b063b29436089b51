"""Reference-only names: each is the slow or scalar reference of a batch
routine, and no module of the package calls it; the tests compare the two.
The per-row record routines may still be called at K = 1, but not by a
sampled census."""

import ast
import importlib
import pathlib

import pytest

import sigmaconics
from sigmaconics.census import random_census
from sigmaconics.fields import build_field

PACKAGE = pathlib.Path(sigmaconics.__file__).parent

# name -> the routine that library code uses instead
REFERENCE_ONLY = {
    "fixed_points": "forms.fixed_masks finds the fixed points of K "
                    "collineations line by line through R",
    "incidence": "ProjectiveSpace.lines_points lists the points of a line",
    "is_arc": "ProjectiveSpace.collinear_triples tests rows of points in batch",
    "is_fq_subline": "ProjectiveSpace.sublines tests rows of points in batch",
    "line_spectrum": "census._line_spectra histograms the line kernel's "
                     "per-line counts",
    "min_rank_distance": "mrd.orbit_distance projects the exterior points "
                         "from the rank-1 locus",
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


# per-row routines of the records: K = 1 callers and references of the batch
# record pass, kept by name for the benchmark's span tracer
PER_ROW = ("form_record", "kestenband_profile", "collineation_images")


@pytest.mark.parametrize("invertible_only", [True, False])
def test_sampled_census_records_take_no_per_row_path(monkeypatch, invertible_only):
    """A sampled census builds its records with `census.form_records` and
    never reaches the per-row record, profile or collineation routines."""
    def per_row(*args, **kwargs):
        raise AssertionError("a per-row record routine was called")
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"sigmaconics.{path.stem}")
        for name in PER_ROW:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, per_row)
    s = random_census(build_field(3, 1, 3, 1), 400, seed=5,
                      invertible_only=invertible_only, records=200)
    assert len(s.records) == 200
    assert any(r["fixed_in"] is not None for r in s.records)
