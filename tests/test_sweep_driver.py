"""One sweep driver: `census._sweep` is the only loop over plane batches, so
it alone masks them through the point kernel and counts them through the
line kernel.  `PlaneKernel.counts` is the point kernel's own shorthand for
its masks and may call them.  Every census row takes its per-kind check in
the driver, record row or not, and `form_record` runs the same check for
one form: no other routine calls `_degenerate_verdicts`."""

import ast
import pathlib

import sigmaconics

CENSUS = pathlib.Path(sigmaconics.__file__).parent / "census.py"
KERNEL_CALLS = ("masks", "row_encode", "counts")


def _calls_by_owner(names) -> dict:
    """Top-level function or class name -> the calls of `names` inside it,
    as methods or as plain functions."""
    tree = ast.parse(CENSUS.read_text(), filename=str(CENSUS))
    found = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in names:
                    found.setdefault(getattr(top, "name", None), []).append(
                        f"{name}:{node.lineno}")
    return found


def test_only_the_driver_masks_plane_batches():
    calls = _calls_by_owner(KERNEL_CALLS)
    assert set(calls) <= {"_sweep", "PlaneKernel"}, calls
    assert sorted(c.split(":")[0] for c in calls["_sweep"]) == [
        "counts", "masks", "row_encode"]
    assert [c.split(":")[0] for c in calls.get("PlaneKernel", [])] == ["masks"]


def test_one_booking_path_for_the_kind_checks():
    calls = _calls_by_owner(("_degenerate_verdicts",))
    assert {owner: len(c) for owner, c in calls.items()} == {
        "_sweep": 1, "form_record": 1}, calls
