"""One sweep driver: `census._sweep` is the only loop over plane batches, so
it alone masks them through the count kernel.  `PlaneKernel.counts` is the
kernel's own shorthand for its masks and may call them."""

import ast
import pathlib

import sigmaconics

CENSUS = pathlib.Path(sigmaconics.__file__).parent / "census.py"
KERNEL_CALLS = ("masks", "row_encode")


def _kernel_calls_by_owner() -> dict:
    """Top-level function or class name -> the kernel calls inside it."""
    tree = ast.parse(CENSUS.read_text(), filename=str(CENSUS))
    found = {}
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in KERNEL_CALLS):
                found.setdefault(getattr(top, "name", None), []).append(
                    f"{node.func.attr}:{node.lineno}")
    return found


def test_only_the_driver_masks_plane_batches():
    calls = _kernel_calls_by_owner()
    assert set(calls) <= {"_sweep", "PlaneKernel"}, calls
    assert sorted(c.split(":")[0] for c in calls["_sweep"]) == ["masks", "row_encode"]
    assert [c.split(":")[0] for c in calls.get("PlaneKernel", [])] == ["masks"]
