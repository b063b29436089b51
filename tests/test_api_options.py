"""The routines of one form take the form alone.  Its plane is
`form.space()`, cached per tower, so a `space` argument would be a second
way to name a value the form already fixes; the batch routines take the
plane as a required first argument, because their kernel and line-list
caches live on it.  Only `census.form_record` takes an intermediate, its
`mask`, the seam through which a test plants a wrong absolute set."""

import importlib
import inspect

MODULES = ("forms", "classify", "cfsets", "mrd", "census")
EMPTY = inspect.Parameter.empty


def _public_functions() -> dict:
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"sigmaconics.{name}")
        for attr, fn in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                found[f"{name}.{attr}"] = inspect.signature(fn).parameters
    return found


def test_no_optional_plane_or_intermediate():
    functions = _public_functions()
    assert "classify.kestenband_profile" in functions
    optional_space = [name for name, params in functions.items()
                      if "space" in params and params["space"].default is not EMPTY]
    assert optional_space == []
    assert [name for name, params in functions.items() if "rank" in params] == []
    # every other routine with a mask is a batch routine: (K, N) masks of
    # K rows of the plane it takes first
    masked = {name for name, params in functions.items() if "mask" in params
              and (next(iter(params)) != "space" or params["mask"].default is not EMPTY)}
    assert masked == {"census.form_record"}
