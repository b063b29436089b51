"""The benchmark's span tracer binds library names by string and attribute;
a refactor that renames or removes one of them must fail here rather than
break the traced benchmark run.  The tracer is read as source, never
imported or installed."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_tree():
    return ast.parse(TRACER.read_text(), filename=str(TRACER))


def _constant(tree, name):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_tracer_module_attributes_exist():
    tree = _tracer_tree()
    layers = _constant(tree, "LAYERS")
    bound = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in layers}
    # the private names the tracer wraps for its counters
    assert {("census", "_enumerate_scalar_classes"),
            ("mrd", "_vector_ranks_mod_p")} <= bound
    for layer, attr in sorted(bound):
        mod = importlib.import_module(f"sigmaconics.{layer}")
        assert callable(getattr(mod, attr, None)), f"{layer}.{attr}"


def test_tracer_span_methods_exist():
    tree = _tracer_tree()
    for (layer, cls_name), methods in _constant(tree, "SPAN_METHODS").items():
        cls = getattr(importlib.import_module(f"sigmaconics.{layer}"), cls_name)
        for m in methods:
            assert callable(getattr(cls, m, None)), f"{layer}.{cls_name}.{m}"
    tower = importlib.import_module("sigmaconics.fields").FieldTower
    for m in _constant(tree, "SCALAR_METHODS"):
        assert callable(getattr(tower, m, None)), f"FieldTower.{m}"
