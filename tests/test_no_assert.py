"""Correctness checks must survive `python -O`, which strips `assert`."""

import ast
import os
import pathlib
import subprocess
import sys

import sigmaconics

PACKAGE = pathlib.Path(sigmaconics.__file__).parent


def _raises_assertion_error(node) -> bool:
    exc = getattr(node.exc, "func", node.exc)
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # neither `assert` nor `raise AssertionError`: library errors carry a
    # real exception type
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Raise)
                      and _raises_assertion_error(node))]
    assert found == []


def _census_bytes(*flags):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "sigmaconics.cli", "census", "--p", "2",
         "--n", "2", "--scope", "rank-le2"],
        env=env, capture_output=True, check=True)
    return proc.stdout


def test_optimised_run_reports_identical_bytes():
    plain = _census_bytes()
    assert b'"total":26901' in plain
    assert _census_bytes("-O") == plain
