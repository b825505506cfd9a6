"""Tier-1 under ``python -O``: assert statements are stripped there, so this
passes only while every check of the library raises explicitly."""

import ast
import os
import subprocess
import sys

import pytest

import padr

HERE = os.path.dirname(os.path.abspath(__file__))


def test_tier1_passes_under_dash_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(padr.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", HERE, "-q",
         "-p", "no:cacheprovider",
         "--ignore", os.path.join(HERE, "test_dash_O.py"),
         # timed criteria, run once by tier-1 itself
         "--ignore", os.path.join(HERE, "test_acceptance.py")],
        capture_output=True, text=True, cwd=os.path.dirname(HERE),
        env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]


PKG = os.path.dirname(os.path.abspath(padr.__file__))


@pytest.mark.parametrize("module", sorted(
    name[:-3] for name in os.listdir(PKG) if name.endswith(".py")))
def test_no_bare_assert(module):
    # the library's checks raise through scalar._check or a typed error,
    # so none of them is stripped under -O
    path = os.path.join(PKG, f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bare = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert bare == [], f"{module}.py has bare asserts on lines {bare}"
