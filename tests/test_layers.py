"""One module per layer: which padr modules each module imports, and the
module paths that perfbench's hooks name."""

import ast
import importlib.util
import os

import pytest

import padr

PKG = os.path.dirname(os.path.abspath(padr.__file__))
HOOKS = os.path.join(os.path.dirname(os.path.dirname(PKG)), "perfbench",
                     "hooks.py")


def padr_imports(module):
    """The padr modules that padr/<module>.py imports anywhere in it, by
    short name."""
    with open(os.path.join(PKG, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 1 and name:
                out.add(name)
            elif name.startswith("padr."):
                out.add(name[len("padr."):])
            elif name == "padr" or (node.level == 1 and not name):
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name[len("padr."):] for a in node.names
                       if a.name.startswith("padr."))
    return out


@pytest.mark.parametrize("module, allowed", [
    ("scalar", set()),
    ("chars", {"scalar"}),
    ("exactnum", {"scalar"}),
])
def test_lower_layers_import_only_lower_layers(module, allowed):
    assert padr_imports(module) <= allowed


def test_plocal_imports_neither_cli_nor_diffops():
    assert not padr_imports("plocal") & {"cli", "diffops"}


def test_every_hook_resolves():
    # each hooked callable must sit in its owner's own __dict__, which is
    # where hooks.install reads it
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    for path, attr, _ in hooks.SPANS + hooks.COUNTS:
        _, target = hooks._resolve(path)
        assert attr in target.__dict__, f"{path}.{attr}"
