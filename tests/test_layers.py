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


def test_arch_imports_the_scalars_and_repalg():
    # a power of pi is a LaurentRF monomial with ExactScalar coefficients
    assert padr_imports("arch") == {"scalar", "exactnum", "repalg"}


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


PERFBENCH = os.path.dirname(HOOKS)
TESTS = os.path.dirname(os.path.abspath(__file__))

#: the module-level functions and the methods ("Class.method") that only
#: tests call, each kept as the reference that a test compares reached code
#: against, with that test
ORACLES = {
    ("plocal", "theta_p_level"):
        "test_plocal.py::TestThetaOperators::test_level_independence",
    ("plocal", "depletion_normal_form"):
        "test_plocal.py::TestDepletionPipeline::test_normal_form",
    ("plocal", "l_gl_pair"):
        "test_plocal.py::TestEulerFactors::test_euler_cross_check",
    ("plocal", "gamma_gl_pair"):
        "test_plocal.py::TestEulerFactors::test_euler_cross_check",
    ("plocal", "up_eigenvalues"):
        "test_acceptance.py::test_criterion_06_up_eigenvalue_oracle",
    ("plocal", "gl2_up_oracle"):
        "test_acceptance.py::test_criterion_06_up_eigenvalue_oracle",
    ("plocal", "SchwartzFn._from_keys"):
        "test_plocal.py::TestSchwartzFn::test_keys_at_any_scale",
    ("repalg", "HomPoly.act"): "test_repalg.py::TestPairEll::test_invariance",
    ("repalg", "SignedHCSeq.flip_signs"):
        "test_repalg.py::TestGGP::test_flip_symmetry",
}

#: names that plocal imports for perfbench/hooks.py alone
HOOK_REEXPORTS = {("plocal", "_gauss_cache"), ("plocal", "_gauss_cache_store")}


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def padr_modules():
    return {f[:-3]: parse(os.path.join(PKG, f))
            for f in sorted(os.listdir(PKG)) if f.endswith(".py")}


def names_used(node, strings=False):
    """The names that node reads, as bare names or attributes, and, with
    strings, the string constants in it (perfbench's hooks name callables
    by string)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreached_names():
    """The module-level functions and classes of src/padr, public or
    private, and the non-dunder methods of its classes, as "Class.method",
    that no statement of src/padr other than their own definition, and no
    file under perfbench/, names.  A decorated module-level function counts
    as reached: the functools caches, and any function that a decorator
    registers.  Names are matched by name alone, so a method counts as
    reached when any method of its name is, and so does an override of a
    base class's method, which the base's own code calls (argparse calls
    parse_known_args)."""
    modules = padr_modules()
    statements = [(st, names_used(st)) for tree in modules.values()
                  for st in tree.body
                  if not isinstance(st, (ast.Import, ast.ImportFrom))]
    reached = set()
    for dirpath, _, files in os.walk(PERFBENCH):
        for f in files:
            if f.endswith(".py"):
                reached |= names_used(parse(os.path.join(dirpath, f)), True)
    out = set()
    for module, tree in modules.items():
        for st in tree.body:
            if (isinstance(st, (ast.FunctionDef, ast.ClassDef))
                    and not st.decorator_list
                    and st.name not in reached
                    and not any(st.name in names for other, names in statements
                                if other is not st)):
                out.add((module, st.name))
    # a class body is named statement by statement, so that a method's own
    # body does not reach it
    units = [(st, names_used(st)) for other, _ in statements
             for st in (other.body if isinstance(other, ast.ClassDef)
                        else [other])]
    methods = [(module, cls.name, st) for module, tree in modules.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for st in cls.body if isinstance(st, ast.FunctionDef)
               and not (st.name.startswith("__") and st.name.endswith("__"))]
    reached |= {st.name for _, _, st in methods
                if any(st.name in names for other, names in units
                       if other is not st)}
    out |= {(module, f"{cls}.{st.name}") for module, cls, st in methods
            if st.name not in reached and not overrides(module, cls, st.name)}
    return out


def overrides(module, cls, name):
    """Whether padr.<module>.<cls>.<name> overrides a method of a base."""
    bases = getattr(importlib.import_module(f"padr.{module}"), cls).__mro__
    return any(name in base.__dict__ for base in bases[1:])


def split(names):
    """(public, private): the (module, name) pairs split by a leading _ of
    the function's or method's own name."""
    private = {n for n in names if n[1].rpartition(".")[2].startswith("_")}
    return set(names) - private, private


def test_every_public_name_is_reached_or_an_oracle():
    assert split(unreached_names())[0] == split(ORACLES)[0]


def test_every_private_function_is_reached_or_an_oracle():
    # a helper that a deletion leaves behind for a test alone fails here
    assert split(unreached_names())[1] == split(ORACLES)[1]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_each_oracle_is_read_by_its_test(name):
    path, *scopes = ORACLES[name].split("::")
    node = parse(os.path.join(TESTS, path))
    for scope in scopes:
        node = next(st for st in node.body
                    if isinstance(st, (ast.ClassDef, ast.FunctionDef))
                    and st.name == scope)
    assert name[1].rpartition(".")[2] in names_used(node)


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for module, tree in padr_modules().items():
        scopes = [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, ast.FunctionDef)]
        for scope in scopes:
            used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            for st in scope.body:
                if isinstance(st, ast.ImportFrom) \
                        and st.module != "__future__":
                    names = [a.asname or a.name for a in st.names]
                elif isinstance(st, ast.Import):
                    names = [(a.asname or a.name).split(".")[0]
                             for a in st.names]
                else:
                    continue
                unused |= {(module, n) for n in names if n not in used}
    assert unused == HOOK_REEXPORTS
