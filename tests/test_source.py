"""The package's certificates hold in every build: no module under
``src/conductor`` has an ``assert`` statement, which ``python -O`` would
strip, and none raises ``AssertionError``, so every failed certificate is
an ``ArithmeticError`` or a documented error.  Only ``cyclo``, ``fitting``
and ``cli`` name ``CycloNumber``, only ``cyclo`` names its reduction
internals, and only ``chartab`` names Dixon-Schneider's; no module imports
another's underscore name.  Every result kept on an object goes through
``groups.kept``.  And a ``conductor`` process starts cheaply: no module
imports ``dataclasses`` or ``inspect``, and a subcommand loads only what
it runs."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "conductor")


def _loaded_by(*modules):
    """Names in sys.modules after a fresh interpreter imports ``modules``;
    -S keeps a host's site .pth files from importing anything first."""
    code = "import sys\nfor m in sys.argv[1:]: __import__(m)\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *modules],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


def _raises_assertion_error(node):
    """Whether node is ``raise AssertionError`` or ``raise AssertionError(...)``."""
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_the_package_has_no_assert_statement():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) > 10
    found = []
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
    assert found == []


def _name_of(node):
    """The identifier a name, an import alias or an attribute names."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _modules_naming(names):
    """The modules of the package whose source names one of ``names``."""
    named = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        if any(_name_of(node) in names for node in ast.walk(tree)):
            named.add(os.path.basename(path)[:-3])
    return named


def test_only_cyclo_fitting_and_cli_name_cyclonumber():
    # character values stay integer coordinates until they are printed:
    # CycloNumber is the output format of reduced norms and of the CLI
    assert _modules_naming({"CycloNumber"}) == {"cyclo", "fitting", "cli"}


def test_only_cyclo_names_its_internals():
    # how Z[zeta_m] reduces, multiplies and changes conductor is decided in
    # cyclo alone: other modules call product_sum, int_coords, power and
    # CycloNumber, never the fold, the reduction rows or the 2-mod-4 rule
    internals = {"_fold", "_sparse_fold", "_reduction_context", "_normalize"}
    assert _modules_naming(internals) == {"cyclo"}


def test_only_chartab_names_its_internals():
    # Dixon-Schneider's power maps, class-matrix split, row order and lift
    # run inside character_table alone: the level checks build no table of
    # G_m, m > n (fitting's centre elements read chartab's class_matrix)
    internals = {"_power_maps", "_split", "_row_order", "_lift_coeffs"}
    assert _modules_naming(internals) == {"chartab"}


def test_no_module_imports_another_modules_private_name():
    # a helper that two modules need lives, public, in the module whose
    # data it reads: groups.convolve, localfields.cyclotomic_ideal_basis,
    # chartab.class_matrix
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            "%s: %s.%s" % (os.path.basename(path), node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert found == []


def test_only_groups_reads_a_group_table():
    # a group may keep no table (G_m, m > n, and any group above
    # TABLE_BOUND), so every other module reads products through mult
    # and row, which hold for every group
    readers = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        if any(isinstance(node, ast.Attribute) and node.attr == "table" for node in ast.walk(tree)):
            readers.add(os.path.basename(path)[:-3])
    assert readers == {"groups"}


def _is_getattr_memo(node):
    """Whether node is ``getattr(obj, name, None)``."""
    return (
        isinstance(node, ast.Call)
        and _name_of(node.func) == "getattr"
        and len(node.args) == 3
        and isinstance(node.args[2], ast.Constant)
        and node.args[2].value is None
    )


def test_only_groups_kept_keeps_results_on_an_object():
    # one memo policy (groups.kept): keep under a key, store nothing when
    # the build raises, start a copy empty.  No module reads an instance
    # __dict__, which on CPython 3.11 slows every later attribute read on
    # the object.  FiniteGroup's inverse list, cached_property and the
    # module lru_caches are other idioms
    dicts, memos = set(), set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for top in tree.body:
            where = (os.path.basename(path)[:-3], getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                    dicts.add(where)
                if _is_getattr_memo(node):
                    memos.add(where)
    assert dicts == set()
    assert memos == {("groups", "kept")}


def test_no_module_imports_dataclasses_or_inspect():
    names = sorted(os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py")))
    modules = ["conductor.cli"] + ["conductor." + n for n in names if n != "__init__"]
    loaded = _loaded_by(*modules)
    assert set(modules) <= loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_chartab_does_not_load_localfields():
    loaded = _loaded_by("conductor.cli", "conductor.chartab")
    assert "conductor.chartab" in loaded
    assert "conductor.localfields" not in loaded


def test_cyclo_does_not_load_padic():
    # CycloNumber.descend reads relative traces: cyclo solves nothing
    loaded = _loaded_by("conductor.cyclo")
    assert "conductor.cyclo" in loaded
    assert "conductor.padic" not in loaded


def test_iwasawa_does_not_load_finite():
    # the completed algebra's conductor needs character tables and local
    # fields, not the finite oracle: degeneration_matches_finite imports
    # jacobinski_conductor in its body, as the CLI handlers do
    loaded = _loaded_by("conductor.cli", "conductor.iwasawa")
    assert "conductor.iwasawa" in loaded
    assert "conductor.finite" not in loaded


def test_finite_and_fitting_do_not_load_orders():
    # the finite and fitting subcommands keep out of the ring-of-integers
    # model
    for module in ("conductor.finite", "conductor.fitting"):
        loaded = _loaded_by("conductor.cli", module)
        assert module in loaded
        assert "conductor.orders" not in loaded
