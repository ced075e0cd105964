"""The package's certificates hold in every build: no module under
``src/conductor`` has an ``assert`` statement, which ``python -O`` would
strip.  And a ``conductor`` process starts cheaply: no module imports
``dataclasses`` or ``inspect``, and a subcommand loads only what it runs."""

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
            if isinstance(node, ast.Assert)
        ]
    assert found == []


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
