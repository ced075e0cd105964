"""Every function in ``src/conductor`` runs on a command-line path.

A fresh interpreter runs the commands that ``test_cli_golden.py`` pins,
and ``verify --suite all``, under ``sys.setprofile``, and records each
function of the package that it enters.  A function that no command
enters fails the test unless ``ALLOWED`` gives the reason it stays.  The
interpreter must be fresh: an ``lru_cache`` that earlier tests filled
would answer without entering its function.
"""

import ast
import glob
import json
import os
import subprocess
import sys

from test_cli_golden import GOLDEN, SAMPLES

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "conductor"))

_WRAPPED = "perfbench/tracer.py wraps it"
_RADICAL = "callee of orders.radical_lattice, which perfbench/tracer.py wraps"
_CYCLO = (
    "CycloNumber arithmetic, the tests' reference route for character values "
    "(ROADMAP item 13)"
)

# qualified name -> why it stays although no command enters it
ALLOWED = {
    "cli.main": "the console entry point; the commands enter through cli.run",
    "chartab._digits": "past a size bound: the error message for an order of 19 digits or more",
    "groups.FiniteGroup.from_permutations.mult": (
        "past a size bound: products of a permutation group above TABLE_BOUND"
    ),
    "groups.FiniteGroup.__repr__": "a debugging repr",
    "localfields.AbelianLocalField.__repr__": "a debugging repr",
    "cyclo.CycloNumber.galois": _WRAPPED,
    "cyclo.CycloNumber.trace_to_q": _WRAPPED,
    "cyclo.CycloNumber.__mul__": "perfbench/tracer.py counts its calls",
    "cyclo.CycloNumber._pair": "callee of CycloNumber.__mul__, which perfbench/tracer.py counts",
    "cyclo.CycloNumber.lift": "callee of CycloNumber._pair",
    "cyclo._fold": "callee of CycloNumber.galois and CycloNumber.lift",
    "cyclo.CycloNumber.root": _CYCLO,
    "cyclo.CycloNumber.__add__": _CYCLO,
    "cyclo.CycloNumber.__pow__": _CYCLO,
    "cyclo.CycloNumber.__eq__": _CYCLO,
    "cyclo.CycloNumber.__hash__": _CYCLO,
    "cyclo.CycloNumber.as_fraction": _CYCLO,
    "orders.radical_lattice": _WRAPPED,
    "orders.lattice_product": _WRAPPED,
    "orders.nilradical_mod_p": _RADICAL,
    "orders.nilradical_mod_p.mult_mod_p": _RADICAL,
    "orders.lattice_power": (
        "the tests' reference route for localfields.cyclotomic_ideal_basis, "
        "kept for a maximal order over o (ROADMAP items 1 and 18)"
    ),
}

_CHILD = r"""
import contextlib, io, json, sys

src, commands = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(record)
from conductor.cli import run
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(run(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _functions():
    """(qualified name, module, first line) of every def in the package; a
    decorated def starts at its first decorator, as its code object does."""
    out = []

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((prefix + child.name, module, first))
                walk(module, child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(module, child, prefix + child.name + ".")
            else:
                walk(module, child, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            walk(module, ast.parse(fh.read(), filename=path), module + ".")
    return out


def _run_commands(commands):
    """The exit codes of the commands and the (module, first line, name)
    of each package function they enter, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    env.pop("CONDUCTOR_PRECISION", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, SRC + os.sep, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    out = json.loads(proc.stdout)
    entered = {(os.path.basename(path)[:-3], line, name) for path, line, name in out["entered"]}
    return out["codes"], entered


def test_every_function_runs_on_a_command_line_path():
    commands = [
        [os.path.join(SAMPLES, a) if a.endswith(".json") else a for a in args.split()]
        for args, _, _ in GOLDEN
    ] + [["verify", "--suite", "all"]]
    codes, entered = _run_commands(commands)
    assert codes == [code for _, code, _ in GOLDEN] + [0]
    functions = _functions()
    assert len(functions) > 250
    idle = {
        name for name, module, line in functions
        if (module, line, name.rsplit(".", 1)[1]) not in entered
    }
    # a function no command enters goes, or moves to the tests that use it
    assert sorted(idle - ALLOWED.keys()) == []
    # an entry for a function that now runs, or is gone, leaves the list
    assert sorted(ALLOWED.keys() - idle) == []
    assert all(ALLOWED.values())
