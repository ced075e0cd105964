"""Every function and method the benchmark's tracer wraps exists in the
package: a renamed or deleted target would otherwise surface only when the
benchmark runs."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def _package_vars():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.startswith("conductor.") and mod is not None
    }


def test_every_traced_target_resolves():
    missing = [
        "%s.%s" % (layer, target)
        for layer, entries in _tracer().LAYERS.items()
        for target in (e[1] if isinstance(e, tuple) else e for e in entries)
        if not callable(_resolve(importlib.import_module("conductor." + layer), target))
    ]
    assert missing == []


def test_tracer_installs_and_restores():
    tracer = _tracer().Tracer()
    before = _package_vars()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert _package_vars() == before
