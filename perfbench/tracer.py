"""Per-layer spans for the traced pass, installed from outside the package.

The tracer wraps a fixed list of public functions and methods of the
``conductor`` modules.  A module-level function is rebound under every name
that refers to it in any ``conductor`` module (including aliases such as
``verify.ext_annihilation_check``), so calls between modules go through the
wrapper too.  Methods and constructors are wrapped on their class.

Every wrapped call records a span (name, start, end, parent) in memory.
The layer of a span is the module that defines the function; time spent in
private helpers is not wrapped and so counts toward the caller's module.
``uninstall`` restores every binding.
"""

import sys
import time
from contextlib import contextmanager

# Wrapped targets per layer.  An entry is a module-level function, a class
# (its constructor is wrapped), or a (metric name, "Class.method") pair.
LAYERS = {
    "groups": ["finite_quotient", "conjugacy_classes",
               ("from_table", "FiniteGroup.from_table"), "GroupAutomorphism"],
    "chartab": ["character_table", "restrict_and_decompose", "alpha_orbits"],
    "cyclo": [("minimal_conductor", "CycloNumber.minimal_conductor"),
              ("galois", "CycloNumber.galois"),
              ("trace_to_q", "CycloNumber.trace_to_q")],
    "localfields": ["field_of_values", "relative_data"],
    "orders": ["radical_lattice", "lattice_product", "GlobalFieldModel"],
    "padic": ["hnf_columns", "smith_valuations", "smith_with_column_transform",
              "exact_kernel", "exact_row_hnf", "lattice_contains"],
    "finite": ["jacobinski_conductor", "formula_conductor_lattice",
               "brute_force_conductor", "maximal_order_basis", "galois_orbits",
               "ExtComputation",
               ("ExtComputation.annihilates", "ExtComputation.annihilates")],
    "iwasawa": ["character_classes", "central_conductor", "quotient_degree_check",
                "trace_lemma_check", "dual_basis_check", "idempotent_suite"],
    "fitting": ["fitting_generators", "reduced_norm", "annihilation_check"],
    "jsonio": ["load_json", "group_from_json", "dump_json"],
    "cli": ["run"],
}
# The three matrix forms also report the sum of rows x columns of their
# input matrix, the positional argument after (p, precision).
CELL_FUNCTIONS = {"hnf_columns", "smith_valuations", "smith_with_column_transform"}
MATRIX_ARG = 2


def _targets(module):
    for entry in LAYERS[module]:
        metric, target = entry if isinstance(entry, tuple) else (entry, entry)
        yield "%s.%s" % (module, metric), target


def per_layer_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for module in LAYERS:
        for name, target in _targets(module):
            out.append((name + ".calls", "count"))
            out.append((name + ".s", "s"))
            if target in CELL_FUNCTIONS:
                out.append((name + ".cells", "count"))
        if module == "cyclo":
            out.append(("cyclo.mul.calls", "count"))
        out.append((module + ".self_s", "s"))
    return out


def _cells(matrix):
    rows = len(matrix)
    return rows * len(matrix[0]) if rows else 0


class Tracer:
    """Spans in memory, aggregated on the fly."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.calls = {}
        self.inclusive = {}
        self.cells = {}
        self.self_s = {}
        self._stack = []  # [span id, name, module, start, child seconds]
        self._depth = {}  # name -> active nesting depth (inclusive time once)
        self._next_id = 0
        self._restore = []
        self.mul_calls = 0
        self.paused = False

    # -- recording -----------------------------------------------------------

    def _enter(self, name, module):
        sid = self._next_id
        self._next_id += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [sid, name, module, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        sid, name, module, start, child = frame
        self._stack.pop()
        dur = end - start
        self.self_s[module] = self.self_s.get(module, 0.0) + dur - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
        parent = -1
        if self._stack:
            self._stack[-1][4] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, end, parent))

    def _wrap(self, func, name, module, cells):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            if cells:
                matrix = args[MATRIX_ARG] if len(args) > MATRIX_ARG else kwargs.get(
                    "columns", kwargs.get("rows")
                )
                tracer.cells[name] = tracer.cells.get(name, 0) + _cells(matrix)
            frame = tracer._enter(name, module)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _count_wrap(self, func):
        tracer = self

        def counted(*args):
            if not tracer.paused:
                tracer.mul_calls += 1
            return func(*args)

        return counted

    @contextmanager
    def pause(self):
        """Calls made inside record nothing (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every listed function; returns self."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "conductor" or name.startswith("conductor.")) and mod is not None
        }
        for module in LAYERS:
            owner = mods["conductor." + module]
            for name, target in _targets(module):
                cells = target in CELL_FUNCTIONS
                if "." in target:
                    cls_name, meth = target.split(".")
                    self._patch_method(getattr(owner, cls_name), meth, name, module, cells)
                elif isinstance(getattr(owner, target), type):
                    self._patch_method(getattr(owner, target), "__init__", name, module, cells)
                else:
                    self._rebind(mods, getattr(owner, target), name, module, cells)
        cyclo_cls = mods["conductor.cyclo"].CycloNumber
        for meth in ("__mul__", "__rmul__"):
            original = cyclo_cls.__dict__[meth]
            setattr(cyclo_cls, meth, self._count_wrap(original))
            self._restore.append((cyclo_cls, meth, original))
        return self

    def _patch_method(self, cls, meth, name, module, cells):
        raw = cls.__dict__[meth]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, name, module, cells))
        else:
            wrapped = self._wrap(raw, name, module, cells)
        setattr(cls, meth, wrapped)
        self._restore.append((cls, meth, raw))

    def _rebind(self, mods, func, name, module, cells):
        wrapped = self._wrap(func, name, module, cells)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, func))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- reporting -------------------------------------------------------------

    def metrics(self, rounds, speed=1.0):
        """Per-layer metrics per round, in the order of ``per_layer_names``;
        times are multiplied by ``speed`` (the run's reference-speed factor)."""
        out = {}
        for name, unit in per_layer_names():
            if name == "cyclo.mul.calls":
                value = self.mul_calls
            elif name.endswith(".self_s"):
                value = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                value = self.calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".cells"):
                value = self.cells.get(name[: -len(".cells")], 0)
            else:
                value = self.inclusive.get(name[: -len(".s")], 0.0)
            if unit == "count":
                if value % rounds:
                    raise ArithmeticError(
                        "%s = %d is not the same in each of %d rounds" % (name, value, rounds)
                    )
                value //= rounds
            else:
                value = value * speed / rounds
            out[name] = {"value": value, "unit": unit}
        return out
