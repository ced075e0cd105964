"""Quick self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Each correctness check accepts the program's result and rejects a
   perturbed copy: one lattice column changed, one Ext divisor dropped, one
   character degree altered, one character class dropped, one stdout byte
   flipped.
2. The traced pass does not change what the program computes: a sample of
   operations from every workload gives identical results with and without
   the tracer, and ``cli.run`` in-process (the traced cli path) prints the
   same bytes as the ``conductor`` subprocess.

Exits 0 when every case holds.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from conductor import catalog, chartab, finite, groups, iwasawa  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES = []


def case(name, fn):
    try:
        fn()
    except Exception as exc:  # report every case, then fail once at the end
        FAILURES.append(name)
        print("FAIL  %s: %s: %s" % (name, type(exc).__name__, exc))
    else:
        print("ok    %s" % name)


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckError:
        return
    raise AssertionError("the perturbed result was accepted")


# -- 1. perturbations ----------------------------------------------------------


def lattice_column_changed():
    g = catalog.symmetric_3()
    formula = finite.formula_conductor_lattice(g, 3)
    brute = finite.brute_force_conductor(g, 3, reps=catalog.splitting_reps("S3"))
    checks.check_same_lattice(formula, brute, "S3")
    bad = copy.deepcopy(brute)
    bad.cols[0][-1] = (bad.cols[0][-1] + 1) % 3**bad.precision
    rejects(checks.check_same_lattice, formula, bad, "S3")


def ext_divisor_dropped():
    g = groups.cyclic_group(3)
    t = finite.trivial_module(g)
    comp = finite.ExtComputation(t, t.mod_p_power(1), 3)
    rank = checks.p_rank_of_abelianization(g.mult, g.order, 3)
    checks.check_trivial_ext(comp.divisors, rank, "C3")
    rejects(checks.check_trivial_ext, comp.divisors[:-1], rank, "C3")


def degree_altered():
    sd = catalog.sd_c7()
    g = groups.finite_quotient(sd, 2)
    big, small = chartab.character_table(g), chartab.character_table(sd.h)
    orbits = [(o.members, o.eta_degree) for o in chartab.alpha_orbits(small, sd.alpha)]
    restr = [chartab.restrict_and_decompose(big, r, small) for r in range(big.n_classes)]
    degrees = list(big.degrees)
    checks.check_quotient_table(degrees, restr, orbits, g.order, 3, 2, "C7 level 2")
    bad = list(degrees)
    bad[-1] += 1
    rejects(checks.check_quotient_table, bad, restr, orbits, g.order, 3, 2, "C7 level 2")


def class_dropped():
    sd = catalog.sd_c7()
    classes = iwasawa.central_conductor(sd).classes
    for m in (1, 2):
        g = groups.finite_quotient(sd, m)
        count = checks.conjugacy_class_count(g.mult, g.order, g.generators)
        checks.check_class_count(classes, count, 3, m, "C7 level %d" % m)
        rejects(checks.check_class_count, classes[1:], count, 3, m, "C7 level %d" % m)


def stdout_byte_flipped():
    wl = workloads.cli_inputs(seed=5, root=ROOT)
    op = next(op for op in wl.ops if op.name.startswith("cli chartab"))
    text = op.run(workloads.direct)
    op.check(text)
    flipped = text[:10] + chr(ord(text[10]) ^ 1) + text[11:]
    rejects(op.check, flipped)
    # a byte that keeps the JSON canonical is still caught as a repeat mismatch
    digit = next(i for i, c in enumerate(text) if c.isdigit() and c != "9")
    changed = text[:digit] + chr(ord(text[digit]) + 1) + text[digit + 1:]
    rejects(op.check, changed)


# -- 2. traced and untraced runs compute the same ----------------------------------


def fingerprint(value):
    """Plain data for the program's results, comparable with ==."""
    if isinstance(value, (list, tuple)):
        return [fingerprint(v) for v in value]
    if isinstance(value, dict):
        return {k: fingerprint(v) for k, v in value.items()}
    if hasattr(value, "generators") and hasattr(value, "order"):
        return (value.name, value.order)  # a group object: compared by identity otherwise
    if hasattr(value, "pivot_vals"):
        return checks.lattice_key(value)
    if hasattr(value, "divisors"):
        return value.divisors
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


def sample_ops():
    ops = [op for op in workloads.finite_oracle(7).ops if op.name.split()[0] in ("S3", "D4", "A4")]
    ops += [op for op in workloads.iwasawa_levels(7).ops
            if op.name.startswith("C7:|Z3") and "level 3" not in op.name]
    ops += [op for op in workloads.ext_annihilation(7).ops
            if op.name.startswith("C3") or "sharpness" in op.name]
    # the C3 pair operations need the C3 conductor operation first
    ops.sort(key=lambda op: not op.name.endswith("conductor and modules"))
    return ops


def run_sample(ops):
    out = []
    for op in ops:
        result = op.run(workloads.direct)
        op.check(result)
        out.append((op.name, fingerprint(result)))
    return out


def traced_results_identical():
    ops = sample_ops()
    plain = run_sample(ops)
    tracer = Tracer().install()
    try:
        traced = run_sample(ops)
    finally:
        tracer.uninstall()
    assert sum(tracer.calls.values()) > 0, "the tracer saw no calls"
    for (name, a), (_, b) in zip(plain, traced):
        assert a == b, "%s differs under tracing" % name
    assert len(plain) == len(traced) > 0


def traced_cli_identical():
    plain = workloads.cli_inputs(seed=5, root=ROOT)
    traced = workloads.cli_inputs(seed=5, root=ROOT, in_process=True)
    picked = ("cli chartab", "cli iwasawa C7 level", "cli fitting C3xC3", "cli finite F20")
    tracer = Tracer().install()
    try:
        for a, b in zip(plain.ops, traced.ops):
            assert a.name == b.name
            if a.name.startswith(picked):
                assert a.run(workloads.direct) == b.run(workloads.direct), (
                    "%s: traced stdout differs" % a.name)
    finally:
        tracer.uninstall()
    assert tracer.calls.get("cli.run", 0) >= len(picked), "cli.run was not traced"


def main():
    case("lattice column changed is rejected", lattice_column_changed)
    case("Ext divisor dropped is rejected", ext_divisor_dropped)
    case("character degree altered is rejected", degree_altered)
    case("character class dropped is rejected", class_dropped)
    case("stdout byte flipped is rejected", stdout_byte_flipped)
    case("traced and untraced library results are identical", traced_results_identical)
    case("traced in-process cli prints the subprocess's bytes", traced_cli_identical)
    if FAILURES:
        print("%d case(s) failed" % len(FAILURES))
        return 1
    print("all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
