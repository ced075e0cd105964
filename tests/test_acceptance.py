"""Acceptance gate: one test per shipped claim, each ending in a single
PASS/FAIL line.  Runtime bounds are asserted where the claim has one
(the formula-vs-oracle sweep, the trace and idempotent certificates, the
restriction degrees, the Ext^1 sweep and the character-table sweep);
everything else is exact with no tolerance.
"""

import time

from conductor.catalog import sd_c3_trivial, sd_c7, sd_s3_trivial
from conductor.iwasawa import character_classes, degeneration_matches_finite
from conductor.verify import run_suite


def _report(num, name, ok, extra=""):
    line = "criterion %02d %-38s %s" % (num, name, "PASS" if ok else "FAIL")
    if extra:
        line += "  (%s)" % extra
    print(line)
    assert ok, line


def _suite(name):
    t0 = time.time()
    ok, checks = run_suite(name)
    dt = time.time() - t0
    bad = "; ".join(c.name for c in checks if not c.ok)
    return ok, checks, dt, bad


def test_criterion_01_formula_equals_oracle():
    ok, checks, dt, bad = _suite("conductor")
    ok = ok and dt < 60
    _report(1, "formula == brute-force conductor", ok, "%d lattices, %.1fs" % (len(checks), dt) + (("; " + bad) if bad else ""))


def test_criterion_02_maximal_order_independence():
    ok, checks, dt, bad = _suite("twists")
    _report(2, "conductor survives unit twists", ok, "%d twisted runs" % len(checks) + (("; " + bad) if bad else ""))


def test_criterion_03_iwasawa_worked_cases():
    ok, checks, dt, bad = _suite("iwasawa")
    # re-state the component data so the claim is visible here
    c7 = sorted(
        (c.w, c.field.ramification_index, c.field.residue_degree, c.total_valuation())
        for c in character_classes(sd_c7())
    )
    c3 = sorted(
        (c.w, c.field.ramification_index, c.field.residue_degree, c.total_valuation())
        for c in character_classes(sd_c3_trivial())
    )
    ok = (
        ok
        and c7 == [(1, 1, 1, 0), (3, 1, 2, 0)]
        and c3 == [(1, 1, 1, 1), (1, 2, 1, 1)]
        and degeneration_matches_finite(sd_s3_trivial())
    )
    _report(3, "completed-algebra worked cases", ok, bad)


def test_criterion_04_trace_lemma():
    ok, checks, dt, bad = _suite("trace")
    ok = ok and dt < 15
    _report(4, "regular trace and dual bases", ok, "%d level checks, %.1fs" % (len(checks), dt) + (("; " + bad) if bad else ""))


def test_criterion_05_scalar_extension_duals():
    ok, checks, dt, bad = _suite("different")
    _report(5, "scalar-extension dual bases", ok, bad)


def test_criterion_06_restriction_degrees():
    ok, checks, dt, bad = _suite("degrees")
    ok = ok and dt < 30
    _report(6, "multiplicity-free restriction, chi(1) = w eta(1)", ok, "%d quotients, %.0fs" % (len(checks), dt) + (("; " + bad) if bad else ""))


def test_criterion_07_idempotent_relations():
    ok, checks, dt, bad = _suite("idempotents")
    ok = ok and dt < 10
    _report(7, "idempotent relations, exact", ok, "%d entries, %.1fs" % (len(checks), dt) + (("; " + bad) if bad else ""))


def test_criterion_08_multiplier_integrality():
    ok, checks, dt, bad = _suite("integrality")
    _report(8, "v_p(|H| w / chi(1)) >= 0", ok, "%d checks" % len(checks) + (("; " + bad) if bad else ""))


def test_criterion_09_ext_annihilation():
    ok, checks, dt, bad = _suite("ext")
    ok = ok and dt < 20
    _report(9, "conductor kills Ext^1, and sharply", ok, "%d module pairs, %.1fs" % (len(checks) - 1, dt) + (("; " + bad) if bad else ""))


def test_criterion_10_fitting_annihilation():
    ok, checks, dt, bad = _suite("fitting")
    _report(10, "conductor x Fitting kills cokernels", ok, "%d presentations" % len(checks) + (("; " + bad) if bad else ""))


def test_criterion_11_character_table_invariants():
    ok, checks, dt, bad = _suite("tables")
    ok = ok and dt < 30
    _report(11, "orthogonality on the order <= 200 list", ok, "%d tables, %.1fs" % (len(checks), dt) + (("; " + bad) if bad else ""))


def test_criterion_12_different_exponents():
    ok, checks, dt, bad = _suite("exponents")
    _report(12, "cyclotomic different exponents", ok, bad)
