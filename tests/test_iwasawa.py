"""Central conductor of o[[H x| Gamma]]: worked cases, trace-form
identities of o[G_m] over R_m, idempotents, and the degeneration to the
finite formula."""

from fractions import Fraction

import pytest

from conductor import chartab, iwasawa
from conductor.catalog import (
    sd_c3_trivial,
    sd_c7,
    sd_c9,
    sd_s3_inner,
    sd_s3_trivial,
    semidirect_catalog,
)
from conductor.chartab import (
    alpha_orbits,
    character_table,
    galois_exponents,
    galois_orbits,
    galois_permutations,
    row_permutations,
)
from conductor.cyclo import CycloNumber
from conductor.errors import InputError, InvalidQuotientError
from conductor.groups import ClassData, SemidirectData, conjugacy_classes, finite_quotient
from conductor.iwasawa import (
    central_conductor,
    character_classes,
    degeneration_matches_finite,
    dual_basis_check,
    extension_dual_basis_check,
    fibre_product_table,
    idempotent_suite,
    quotient_degree_check,
    scalar_conductor_exponent,
    splitting_field_bound,
    trace_closed_form,
    trace_lemma_check,
    trace_structure_constants,
)
from conductor.localfields import AbelianLocalField
from conductor.verify import run_suite


def test_c7_worked_case():
    cls = character_classes(sd_c7())
    assert len(cls) == 2
    by_w = {c.w: c for c in cls}
    big = by_w[3]
    assert [tuple(o) for o in big.orbits] == [(0, 1, 3), (2, 5, 4)]
    assert (big.eta_degree, big.chi_degree) == (1, 3)
    assert (big.field.ramification_index, big.field.residue_degree) == (1, 2)
    assert big.multiplier == Fraction(7) and big.multiplier_vp == 0
    assert big.invdiff_v == 0 and big.total_valuation() == 0
    assert big.embedding_exponent == 1
    small = by_w[1]
    assert [tuple(o) for o in small.orbits] == [(6,)]
    assert small.field.equals(AbelianLocalField.qp(3))
    assert small.total_valuation() == 0
    assert small.embedding_exponent == 3


def test_c3_worked_case():
    cls = character_classes(sd_c3_trivial())
    assert len(cls) == 2
    data = sorted(
        (c.w, c.field.ramification_index, c.field.residue_degree, c.total_valuation())
        for c in cls
    )
    assert data == [(1, 1, 1, 1), (1, 2, 1, 1)]
    merged = next(c for c in cls if c.field.ramification_index == 2)
    # the two nontrivial characters fall into one class over Q_3
    assert sorted(o[0] for o in merged.orbits) == [0, 1]
    assert merged.invdiff_v == -1 and merged.multiplier_vp == 1


def test_scalar_conductor_exponents():
    q3 = AbelianLocalField.qp(3)
    assert scalar_conductor_exponent(character_classes(sd_c7()), q3) == 0
    assert scalar_conductor_exponent(character_classes(sd_c3_trivial()), q3) == 1


def test_degeneration_to_finite_formula():
    assert degeneration_matches_finite(sd_s3_trivial())
    assert degeneration_matches_finite(sd_c3_trivial())
    with pytest.raises(InputError):
        degeneration_matches_finite(sd_c7())  # n = 1 is not a degeneration


def test_splitting_field_bound_c7():
    e = splitting_field_bound(sd_c7())
    assert (e.ramification_index, e.residue_degree) == (1, 6)


def test_splitting_field_bound_c3():
    e = splitting_field_bound(sd_c3_trivial())
    assert (e.ramification_index, e.residue_degree) == (2, 1)


def test_trace_is_scaled_delta():
    sd = sd_c7()
    for level in (1, 2):
        assert trace_lemma_check(sd, level)
        assert dual_basis_check(sd, level)


def test_structure_trace_agrees_across_the_u_carry():
    # gamma^(p^n - 1) h times gamma k leaves the transversal: at level n + 2
    # the product has u-exponent 1, so only a carried trace reads it right
    sd = sd_s3_inner()
    level = sd.n + 2
    g = finite_quotient(sd, level)
    hn = sd.h.order
    rank = sd.p**sd.n * hn
    top = (sd.p**sd.n - 1) * hn
    carried = g.mult(top, hn)
    assert divmod(carried, rank) == (1, 0)
    want = [0, rank] + [0] * (sd.p**2 - 2)
    assert trace_closed_form(g, rank, carried) == want
    assert trace_structure_constants(g, rank, carried) == want
    for x, y in ((top + 2, hn + 4), (hn + 2, 2 * hn + 4)):
        prod = g.mult(x, y)
        assert trace_structure_constants(g, rank, prod) == trace_closed_form(g, rank, prod)


def test_truncation_below_action_exponent_rejected():
    sd = sd_c7()
    for check in (trace_lemma_check, dual_basis_check):
        with pytest.raises(InvalidQuotientError, match="below the action exponent n=1"):
            check(sd, sd.n - 1)
    with pytest.raises(InvalidQuotientError):
        extension_dual_basis_check(AbelianLocalField.qp(3), 1, 0)


def test_trace_lemma_reads_the_multiplication_of_g_m(monkeypatch):
    sd = sd_s3_inner()
    assert trace_lemma_check(sd, 2)
    exact = iwasawa.finite_quotient

    def swapped(sd, level):
        # the identity times 0 and times 1 trade places in row 0
        g = exact(sd, level)
        row = g.table[0]
        row[0], row[1] = row[1], row[0]
        return g

    monkeypatch.setattr(iwasawa, "finite_quotient", swapped)
    assert not trace_lemma_check(sd, 2)


def test_extension_dual_bases():
    fields = (
        AbelianLocalField.qp(3),
        AbelianLocalField.cyclotomic(3, 1),
        AbelianLocalField.unramified(3, 2),
    )
    for k in fields:
        for n in (0, 1):
            assert extension_dual_basis_check(k, n, n + 1)


def test_different_suite_rejects_a_wrong_gram_matrix(monkeypatch):
    # the trace form divided by p is still invertible; the inverse-different
    # certificate, the field part of each check, tells it from the true one
    class WrongGram(iwasawa.GlobalFieldModel):
        def __init__(self, field):
            super().__init__(field)
            self.gram = [[x / field.p for x in row] for row in self.gram]

    monkeypatch.setattr(iwasawa, "GlobalFieldModel", WrongGram)
    ok, checks = run_suite("different")
    assert checks and not ok
    assert not any(c.ok for c in checks)


def test_idempotent_suite_all_relations():
    for sd in (sd_c7(), sd_c9()):
        results = idempotent_suite(sd, level=sd.n + 1)
        assert all(results.values()), results


# -- the CycloNumber route, the reference for the integer idempotent suite --


def _h_convolve(h, a, b):
    out = [CycloNumber.rational(0)] * h.order
    for x in range(h.order):
        if any(a[x].coeffs):
            for y in range(h.order):
                if any(b[y].coeffs):
                    z = h.mult(x, y)
                    out[z] = out[z] + a[x] * b[y]
    return out


def _idempotent(table, rows):
    """Sum over rows of e_eta = (eta(1)/|H|) sum_h eta(h^-1) h."""
    h = table.group
    return [
        sum(
            (table.value(r, h.inv(x)) * Fraction(table.degrees[r], h.order) for r in rows),
            CycloNumber.rational(0),
        )
        for x in range(h.order)
    ]


def _central(g, coeffs):
    coeffs = list(coeffs) + [CycloNumber.rational(0)] * (g.order - len(coeffs))
    for gen in g.generators:
        moved = [CycloNumber.rational(0)] * g.order
        for x in range(g.order):
            z = g.conj(gen, x)
            moved[z] = moved[z] + coeffs[x]
        if moved != coeffs:
            return False
    return True


def _reference_suite(sd, level, table=None, classes=None):
    """idempotent_suite in CycloNumber arithmetic, unscaled."""
    h = sd.h
    table = table or character_table(h)
    classes = classes or character_classes(sd)
    ks = galois_exponents(table, AbelianLocalField.qp(sd.p))
    g = finite_quotient(sd, level)
    zero = [CycloNumber.rational(0)] * h.order
    keys = ("eta_idempotent", "chi_idempotent", "chi_central", "class_base_stable")
    ok = dict.fromkeys(keys, True)
    chis, total = [], zero
    for klass in classes:
        for orbit in klass.orbits:
            e_eta, e_chi = _idempotent(table, orbit[:1]), _idempotent(table, orbit)
            ok["eta_idempotent"] &= _h_convolve(h, e_eta, e_eta) == e_eta
            ok["chi_idempotent"] &= _h_convolve(h, e_chi, e_chi) == e_chi
            ok["chi_central"] &= _central(g, e_chi)
            chis.append(e_chi)
        eps = _idempotent(table, [r for orbit in klass.orbits for r in orbit])
        ok["class_base_stable"] &= all(c.galois(k) == c for k in ks for c in eps)
        total = [a + b for a, b in zip(total, eps)]
    ok["orbit_orthogonal"] = all(
        _h_convolve(h, chis[i], chis[j]) == zero
        for i in range(len(chis))
        for j in range(i + 1, len(chis))
    )
    ok["partition_of_unity"] = total == [CycloNumber.rational(int(x == 0)) for x in range(h.order)]
    return ok


def test_idempotent_suite_matches_cyclo_reference():
    for sd in semidirect_catalog():
        for level in (sd.n, sd.n + 1):
            assert idempotent_suite(sd, level=level) == _reference_suite(sd, level)


def _orbit_of(start, perms):
    seen, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        for perm in perms:
            if perm[x] not in seen:
                seen.add(perm[x])
                frontier.append(perm[x])
    return seen


def _assert_orbit_partition(parts, n, perms):
    """parts partition 0..n-1 and each is the orbit of its first point."""
    assert sorted(r for part in parts for r in part) == list(range(n))
    for part in parts:
        assert _orbit_of(part[0], perms) == set(part)


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_galois_orbits_and_character_classes_are_orbit_partitions(sd):
    table = character_table(sd.h)
    cls = table.classes
    (alpha_perm,) = row_permutations(
        table, [[cls.class_of[sd.alpha(z)] for z in cls.representatives()]]
    )
    for base in (None, AbelianLocalField.qp(sd.p)):
        galois = galois_permutations(table, base)
        _assert_orbit_partition(galois_orbits(table, base), table.n_classes, galois)
    classes = character_classes(sd)  # over Q_p, the last base above
    parts = [[r for orbit in klass.orbits for r in orbit] for klass in classes]
    _assert_orbit_partition(parts, table.n_classes, galois + [alpha_perm])
    # each class is a union of whole alpha-orbits
    whole = {orb.members for orb in alpha_orbits(table, sd.alpha)}
    assert all(tuple(o) in whole for klass in classes for o in klass.orbits)


def test_quotient_degrees_small():
    assert quotient_degree_check(sd_c7(), 1)
    assert quotient_degree_check(sd_c3_trivial(), 1)


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_quotient_degrees_need_a_complete_table(sd, monkeypatch):
    # the table of G_n with one character dropped, each in turn: checked
    # itself at m = n, and through the table of G_m built from it at n + 1
    g_table = character_table(finite_quotient(sd, sd.n))
    for m in (sd.n, sd.n + 1):
        assert quotient_degree_check(sd, m)
        for drop in (0, g_table.n_classes - 1):
            short = g_table._replace(
                coords=g_table.coords[:drop] + g_table.coords[drop + 1 :],
                degrees=g_table.degrees[:drop] + g_table.degrees[drop + 1 :],
            )
            monkeypatch.setattr(
                iwasawa,
                "character_table",
                lambda g: character_table(g) if g is sd.h else short,
            )
            assert not quotient_degree_check(sd, m)
            monkeypatch.undo()


# every catalog G_m at levels n + 1 and n + 2 of order at most 250
FIBRE_CASES = [
    (sd, m)
    for sd in semidirect_catalog()
    for m in (sd.n + 1, sd.n + 2)
    if sd.h.order * sd.p**m <= 250
]
FIBRE_IDS = ["%s n=%d m=%d" % (sd.name(), sd.n, m) for sd, m in FIBRE_CASES]


@pytest.mark.parametrize("sd,m", FIBRE_CASES, ids=FIBRE_IDS)
def test_fibre_product_table_equals_dixon_schneider(sd, m):
    fibre = fibre_product_table(sd, m)
    table = character_table(finite_quotient(sd, m))
    assert fibre.group.order == table.group.order
    assert fibre.classes == table.classes
    assert fibre.coords == table.coords
    assert fibre.degrees == table.degrees
    assert fibre.power_maps == table.power_maps
    assert (fibre.exponent, fibre.split_prime) == (table.exponent, table.split_prime)
    # k(G_m) = p^(m-n) k(G_n)
    base = character_table(finite_quotient(sd, sd.n))
    assert fibre.n_classes == sd.p ** (m - sd.n) * base.n_classes


@pytest.mark.parametrize("sd,m", FIBRE_CASES, ids=FIBRE_IDS)
def test_level_checks_split_class_matrices_only_up_to_g_n(sd, m, monkeypatch):
    # Dixon-Schneider runs on H and G_n, never on G_m, and on G_n once for
    # the levels n+1 and n+2 together; a fresh sd, since the catalog's are
    # shared across tests and may hold a G_n already tabled
    sd = SemidirectData(sd.h, sd.alpha, sd.p)
    split_on = []
    split = chartab._split
    monkeypatch.setattr(
        chartab, "_split", lambda g, *rest: split_on.append(g) or split(g, *rest)
    )
    assert quotient_degree_check(sd, m)
    assert quotient_degree_check(sd, sd.n + 1) and quotient_degree_check(sd, sd.n + 2)
    g_n = finite_quotient(sd, sd.n)
    assert sum(g is g_n for g in split_on) == 1
    assert all(g is g_n or g is sd.h for g in split_on)


def _merge_first_classes(g):
    cls = conjugacy_classes(g)
    classes = [cls.classes[0], sorted(cls.classes[1] + cls.classes[2])] + cls.classes[3:]
    return ClassData(classes, [t - (t > 1) for t in cls.class_of])


def _drop_last_class(g):
    cls = conjugacy_classes(g)
    return ClassData(cls.classes[:-1], cls.class_of)


@pytest.mark.parametrize(
    "corrupt,message",
    [(_merge_first_classes, "meets two classes"), (_drop_last_class, "not the pairs")],
)
def test_fibre_product_certifies_the_class_map(corrupt, message, monkeypatch):
    monkeypatch.setattr(iwasawa, "conjugacy_classes", corrupt)
    with pytest.raises(ArithmeticError, match=message):
        fibre_product_table(sd_c7(), 2)


def test_quotient_degrees_build_no_cyclo_values(monkeypatch):
    # the degree check reads only the stored integer coordinates
    def refuse(self):
        raise AssertionError("a CycloNumber value was built")

    monkeypatch.setattr(CycloNumber, "minimal_conductor", refuse)
    for sd in semidirect_catalog():
        for m in (sd.n, sd.n + 1):
            assert quotient_degree_check(sd, m), (sd.name(), m)


def test_full_description_round_trips_to_json():
    import json

    desc = central_conductor(sd_c7())
    text = json.dumps(desc.to_json())
    again = json.loads(text)
    assert again == desc.to_json()
    assert again["r_cap_exponent"] == 0
    assert again["splitting_field"] == {"e": 1, "f": 6, "d_abs": 0}
    assert len(again["components"]) == 2


def _perturbed_suite(monkeypatch, sd, table):
    """idempotent_suite on a doctored table of H, with the genuine classes,
    checked against the reference on the same table."""
    classes = character_classes(sd)
    monkeypatch.setattr(iwasawa, "character_table", lambda g: table)
    monkeypatch.setattr(iwasawa, "character_classes", lambda sd, base: classes)
    results = idempotent_suite(sd, level=sd.n + 1)
    assert results == _reference_suite(sd, sd.n + 1, table=table, classes=classes)
    return results


def test_idempotent_suite_rejects_a_wrong_degree(monkeypatch):
    sd = sd_s3_inner()
    table = character_table(sd.h)
    row = table.degrees.index(2)
    degrees = list(table.degrees)
    degrees[row] = 1
    bad = table._replace(degrees=degrees)
    results = _perturbed_suite(monkeypatch, sd, bad)
    assert not results["eta_idempotent"]
    assert not results["chi_idempotent"]
    assert not results["partition_of_unity"]


def test_idempotent_suite_rejects_a_wrong_value(monkeypatch):
    sd = sd_c7()
    table = character_table(sd.h)
    coords = [list(row) for row in table.coords]
    cell = dict(coords[1][1])
    cell[0] = cell.get(0, 0) + 1
    coords[1][1] = cell
    bad = table._replace(coords=coords)
    results = _perturbed_suite(monkeypatch, sd, bad)
    assert not all(results.values()), results


def test_dual_basis_rejects_a_scale_off_by_one(monkeypatch):
    sd = sd_s3_inner()
    assert dual_basis_check(sd, 2)
    exact = iwasawa.trace_closed_form

    def off_by_one(g, rank, x):
        return [t + t // rank for t in exact(g, rank, x)]

    monkeypatch.setattr(iwasawa, "trace_closed_form", off_by_one)
    assert not dual_basis_check(sd, 2)
