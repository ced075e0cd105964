"""Central conductor of o[[H x| Gamma]]: worked cases, trace-form
identities of o[G_m] over R_m, idempotents, and the degeneration to the
finite formula."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conductor import chartab, iwasawa
from conductor.catalog import (
    c3_x_c3,
    sd_c3_trivial,
    sd_c7,
    sd_c9,
    sd_s3_inner,
    sd_s3_trivial,
    semidirect_catalog,
    symmetric_3,
)
from conductor.chartab import (
    alpha_orbits,
    character_table,
    galois_exponents,
    galois_orbits,
    galois_permutations,
    row_permutations,
)
from conductor.cyclo import CycloNumber, normalized, product_sum
from conductor.errors import InputError, InvalidQuotientError
from conductor.groups import (
    ClassData,
    FiniteGroup,
    GroupAutomorphism,
    SemidirectData,
    conjugacy_classes,
    cyclic_automorphism,
    cyclic_group,
    finite_quotient,
)
from conductor.iwasawa import (
    central_conductor,
    character_classes,
    degeneration_matches_finite,
    dual_basis_check,
    extension_dual_basis_check,
    idempotent_suite,
    quotient_degree_check,
    scalar_conductor_exponent,
    splitting_field_bound,
    trace_closed_form,
    trace_lemma_check,
)
from conductor.localfields import AbelianLocalField
from conductor.verify import run_suite
from fibre_product import fibre_product_table
from group_orders import exponent
from table_values import element_values


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


def test_splitting_field_bound_of_a_trivial_h_is_the_base():
    # exp(H) = 1: every Galois exponent fixes the values, so E is the base
    # itself, not Q_3(zeta_5) of degree 4 around the unramified quadratic one
    c1 = cyclic_group(1)
    base = AbelianLocalField.unramified(3, 2)
    e = splitting_field_bound(SemidirectData(c1, GroupAutomorphism.identity(c1), 3), base)
    assert e.equals(base) and e.degree == base.degree == 2


def test_trace_is_scaled_delta():
    sd = sd_c7()
    for level in (1, 2):
        assert trace_lemma_check(sd, level)
        assert dual_basis_check(sd, level)


def trace_structure_constants(g, rank, x) -> list:
    """The R_m-trace of right multiplication by x from the structure
    constants of G_m, one product at a time: the sum of the diagonal
    R_m-entries over the basis, where c x = u^s c contributes u^s."""
    out = [0] * (g.order // rank)
    for c in range(rank):
        s, b = divmod(g.mult(c, x), rank)
        if b == c:
            out[s] += 1
    return out


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
    # the identity times 0 and times 1 trade places in row 0
    g = _reading(finite_quotient(sd, 2), 0, 0, 1)
    monkeypatch.setattr(iwasawa, "finite_quotient", lambda sd, level: g)
    assert not trace_lemma_check(sd, 2)


def _reading(g, b=None, y1=None, y2=None):
    """A copy of G_m that reads G_m's rows, with the entries at columns y1
    and y2 of row b swapped, whichever columns of a row are read.  Its
    inverses are G_m's: the cycle walk of ``inv`` need not end on a
    corrupted law."""

    def row(a, start=0, stop=None):
        out = list(g.row(a))
        if a == b:
            out[y1], out[y2] = out[y2], out[y1]
        return out[start:stop]

    copy = FiniteGroup(g.order, lambda a, c: row(a)[c], g.generators, name=g.name, row_func=row)
    copy._inv = [g.inv(x) for x in range(g.order)]
    return copy


def _level_verdicts(monkeypatch, sd, level, *swap):
    g = _reading(finite_quotient(sd, level), *swap)
    monkeypatch.setattr(iwasawa, "finite_quotient", lambda sd, level: g)
    verdicts = trace_lemma_check(sd, level), dual_basis_check(sd, level)
    monkeypatch.undo()
    return verdicts


def _catalog_levels():
    # every level the verify suites check, the benchmark's heaviest,
    # C19:|Z3 at level 3 (order 513), among them
    return [(sd, m) for sd in semidirect_catalog() for m in range(sd.n, sd.n + 3)]


@pytest.mark.parametrize(
    "sd, m", _catalog_levels(), ids=lambda x: x.name() if isinstance(x, SemidirectData) else str(x)
)
def test_level_checks_read_g_m_multiplication(sd, m, monkeypatch):
    g = finite_quotient(sd, m)
    assert _level_verdicts(monkeypatch, sd, m) == (True, True)
    # in a basis row b, swap the entry b b^-1 = 1 with another: the diagonal
    # pairing moves off p^n|H|; swap the entry b 1 = b with another: the
    # trace of the identity loses a term
    rank = sd.p**sd.n * sd.h.order
    rng = random.Random(m * 1000 + g.order)
    swaps = []
    for column, failing in ((g.inv, 1), (lambda b: 0, 0)):
        b = rng.randrange(rank)
        y1 = column(b)
        swaps.append((b, y1, rng.choice([y for y in range(g.order) if y != y1]), failing))
    # swap the entry b b2^-1, b2 != b, with one in <u> other than 1: only an
    # off-diagonal pairing moves off zero
    if m > sd.n:
        b, b2 = rng.sample(range(rank), 2)
        row = g.row(b)
        y2 = next(y for y in range(g.order) if row[y] % rank == 0 and row[y])
        swaps.append((b, g.inv(b2), y2, 1))
    for b, y1, y2, failing in swaps:
        assert not _level_verdicts(monkeypatch, sd, m, b, y1, y2)[failing], (b, y1, y2)


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
    values = element_values(table)
    return [
        sum(
            (values[r][h.inv(x)] * Fraction(table.degrees[r], h.order) for r in rows),
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
    # the reference on a fresh copy of each entry, which shares no kept data
    for sd, fresh in zip(semidirect_catalog(), semidirect_catalog()):
        for level in (sd.n, sd.n + 1):
            assert idempotent_suite(sd, level=level) == _reference_suite(fresh, level)


# -- the packed product against the term-by-term route ----------------------


def _sparse_product(h, a, b, e_norm):
    """The coefficients of a * b in Z[zeta_E][H], one product_sum each."""
    return [
        product_sum(e_norm, ((1, a[x], b[h.mult(h.inv(x), z)]) for x in range(h.order)))
        for z in range(h.order)
    ]


_PRODUCT_GROUPS = {"C1": cyclic_group(1), "C3xC3": c3_x_c3(), "S3": symmetric_3()}


def _element(h, e_norm, coeff):
    # indices past phi(E) too: the fold reduces them
    return st.lists(
        st.dictionaries(st.integers(0, 2 * e_norm), coeff, max_size=4),
        min_size=h.order, max_size=h.order,
    )


@st.composite
def _product_inputs(draw):
    name = draw(st.sampled_from(sorted(_PRODUCT_GROUPS)))
    h = _PRODUCT_GROUPS[name]
    e_norm = normalized(character_table(h).exponent)
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))
    a = draw(_element(h, e_norm, coeff))
    b = a if draw(st.booleans()) else draw(_element(h, e_norm, coeff))
    return h, a, b, e_norm


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_product_inputs())
def test_packed_product_matches_the_term_route(inputs):
    h, a, b, e_norm = inputs
    assert iwasawa._product(h, a, b, e_norm) == _sparse_product(h, a, b, e_norm)


@pytest.mark.parametrize("name", sorted(_PRODUCT_GROUPS))
def test_packed_product_at_the_slot_bound(name):
    # in the first two cases every term lands on coordinate 0 with one sign,
    # so a summed coefficient equals the bound sum |a| * max |b| of the slot
    # width; then mixed coordinates, powers of 2 and the zero element
    h = _PRODUCT_GROUPS[name]
    e_norm = normalized(character_table(h).exponent)
    cases = [
        ([{0: 7}] * h.order, [{0: 9}] * h.order),
        ([{0: -(2**40)}] + [{}] * (h.order - 1), [{0: 2**40 - 1}] * h.order),
        ([{1: 5, 0: 3}] + [{}] * (h.order - 1), [{0: -1}] + [{}] * (h.order - 1)),
        ([{0: 1}] * h.order, [{0: 2**k} for k in range(h.order)]),
        ([{}] * h.order, [{0: 3}] * h.order),
        ([{0: 3}] * h.order, [{}] * h.order),
    ]
    for a, b in cases:
        assert iwasawa._product(h, a, b, e_norm) == _sparse_product(h, a, b, e_norm)


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


def test_level_checks_read_only_the_cosets_they_pair(monkeypatch):
    # the trace check reads the first p^n cosets of a basis row, the dual
    # check coset 0 and the last p^n - 1, where the basis inverses lie
    sd = sd_s3_inner()
    level = sd.n + 2
    g = finite_quotient(sd, level)
    hn, rank = sd.h.order, sd.p**sd.n * sd.h.order
    reads = []
    copy = FiniteGroup(g.order, g.mult, g.generators, row_func=lambda a, start, stop: (
        reads.append((a, start, stop)) or g.row(a, start, stop)))
    copy._inv = [g.inv(x) for x in range(g.order)]
    monkeypatch.setattr(iwasawa, "finite_quotient", lambda sd, level: copy)
    assert trace_lemma_check(sd, level)
    assert reads == [(c, 0, rank) for c in range(rank)]
    reads.clear()
    assert dual_basis_check(sd, level)
    tail = g.order - rank + hn
    assert reads == [r for b in range(rank) for r in ((b, 0, hn), (b, tail, g.order))]


def test_dual_basis_refuses_an_inverse_outside_the_cosets_it_reads(monkeypatch):
    # a basis inverse in a middle coset would be read off the wrong column
    sd = sd_s3_inner()
    g = _reading(finite_quotient(sd, sd.n + 2))
    g._inv[1] = sd.h.order  # gamma, in coset 1 of 27
    monkeypatch.setattr(iwasawa, "finite_quotient", lambda sd, level: g)
    with pytest.raises(ArithmeticError, match="outside the cosets read"):
        dual_basis_check(sd, sd.n + 2)


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
def test_degree_check_certifies_the_class_map(corrupt, message, monkeypatch):
    monkeypatch.setattr(iwasawa, "conjugacy_classes", corrupt)
    with pytest.raises(ArithmeticError, match=message):
        quotient_degree_check(sd_c7(), 2)


def _degree_check_by_fibre_product(sd, m, base=None):
    """``quotient_degree_check`` run on the whole table of G_m, built as a
    fibre product from ``base`` (by default the table of G_n)."""
    big = fibre_product_table(sd, m, base)
    if len(big.coords) != big.n_classes or sum(d * d for d in big.degrees) != big.group.order:
        return False
    small = character_table(sd.h)
    orbits = alpha_orbits(small, sd.alpha)
    orbit_of_row = {r: oi for oi, orb in enumerate(orbits) for r in orb.members}
    for row in range(big.n_classes):
        parts = chartab.restrict_and_decompose(big, row, small)
        hit = {orbit_of_row[r] for r, _ in parts}
        if any(mult != 1 for _, mult in parts) or len(hit) != 1:
            return False
        orb = orbits[hit.pop()]
        if {r for r, _ in parts} != set(orb.members) or big.degrees[row] != orb.w * orb.eta_degree:
            return False
    return True


@pytest.mark.parametrize(
    "sd, m", _catalog_levels(), ids=lambda x: x.name() if isinstance(x, SemidirectData) else str(x)
)
def test_degree_check_agrees_with_the_fibre_product_table(sd, m, monkeypatch):
    # G_n's rows against the whole table of G_m, and with one character of
    # G_n dropped, each in turn
    assert quotient_degree_check(sd, m) is _degree_check_by_fibre_product(sd, m) is True
    g_table = character_table(finite_quotient(sd, sd.n))
    for drop in (0, g_table.n_classes - 1):
        short = g_table._replace(
            coords=g_table.coords[:drop] + g_table.coords[drop + 1 :],
            degrees=g_table.degrees[:drop] + g_table.degrees[drop + 1 :],
        )
        monkeypatch.setattr(
            iwasawa, "character_table", lambda g: character_table(g) if g is sd.h else short
        )
        got = quotient_degree_check(sd, m)
        monkeypatch.undo()
        assert got is _degree_check_by_fibre_product(sd, m, short) is False


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_degree_check_builds_nothing_of_g_m_but_its_classes(sd, monkeypatch):
    # above level n: no power map walk and no class-matrix split on G_m,
    # and no fold at its exponent conductor where that differs from G_n's;
    # a fresh sd, so G_n's table is built inside the check
    sd = SemidirectData(sd.h, sd.alpha, sd.p)
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append((name, a[0])) or real(*a))

    for module, name in ((chartab, "_power_maps"), (chartab, "_split"),
                         (chartab, "int_coords"), (iwasawa, "int_coords")):
        spy(module, name)
    for m in (sd.n + 1, sd.n + 2):
        e_m = normalized(exponent(finite_quotient(sd, m)))
        calls.clear()
        assert quotient_degree_check(sd, m)
        e_n = normalized(character_table(finite_quotient(sd, sd.n)).exponent)
        orders = {a.order for name, a in calls if name != "int_coords"}
        assert sd.h.order * sd.p**m not in orders
        if e_m != e_n:
            assert e_m not in {normalized(e) for name, e in calls if name == "int_coords"}


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


def test_idempotent_suite_gives_a_single_member_orbit_both_verdicts(monkeypatch):
    # C7 under x -> 2x has the orbits (0 1 3), (2 5 4) and the single
    # member (6,), the trivial character; with its degree doubled,
    # e_eta = e_chi of that orbit is no idempotent, and both verdicts say so
    sd = sd_c7()
    table = character_table(sd.h)
    (single,) = [o for klass in character_classes(sd) for o in klass.orbits if len(o) == 1]
    degrees = list(table.degrees)
    degrees[single[0]] *= 2
    results = _perturbed_suite(monkeypatch, sd, table._replace(degrees=degrees))
    assert not results["eta_idempotent"]
    assert not results["chi_idempotent"]
    assert results["chi_central"] and results["class_base_stable"]


def test_idempotent_suite_rejects_a_class_idempotent_off_the_base(monkeypatch):
    # the Gauss period zeta_7 + zeta_7^2 + zeta_7^4 added to one value of
    # C7: fixed by zeta -> zeta^2, moved by zeta -> zeta^3, the second of
    # the two generators (2, 3) of Gal(Q_3(zeta_7)/Q_3) that the suite
    # applies, so a suite that applied only the first would miss it
    sd = sd_c7()
    table = character_table(sd.h)
    coords = [list(row) for row in table.coords]
    cell = dict(coords[1][1])
    for i in (1, 2, 4):
        cell[i] = cell.get(i, 0) + 1
    coords[1][1] = {i: c for i, c in cell.items() if c}
    results = _perturbed_suite(monkeypatch, sd, table._replace(coords=coords))
    assert not results["class_base_stable"]


def _class_json(classes):
    return [(c.orbits, c.to_json()) for c in classes]


# entries on one H: (H, [(automorphism of H, p)]); C13 under x -> 3x at
# p = 3 and the identity at p = 3 and 5; C3 x C3 under its two shears
# (one n, other orbits); S3 under the identity and an inner automorphism
# (the same singleton orbits, n = 0 and 1)
_SHARED_H = (
    (lambda: cyclic_group(13), lambda h: [
        (cyclic_automorphism(13, 3), 3), (GroupAutomorphism.identity(h), 3),
        (GroupAutomorphism.identity(h), 5)]),
    (c3_x_c3, lambda h: [
        (GroupAutomorphism(h, [(x + y) % 3 * 3 + y for x in range(3) for y in range(3)]), 3),
        (GroupAutomorphism(h, [x * 3 + (x + y) % 3 for x in range(3) for y in range(3)]), 3)]),
    (symmetric_3, lambda h: [
        (GroupAutomorphism.identity(h), 3), (GroupAutomorphism.inner(h, h.generators[1]), 3)]),
)


@pytest.mark.parametrize("make_h, autos", _SHARED_H, ids=["C13", "C3xC3", "S3"])
def test_character_classes_are_kept_per_automorphism_prime_and_base(make_h, autos):
    # SemidirectData on one H, each over Q_p and its unramified quadratic
    # extension, asked in turn and twice: each equals a fresh build on an
    # H of its own, and no two agree
    def entries(h):
        return [SemidirectData(h, alpha, p) for alpha, p in autos(h)]

    shared = entries(make_h())
    for _ in range(2):
        seen = []
        for i, sd in enumerate(shared):
            for base in (AbelianLocalField.qp(sd.p), AbelianLocalField.unramified(sd.p, 2)):
                want = _class_json(character_classes(entries(make_h())[i], base))
                assert _class_json(character_classes(sd, base)) == want, (i, base.to_json())
                assert want not in seen
                seen.append(want)
    assert len(character_table(shared[0].h).__dict__["_character_classes"]) == len(seen)


def test_one_entry_builds_its_class_data_and_restrictions_once(monkeypatch):
    # the conductor, the idempotent suite and the level checks n..n+2 of a
    # fresh entry: one class computation, and the checks at n + 1 and
    # n + 2 decompose no restriction that the check at n did not
    built, decomposed = [], []
    real_classes, real_residues = iwasawa._character_classes, chartab.CharacterTable.residues
    monkeypatch.setattr(
        iwasawa, "_character_classes", lambda *a: built.append(a) or real_classes(*a)
    )
    monkeypatch.setattr(
        chartab.CharacterTable, "residues", lambda t, l: decomposed.append(l) or real_residues(t, l)
    )
    for sd in semidirect_catalog():
        built.clear()
        central_conductor(sd)
        idempotent_suite(sd, sd.n + 1)
        decomposed.clear()
        assert quotient_degree_check(sd, sd.n)
        first = len(decomposed)
        assert first > 0
        assert all(quotient_degree_check(sd, m) for m in (sd.n + 1, sd.n + 2))
        assert len(built) == 1 and len(decomposed) == first, sd.name()


def test_dual_basis_rejects_a_scale_off_by_one(monkeypatch):
    sd = sd_s3_inner()
    assert dual_basis_check(sd, 2)
    exact = iwasawa.trace_closed_form

    def off_by_one(g, rank, x):
        return [t + t // rank for t in exact(g, rank, x)]

    monkeypatch.setattr(iwasawa, "trace_closed_form", off_by_one)
    assert not dual_basis_check(sd, 2)
