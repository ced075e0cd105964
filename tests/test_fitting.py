"""Fitting generators via reduced norms, and conductor-times-Fitting
annihilation of presentation cokernels."""

import copy
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conductor import chartab, finite, fitting
from conductor.catalog import (
    alternating_4,
    alternating_5,
    c7_c3,
    dihedral,
    frobenius_20,
    quaternion_8,
    symmetric_3,
    symmetric_4,
    table_catalog,
)
from conductor.chartab import character_table
from conductor.cyclo import CycloNumber
from conductor.errors import InputError
from conductor.finite import _convolve, formula_conductor_lattice
from conductor.fitting import (
    FittingGenerators,
    PresentationMatrix,
    annihilation_check,
    fitting_generators,
    materialize_center,
    presentation_image,
    reduced_norm,
)
from conductor.groups import FiniteGroup, conjugacy_classes, cyclic_group, direct_product
from conductor.padic import hnf_columns, lattice_contains
from conductor.verify import run_suite


def unit_vec(order, coeffs):
    out = [0] * order
    for k, v in coeffs.items():
        out[k] = v
    return out


def test_reduced_norm_of_identity_is_one():
    for g in (cyclic_group(3), symmetric_3()):
        nr = reduced_norm(g, [[unit_vec(g.order, {0: 1})]])
        assert all(v == CycloNumber.rational(1) for v in nr)


def test_reduced_norm_c3_augmentation_style_element():
    g = cyclic_group(3)
    # 1 - g at each character: 0 at the trivial one, 1 - zeta elsewhere
    nr = reduced_norm(g, [[unit_vec(3, {0: 1, 1: -1})]])
    z = CycloNumber.root(3)
    zero = CycloNumber.rational(0)
    assert sorted(any(v.coeffs) for v in nr) == [False, True, True]
    assert {v for v in nr if any(v.coeffs)} == {1 + z * -1, 1 + z**2 * -1}
    trivial_rows = [i for i, v in enumerate(nr) if v == zero]
    assert len(trivial_rows) == 1
    # a singular block reads as the rational zero at conductor 1, also
    # where its power sums live in Q(zeta_3): the norm element 1 + g + g^2
    nr = reduced_norm(g, [[unit_vec(3, {0: 1, 1: 1, 2: 1})]])
    want = [CycloNumber.rational(x).to_json() for x in (3, 0, 0)]
    assert sorted(map(str, (v.to_json() for v in nr))) == sorted(map(str, want))


def test_reduced_norm_s3_transposition():
    g = symmetric_3()
    t = g.generators[0]  # a transposition
    nr = reduced_norm(g, [[unit_vec(6, {0: 1, t: -1})]])
    # 0 at the trivial character, 2 at the sign, 0 at the 2-dimensional
    assert sorted(v.as_fraction() for v in nr) == [0, 0, 2]


def test_reduced_norm_multiplicative():
    g = symmetric_3()
    a = [[unit_vec(6, {0: 2, 1: 1})]]
    b = [[unit_vec(6, {0: 1, 3: -2})]]
    prod = [[[Fraction(v) for v in _convolve(g, a[0][0], b[0][0])]]]
    nra = reduced_norm(g, a)
    nrb = reduced_norm(g, b)
    nrp = reduced_norm(g, prod)
    assert all(x * y == z for x, y, z in zip(nra, nrb, nrp))


def test_scalar_presentation_fitting_and_annihilation():
    g = cyclic_group(3)
    pres = PresentationMatrix(g, 1, 1, [[unit_vec(3, {0: 3})]])
    fit = fitting_generators(pres)
    assert not fit.zero
    assert fit.values == [[CycloNumber.rational(3)] * 3]
    assert annihilation_check(pres, 3)


def test_s3_transposition_presentation_annihilates():
    g = symmetric_3()
    t = g.generators[0]
    pres = PresentationMatrix(g, 1, 1, [[unit_vec(6, {0: 1, t: -1})]])
    assert annihilation_check(pres, 3)


def test_tall_presentation():
    g = symmetric_3()
    pres = PresentationMatrix(
        g, 2, 1, [[unit_vec(6, {0: 3})], [unit_vec(6, {0: 1, 3: -1})]]
    )
    fit = fitting_generators(pres)
    assert len(fit.subsets) == 2
    assert annihilation_check(pres, 3)


def test_fitting_generators_are_computed_once_per_presentation(monkeypatch):
    calls = []

    def counted(g, matrix):
        calls.append(len(matrix))
        return reduced_norm(g, matrix)

    monkeypatch.setattr(fitting, "reduced_norm", counted)
    g = symmetric_3()
    pres = PresentationMatrix(
        g, 3, 2,
        [[unit_vec(6, {0: 3}), unit_vec(6, {})],
         [unit_vec(6, {}), unit_vec(6, {0: 1, 3: -1})],
         [unit_vec(6, {0: 1}), unit_vec(6, {0: 3})]],
    )
    fit = fitting_generators(pres)
    assert annihilation_check(pres, 3)
    assert calls == [2] * len(fit.subsets) == [2, 2, 2]  # one per 2 x 2 minor
    assert fitting_generators(pres) is fit


def test_annihilation_builds_each_class_matrix_once(monkeypatch):
    # three Fitting generators share the k class matrices of S3
    calls = []

    def counted(g, classes, i):
        calls.append(i)
        return chartab._class_matrix(g, classes, i)

    monkeypatch.setattr(fitting, "_class_matrix", counted)
    g = symmetric_3()
    pres = PresentationMatrix(
        g, 3, 1, [[unit_vec(6, {0: 3})], [unit_vec(6, {0: 1, 3: -1})], [unit_vec(6, {0: 9})]]
    )
    assert len(fitting_generators(pres).values) == 3
    assert annihilation_check(pres, 3)
    assert calls == list(range(character_table(g).n_classes))


def test_wide_presentation_is_zero_class():
    g = cyclic_group(3)
    pres = PresentationMatrix(g, 1, 2, [[unit_vec(3, {0: 1}), unit_vec(3, {1: 1})]])
    fit = fitting_generators(pres)
    assert fit.zero and fit.values == []
    assert annihilation_check(pres, 3)


def test_scalars_need_no_representation():
    # S3 has a split degree-2 block, Q8 a degree-2 block of Schur index 2
    for g in (symmetric_3(), quaternion_8()):
        degrees = character_table(g).degrees
        assert reduced_norm(g, [[unit_vec(g.order, {0: 1})]]) == [1] * len(degrees)
        nr = reduced_norm(g, [[unit_vec(g.order, {0: 5})]])
        assert nr == [CycloNumber.rational(5**d) for d in degrees]


def _left_regular(g, matrix):
    """The k|G| x k|G| rational matrix of v -> M v on Q[G]^k."""
    n = g.order
    k = len(matrix)
    big = [[Fraction(0)] * (k * n) for _ in range(k * n)]
    for i in range(k):
        for j in range(k):
            for x, c in enumerate(matrix[i][j]):
                if c:
                    for y in range(n):
                        big[i * n + g.mult(x, y)][j * n + y] += c
    return big


def _fraction_determinant(rows):
    """Determinant over Q by Fraction elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@pytest.mark.parametrize(
    "make", [quaternion_8, symmetric_4, frobenius_20, c7_c3, alternating_5]
)
def test_reduced_norms_against_regular_determinant(make):
    # the left-regular representation holds chi(1) copies of each block,
    # so prod_chi nrd_chi(M)^chi(1) = det of M acting on Q[G]^k
    g = make()
    degrees = character_table(g).degrees
    rng = random.Random(g.order)
    for k in (1, 2):
        if k > 1 and k * g.order > 48:
            continue
        matrix = [
            [
                unit_vec(g.order, {rng.randrange(g.order): rng.randint(-3, 3) for _ in range(3)})
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        prod = CycloNumber.rational(1)
        for v, d in zip(reduced_norm(g, matrix), degrees):
            prod = prod * v**d
        assert prod == CycloNumber.rational(_fraction_determinant(_left_regular(g, matrix)))


def test_materialize_center_requires_galois_coherence():
    g = cyclic_group(3)
    z = CycloNumber.root(3)
    # a constant tuple materializes to that constant times the identity
    good = materialize_center(g, [CycloNumber.rational(2)] * 3)
    assert good == [Fraction(2), Fraction(0), Fraction(0)]
    with pytest.raises(InputError):
        # equal values on a conjugate pair of characters are not coherent
        materialize_center(g, [z, z, CycloNumber.rational(1)])


def _reference_center(g, values):
    """materialize_center by CycloNumber products, one per (element,
    character row): (1/|G|) sum_chi chi(1) v_chi chi(x^-1) at each x."""
    table = character_table(g)
    n = g.order
    out = []
    for x in range(n):
        acc = CycloNumber.rational(0)
        for row, v in enumerate(values):
            acc = acc + v * table.value(row, g.inv(x)) * Fraction(table.degrees[row], n)
        if not acc.is_rational():
            raise InputError("center components are not Galois-coherent")
        out.append(acc.as_fraction())
    return out


def _relabelled(g, rng):
    """g with its non-identity elements renumbered at random."""
    n = g.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    table = [[perm[g.mult(inv[a], inv[b])] for b in range(n)] for a in range(n)]
    return FiniteGroup.from_table(table, name=g.name)


def _oracle_groups():
    """The groups of the finite-oracle benchmark: three catalog groups in
    catalog numbering, and abelian groups renumbered as there (C5xC5 is
    run there at two primes)."""
    rng = random.Random(2026)
    c = cyclic_group
    abelian = [
        direct_product(c(5), c(5), name="C5xC5"),
        direct_product(c(9), c(3), name="C9xC3"),
        direct_product(direct_product(c(3), c(3)), c(3), name="C3^3"),
        direct_product(c(3), c(5), name="C3xC5"),
    ]
    return [symmetric_3(), dihedral(4), alternating_4()] + [_relabelled(g, rng) for g in abelian]


def test_materialize_center_matches_cyclonumber_route():
    groups = [g for g in table_catalog() if g.order <= 60] + _oracle_groups()
    for g in groups:
        rng = random.Random(g.order)
        n = g.order
        for k in (1, 2):
            matrix = [
                [
                    unit_vec(n, {rng.randrange(n): rng.randint(-3, 3) for _ in range(3)})
                    for _ in range(k)
                ]
                for _ in range(k)
            ]
            values = reduced_norm(g, matrix)
            want = _reference_center(g, values)
            assert materialize_center(g, values) == want, (g.name, k)
            # the same components written at five times their conductor
            lifted = [v.lift(5 * v.m) for v in values]
            assert materialize_center(g, lifted) == want, (g.name, k)
        zero = [CycloNumber.rational(0)] * len(character_table(g).degrees)
        assert materialize_center(g, zero) == [0] * n


def test_materialize_center_rejects_incoherent_and_misshapen_components():
    z3, z5 = CycloNumber.root(3), CycloNumber.root(5)
    c3, s3 = cyclic_group(3), symmetric_3()
    cases = [
        (c3, [z3, z3, CycloNumber.rational(1)]),
        # zeta_5 lies outside Q(zeta_E), E = 3 the exponent conductor of S3
        (s3, [z5] * 3),
        # one component per character: S3 has three
        (s3, [CycloNumber.rational(1)] * 2),
        (s3, [CycloNumber.rational(1)] * 5),
    ]
    for g, values in cases:
        with pytest.raises(InputError):
            materialize_center(g, values)
    for g, values in cases[:2]:
        with pytest.raises(InputError):
            _reference_center(g, values)


def test_materialize_center_multiplies_no_cyclonumbers(monkeypatch):
    g = symmetric_3()
    values = reduced_norm(g, [[unit_vec(6, {0: 2, 1: 1, 3: -1})]])
    want = _reference_center(g, values)

    def refuse(*args):
        raise AssertionError("CycloNumber product")

    monkeypatch.setattr(CycloNumber, "__mul__", refuse)
    monkeypatch.setattr(CycloNumber, "__rmul__", refuse)
    assert materialize_center(g, values) == want


def test_fitting_suite_builds_each_formula_lattice_once(monkeypatch):
    # the three Fitting checks of a (group, p) share one formula lattice,
    # and none of them changes it
    builds = []
    exact = finite._formula_lattice

    def counted(g, p, precision):
        lat = exact(g, p, precision)
        builds.append((g, p, lat, copy.deepcopy(lat.cols)))
        return lat

    monkeypatch.setattr(finite, "_formula_lattice", counted)
    ok, checks = run_suite("fitting", p=3)
    assert ok
    assert len(checks) == 3 * len(builds)
    assert len({(id(g), p) for g, p, _, _ in builds}) == len(builds)
    for g, p, lat, cols in builds:
        assert lat.cols == cols, g.name
        assert formula_conductor_lattice(g, p) is lat


def _cofactor_determinant(g, matrix):
    """Determinant of a square matrix over a commutative group algebra by
    cofactor expansion: the classical-minor route for reduced norms."""
    if not g.is_abelian():
        raise InputError("classical determinant needs an abelian group")

    def det(rows, cols):
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        acc = [Fraction(0)] * g.order
        for t, c in enumerate(cols):
            term = _convolve(g, matrix[rows[0]][c], det(rows[1:], cols[:t] + cols[t + 1 :]))
            acc = [x - y if t % 2 else x + y for x, y in zip(acc, term)]
        return acc

    return det(list(range(len(matrix))), list(range(len(matrix))))


def test_classical_determinant_cross_check():
    g = cyclic_group(4)
    mat = [
        [unit_vec(4, {0: 2, 1: 1}), unit_vec(4, {2: 1})],
        [unit_vec(4, {3: -1}), unit_vec(4, {0: 1, 1: 1})],
    ]
    det = _cofactor_determinant(g, mat)
    nr_det = reduced_norm(g, [[det]])
    prodwise = reduced_norm(g, mat)
    assert nr_det == prodwise


def test_mismatched_shapes_rejected():
    g = cyclic_group(3)
    with pytest.raises(InputError):
        PresentationMatrix(g, 2, 1, [[unit_vec(3, {0: 1})]])
    with pytest.raises(InputError):
        PresentationMatrix(g, 1, 1, [[[1, 0]]])


def test_nonabelian_classical_determinant_rejected():
    g = symmetric_3()
    with pytest.raises(InputError):
        _cofactor_determinant(g, [[unit_vec(6, {0: 1})]])


# -- reference routes: CycloNumber Newton identities and Fraction products --


def _reference_norm(g, matrix):
    """reduced_norm in CycloNumber arithmetic: power traces over Q[G] by
    Fraction convolutions, e_j = (1/j) sum_i (-1)^(i-1) e_(j-i) s_i."""
    k = len(matrix)
    table = character_table(g)
    class_of = table.classes.class_of
    traces, power = [], matrix
    for j in range(1, k * max(table.degrees) + 1):
        if j > 1:
            power = [
                [[sum(t) for t in zip(*(_convolve(g, r[l], matrix[l][c]) for l in range(k)))]
                 for c in range(k)]
                for r in power
            ]
        sums = [Fraction(0)] * table.n_classes
        for i in range(k):
            for x, c in enumerate(power[i][i]):
                sums[class_of[x]] += c
        traces.append(sums)
    zero = CycloNumber.rational(0)
    out = []
    for chi, deg in zip(table.values, table.degrees):
        top = k * deg
        s = [sum((v * c for v, c in zip(chi, t) if c), zero) for t in traces[:top]]
        e = [CycloNumber.rational(1)]
        for j in range(1, top + 1):
            terms = (e[j - i] * s[i - 1] * (1 if i % 2 else -1) for i in range(1, j + 1))
            e.append(sum(terms, zero) * Fraction(1, j))
        out.append(e[top] if any(e[top].coeffs) else zero)
    return out


def _reference_generators(pres):
    subsets = list(combinations(range(pres.a), pres.b))
    values = [_reference_norm(pres.group, [pres.entries[i] for i in rows]) for rows in subsets]
    return FittingGenerators(subsets, values)


def _reference_annihilation(pres, p, fit):
    """annihilation_check on the reference generators ``fit``, with Fraction
    convolutions over all of G: True, or the failing test, "integrality" or
    "lattice"."""
    g, n = pres.group, pres.group.order
    if any(c.denominator % p == 0 for row in pres.entries for vec in row for c in vec):
        raise InputError("presentation entries must be %d-integral" % p)
    if fit.zero or pres.b == 0:
        return True
    precision = finite.working_precision(g, p)
    conductor = fitting.formula_conductor_lattice(g, p, precision=precision)
    image = hnf_columns(p, precision, [
        [c for entry in row for c in _convolve(g, unit_vec(n, {x: 1}), entry)]
        for row in pres.entries for x in range(n)
    ])
    class_of = conjugacy_classes(g).class_of
    for values in fit.values:
        zc = _reference_center(g, values)
        for col in conductor.cols:
            prod = _convolve(g, [Fraction(col[class_of[x]]) for x in range(n)], zc)
            if any(c.denominator % p == 0 for c in prod):
                return "integrality"
            for k in range(pres.b):
                vec = [0] * (k * n) + prod + [0] * ((pres.b - 1 - k) * n)
                if not lattice_contains(image, vec):
                    return "lattice"
    return True


def _seeded_entry(rng, n, p, fractions):
    vec = [0] * n
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-4, 4))
        if fractions and rng.random() < 0.5:
            c /= rng.choice([d for d in (2, 4, 5, 7) if d % p])
        vec[rng.randrange(n)] = c
    return vec


def _small_tables():
    return [(g, next((q for q in (3, 5, 7) if g.order % q == 0), 3))
            for g in table_catalog() if g.order <= 24]


def test_integer_routes_match_reference_routes():
    # seeded k x k presentations, k = 1..3, integer and Fraction entries
    # with denominators prime to p, plus singular blocks: the Fitting
    # generators' JSON and the verdict are the reference routes'
    tops, zeros = set(), 0
    zero = json.dumps(CycloNumber.rational(0).to_json())
    for g, p in _small_tables():
        n = g.order
        rng = random.Random(n * 31 + p)
        degrees = character_table(g).degrees
        for k in (1, 2, 3):
            for fractions in (False, True):
                entries = [[_seeded_entry(rng, n, p, fractions) for _ in range(k)]
                           for _ in range(k)]
                cases = [entries]
                if k == 1:  # the norm element: singular away from the trivial block
                    cases.append([[[1] * n]])
                else:  # two equal rows: singular in every block
                    cases.append([entries[0]] * 2 + entries[2:])
                for rows in cases:
                    pres = PresentationMatrix(g, k, k, rows)
                    want = _reference_generators(pres)
                    got = fitting_generators(pres)
                    assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (g.name, k)
                    verdict = _reference_annihilation(pres, p, want)
                    assert annihilation_check(pres, p) is verdict is True, (g.name, k)
                    tops.update((g.name, k * d) for d in degrees)
                    zeros += sum(json.dumps(v.to_json()) == zero for v in got.values[0])
    assert ("A4", 6) in tops  # the degree-3 rows of A4 at k = 2
    assert zeros > 0


def _unit_lattice(g, p, precision=None):
    """The class-sum unit vectors, in place of the conductor."""
    k = len(character_table(g).degrees)
    precision = precision or finite.working_precision(g, p)
    return hnf_columns(p, precision, [[int(i == j) for i in range(k)] for j in range(k)])


@pytest.mark.parametrize(
    "label, coeffs, branch",
    [
        # 2 e_sign = (1/3) sum sign(x) x is not 3-integral
        ("1 - t", {0: 1, 1: -1}, "integrality"),
        # 3-integral products outside the presentation image
        ("3 + 3t", {0: 3, 1: 3}, "lattice"),
        ("2 + r", {0: 2, 2: 1}, "lattice"),
    ],
)
def test_annihilation_false_branches(monkeypatch, label, coeffs, branch):
    # the class-sum unit vectors do not lie in the conductor, so each of
    # annihilation_check's two failures can be reached on S3 at p = 3
    monkeypatch.setattr(fitting, "formula_conductor_lattice", _unit_lattice)
    g = symmetric_3()
    pres = PresentationMatrix(g, 1, 1, [[unit_vec(6, coeffs)]])
    assert _reference_annihilation(pres, 3, _reference_generators(pres)) == branch, label
    assert annihilation_check(pres, 3) is False, label


def test_unit_lattice_verdicts_match_reference(monkeypatch):
    monkeypatch.setattr(fitting, "formula_conductor_lattice", _unit_lattice)
    seen = set()
    for g, p in _small_tables():
        if g.order > 12:
            continue
        rng = random.Random(g.order)
        for k, a in ((1, 1), (1, 2), (2, 2)):
            for fractions in (False, True):
                rows = [[_seeded_entry(rng, g.order, p, fractions) for _ in range(k)]
                        for _ in range(a)]
                pres = PresentationMatrix(g, a, k, rows)
                want = _reference_annihilation(pres, p, _reference_generators(pres))
                assert annihilation_check(pres, p) is (want is True), (g.name, a, k)
                seen.add(want)
    assert seen == {True, "integrality", "lattice"}


@pytest.mark.parametrize("rows", [
    [[["1/3"] + [0] * 5, [1] + [0] * 5]],  # 1 x 2: the zero Fitting class
    [[["1/3"] + [0] * 5, [1] + [0] * 5], [[0] * 6, [1] + [0] * 5]],
    [[["2/9"] + [0] * 5]],
])
def test_non_integral_entries_are_rejected_before_any_verdict(rows):
    pres = PresentationMatrix(symmetric_3(), len(rows), len(rows[0]), rows)
    with pytest.raises(InputError, match="3-integral"):
        annihilation_check(pres, 3)
    with pytest.raises(InputError, match="3-integral"):
        presentation_image(pres, 3)


def test_annihilation_multiplies_no_cyclonumbers_and_convolves_nothing(monkeypatch):
    c3c9 = _relabelled(direct_product(cyclic_group(3), cyclic_group(9), name="C3xC9"),
                       random.Random(9))
    cases = [(symmetric_3(), 3), (alternating_4(), 3), (c3c9, 3)]
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for g, p in cases:
        n = g.order
        pres = PresentationMatrix(g, 2, 2, [[unit_vec(n, {0: p * p}), unit_vec(n, {})],
                                            [unit_vec(n, {}), unit_vec(n, {0: 1, 1: -1})]])
        fitting_generators(pres)
        with monkeypatch.context() as m:
            for attr in ("__mul__", "__rmul__"):
                m.setattr(CycloNumber, attr, counted("mul", getattr(CycloNumber, attr)))
            for mod in (fitting, finite):
                m.setattr(mod, "_convolve", counted("convolve", finite._convolve))
            assert annihilation_check(pres, p)
        assert calls == [], (g.name, calls)


def test_value_denominators_join_the_common_denominator(monkeypatch):
    # character values have integer coordinates; halved values exercise the
    # denominator that a value would add to D, on both routes alike
    for g in (symmetric_3(), alternating_4()):
        table = character_table(g)
        halved = [[v * Fraction(1, 2) for v in row] for row in table.values]
        monkeypatch.setitem(table.__dict__, "values", halved)
        rng = random.Random(g.order)
        for k in (1, 2):
            matrix = [[_seeded_entry(rng, g.order, 3, True) for _ in range(k)] for _ in range(k)]
            got = [v.to_json() for v in reduced_norm(g, matrix)]
            assert got == [v.to_json() for v in _reference_norm(g, matrix)], (g.name, k)
