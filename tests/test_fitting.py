"""Fitting generators via reduced norms, and conductor-times-Fitting
annihilation of presentation cokernels."""

import copy
import random
from fractions import Fraction

import pytest

from conductor import finite, fitting
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
    PresentationMatrix,
    annihilation_check,
    fitting_generators,
    group_algebra_determinant,
    materialize_center,
    reduced_norm,
)
from conductor.groups import FiniteGroup, cyclic_group, direct_product
from conductor.padic import fraction_determinant
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
    assert sorted(v.is_zero() for v in nr) == [False, False, True]
    assert {v for v in nr if not v.is_zero()} == {1 - z, 1 - z**2}
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
        assert prod == CycloNumber.rational(fraction_determinant(_left_regular(g, matrix)))


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


def test_classical_determinant_cross_check():
    g = cyclic_group(4)
    mat = [
        [unit_vec(4, {0: 2, 1: 1}), unit_vec(4, {2: 1})],
        [unit_vec(4, {3: -1}), unit_vec(4, {0: 1, 1: 1})],
    ]
    det = group_algebra_determinant(g, mat)
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
        group_algebra_determinant(g, [[unit_vec(6, {0: 1})]])
