"""Finite group rings: the conductor formula against the brute-force
oracle, and the Ext annihilation consequences."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conductor.catalog import (
    alternating_4,
    c3_x_c3,
    conductor_catalog,
    sd_c7,
    sd_c9,
    sd_s3_inner,
    splitting_reps,
    symmetric_3,
    table_catalog,
)
from conductor.chartab import character_table, galois_exponents, galois_orbits, galois_permutations
from conductor.cyclo import _fold, totient
from conductor.errors import InputError, PrecisionExhaustedError
from conductor.finite import (
    ExtComputation,
    GModule,
    _conductor_lattice,
    _cyclotomic_ideal_basis,
    _element_actions,
    _mat_mul,
    _orbit_idempotent,
    _permutation_action,
    _twist_basis,
    augmentation_module,
    brute_force_conductor,
    conductor_annihilates,
    formula_conductor_lattice,
    jacobinski_conductor,
    maximal_order_basis,
    maximal_order_module,
    regular_module,
    sharpness_probe,
    trivial_module,
    working_precision,
)
from conductor.groups import cyclic_group, direct_product, finite_quotient
from conductor.localfields import AbelianLocalField
from conductor.orders import lattice_power, radical_lattice
from conductor.padic import (
    SpanSolver,
    hnf_columns,
    lattice_contains,
    residue,
    smith_valuations,
    sublattice_of,
    vp,
)


def _value_key(v):
    return (v.m, v.coeffs)


def _galois_row_permutations(table, ks):
    """Reference: apply zeta -> zeta^k to every distinct value, find the row."""
    ids, distinct = {}, []
    for row in table.values:
        for v in row:
            if ids.setdefault(_value_key(v), len(ids)) == len(distinct):
                distinct.append(v)
    rows = [tuple(ids[_value_key(v)] for v in row) for row in table.values]
    index = {row: r for r, row in enumerate(rows)}
    perms = []
    for k in ks:
        image = [ids[_value_key(v.galois(k % v.m if v.m > 1 else 1))] for v in distinct]
        perms.append([index[tuple(image[i] for i in row)] for row in rows])
    return perms


def _power_map_groups():
    out = list(table_catalog())
    for sd in (sd_c7(), sd_c9(), sd_s3_inner()):
        out += [finite_quotient(sd, m) for m in range(sd.n, sd.n + 3)]
    return out


@pytest.mark.parametrize("g", _power_map_groups(), ids=lambda g: "%s-%d" % (g.name, g.order))
def test_power_map_row_permutations_match_galois_action(g):
    table = character_table(g)
    assert galois_permutations(table) == _galois_row_permutations(table, galois_exponents(table))


def test_formula_matches_brute_force_on_small_cases():
    cases = [
        (cyclic_group(3), 3, []),
        (cyclic_group(4), 3, []),
        (cyclic_group(9), 3, []),
        (symmetric_3(), 3, splitting_reps("S3")),
        (symmetric_3(), 5, splitting_reps("S3")),
    ]
    for g, p, reps in cases:
        prec = working_precision(g, p)
        assert formula_conductor_lattice(g, p, precision=prec) == brute_force_conductor(
            g, p, reps=reps, precision=prec
        ), "%s p=%d" % (g.name, p)


def test_conductor_index_valuations():
    # v_p of [maximal order center : conductor] on class-sum coordinates
    expected = {
        "C3": 1,
        "C6": 2,
        "C9": 4,
        "S3": 1,
        "D4": 0,
    }
    groups = {
        "C3": cyclic_group(3),
        "C6": cyclic_group(6),
        "C9": cyclic_group(9),
        "S3": symmetric_3(),
        "D4": None,
    }
    from conductor.catalog import dihedral

    groups["D4"] = dihedral(4)
    for name, want in expected.items():
        lat = formula_conductor_lattice(groups[name], 3)
        assert lat.index_valuation() == want, name


def test_c9_report_components():
    rep = jacobinski_conductor(cyclic_group(9), 3)
    data = sorted((c.degree, c.e, c.d_rel, c.multiplier, c.valuation) for c in rep.components)
    assert data == [
        (1, 1, 0, Fraction(9), 2),
        (1, 2, 1, Fraction(9), 3),
        (1, 6, 9, Fraction(9), 3),
    ]


def test_s3_report_at_split_prime():
    rep = jacobinski_conductor(symmetric_3(), 3)
    assert sorted(c.multiplier for c in rep.components) == [3, 6, 6]
    assert all(c.valuation == 1 for c in rep.components)
    assert all(c.e == 1 and c.f == 1 for c in rep.components)


def test_prime_to_order_conductor_is_everything():
    rep = jacobinski_conductor(symmetric_3(), 7)
    assert all(c.valuation == 0 for c in rep.components)
    lat = formula_conductor_lattice(symmetric_3(), 7)
    assert lat.index_valuation() == 0


def test_twist_does_not_change_conductor():
    g = symmetric_3()
    reps = splitting_reps("S3")
    plain = brute_force_conductor(g, 3, reps=reps)
    for seed in (1, 7):
        assert brute_force_conductor(g, 3, reps=reps, twist_seed=seed) == plain


def test_constraint_systems_differ_off_a_ring():
    # M = Z_3[C3] + Z_3 (1 - g)/3 is not closed under multiplication by g:
    # eps(x (1 - g)/3) = (c0 - c2)/3, while x (1 - g)/3 has coefficients
    # (c0 - c2, c1 - c0, c2 - c1)/3
    g = cyclic_group(3)
    third = Fraction(1, 3)
    span = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [third, -third, 0]]
    prec = working_precision(g, 3)
    identity_rows = _conductor_lattice(g, 3, span, False, prec)
    full = _conductor_lattice(g, 3, span, True, prec)
    assert identity_rows == hnf_columns(3, prec, [[1, 0, 1], [0, 1, 0], [3, 0, 0]])
    assert full == hnf_columns(3, prec, [[1, 1, 1], [3, 0, 0], [0, 3, 0]])
    assert sublattice_of(full, identity_rows) and full != identity_rows


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_constraint_systems_agree_on_maximal_orders(p):
    for g in conductor_catalog():
        basis = maximal_order_basis(g, p, splitting_reps(g.name))
        prec = working_precision(g, p)
        assert _conductor_lattice(g, p, basis, False, prec) == _conductor_lattice(
            g, p, basis, True, prec
        ), g.name


def test_twist_moves_every_basis_and_keeps_its_span():
    cases = [
        (direct_product(cyclic_group(3), cyclic_group(9), name="C3xC9"), None),
        (symmetric_3(), splitting_reps("S3")),
        (alternating_4(), splitting_reps("A4")),
    ]
    for g, reps in cases:
        basis = maximal_order_basis(g, 3, reps)
        twisted = _twist_basis(g, 3, basis, 2026)
        assert twisted != basis, g.name
        # u = 1 + 3 lambda is a unit of O, so u O = O
        scaled = [
            hnf_columns(3, 16, [[x * g.order for x in vec] for vec in vecs])
            for vecs in (basis, twisted)
        ]
        assert scaled[0] == scaled[1], g.name
        assert brute_force_conductor(g, 3, reps, twist_seed=2026) == brute_force_conductor(
            g, 3, reps
        ), g.name


def _radical_power_by_products(p, d, t, precision):
    """J^t from repeated products of the radical, shifted by p^a for t < 0."""
    deg = totient(d)
    e = AbelianLocalField(p, d, []).ramification_index
    a = 0
    while t + a * e < 0:
        a += 1
    if t + a * e == 0:
        cols = [[int(i == j) for i in range(deg)] for j in range(deg)]
    else:
        def mult(u, v):
            return _fold(d, ((i + j, a * b) for i, a in enumerate(u) for j, b in enumerate(v)), 0)

        rad = radical_lattice(p, precision, mult, deg, [1] + [0] * (deg - 1))
        cols = lattice_power(p, precision, mult, rad, t + a * e).cols
    return [[Fraction(x, p**a) for x in col] for col in cols]


# d = p^k d'; at p = 3, d = 6, 12, 24, 30, 42 and 66 have d' >= phi(d), so
# the generator 1 - x^d' must be reduced mod Phi_d.  The negative powers of
# d = 81 at p = 3 need J^51..J^53 by products, about 9 s each, so only
# t = 0..2 run there.
RADICAL_GRID = [
    (p, d)
    for p, ds in (
        (3, (1, 2, 3, 4, 6, 9, 12, 18, 24, 27, 30, 42, 66, 81)),
        (5, (1, 2, 4, 5, 10, 15, 20, 25, 30)),
        (7, (1, 2, 7, 14, 21, 28, 42)),
    )
    for d in ds
]


@pytest.mark.parametrize("p,d", RADICAL_GRID)
def test_radical_power_generator_matches_radical_products(p, d):
    for t in range(3) if d == 81 else range(-3, 5):
        assert _cyclotomic_ideal_basis(p, d, t, 30) == _radical_power_by_products(p, d, t, 30), t


def test_order_27_and_81_formula_matches_brute_force():
    c = cyclic_group
    groups = [
        direct_product(direct_product(c(3), c(3)), c(3), name="C3^3"),
        direct_product(c(9), c(3), name="C9xC3"),
        c(27),
        direct_product(c(9), c(9), name="C9xC9"),
        direct_product(direct_product(c(3), c(3)), direct_product(c(3), c(3)), name="C3^4"),
        c(81),
    ]
    start = time.perf_counter()
    for g in groups:
        assert formula_conductor_lattice(g, 3) == brute_force_conductor(g, 3), g.name
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("p", [3, 5, 7])
def test_formula_lattice_is_kept_per_group_prime_and_precision(p):
    for g, fresh in zip(conductor_catalog(), conductor_catalog()):
        lat = formula_conductor_lattice(g, p)
        assert formula_conductor_lattice(g, p) is lat, g.name
        assert formula_conductor_lattice(g, p, precision=working_precision(g, p)) is lat
        assert lat == formula_conductor_lattice(fresh, p), g.name
        other = formula_conductor_lattice(g, p, precision=12)
        assert other.precision == 12 and lat.precision == working_precision(g, p) != 12
        assert formula_conductor_lattice(g, p, precision=12) is other
        assert formula_conductor_lattice(g, p) is lat


def test_formula_lattice_failure_is_not_kept():
    g = cyclic_group(9)
    with pytest.raises(PrecisionExhaustedError):
        formula_conductor_lattice(g, 3, precision=7)
    assert formula_conductor_lattice(g, 3) == formula_conductor_lattice(cyclic_group(9), 3)
    with pytest.raises(PrecisionExhaustedError):
        formula_conductor_lattice(g, 3, precision=7)


def test_conductor_is_an_ideal_inside_the_group_ring_center():
    # conductor lattice sits inside the class-sum span of o[G] center
    g = cyclic_group(9)
    lat = formula_conductor_lattice(g, 3)
    from conductor.padic import hnf_columns

    n = lat.dim
    center = hnf_columns(3, lat.precision, [[int(i == j) for i in range(n)] for j in range(n)])
    assert sublattice_of(lat, center)


def test_maximal_order_basis_spans_unit():
    g = cyclic_group(4)
    cols = maximal_order_basis(g, 3)
    assert len(cols) == g.order
    from conductor.padic import hnf_columns

    lat = hnf_columns(3, 16, cols)
    assert lattice_contains(lat, [1, 0, 0, 0])


def test_conductor_annihilates_ext():
    g = cyclic_group(3)
    triv = trivial_module(g)
    aug = augmentation_module(g)
    assert conductor_annihilates(g, 3, triv, triv.mod_p_power(1))
    assert conductor_annihilates(g, 3, aug, triv.mod_p_power(1))
    assert conductor_annihilates(g, 3, maximal_order_module(g, 3), aug.mod_p_power(1))


def test_permutation_action_rejects_unstable_spans():
    g = cyclic_group(3)
    # the augmentation lattice: the generator matrix is 2 x 2
    assert [len(mat) for mat in _permutation_action(g, [[1, -1, 0], [0, 1, -1]])] == [2]
    # the generator moves e_1 to e_2, outside the Q-span
    with pytest.raises(InputError):
        _permutation_action(g, [[1, 0, 0], [0, 1, 0]])
    # a G-stable Q-span whose lattice is not G-stable
    with pytest.raises(InputError):
        _permutation_action(g, [[1, -1, 0], [0, 3, -3]])


def test_ext_needs_a_lattice_and_a_lattice_mod_p_power():
    g = cyclic_group(3)
    triv = trivial_module(g)
    with pytest.raises(InputError):
        ExtComputation(triv, triv, 3)
    with pytest.raises(InputError):
        ExtComputation(triv.mod_p_power(1), triv.mod_p_power(1), 3)


def _non_representations():
    """Generator matrices that define no representation: C3 acting by 2,
    S3 with its two generator matrices swapped, and one matrix for S3's two
    generators."""
    s3 = symmetric_3()
    a, b = ([list(row) for row in mat] for mat in splitting_reps("S3")[0])
    return [
        GModule(cyclic_group(3), 1, [[[2]]], "times 2"),
        GModule(s3, 2, [b, a], "swapped"),
        GModule(s3, 2, [a], "one matrix"),
    ]


@pytest.mark.parametrize("bad", _non_representations(), ids=lambda m: m.name)
def test_ext_refuses_non_representations(bad):
    triv = trivial_module(bad.group)
    with pytest.raises(InputError, match="group law|generator matrices"):
        ExtComputation(bad, triv.mod_p_power(1), 3)
    with pytest.raises(InputError, match="group law|generator matrices"):
        ExtComputation(triv, bad.mod_p_power(1), 3)


def test_maximal_order_basis_refuses_non_representations():
    g = symmetric_3()
    a, b = splitting_reps("S3")[0]
    corrupted = ((0, -1), (1, 0))  # of order 4, so no image of the 3-cycle
    with pytest.raises(InputError, match="group law"):
        maximal_order_basis(g, 3, [[a, corrupted]])
    with pytest.raises(InputError, match="need 2 generator matrices, got 1"):
        maximal_order_basis(g, 3, [[a]])
    with pytest.raises(InputError, match="must be 2 x 2"):
        maximal_order_basis(g, 3, [[((0, 1, 0), (1, 0, 0)), b]])
    # one matrix per generator only: the list of all |G| matrices is refused
    with pytest.raises(InputError, match="need 2 generator matrices, got 6"):
        maximal_order_basis(g, 3, [_element_actions(g, [a, b], 2)])


@pytest.mark.parametrize("make_m", [trivial_module, regular_module, augmentation_module])
@pytest.mark.parametrize("make_n", [trivial_module, regular_module])
def test_ext_over_the_trivial_group_vanishes(make_m, make_n):
    # C1 has no generators, so a cocycle has no values to fix: the cocycle
    # lattice and Ext^1 are 0 and every element annihilates
    g = cyclic_group(1)
    comp = ExtComputation(make_m(g), make_n(g).mod_p_power(2), 3)
    assert (comp.divisors, comp.hom_basis) == ([], [])
    assert comp.annihilates([1]) and comp.annihilates([0])


def test_ext_without_equivariance_equations():
    # C2 acting by -1 on Z_3, against the trivial N: s acts on
    # Hom(M, N) by -1, so the one closing edge s s = 1 reads F - F = 0 and
    # no condition constrains the cocycle value F = f(s)
    g = cyclic_group(2)
    sign = GModule(g, 1, [[[-1]]], "sign")
    comp = ExtComputation(sign, trivial_module(g).mod_p_power(1), 3)
    assert (comp.hom_basis, comp.divisors) == ([[1]], [])
    assert comp.annihilates([1, 0])


def test_s3_ext_of_augmentation_mod_p2_vanishes():
    # the cocycle lattice has rank 50 here: two generators, each with a
    # 5 x 5 value
    g = symmetric_3()
    aug = augmentation_module(g)
    comp = ExtComputation(aug, aug.mod_p_power(2), 3)
    assert len(comp.hom_basis) == 50
    assert comp.divisors == []
    lat = brute_force_conductor(g, 3, reps=splitting_reps("S3"))
    assert all(comp.annihilates(col) for col in lat.cols)


def test_c3xc3_ext_of_augmentation_mod_p_is_killed_by_the_conductor():
    # the pair with 512 distinct 128-column cocycle conditions: Ext^1 is
    # (Z/3)^2, and every conductor generator annihilates it
    g = c3_x_c3()
    aug = augmentation_module(g)
    comp = ExtComputation(aug, aug.mod_p_power(1), 3)
    assert comp.divisors == [1, 1]
    lat = brute_force_conductor(g, 3)
    assert len(lat.cols) == 9
    assert all(comp.annihilates(col) for col in lat.cols)


def test_c3xc3_ext_columns_of_smith_valuation_zero_lie_in_the_image():
    # annihilates skips the basis cocycles of Smith valuation 0, 70 of the
    # 128 here: each is p^q times a column, so each conductor generator
    # carries it into p^q Z_p^w, inside B~
    g = c3_x_c3()
    aug = augmentation_module(g)
    comp = ExtComputation(aug, aug.mod_p_power(1), 3)
    vals = comp._cocycle_vals
    skipped = [f for i, f in enumerate(comp.hom_basis) if i < len(vals) and not vals[i]]
    assert (len(skipped), len(comp.hom_basis)) == (70, 128)
    classes = character_table(g).classes.classes
    rank = aug.rank
    for col in brute_force_conductor(g, 3).cols:
        z = [
            [sum(c * comp.acts_n[h][i][t] for c, cls in zip(col, classes) for h in cls)
             for t in range(rank)]
            for i in range(rank)
        ]
        for f in skipped:
            assert lattice_contains(comp._image_lattice, _central_action(comp, z, f))


def _sweep_modules(name):
    """The trivial, augmentation, maximal-order and regular modules, and
    for S3 the lattice of its 2-dimensional representation."""
    g = {"C3": lambda: cyclic_group(3), "S3": symmetric_3, "C9": lambda: cyclic_group(9),
         "C3xC3": c3_x_c3}[name]()
    reps = splitting_reps(name)
    mods = [trivial_module(g), augmentation_module(g), maximal_order_module(g, 3, reps),
            regular_module(g)]
    if reps:
        mods.append(GModule(g, 2, [[list(row) for row in m] for m in reps[0]], "standard"))
    return g, reps, mods


def _central_action(comp, z, f):
    """z . f for a cocycle f, with z acting through the matrix ``z`` on each
    generator's rank N x rank M block of f."""
    rank_n, rank_m = comp.mod_n.rank, comp.mod_m.rank
    return [
        sum(z[i][t] * f[j + t * rank_m + k] for t in range(rank_n))
        for j in range(0, len(f), rank_n * rank_m)
        for i in range(rank_n)
        for k in range(rank_m)
    ]


def _reference_ext(comp):
    """Ext^1 without the universal coefficient formula: the coboundaries
    and p^q on each coordinate, solved over Q in coordinates on the
    cocycle basis, then a Smith form for the divisors and a Hermite form
    for the membership tests.  Returns (divisors, annihilates)."""
    p, q, precision = comp.p, comp.mod_n.quotient_exponent, comp.precision
    width, modulus = len(comp.hom_basis), p**precision
    solver = SpanSolver(comp.hom_basis)

    def coords(v):
        return [residue(x, p, modulus) for x in solver.solve(v)]

    image = [coords(v) for v in comp._coboundaries]
    image += [coords([p**q * int(i == j) for i in range(width)]) for j in range(width)]
    vals = smith_valuations(p, precision, image)
    assert len(vals) == width
    divisors = sorted(v for v in vals if v > 0)

    if not divisors:
        return divisors, lambda class_coords: True
    lat = hnf_columns(p, precision, image)
    rank_n, rank_m = comp.mod_n.rank, comp.mod_m.rank
    # coordinates of (class sum l) . f for every class l and basis cocycle f,
    # z acting on each generator's rank N x rank M block by N(z); a central
    # element's are their combination
    per_class = []
    for cls in character_table(comp.g).classes.classes:
        z = [[sum(comp.acts_n[h][i][t] for h in cls) for t in range(rank_n)] for i in range(rank_n)]
        per_class.append([coords(_central_action(comp, z, f)) for f in comp.hom_basis])

    def annihilates(class_coords):
        terms = [(c, cs) for c, cs in zip(class_coords, per_class) if c]
        for f in range(width):
            v = [0] * width
            for c, cs in terms:
                v = [x + c * y for x, y in zip(v, cs[f])]
            if not lattice_contains(lat, v):
                return False
        return True

    return divisors, annihilates


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("name", ["C3", "S3", "C9", "C3xC3"])
def test_ext_matches_the_solve_over_q(name, q):
    # every pair of sweep modules: the divisors, and the verdicts on the
    # conductor columns and the class-sum unit vectors
    g, reps, mods = _sweep_modules(name)
    lat = brute_force_conductor(g, 3, reps)
    k = len(lat.cols)
    cands = [list(c) for c in lat.cols] + [[int(i == l) for i in range(k)] for l in range(k)]
    seen = set()
    for mod_m in mods:
        for mod_n in mods:
            comp = ExtComputation(mod_m, mod_n.mod_p_power(q), 3)
            divisors, annihilates = _reference_ext(comp)
            assert comp.divisors == divisors, (mod_m.name, mod_n.name)
            verdicts = [comp.annihilates(c) for c in cands]
            assert verdicts == [annihilates(c) for c in cands], (mod_m.name, mod_n.name)
            seen.update(verdicts)
    assert seen == {False, True}


_BROKEN_EXT = """
import conductor.finite as finite
from conductor.groups import cyclic_group
g = cyclic_group(3)
triv = finite.trivial_module(g)
comp = finite.ExtComputation(triv, triv.mod_p_power(1), 3)
print(comp.divisors, comp.annihilates([1, 1, 1]))
# a coboundary Smith form that reports a divisor it does not have
finite.smith_valuations = lambda p, precision, rows: [1]
comp = finite.ExtComputation(triv, triv.mod_p_power(1), 3)
try:
    comp.annihilates([1, 1, 1])
except ArithmeticError as exc:
    print(comp.divisors, "ArithmeticError", exc)
else:
    print(comp.divisors, "accepted")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_ext_index_certificate_fires_in_every_build(optimize):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable] + (["-O"] if optimize else []) + ["-c", _BROKEN_EXT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[1] True",
        "[1, 1] ArithmeticError Ext^1 divisors [1, 1] disagree with [Z~ : B~]",
    ]


def _dense_product(a, b):
    width = len(b[0]) if b else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(width)]
        for i in range(len(a))
    ]


@pytest.mark.parametrize(
    "a, b",
    [
        ([[0, 0], [0, 0]], [[1, -2, 3], [4, 5, -6]]),
        ([[2, 0, -1]], [[1], [-7], [3]]),
        ([[1], [0], [-3]], [[4, -1, 0, 2]]),
        ([[0, -1], [1, 0]], [[0, 0], [0, 0]]),
        ([[-2]], [[5]]),
    ],
)
def test_mat_mul_matches_the_dense_product(a, b):
    assert _mat_mul(a, b) == _dense_product(a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=k, max_size=k),
                     min_size=1, max_size=5),
            st.integers(1, 5).flatmap(
                lambda w: st.lists(st.lists(st.integers(-9, 9), min_size=w, max_size=w),
                                   min_size=k, max_size=k)
            ),
        )
    )
)
def test_mat_mul_matches_the_dense_product_on_sparse_rows(ab):
    a, b = ab
    product = _mat_mul(a, b)
    assert product == _dense_product(a, b)
    # the rows are fresh lists: callers add into them
    assert all(row is not other for row in product for other in b)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("factors", [(3,), (9,), (3, 3), (3, 9), (6,)], ids=str)
def test_ext_of_trivial_modules_is_hom_into_z_mod_3q(factors, q):
    # Ext^1(Z_3, Z_3/3^q) = H^1(G, Z/3^q) = Hom(G, Z/3^q), which is the sum
    # of Z/gcd(n, 3^q) over the cyclic factors Z/n of G; the regular
    # module is projective, so its Ext^1 vanishes
    g = cyclic_group(factors[0])
    for n in factors[1:]:
        g = direct_product(g, cyclic_group(n))
    target = trivial_module(g).mod_p_power(q)
    want = sorted(min(q, vp(n, 3)) for n in factors if n % 3 == 0)
    assert ExtComputation(trivial_module(g), target, 3).divisors == want
    assert ExtComputation(regular_module(g), target, 3).divisors == []


@lru_cache(maxsize=None)
def _s3_ext_candidates():
    """S3 Ext^1(trivial, augmentation/p): the conductor columns, which
    annihilate, and the class-sum unit vectors, some of which do not."""
    g = symmetric_3()
    pair = (trivial_module(g), augmentation_module(g).mod_p_power(1))
    lat = brute_force_conductor(g, 3, reps=splitting_reps("S3"))
    k = len(lat.cols)
    units = [[Fraction(int(i == l)) for i in range(k)] for l in range(k)]
    cands = [list(c) for c in lat.cols] + units
    fresh = [ExtComputation(*pair, 3).annihilates(c) for c in cands]
    return pair, cands, fresh


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(6)))
def test_repeated_annihilates_match_fresh_computations(order):
    pair, cands, fresh = _s3_ext_candidates()
    assert not all(fresh) and any(fresh)
    comp = ExtComputation(*pair, 3)
    for _ in range(2):
        assert [comp.annihilates(cands[i]) for i in order] == [fresh[i] for i in order]


def test_sub_conductor_element_fails_somewhere():
    g = cyclic_group(3)
    triv = trivial_module(g)
    target = triv.mod_p_power(1)
    coords, name_m, name_n = sharpness_probe(g, 3, pool=[(triv, target)])
    assert not ExtComputation(triv, target, 3).annihilates(coords)
    assert (name_m, name_n) == (triv.name, target.name)
    # the identity class sum comes first
    assert coords == [1, 0, 0]


def test_sharpness_probe_tries_each_candidate_once(monkeypatch):
    # at C3, p = 3 all three class sums lie outside the conductor; with
    # every element annihilating, the probe exhausts them, each one once
    g = cyclic_group(3)
    triv = trivial_module(g)
    tried = []

    def annihilates(self, class_coords):
        tried.append(tuple(class_coords))
        return True

    monkeypatch.setattr(ExtComputation, "annihilates", annihilates)
    with pytest.raises(ArithmeticError, match="not sharp"):
        sharpness_probe(g, 3, pool=[(triv, triv.mod_p_power(1))])
    assert sorted(tried) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_a4_agrees_even_at_the_bad_prime():
    # the acceptance catalog only runs A4 at split primes, but the two
    # computations agree at p = 3 as well
    from conductor.catalog import alternating_4

    g = alternating_4()
    brute = brute_force_conductor(g, 3, reps=splitting_reps("A4"))
    assert brute == formula_conductor_lattice(g, 3)
    assert brute.index_valuation() == 1


def test_orbit_idempotent_needs_a_rational_orbit():
    table = character_table(cyclic_group(3))
    (orbit,) = [o for o in galois_orbits(table) if len(o) == 2]
    # (zeta + zeta^2) / 3 = -1/3 off the identity
    assert _orbit_idempotent(table, orbit) == [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]
    with pytest.raises(ArithmeticError, match="irrational"):
        _orbit_idempotent(table, orbit[:1])
