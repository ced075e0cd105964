"""Exact cyclotomic arithmetic."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conductor.cyclo import (
    ONE,
    ZERO,
    CycloNumber,
    PRIME_BOUND,
    _mu,
    _poly_divmod,
    _reduction_context,
    cyclotomic_poly,
    divisors,
    generating_set,
    int_coords,
    is_prime,
    normalized,
    power,
    product_sum,
    totient,
    unit_closure,
    value_conductor,
)
from conductor.chartab import _equals_integer
from conductor.errors import InvalidAutomorphismError
from span_solver import SpanSolver


# CycloNumber has no subtraction, scalar division or complex conjugation;
# these compute them on coordinates, for the arithmetic checks below
def _sub(a, b):
    a, b = a._pair(b)
    return CycloNumber(a.m, [x - y for x, y in zip(a.coeffs, b.coeffs)])


def _div(a, q):
    return CycloNumber(a.m, [c / Fraction(q) for c in a.coeffs])


def _conjugate(a):
    return a.galois(a.m - 1) if a.m > 1 else a


def _solve_exact(cols, target):
    """Solve sum x_j * cols[j] = target over Q; None if inconsistent."""
    rows = len(target)
    ncols = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [Fraction(target[i])] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols]:
            return None
    sol = [ZERO] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][ncols]
    return sol


def test_root_powers_sum_to_minus_one():
    z = CycloNumber.root(7)
    total = sum((z**k for k in range(1, 7)), CycloNumber.rational(0))
    assert total == CycloNumber.rational(-1)


def test_root_order():
    z = CycloNumber.root(9)
    assert z**9 == CycloNumber.rational(1)
    assert not (z**3).is_rational()


def test_scalar_arithmetic():
    z = CycloNumber.root(5)
    x = _sub(2 * z, z)
    assert x == z
    assert _div(x, 2) * 2 == z
    assert (Fraction(1, 3) * z) * 3 == z


def test_galois_permutes_roots():
    z = CycloNumber.root(7)
    assert z.galois(2) == z**2
    assert (z + z**6).galois(3) == z**3 + z**4


def test_galois_requires_unit_exponent():
    z = CycloNumber.root(9)
    with pytest.raises(InvalidAutomorphismError):
        z.galois(3)


def test_conjugate_of_root_is_inverse_power():
    z = CycloNumber.root(5)
    assert _conjugate(z) == z**4
    x = z + 2 * z**2
    assert _conjugate(x * _conjugate(x)) == x * _conjugate(x)


def test_trace_to_q():
    z = CycloNumber.root(3)
    # Tr(zeta_3) over Q is -1, trace of 1 is [Q(zeta_3):Q] = 2
    assert z.trace_to_q() == Fraction(-1)
    assert CycloNumber.rational(1).lift(3).trace_to_q() == Fraction(2)


def test_lift_preserves_value():
    z3 = CycloNumber.root(3)
    z12 = CycloNumber.root(12)
    assert z3.lift(12) == z12**4


def test_even_conductors_normalize():
    # conductors = 2 mod 4 are never stored: zeta_6 = 1 + zeta_3
    z6 = CycloNumber.root(6)
    assert z6.m == 3
    assert z6 == 1 + CycloNumber.root(3)


def test_minimal_conductor_strips_redundancy():
    z = CycloNumber.root(12)
    x = z**4  # a cube root of unity written mod 12
    assert x.minimal_conductor().m == 3


def _divisor_scan(x):
    """The reference minimal conductor: the smallest divisor d of x.m (not
    2 mod 4) whose kernel of (Z/m)* -> (Z/d)* fixes x, then a Fraction solve."""
    m = x.m
    for d in divisors(m):
        if d % 4 == 2:
            continue
        units = [k for k in range(1, m + 1) if gcd(k, m) == 1 and k % d == 1 % d]
        if all(x.galois(k) == x for k in units):
            return _rebase_exact(x, d)
    raise AssertionError("unreachable: d = m is always fixed")


def _rebase_exact(x, d):
    """x rewritten at d by a Fraction solve against zeta_d^j = zeta_m^(j m/d)."""
    m = x.m
    if d == m:
        return x
    phi, rows = _reduction_context(m)
    cols = []
    for j in range(totient(d)):
        col = [0] * phi  # the sparse row of zeta_m^(j m/d), expanded
        for i, c in rows[(j * (m // d)) % m]:
            col[i] = c
        cols.append(col)
    return CycloNumber(d, _solve_exact(cols, list(x.coeffs)))


# (m, d, e): a value of Q(zeta_e), e | d, written at m and descended to d.
# 45 -> 15 reads every third coordinate; 45 -> 3 then takes the trace at
# q = 5; 12 -> 3 and 36 -> 9 read every second coordinate, then trace at
# q = 2; 84 -> 7 drops 2^2 and 3; d = 1 is coordinate 0
_DESCENTS = [(45, 15, 3), (45, 15, 15), (45, 3, 3), (45, 9, 9), (45, 5, 5), (12, 3, 3),
             (12, 4, 4), (36, 9, 3), (84, 7, 7), (84, 12, 3), (40, 5, 5), (24, 8, 8),
             (60, 20, 4), (16, 1, 1), (21, 1, 1)]


@pytest.mark.parametrize("m, d, e", _DESCENTS)
def test_direct_descents_match_the_exact_solve(m, d, e):
    rng = random.Random(m * 100 + d)
    for _ in range(4):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(totient(e))]
        small = CycloNumber(e, coeffs)
        x = small.lift(m)
        got, want = x.descend(d), _rebase_exact(x, d)
        assert (got.m, got.coeffs) == (want.m, want.coeffs)
        assert got == small
    # zeta_m + a value of Q(zeta_d) lies outside Q(zeta_d)
    with pytest.raises(ArithmeticError, match="Q\\(zeta_%d\\) does not hold" % d):
        (CycloNumber.root(m) + got).descend(d)


def test_minimal_conductor_scales_once(monkeypatch):
    # minimal_conductor hands its scale and integer coordinates to the
    # descent; descend computes them itself
    calls = []
    scaled = CycloNumber._scaled
    monkeypatch.setattr(CycloNumber, "_scaled", lambda x: calls.append(x.m) or scaled(x))
    x = CycloNumber(3, [Fraction(1, 2), Fraction(-2, 3)]).lift(45)
    got = x.minimal_conductor()
    assert (got.m, list(got.coeffs)) == (3, [Fraction(1, 2), Fraction(-2, 3)]) and calls == [45]
    assert x.descend(15).descend(3) == got and calls == [45, 45, 15]


@st.composite
def _subfield_values(draw):
    """A value of Q(zeta_d) written at a multiple m <= 60 of d: random
    Fraction coefficients, a rational, or zero."""
    m = draw(st.integers(1, 60))
    d = draw(st.sampled_from(divisors(m)))
    kind = draw(st.sampled_from(["subfield", "rational", "zero"]))
    if kind == "zero":
        return CycloNumber(m, [])
    if kind == "rational":
        return CycloNumber.rational(draw(st.fractions(max_denominator=9))).lift(_norm(m))
    frac = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    small = CycloNumber(d, draw(st.lists(frac, min_size=totient(d), max_size=totient(d))))
    return small.lift(_norm(m))


def _norm(m):
    return m // 2 if m % 4 == 2 else m


@settings(max_examples=400, deadline=None)
@given(_subfield_values())
def test_minimal_conductor_matches_divisor_scan(x):
    want = _divisor_scan(x)
    got = x.minimal_conductor()
    assert (got.m, got.coeffs) == (want.m, want.coeffs)
    again = got.minimal_conductor()
    assert (again.m, again.coeffs) == (got.m, got.coeffs)
    assert got == x


def _power_mod(e, mod):
    """x^e mod the monic mod (ascending), by long division: {index: coeff}."""
    phi = len(mod) - 1
    r = [0] * e + [1]
    for k in range(e, phi - 1, -1):
        c = r[k]
        if c:
            for j, d in enumerate(mod):
                r[k - phi + j] -= c * d
    return {i: c for i, c in enumerate(r[:phi]) if c}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# every m <= 150 not 2 mod 4, with 105 (Phi_105 has the coefficient -2) and
# the benchmark's conductors 275 and 513
ROW_CONDUCTORS = [m for m in range(1, 151) if m % 4 != 2] + [275, 513]


def test_sparse_rows_equal_long_division():
    assert -2 in cyclotomic_poly(105)
    for m in ROW_CONDUCTORS:
        mod = cyclotomic_poly(m)
        # x^m - 1 is the product of Phi_d over d | m, which fixes each Phi_m
        prod = [1]
        for d in divisors(m):
            prod = _poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (m - 1) + [1], m
        phi, rows = _reduction_context(m)
        assert phi == totient(m) == len(mod) - 1
        assert len(rows) == max(m, 2 * phi - 1)
        for e, row in enumerate(rows):
            assert all(c for _, c in row) and [i for i, _ in row] == sorted({i for i, _ in row})
            assert dict(row) == _power_mod(e, mod), (m, e)


def _schoolbook(m, terms):
    """sum w * a * b by polynomial products, each power x^e of a product
    reduced by long division by Phi_m."""
    mod = cyclotomic_poly(m)
    out = {}
    for w, a, b in terms:
        dense = [[d.get(i, 0) for i in range(max(d, default=-1) + 1)] for d in (a, b)]
        for e, c in enumerate(_poly_mul(*dense)):
            if c:
                for i, r in _power_mod(e, mod).items():
                    out[i] = out.get(i, 0) + w * c * r
    return {i: c for i, c in out.items() if c}


# conductors up to 45 and 105 (the -2 in Phi_105), with some 2 mod 4, where
# the kernel folds mod Phi_m on zeta_m's own power basis
KERNEL_CONDUCTORS = [m for m in ROW_CONDUCTORS if m <= 45 or m == 105] + [2, 6, 10, 18, 30]


@st.composite
def _product_terms(draw):
    m = draw(st.sampled_from(KERNEL_CONDUCTORS))
    coeff = st.one_of(
        st.integers(-20, 20), st.fractions(min_value=-5, max_value=5, max_denominator=7)
    )
    # exponents at and past m: the kernel reads them mod m
    sparse = st.dictionaries(st.integers(0, 2 * m + 2), coeff, max_size=5)
    weights = st.integers(-4, 4)
    return m, draw(st.lists(st.tuples(weights, sparse, sparse), max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_product_terms())
@example((1, []))
@example((6, [(-1, {}, {7: 1}), (2, {5: 1}, {5: Fraction(1, 3)})]))
@example((105, [(-3, {104: 2, 0: -1}, {103: 5}), (1, {}, {})]))
def test_product_sum_equals_long_division(case):
    m, terms = case
    assert product_sum(m, terms) == _schoolbook(m, terms)


def test_power_is_the_repeated_product():
    for m, x in ((1, {0: 3}), (5, {1: 2, 3: -1}), (12, {0: Fraction(1, 2), 7: 1}), (6, {1: 1})):
        def mul(a, b):
            return product_sum(m, ((1, a, b),))

        acc = {0: 1}
        for n in range(10):
            assert power(mul, x, n, {0: 1}) == acc, (m, n)
            acc = mul(acc, x)
    z = CycloNumber.root(9, 2) + Fraction(1, 3)
    acc = CycloNumber.rational(1)
    for n in range(10):
        assert z**n == acc
        acc = acc * z


def test_int_coords_contract():
    assert int_coords(3, [(0, 1), (1, 1), (2, 1)]) == {}
    # zeta_6 = -zeta_3^2, at the normalized conductor 3: 1 + zeta_3
    assert int_coords(6, [(1, 1)]) == int_coords(3, [(2, -1)]) == {0: 1, 1: 1}
    assert _equals_integer({}, 0)
    assert _equals_integer({0: 4}, 4) and not _equals_integer({0: 4}, 0)
    assert not _equals_integer({0: 4, 1: 1}, 4)


def test_normalized_halves_only_2_mod_4():
    got = [normalized(m) for m in (1, 2, 3, 4, 6, 8, 10, 12, 30, 36)]
    assert got == [1, 1, 3, 4, 3, 8, 5, 12, 15, 36]


def _powers(a, m):
    out, x = {1 % m}, a % m
    while x not in out:
        out.add(x)
        x = x * a % m
    return out


def test_generating_set_generates_each_subgroup():
    # every subgroup of (Z/m)* generated by two units, built from powers
    for m in range(1, 49):
        units = [a for a in range(m) if gcd(a, m) == 1]
        for a in units:
            for b in units:
                sub = tuple(sorted({x * y % m for x in _powers(a, m) for y in _powers(b, m)}))
                assert unit_closure([a, b], m) == sub
                gens = generating_set(sub, m)
                assert unit_closure(gens, m) == sub, (m, a, b)
                for i, g in enumerate(gens):
                    assert g == min(set(sub) - set(unit_closure(gens[:i], m)))


def _smallest_fixing_divisor(w, fixed):
    for d in divisors(w):
        if d % 4 != 2 and all(fixed(k) for k in range(1, w) if gcd(k, w) == 1 and k % d == 1 % d):
            return d


@pytest.mark.parametrize("w", [8, 16, 24, 32, 40, 48])
def test_value_conductor_descends_through_multiples_of_8(w):
    # single roots, real parts and sums of two roots: conductors 1 to w,
    # the descent from w passing through every multiple of 8 it divides
    z = [CycloNumber.root(w, e) for e in range(w)]
    for e in range(w):
        for x in (z[e], z[e] + z[-e % w], z[e] + z[3 * e % w], z[1] + z[e]):
            x = x.lift(w)

            def fixed(k):
                return x.galois(k) == x

            want = _smallest_fixing_divisor(w, fixed)
            assert value_conductor(w, fixed) == want, (w, e, x)
            assert x.minimal_conductor().m == want


def test_json_round_trip():
    z = CycloNumber.root(9)
    x = _sub(Fraction(2, 3) * z**2, 5)
    assert CycloNumber.from_json(x.to_json()) == x


def test_as_fraction_on_rational():
    x = CycloNumber.rational(Fraction(7, 4)).lift(5)
    assert x.is_rational()
    assert x.as_fraction() == Fraction(7, 4)


@st.composite
def _basis_and_coords(draw):
    """A random integer basis of full column rank and rational coordinates."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    entry = st.integers(-9, 9)
    cols = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    # full column rank: no column lies in the span of the earlier ones
    assume(all(_solve_exact(cols[:j], cols[j]) is None for j in range(k)))
    coords = draw(
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=k, max_size=k)
    )
    return cols, coords


@settings(max_examples=300, deadline=None)
@given(_basis_and_coords(), st.data())
def test_span_solver_agrees_with_solve_exact(case, data):
    cols, coords = case
    n = len(cols[0])
    solver = SpanSolver(cols)
    inside = [sum(x * col[i] for x, col in zip(coords, cols)) for i in range(n)]
    assert solver.solve(inside) == _solve_exact(cols, inside) == coords
    # a unit vector outside the span moves the target out of it
    outside_units = [i for i in range(n) if _solve_exact(cols, [int(j == i) for j in range(n)]) is None]
    assume(outside_units)
    i = data.draw(st.sampled_from(outside_units))
    shift = data.draw(st.fractions(min_value=-5, max_value=5).filter(bool))
    outside = list(inside)
    outside[i] += shift
    assert _solve_exact(cols, outside) is None
    with pytest.raises(ArithmeticError):
        solver.solve(outside)


_CERTIFICATES = """
from conductor.cyclo import CycloNumber, _poly_divmod
for call in (lambda: CycloNumber.root(3).lift(5), lambda: _poly_divmod([1, 0, 1], [1, 1]),
             lambda: CycloNumber.root(45).descend(15)):
    try:
        call()
    except ArithmeticError as exc:
        print("ArithmeticError", exc)
    else:
        print("accepted")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_certificates_raise_in_every_build(optimize):
    if optimize:
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _CERTIFICATES],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "ArithmeticError cannot lift conductor 3 to 5",
            "ArithmeticError integer polynomial division leaves a remainder",
            "ArithmeticError Q(zeta_15) does not hold z45",
        ]
    else:
        with pytest.raises(ArithmeticError, match="cannot lift"):
            CycloNumber.root(3).lift(5)
        with pytest.raises(ArithmeticError, match="remainder"):
            _poly_divmod([1, 0, 1], [1, 1])
        with pytest.raises(ArithmeticError, match="does not hold"):
            CycloNumber.root(45).descend(15)


def test_is_prime_matches_trial_division():
    sieve = [False, False] + [True] * (10**5 - 2)
    for q in range(2, isqrt(10**5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]


def test_totient_and_mu_match_brute_force():
    # totient counts the units mod n; mu is the Dirichlet inverse of 1:
    # the sum of mu(d) over the divisors d of n is 1 at n = 1 and else 0
    for n in range(1, 2000):
        assert totient(n) == sum(1 for k in range(n) if gcd(k, n) == 1)
        assert sum(_mu(d) for d in range(1, n + 1) if n % d == 0) == (n == 1)


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the bases 2..7, 2..11, 2..13 and 2..17
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(PRIME_BOUND - 59)
    assert not is_prime(2**61 + 1) and not is_prime(PRIME_BOUND - 1)
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)
