"""Exact linear algebra: F_l kernels, solves over Q, p-adic column
reduction, lattice membership, Smith valuations."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conductor import padic
from conductor.errors import PrecisionExhaustedError
from conductor.padic import (
    DEFAULT_GUARD,
    PLattice,
    echelon,
    hnf_columns,
    kernel,
    lattice_contains,
    residue,
    scaled_residues,
    smith_valuations,
    smith_with_column_transform,
    solution_lattice,
    vp,
)
from span_solver import SpanSolver


def test_vp():
    assert vp(18, 3) == 2
    assert vp(Fraction(9, 2), 3) == 2
    assert vp(Fraction(1, 3), 3) == -1


def test_hnf_diagonal():
    lat = hnf_columns(3, 12, [[1, 0], [0, 3]])
    assert lat.pivots == [0, 1]
    assert lat.pivot_vals == [0, 1]
    assert lat.index_valuation() == 1


def test_hnf_accepts_p_integral_fractions():
    lat = hnf_columns(3, 12, [[Fraction(3, 2), 0], [0, 3]])
    assert lat.pivot_vals == [1, 1]


def test_hnf_is_column_space_invariant():
    cols = [[3, 1, 0], [0, 1, 1], [9, 0, 2]]
    mixed = [
        [a + b for a, b in zip(cols[0], cols[1])],
        cols[1],
        [a + 3 * b for a, b in zip(cols[2], cols[0])],
    ]
    assert hnf_columns(3, 14, cols) == hnf_columns(3, 14, mixed)


def test_lattice_membership():
    lat = hnf_columns(3, 12, [[1, 0], [0, 3]])
    assert lattice_contains(lat, [1, 3])
    assert lattice_contains(lat, [5, -6])
    assert not lattice_contains(lat, [0, 1])


def test_rank_deficient_membership():
    # column space spanned by a single vector in Z^2
    lat = hnf_columns(3, 12, [[1, 2]])
    assert lattice_contains(lat, [3, 6])
    assert not lattice_contains(lat, [1, 0])


def test_smith_valuations():
    assert smith_valuations(3, 12, [[3, 0], [0, 9]]) == [1, 2]
    # unimodular moves do not change the valuations
    assert smith_valuations(3, 12, [[3, 9], [3, 18]]) == [1, 2]
    # every pivot has valuation > 0; the determinantal divisors are 3, 3^3, 3^5
    rows = [[9, 27, 18], [3, 0, 6], [27, 9, 0], [0, 81, 9]]
    assert smith_valuations(3, 12, rows) == [1, 2, 2]


def test_precision_exhaustion_is_loud():
    with pytest.raises(PrecisionExhaustedError):
        hnf_columns(3, 8, [[1, 0], [0, 3]])


# -- non-p-integral input, in every build ---------------------------------------

_NON_INTEGRAL = """
from fractions import Fraction
from conductor.padic import hnf_columns, lattice_contains
lat = hnf_columns(3, 12, [[1, 0], [0, 3]])
for call in (lambda: hnf_columns(3, 12, [[Fraction(1, 3), 0], [0, 1]]),
             lambda: lattice_contains(lat, [Fraction(1, 3), 0])):
    try:
        call()
    except ArithmeticError as exc:
        print("ArithmeticError", exc)
    else:
        print("accepted")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_non_p_integral_entries_raise_arithmetic_error(optimize):
    if optimize:
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _NON_INTEGRAL],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines == ["ArithmeticError 1/3 is not 3-integral"] * 2
    else:
        lat = hnf_columns(3, 12, [[1, 0], [0, 3]])
        with pytest.raises(ArithmeticError, match="not 3-integral"):
            hnf_columns(3, 12, [[Fraction(1, 3), 0], [0, 1]])
        with pytest.raises(ArithmeticError, match="not 3-integral"):
            lattice_contains(lat, [Fraction(1, 3), 0])


def test_residue():
    assert residue(Fraction(1, 2), 3, 9) == 5
    assert residue(-4, 3, 9) == 5
    with pytest.raises(ArithmeticError):
        residue(Fraction(2, 9), 3, 9)


def test_scaled_residues_equal_the_residues_of_the_quotients():
    for den in (1, 2, 9, 18, 45):
        nums = [x * 9 for x in range(-4, 5)] + [0, 27 * 7]
        want = [residue(Fraction(x, den), 3, 3**6) for x in nums]
        assert scaled_residues(nums, den, 3, 3**6) == want
    with pytest.raises(ArithmeticError, match="not 3-integral"):
        scaled_residues([9, 3], 9, 3, 3**6)


# -- the Hermite form and membership against their dense row operations ----------


def _reference_hnf(p, precision, columns):
    """``hnf_columns`` with dense row operations: every elimination and
    canonical step sweeps the whole column.  The pivot search is
    ``padic._pivot``, read at call time, so a patched ``_valuation``
    misleads both routes alike."""
    dim = len(columns[0])
    modulus = p**precision
    work = [[residue(x, p, modulus) for x in col] for col in columns]
    pivots, pivot_vals, placed = [], [], []
    for row in range(dim):
        found = padic._pivot(((idx, col[row]) for idx, col in enumerate(work) if col[row]), p)
        if found is None:
            continue
        best_v, best = found
        if best_v > precision - DEFAULT_GUARD:
            raise PrecisionExhaustedError(
                "pivot valuation %d in row %d exceeds precision %d - guard %d"
                % (best_v, row, precision, DEFAULT_GUARD)
            )
        piv = work.pop(best)
        inv = pow(piv[row] // p**best_v, -1, modulus)
        piv = [(x * inv) % modulus for x in piv]
        for col in work:
            x = col[row]
            if x:
                q = x // p**best_v
                for i in range(dim):
                    col[i] = (col[i] - q * piv[i]) % modulus
        placed.append(piv)
        pivots.append(row)
        pivot_vals.append(best_v)
    if any(any(col) for col in work):
        raise ArithmeticError("unplaced column with visible entries")
    for j in range(len(placed)):
        for i in range(j + 1, len(placed)):
            q = placed[j][pivots[i]] // p ** pivot_vals[i]
            if q:
                for r in range(dim):
                    placed[j][r] = (placed[j][r] - q * placed[i][r]) % modulus
    return PLattice(p, precision, dim, pivots, pivot_vals, placed)


def _reference_contains(lat, vector):
    """``lattice_contains`` with each step sweeping the column from its
    pivot row down."""
    p, modulus = lat.p, lat.p**lat.precision
    v = [residue(x, p, modulus) for x in vector]
    for col, row, a in zip(lat.cols, lat.pivots, lat.pivot_vals):
        x = v[row]
        if x == 0:
            continue
        if x % p**a:
            return False
        q = x // p**a
        for r in range(row, lat.dim):
            v[r] = (v[r] - q * col[r]) % modulus
    floor = p ** max(lat.precision - DEFAULT_GUARD, 1)
    return all(x % floor == 0 for x in v)


def _raised(call):
    """The result of call, or the type and message of what it raised."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _seeded_columns(draw):
    """(p, precision, columns, rng) from a drawn seed: sparse (>= 70 %
    zeros) or dense entries p^e * x, as ints or as p-integral Fractions,
    with rank-deficient, duplicate and zero columns mixed in."""
    p = draw(st.sampled_from([2, 3, 5]))
    precision = draw(st.sampled_from([10, 12, 30]))
    dim, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    sparse, fractions, extra = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [(j, i) for j in range(ncols) for i in range(dim)]
    filled = rng.sample(cells, (3 * len(cells)) // 10) if sparse else cells
    cols = [[0] * dim for _ in range(ncols)]
    for j, i in filled:
        x = rng.randrange(-30, 31) * p ** rng.choice((0, 0, 1, 2, 4))
        if fractions and x:
            x = Fraction(x, rng.choice([u for u in (1, 7, 11, 13) if u % p]))
        cols[j][i] = x
    assert not sparse or 10 * sum(x == 0 for col in cols for x in col) >= 7 * len(cells)
    if extra:
        cols.append(list(cols[rng.randrange(ncols)]))  # a duplicate
        cols.append([0] * dim)  # a zero column
        # a combination of earlier columns: the rank does not grow
        a, b = rng.randrange(-3, 4), p * rng.randrange(-3, 4)
        cols.append([a * x + b * y for x, y in zip(cols[0], cols[-3])])
        rng.shuffle(cols)
    return p, precision, cols, rng


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_seeded_columns())
def test_hnf_and_membership_match_the_dense_row_operations(case):
    p, precision, cols, rng = case
    want = _raised(lambda: _reference_hnf(p, precision, [list(c) for c in cols]))
    got = _raised(lambda: hnf_columns(p, precision, cols))
    assert got == want
    if not isinstance(got, PLattice):
        return
    # probes: the columns, combinations of them (inside), p-shifts and
    # random vectors (mostly outside), ints and Fractions alike
    dim = len(cols[0])
    probes = [list(c) for c in cols]
    for _ in range(6):
        coeffs = [rng.randrange(-4, 5) for _ in cols]
        probes.append([sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(dim)])
        probes.append([rng.randrange(-9, 10) * p ** rng.randrange(3) for _ in range(dim)])
        probes.append([Fraction(x, 1 + p) for x in probes[-1]])
    probes.append([0] * dim)
    for vec in probes:
        assert lattice_contains(got, vec) == _reference_contains(want, vec)
    assert all(lattice_contains(got, vec) for vec in probes[: len(cols)])


_PIVOT_BREAKERS = {
    # every entry claims valuation 1: an entry below it is not cleared
    "overstated": lambda x, p: 1,
    # every entry claims to be a unit: a non-unit pivot has no inverse
    "units": lambda x, p: 0,
}


@pytest.mark.parametrize("breaker", sorted(_PIVOT_BREAKERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_seeded_columns())
def test_hnf_fails_as_the_dense_row_operations_do(breaker, case):
    # a wrong pivot valuation must fail the same way on both routes: the
    # "unplaced column" certificate, a failed inverse or exhaustion
    p, precision, cols, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(padic, "_valuation", _PIVOT_BREAKERS[breaker])
        want = _raised(lambda: _reference_hnf(p, precision, [list(c) for c in cols]))
        assert _raised(lambda: hnf_columns(p, precision, cols)) == want


def test_unplaced_column_certificate_is_reachable(monkeypatch):
    monkeypatch.setattr(padic, "_valuation", _PIVOT_BREAKERS["overstated"])
    for route in (hnf_columns, _reference_hnf):
        with pytest.raises(ArithmeticError, match="unplaced column"):
            route(3, 12, [[3], [1]])


# -- the Smith form against its earlier full column sweep --------------------------


def _reference_smith(p, precision, rows):
    """The tracked ``_smith`` as it was before the column sweep became
    zeroing the tail of the pivot row: every column is swept over every row
    from top."""
    modulus = p**precision
    a = [[x % modulus for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    c = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    out = []
    for top in range(min(nrows, ncols)):
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if a[i][j]:
                    v = vp(a[i][j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if not v:
                            break
            if best is not None and not best[0]:
                break
        if best is None:
            break
        v, bi, bj = best
        if v > precision - DEFAULT_GUARD:
            raise PrecisionExhaustedError("reference: valuation %d" % v)
        a[top], a[bi] = a[bi], a[top]
        if bj != top:
            for row in a:
                row[top], row[bj] = row[bj], row[top]
            c[top], c[bj] = c[bj], c[top]
        inv = pow(a[top][top] // p**v, -1, modulus)
        a[top] = [(x * inv) % modulus for x in a[top]]
        for i in range(top + 1, nrows):
            x = a[i][top]
            if x:
                q = x // p**v
                a[i] = [(y - q * z) % modulus for y, z in zip(a[i], a[top])]
        for j in range(top + 1, ncols):
            x = a[top][j]
            if x:
                q = x // p**v
                for i in range(top, nrows):
                    a[i][j] = (a[i][j] - q * a[i][top]) % modulus
                c[j] = [(y - q * z) % modulus for y, z in zip(c[j], c[top])]
        out.append(v)
    return out, c


def _outcome(call):
    try:
        return call()
    except PrecisionExhaustedError:
        return "exhausted"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(0, 2),
    st.integers(1, 12).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 3)), min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    ),
)
def test_smith_matches_the_full_column_sweep(p, shift, cells):
    # entries x * p^e, all times p^shift, so that pivots of valuation > 0 occur
    rows = [[x * p ** (e + shift) for x, e in row] for row in cells]
    precision = 40
    want = _outcome(lambda: _reference_smith(p, precision, rows))
    got = _outcome(lambda: smith_with_column_transform(p, precision, rows))
    assert _outcome(lambda: smith_valuations(p, precision, rows)) == (
        want if want == "exhausted" else want[0]
    )
    if want == "exhausted":
        assert got == want
        return
    (vals, c_cols), (want_vals, want_cols) = got, want
    assert vals == want_vals
    # the tracked transform, column by column
    assert len(c_cols) == len(want_cols) == len(rows[0])
    for col, want_col in zip(c_cols, want_cols):
        assert col == want_col


_BROKEN_VALUATION = """
import conductor.padic as padic
# a valuation that overstates 1 makes the pivot 3 look least in its row
padic._valuation = lambda x, p: 1
try:
    padic.smith_valuations(3, 12, [[3, 1]])
except ArithmeticError as exc:
    print("ArithmeticError", exc)
else:
    print("accepted")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_smith_checks_the_cleared_entries_in_every_build(optimize):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable] + (["-O"] if optimize else []) + ["-c", _BROKEN_VALUATION],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ArithmeticError entry below the least valuation 1"]


# -- properties of the merged routines -------------------------------------------


def _matrices(entry, max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]), _matrices(st.integers(-20, 20)))
def test_smith_valuations_match_the_tracked_form(p, rows):
    precision = 40
    vals, c_cols = smith_with_column_transform(p, precision, rows)
    assert smith_valuations(p, precision, rows) == vals
    # C is invertible mod p: its columns span Z_p^n
    assert hnf_columns(p, precision, c_cols).index_valuation() == 0
    # columns of C past the rank are killed by the matrix mod p^precision
    modulus = p**precision
    for col in c_cols[len(vals):]:
        assert all(sum(a * x for a, x in zip(row, col)) % modulus == 0 for row in rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3]),
    st.integers(0, 2),
    _matrices(st.integers(-12, 12), max_rows=4, max_cols=3),
)
def test_solution_lattice_is_every_solution_mod_p_q(p, q, rows):
    precision, width = 30, len(rows[0])
    vals, basis = solution_lattice(p, precision, rows, width, q)
    assert vals == smith_valuations(p, precision, rows)
    modulus = p**q
    for col in basis:
        assert all(sum(a * x for a, x in zip(row, col)) % modulus == 0 for row in rows)
    # brute force: the solutions mod p^q number p^(q width) / [Z_p^width : L]
    lat = hnf_columns(p, precision, basis)
    solutions = sum(
        1
        for x in product(range(modulus), repeat=width)
        if all(sum(a * y for a, y in zip(row, x)) % modulus == 0 for row in rows)
    )
    assert solutions * p ** lat.index_valuation() == modulus**width
    assert lat.index_valuation() == sum(max(0, q - v) for v in vals)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), _matrices(st.integers(-30, 30), max_rows=4, max_cols=4))
def test_fl_kernel_has_full_dimension_and_is_killed(l, rows):
    width = len(rows[0])
    ker = kernel(rows, l)
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) % l == 0 for row in rows)
    # brute force: the kernel has l^dim elements
    solutions = sum(
        1
        for x in product(range(l), repeat=width)
        if all(sum(a * y for a, y in zip(row, x)) % l == 0 for row in rows)
    )
    assert solutions == l ** len(ker)
    # n - rank vectors, the rank read off the echelon form
    assert len(ker) == width - len(echelon(rows, l)[1])


def test_span_solver_takes_int_and_fraction_targets_alike():
    solver = SpanSolver([[1, 2, 0], [Fraction(1, 2), 0, 1]])
    coords = solver.solve([0, 4, -4])
    assert coords == solver.solve([Fraction(0), Fraction(4), Fraction(-4)]) == [2, -4]
    assert all(type(x) is Fraction for x in coords)
    for target in ([1, 0, 0], [Fraction(1), Fraction(0), Fraction(0)]):
        with pytest.raises(ArithmeticError, match="outside the span"):
            solver.solve(target)
