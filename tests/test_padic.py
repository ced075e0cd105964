"""Exact linear algebra: F_l kernels, Q inverses and determinants, p-adic
column reduction, lattice membership, Smith valuations."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conductor.errors import PrecisionExhaustedError
from conductor.padic import (
    SpanSolver,
    echelon,
    fraction_determinant,
    fraction_inverse,
    hnf_columns,
    kernel,
    lattice_contains,
    residue,
    smith_valuations,
    smith_with_column_transform,
    sublattice_of,
    vp,
)


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


def test_sublattice_of():
    inner = hnf_columns(3, 12, [[3, 0], [0, 9]])
    outer = hnf_columns(3, 12, [[1, 0], [0, 1]])
    assert sublattice_of(inner, outer)
    assert not sublattice_of(outer, inner)


def test_smith_valuations():
    assert smith_valuations(3, 12, [[3, 0], [0, 9]]) == [1, 2]
    # unimodular moves do not change the valuations
    assert smith_valuations(3, 12, [[3, 9], [3, 18]]) == [1, 2]


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
    # C is invertible mod p
    assert fraction_determinant([list(col) for col in c_cols]) % p != 0
    # columns of C past the rank are killed by the matrix mod p^precision
    modulus = p**precision
    for col in c_cols[len(vals):]:
        assert all(sum(a * x for a, x in zip(row, col)) % modulus == 0 for row in rows)


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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_fraction_inverse_and_determinant(rows):
    det = fraction_determinant(rows)
    n = len(rows)
    if det == 0:
        with pytest.raises(ValueError):
            fraction_inverse(rows)
        return
    inv = fraction_inverse(rows)
    prod = [[sum(inv[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert det * fraction_determinant(inv) == 1


def test_span_solver_takes_int_and_fraction_targets_alike():
    solver = SpanSolver([[1, 2, 0], [Fraction(1, 2), 0, 1]])
    coords = solver.solve([0, 4, -4])
    assert coords == solver.solve([Fraction(0), Fraction(4), Fraction(-4)]) == [2, -4]
    assert all(type(x) is Fraction for x in coords)
    for target in ([1, 0, 0], [Fraction(1), Fraction(0), Fraction(0)]):
        with pytest.raises(ArithmeticError, match="outside the span"):
            solver.solve(target)
