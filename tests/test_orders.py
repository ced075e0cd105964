"""Rational models of the rings of integers used for scalar extensions."""

import functools
from fractions import Fraction
from math import gcd

import pytest

from conductor import orders
from conductor.cyclo import _fold, cyclotomic_poly
from conductor.errors import UnsupportedPresentationError
from conductor.localfields import AbelianLocalField
from conductor.orders import GlobalFieldModel
from conductor.padic import DEFAULT_PRECISION, hnf_columns
from span_solver import SpanSolver


def test_q_model_is_trivial():
    m = GlobalFieldModel(AbelianLocalField.qp(3))
    assert m.degree == 1
    assert m.gram == [[Fraction(1)]]


def test_zeta3_gram():
    m = GlobalFieldModel(AbelianLocalField.cyclotomic(3, 1))
    assert m.degree == 2
    assert m.gram == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(-1)]]


def test_gram_is_invertible_and_integral():
    for field in (
        AbelianLocalField.cyclotomic(3, 1),
        AbelianLocalField.cyclotomic(3, 2),
        AbelianLocalField.unramified(3, 2),
    ):
        m = GlobalFieldModel(field)
        n = m.degree
        # column j of the inverse solves gram * x = e_j
        solver = SpanSolver([list(col) for col in zip(*m.gram)])
        inv_cols = [solver.solve([int(i == j) for i in range(n)]) for j in range(n)]
        prod = [
            [sum(m.gram[i][k] * inv_cols[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert all(v.denominator == 1 for row in m.gram for v in row)


def test_degenerate_trace_form_is_refused(monkeypatch):
    # with every trace 0 the Gram columns span no full-rank lattice
    monkeypatch.setattr(orders, "root_trace", lambda m, a: 0)
    with pytest.raises(ArithmeticError, match="degenerate"):
        GlobalFieldModel(AbelianLocalField.cyclotomic(3, 1))


def test_unramified_needs_inert_model():
    # the quadratic subfield of Q(zeta_5) stands in for the unramified
    # quadratic over Q_3 because 3 stays inert in it
    u = AbelianLocalField.unramified(3, 2)
    m = GlobalFieldModel(u)
    assert m.degree == 2


def test_a_presentation_that_is_not_globally_inert_is_refused():
    # 3 has order 3 mod 13, so its decomposition group is 3 of 12 units
    with pytest.raises(UnsupportedPresentationError, match="not globally inert"):
        GlobalFieldModel(AbelianLocalField(3, 13))


def test_trace_dual_matches_inverse_different():
    for field in (
        AbelianLocalField.cyclotomic(3, 1),
        AbelianLocalField.cyclotomic(3, 2),
        AbelianLocalField.unramified(3, 2),
    ):
        assert GlobalFieldModel(field).inverse_different_dual_check()


def _periods_are_dependent(field):
    """Whether the Gauss periods sum_{s in S} zeta_m^(c s), one per coset
    cS of the stabilizer S in (Z/m)*, are linearly dependent over Q: their
    power-basis coordinates mod Phi_m, ranked by Fraction elimination.  A
    trivial stabilizer gets the power basis, which is independent."""
    m = field.m
    if len(field.stab) == 1:
        return False
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    powers = [[1] + [0] * (deg - 1)]  # x^e mod Phi_m, e = 0..m-1
    for _ in range(1, m):
        top = powers[-1][-1]
        shifted = [0] + powers[-1][:-1]
        powers.append([a - top * c for a, c in zip(shifted, phi)])
    cosets = {frozenset(c * s % m for s in field.stab) for c in range(m) if gcd(c, m) == 1}
    rows = [[Fraction(sum(col)) for col in zip(*(powers[e] for e in coset))] for coset in cosets]
    rank = 0
    for col in range(deg):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank < len(rows)


@functools.lru_cache(maxsize=None)
def _inert_sweep():
    """(field, periods dependent, model) for the globally inert fields with
    p in {3, 5, 7, 11} and m <= 60, the stabilizer trivial or generated by
    one of the first five nontrivial elements of the decomposition group;
    e.g. (3, 4, [3]), where zeta4 + zeta4^3 = 0, and (3, 9, [8]), where
    the three periods sum to 0, have dependent Gauss periods."""
    out = []
    for p in (3, 5, 7, 11):
        for m in range(1, 61):
            if m % 4 == 2:
                continue
            decomposition = AbelianLocalField(p, m).galois_group
            if len(decomposition) != sum(1 for a in range(m) if gcd(a, m) == 1):
                continue
            for gens in [()] + [(a,) for a in decomposition if a != 1][:5]:
                field = AbelianLocalField(p, m, gens)
                out.append((field, _periods_are_dependent(field), GlobalFieldModel(field)))
    return out


def test_every_inert_presentation_builds():
    sweep = _inert_sweep()
    assert all(model.degree == field.degree for field, _, model in sweep)
    assert (len(sweep), sum(dependent for _, dependent, _ in sweep)) == (354, 86)


def test_fields_with_dependent_periods_pass_the_dual_check():
    for field, dependent, model in _inert_sweep():
        if dependent:
            assert model.inverse_different_dual_check(), (field.p, field.m, field.stab)


def test_basis_spans_the_power_basis_or_gauss_period_lattice():
    # the reference basis: zeta_m^i for a trivial stabilizer, otherwise one
    # Gauss period sum_{s in S} zeta_m^(c s) per coset cS of the stabilizer
    for field, dependent, model in _inert_sweep():
        if dependent:
            continue
        p, m = field.p, field.m
        if len(field.stab) == 1:
            ref = [[int(i == j) for i in range(field.degree)] for j in range(field.degree)]
        else:
            cosets = {frozenset(c * s % m for s in field.stab) for c in range(m) if gcd(c, m) == 1}
            ref = [_fold(m, ((a, 1) for a in coset), 0) for coset in cosets]
        assert hnf_columns(p, DEFAULT_PRECISION, model.basis) == hnf_columns(
            p, DEFAULT_PRECISION, ref
        ), (p, m, field.stab)
