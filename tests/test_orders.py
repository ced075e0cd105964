"""Rational models of the rings of integers used for scalar extensions."""

from fractions import Fraction

import pytest

from conductor.localfields import AbelianLocalField
from conductor.orders import GlobalFieldModel
from conductor.padic import fraction_inverse


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
        inv = fraction_inverse(m.gram)
        n = m.degree
        prod = [
            [sum(m.gram[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert all(v.denominator == 1 for row in m.gram for v in row)


def test_fraction_inverse_rejects_singular():
    with pytest.raises(ValueError):
        fraction_inverse([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_unramified_needs_inert_model():
    # the quadratic subfield of Q(zeta_5) stands in for the unramified
    # quadratic over Q_3 because 3 stays inert in it
    u = AbelianLocalField.unramified(3, 2)
    m = GlobalFieldModel(u)
    assert m.degree == 2


def test_trace_dual_matches_inverse_different():
    for field in (
        AbelianLocalField.cyclotomic(3, 1),
        AbelianLocalField.cyclotomic(3, 2),
        AbelianLocalField.unramified(3, 2),
    ):
        assert GlobalFieldModel(field).inverse_different_dual_check()
