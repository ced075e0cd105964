"""Abelian local fields inside cyclotomic towers."""

from math import gcd

import pytest

from conductor.cyclo import CycloNumber, totient
from conductor.errors import ContainmentError, InputError
from conductor.localfields import (
    AbelianLocalField,
    decomposition_group,
    field_of_values,
    relative_data,
)


def test_base_field_invariants():
    k = AbelianLocalField.qp(3)
    assert (k.ramification_index, k.residue_degree, k.degree, k.different_exponent) == (1, 1, 1, 0)


def test_cyclotomic_invariants():
    z3 = AbelianLocalField.cyclotomic(3, 1)
    z9 = AbelianLocalField.cyclotomic(3, 2)
    assert (z3.ramification_index, z3.residue_degree, z3.different_exponent) == (2, 1, 1)
    assert (z9.ramification_index, z9.residue_degree, z9.different_exponent) == (6, 1, 9)


def test_different_exponent_totally_ramified_formula():
    # p^(k-1) (k(p-1) - 1) for Q_p(zeta_{p^k})
    for p in (3, 5):
        for k in (1, 2):
            field = AbelianLocalField.cyclotomic(p, k)
            assert field.different_exponent == p ** (k - 1) * (k * (p - 1) - 1)


def test_unramified_invariants():
    u = AbelianLocalField.unramified(3, 2)
    assert (u.ramification_index, u.residue_degree, u.degree, u.different_exponent) == (1, 2, 2, 0)


def test_relative_data():
    qp = AbelianLocalField.qp(3)
    z3 = AbelianLocalField.cyclotomic(3, 1)
    z9 = AbelianLocalField.cyclotomic(3, 2)
    assert relative_data(qp, z3) == (2, 1, 1)
    assert relative_data(z3, z9) == (3, 1, 6)
    assert relative_data(qp, AbelianLocalField.unramified(3, 2)) == (1, 2, 0)


def test_relative_data_needs_containment():
    z3 = AbelianLocalField.cyclotomic(3, 1)
    u = AbelianLocalField.unramified(3, 2)
    with pytest.raises(ContainmentError):
        relative_data(z3, u)


def test_decomposition_group_is_cyclic_on_p():
    # generated by p mod m; for 3 mod 7 that is everything
    assert set(decomposition_group(3, 7)) == {1, 2, 3, 4, 5, 6}
    assert set(decomposition_group(3, 4)) == {1, 3}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_decomposition_group_by_its_congruence(p):
    # the units mod m = p^k m' whose residue mod m' is a power of p; there
    # are phi(p^k) f of them, f the order of p mod m'
    for m in range(1, 201):
        rest = m
        while rest % p == 0:
            rest //= p
        powers = {pow(p, i, rest) for i in range(rest)}
        want = tuple(a for a in range(m) if gcd(a, m) == 1 and a % rest in powers)
        assert decomposition_group(p, m) == want, (p, m)
        assert len(want) == totient(m // rest) * len(powers)
    if p == 2:
        assert decomposition_group(2, 8) == (1, 3, 5, 7)


def test_field_of_values_detects_rationality():
    qp = AbelianLocalField.qp(3)
    z = CycloNumber.root(7)
    period = z + z**2 + z**4
    k = field_of_values(qp, 7, lambda a: period.galois(a) == period)
    # the Gauss period generates the quadratic subfield; 3 is inert there
    assert (k.ramification_index, k.residue_degree) == (1, 2)
    five = CycloNumber.rational(5)
    k2 = field_of_values(qp, 7, lambda a: five.galois(a % five.m) == five)
    assert k2.equals(qp) and k2.m == 1


def test_json_round_trip():
    u = AbelianLocalField.unramified(3, 2)
    again = AbelianLocalField.from_json(u.to_json())
    assert again.equals(u)


def test_rejects_even_prime():
    with pytest.raises(InputError):
        AbelianLocalField.qp(2)
