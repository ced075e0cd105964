"""The Galois action read from the table's power maps against a CycloNumber
reference: fields of values, linear-character orders and the traces of
the formula lattice."""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from conductor.catalog import conductor_catalog, semidirect_catalog, table_catalog
from conductor.chartab import alpha_orbits, character_table, galois_fixed, galois_orbits
from conductor.cyclo import CycloNumber, totient
from conductor.finite import _value_orders, formula_conductor_lattice, working_precision
from conductor.groups import cyclic_group, direct_product
from conductor.localfields import AbelianLocalField, cyclotomic_ideal_basis, field_of_values
from conductor.padic import hnf_columns, vp
from table_values import table_values

PRIMES = (3, 5, 7, 11, 13)
BASES = {
    "qp": AbelianLocalField.qp,
    "unramified": lambda p: AbelianLocalField.unramified(p, 2),
    "cyclotomic": lambda p: AbelianLocalField.cyclotomic(p, 1),
}


@lru_cache(maxsize=None)
def _tables():
    return [character_table(g) for g in table_catalog() + conductor_catalog()]


def _summed_values(table, rows):
    values = table_values(table)
    return [sum((values[r][t] for r in rows[1:]), values[rows[0]][t])
            for t in range(table.n_classes)]


def _reference_field(base, values):
    """m and stabilizer as CycloNumbers give them: the field sits at the lcm
    of base.m and the values' smallest conductors, and a residue is in the
    stabilizer when it fixes every value."""
    values = [v.minimal_conductor() for v in values]
    big = lcm(base.m, *(v.m for v in values))
    stab = [
        a
        for a in base.galois_residues(big)
        if all(v.galois(a % v.m if v.m > 1 else 1) == v for v in values)
    ]
    return big, tuple(stab)


def _power_map_field(base, table, rows):
    k = field_of_values(base, table.exponent, galois_fixed(table, rows))
    return k.m, k.stab


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", sorted(BASES))
def test_field_of_values_matches_cyclo_reference(p, kind):
    base = BASES[kind](p)
    for table in _tables():
        values = table_values(table)
        for orbit in galois_orbits(table, base):
            want = _reference_field(base, values[orbit[0]])
            assert _power_map_field(base, table, orbit[:1]) == want, (table.group.name, orbit)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_alpha_orbit_sums_match_cyclo_reference(kind):
    for sd in semidirect_catalog():
        base = BASES[kind](sd.p)
        table = character_table(sd.h)
        for orb in alpha_orbits(table, sd.alpha):
            want = _reference_field(base, _summed_values(table, orb.members))
            assert _power_map_field(base, table, orb.members) == want, (sd.name(), orb)


def test_linear_orders_match_cyclo_powers():
    for table in _tables():
        values = table_values(table)
        for row, degree in enumerate(table.degrees):
            if degree != 1:
                continue
            want = []
            for v in values[row]:
                s, acc = 1, v
                while acc != 1:
                    acc, s = acc * v, s + 1
                want.append(s)
            assert _value_orders(table, row) == want, (table.group.name, row)


def _reference_formula_lattice(g, p):
    """formula_conductor_lattice with every trace taken by CycloNumber
    arithmetic: Tr_{Q(zeta_d)/Q}(z * chi(g_j^-1)), z on the ideal basis."""
    precision = working_precision(g, p)
    table = character_table(g)
    values = table_values(table)
    columns = []
    for orbit in galois_orbits(table, None):
        rep = orbit[0]
        degree = table.degrees[rep]
        d = lcm(*(v.m for v in values[rep]))
        local = AbelianLocalField(p, d, [])
        target = local.ramification_index * vp(Fraction(g.order, degree), p) - local.different_exponent
        for col in cyclotomic_ideal_basis(p, d, target, precision):
            z = CycloNumber(d, list(col) + [0] * (totient(d) - len(col)))
            columns.append([
                Fraction(degree, g.order) * (z * values[rep][table.inverse_class(j)]).trace_to_q()
                for j in range(table.n_classes)
            ])
    return hnf_columns(p, precision, columns)


def _formula_groups():
    c = cyclic_group
    return [(g, p) for g in conductor_catalog() for p in (3, 5, 7)] + [
        (direct_product(c(9), c(3), name="C9xC3"), 3),
        (c(27), 3),
        (direct_product(c(9), c(9), name="C9xC9"), 3),
        (direct_product(direct_product(c(3), c(3)), direct_product(c(3), c(3))), 3),
    ]


@pytest.mark.parametrize("g,p", _formula_groups(), ids=lambda x: getattr(x, "name", str(x)))
def test_formula_columns_match_trace_to_q(g, p):
    assert formula_conductor_lattice(g, p).cols == _reference_formula_lattice(g, p).cols
