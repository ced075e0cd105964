"""Character tables: orthogonality, restriction, orbit structure."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conductor import chartab
from conductor.catalog import s3_x_c9, sd_c7, semidirect_catalog, symmetric_3
from conductor.chartab import alpha_orbits, character_table, restrict_and_decompose
from conductor.cyclo import CycloNumber
from conductor.groups import cyclic_group, finite_quotient


def test_s3_table_values():
    t = character_table(symmetric_3())
    assert t.degrees.count(1) == 2 and t.degrees.count(2) == 1
    # classes come out as (identity, transpositions, 3-cycles)
    assert t.sizes() == [1, 3, 2]
    rows = sorted(
        tuple(v.as_fraction() for v in row) for row in t.values
    )
    assert rows == [
        (Fraction(1), Fraction(-1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0), Fraction(-1)),
    ]


def test_degree_squares_sum_to_order():
    for g in (symmetric_3(), cyclic_group(8), s3_x_c9()):
        t = character_table(g)
        assert sum(d * d for d in t.degrees) == g.order


def test_orthogonality_verifiers():
    t = character_table(s3_x_c9())
    assert t.verify_row_orthogonality()
    assert t.verify_column_orthogonality()
    assert t.verify_degrees()


def test_column_sum_counts_identity():
    # sum over chi of chi(g) chi(1) is |G| at the identity and 0 elsewhere
    g = symmetric_3()
    t = character_table(g)
    reps = t.representatives()
    for j, rep in enumerate(reps):
        total = sum(
            (t.values[i][j] * t.degrees[i] for i in range(t.n_classes)),
            CycloNumber.rational(0),
        )
        want = CycloNumber.rational(g.order if rep == 0 else 0)
        assert total == want


def test_restriction_from_direct_product():
    big = s3_x_c9()
    small = symmetric_3()
    # elements of S3 sit at indices x*9 inside S3 x C9
    embedding = [x * 9 for x in range(6)]
    tb = character_table(big)
    ts = character_table(small)
    for row in range(tb.n_classes):
        parts = restrict_and_decompose(tb, row, ts, embedding=embedding)
        total = sum(mult * ts.degrees[r] for r, mult in parts)
        assert total == tb.degrees[row]


def _inner_products(big, row, small, embedding):
    """<Res chi, eta> for every row eta of small, summed as CycloNumbers."""
    h = small.group
    res = [big.value(row, embedding[z]) for z in small.representatives()]
    out = []
    for j, eta in enumerate(small.values):
        acc = CycloNumber.rational(0)
        for t, size in enumerate(small.sizes()):
            acc = acc + res[t] * eta[small.inverse_class(t)] * size
        mult = (acc / h.order).as_fraction()
        assert mult.denominator == 1
        if mult:
            out.append((j, int(mult)))
    return out


def test_restriction_matches_cyclo_inner_products():
    sd = sd_c7()
    g2 = finite_quotient(sd, 2)
    cases = [
        (character_table(s3_x_c9()), character_table(symmetric_3()), [x * 9 for x in range(6)]),
        (character_table(g2), character_table(sd.h), list(range(sd.h.order))),
    ]
    for big, small, embedding in cases:
        for row in range(big.n_classes):
            want = _inner_products(big, row, small, embedding)
            assert restrict_and_decompose(big, row, small, embedding=embedding) == want


def test_restriction_of_perturbed_table_raises():
    tb = character_table(s3_x_c9())
    ts = character_table(symmetric_3())
    embedding = [x * 9 for x in range(6)]
    for row, bump in ((0, 1), (1, Fraction(1, 2))):
        values = [list(r) for r in tb.values]
        values[row][0] = values[row][0] + bump
        bad = replace(tb, values=values, _sparse=None)
        with pytest.raises(ArithmeticError):
            restrict_and_decompose(bad, row, ts, embedding=embedding)


def test_corrupted_source_lift_raises(monkeypatch):
    # rotating a source multiplicity vector keeps it inside the degree
    # bound but moves its value; the certificate at a conjugate class
    # (g^2 of a generator g) must catch it
    lift = chartab._lift_coeffs

    def rotated(vs, o, zinv, oinv, l):
        out = lift(vs, o, zinv, oinv, l)
        return out[1:] + out[:1]

    monkeypatch.setattr(chartab, "_lift_coeffs", rotated)
    for n in (3, 5):
        with pytest.raises(ArithmeticError):
            character_table(cyclic_group(n))


def test_alpha_orbits_of_c7_squaring():
    sd = sd_c7()
    orbs = alpha_orbits(character_table(sd.h), sd.alpha)
    data = [(o.members, o.w, o.eta_degree) for o in orbs]
    assert data == [((0, 1, 3), 3, 1), ((2, 5, 4), 3, 1), ((6,), 1, 1)]


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_alpha_orbits_are_in_cycle_order(sd):
    table = character_table(sd.h)
    cls = table.classes
    for orb in alpha_orbits(table, sd.alpha):
        for i, r in enumerate(orb.members):
            composed = [table.values[r][cls.class_of[sd.alpha(z)]] for z in cls.representatives()]
            assert composed == table.values[orb.members[(i + 1) % orb.w]]


def test_trivial_character_row_need_not_come_first():
    t = character_table(cyclic_group(3))
    trivial = [
        i
        for i, row in enumerate(t.values)
        if all(v == CycloNumber.rational(1) for v in row)
    ]
    assert len(trivial) == 1


def test_json_export_shape():
    t = character_table(symmetric_3())
    obj = t.to_json()
    assert obj["order"] == 6
    assert len(obj["rows"]) == t.n_classes
    assert [c["size"] for c in obj["classes"]] == list(t.sizes())
