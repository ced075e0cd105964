"""Character tables: orthogonality, restriction, orbit structure."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from conductor import chartab
from conductor.catalog import (
    c7_c3,
    dihedral,
    quaternion_8,
    s3_x_c9,
    sd_c7,
    semidirect_catalog,
    symmetric_3,
    table_catalog,
)
from conductor.chartab import (
    alpha_orbits,
    character_table,
    galois_permutations,
    restrict_and_decompose,
)
from conductor.cyclo import CycloNumber, generating_set, int_coords, normalized, totient
from conductor.groups import conjugacy_classes, cyclic_group, finite_quotient
from conductor.padic import echelon, echelon_coords, kernel


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
    for g in (cyclic_group(1), symmetric_3(), cyclic_group(8), s3_x_c9()):
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
        mult = acc.as_fraction() / h.order
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
    # chi(1) + 1 at a rational coordinate, chi(1) + zeta_9 at another
    for row, i in ((0, 0), (1, 1)):
        coords = [list(r) for r in tb.coords]
        cell = dict(coords[row][0])
        cell[i] = cell.get(i, 0) + 1
        coords[row][0] = cell
        bad = tb._replace(coords=coords)
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


@pytest.mark.parametrize("make", [c7_c3, s3_x_c9, quaternion_8])
def test_values_are_built_on_first_read(make, monkeypatch):
    # once per distinct coordinate dict, each at its smallest conductor
    calls = []
    minimal = CycloNumber.minimal_conductor

    def counted(self):
        calls.append(self)
        return minimal(self)

    monkeypatch.setattr(CycloNumber, "minimal_conductor", counted)
    table = character_table(make())
    assert not calls
    values = table.values
    assert len(calls) == len({frozenset(d.items()) for row in table.coords for d in row})
    assert table.values is values
    monkeypatch.undo()
    e_norm = normalized(table.exponent)
    for row, coords in zip(values, table.coords):
        for v, d in zip(row, coords):
            assert v == CycloNumber(e_norm, [d.get(i, 0) for i in range(max(d, default=0) + 1)])
            assert v.minimal_conductor().m == v.m


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_row_permutations_compare_values_not_objects(sd):
    # equal coordinate dicts held as distinct objects name the same value
    table = character_table(sd.h)
    copied = table._replace(coords=[[dict(d) for d in row] for row in table.coords])
    assert galois_permutations(copied) == galois_permutations(table)
    assert alpha_orbits(copied, sd.alpha) == alpha_orbits(table, sd.alpha)


def test_json_export_shape():
    t = character_table(symmetric_3())
    obj = t.to_json()
    assert obj["order"] == 6
    assert len(obj["rows"]) == t.n_classes
    assert [c["size"] for c in obj["classes"]] == list(t.sizes())


# -- the dense split and the per-row lift, the reference for character_table --


def _reference_table(g):
    """to_json() and power maps from the dense k x k x k class matrices,
    every eigenspace split by its own kernel in ambient coordinates, and
    every row lifted on its own."""
    cls = conjugacy_classes(g)
    k = len(cls.classes)
    reps = cls.representatives()
    sizes = cls.sizes
    order = g.order
    e = g.exponent()
    l = chartab._split_prime(e, order)
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for x in range(order):
        xi = g.inv(x)
        for t, z in enumerate(reps):
            mats[cls.class_of[x]][cls.class_of[g.mult(xi, z)]][t] += 1
    spaces = [([[int(c == r) for c in range(k)] for r in range(k)], list(range(k)))]
    for i in range(1, k):
        nxt = []
        for basis, piv in spaces:
            if len(piv) == 1:
                nxt.append((basis, piv))
                continue
            imgs = [[sum(a * b for a, b in zip(mrow, row)) % l for mrow in mats[i]] for row in basis]
            act = [list(col) for col in zip(*(echelon_coords(basis, piv, v, l) for v in imgs))]
            poly = chartab._charpoly(act, l)
            for lam in range(l):
                if chartab._horner(poly, lam, l) == 0:
                    shifted = [[(x - (lam if r == c else 0)) % l for c, x in enumerate(row)] for r, row in enumerate(act)]
                    sub = [[sum(kv[r] * basis[r][c] for r in range(len(basis))) % l for c in range(k)] for kv in kernel(shifted, l)]
                    nxt.append(echelon(sub, l))
        spaces = nxt
    assert len(spaces) == k and all(len(piv) == 1 for _, piv in spaces)
    inv_class = [cls.class_of[g.inv(z)] for z in reps]
    orders = [g.element_order(z) for z in reps]
    powmaps = []
    for z, o in zip(reps, orders):
        pm, y = [], 0
        for _ in range(o):
            pm.append(cls.class_of[y])
            y = g.mult(y, z)
        powmaps.append(pm)
    w = chartab._primitive_root(l)
    rows = []
    for (u,), _ in spaces:
        s = sum(u[t] * u[inv_class[t]] * pow(sizes[t], -1, l) for t in range(k)) % l
        d = next(dd for dd in range(1, isqrt(order) + 1) if (dd * dd * s - order) % l == 0)
        chi = [d * u[t] * pow(sizes[t], -1, l) % l for t in range(k)]
        coords = []
        for t, o in enumerate(orders):
            zinv = pow(pow(w, (l - 1) // o, l), -1, l)
            mults = chartab._lift_coeffs([chi[c] for c in powmaps[t]], o, zinv, pow(o, -1, l), l)
            assert max(mults) <= d
            ints = int_coords(e, ((j * (e // o), c) for j, c in enumerate(mults)))
            coords.append(tuple(ints.get(i, 0) for i in range(totient(normalized(e)))))
        rows.append((d, coords))
    rows.sort()
    table = chartab.CharacterTable(
        group=g,
        classes=cls,
        coords=[[{i: c for i, c in enumerate(cs) if c} for cs in coords] for _, coords in rows],
        degrees=[d for d, _ in rows],
        exponent=e,
        split_prime=l,
        power_maps=powmaps,
    )
    return table.to_json(), powmaps


def _reference_groups():
    out = [(g.name, g) for g in table_catalog()]
    for sd in semidirect_catalog():
        for m in range(sd.n, sd.n + 3):
            if sd.h.order * sd.p**m <= 250:
                out.append(("%s-%d" % (sd.name(), m), finite_quotient(sd, m)))
    return out


@pytest.mark.parametrize("g", [g for _, g in _reference_groups()], ids=[n for n, _ in _reference_groups()])
def test_table_equals_dense_reference(g):
    table = character_table(g)
    assert (table.to_json(), table.power_maps) == _reference_table(g)


def test_scalar_action():
    assert chartab._scalar([[3, 0], [0, 3]]) == 3
    assert chartab._scalar([[5]]) == 5
    assert chartab._scalar([[3, 0], [0, 4]]) is None
    assert chartab._scalar([[3, 1], [0, 3]]) is None
    assert chartab._scalar([[3, 0], [1, 3]]) is None


def test_unit_generators_generate_the_units():
    for e in (1, 2, 3, 4, 8, 12, 15, 24, 27, 100, 1375):
        units = [u for u in range(e) if gcd(u, e) == 1]
        got = {1 % e}
        for u in generating_set(units, e):
            got |= {x * u**j % e for x in got for j in range(e)}
        assert got == set(units)


def test_wrong_multiplicity_fails_the_rank_certificate(monkeypatch):
    # a root reported with one more than its multiplicity leaves its
    # eigenspace short of the multiplicity
    roots = chartab._roots

    def inflated(poly, l):
        out = roots(poly, l)
        return [(out[0][0], out[0][1] + 1)] + out[1:]

    monkeypatch.setattr(chartab, "_roots", inflated)
    for g in (symmetric_3(), c7_c3()):
        with pytest.raises(ArithmeticError, match="rank"):
            character_table(g)


def test_conjugate_span_certificates():
    # S3 at l: omega_chi(t) = |C_t| chi(t) / chi(1), eigenvalue omega_chi(1)
    # of M_1; classes (identity, transpositions, 3-cycles)
    g = symmetric_3()
    table = character_table(g)
    l = table.split_prime
    mat = chartab._class_matrix(g, table.classes, 1)
    trivial, sign, standard = ([1, 3, 2], [1, l - 3, 2], [1, 0, l - 1])
    whole = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2])
    assert chartab._conjugate_span(*whole, mat, l - 3, [sign], l) == ([sign], [0])
    assert chartab._conjugate_span(*whole, mat, 0, [standard], l) == ([standard], [0])
    mixed = [(a + b) % l for a, b in zip(sign, trivial)]
    with pytest.raises(ArithmeticError, match="not an eigenvector"):
        chartab._conjugate_span(*whole, mat, l - 3, [mixed], l)
    with pytest.raises(ArithmeticError, match="escaped"):
        chartab._conjugate_span([trivial], [0], mat, l - 3, [sign], l)


def test_partly_known_eigenspace_takes_the_kernel(monkeypatch):
    # with every central character but one known after the first split, a
    # root whose eigenspace holds the unknown one is found by its kernel
    orbit = chartab._orbit
    for g in (dihedral(4), quaternion_8(), dihedral(6)):
        cls = conjugacy_classes(g)
        l = character_table(g).split_prime
        omegas = chartab._split(g, cls, [], l)
        for j in range(len(omegas)):
            others = [tuple(u) for r, u in enumerate(omegas) if r != j]

            def partial(u, maps, seen, others=others):
                orbit(u, maps, seen)
                seen.update(dict.fromkeys(others))

            monkeypatch.setattr(chartab, "_orbit", partial)
            assert chartab._split(g, cls, [], l) == omegas
            monkeypatch.setattr(chartab, "_orbit", orbit)


def test_missing_conjugate_row_raises(monkeypatch):
    # a constant class map is no power map: the conjugate of a row it
    # names is not a row of the table mod l
    monkeypatch.setattr(chartab, "_class_map", lambda power_maps, u: [0] * len(power_maps))
    for g in (symmetric_3(), c7_c3(), s3_x_c9()):
        with pytest.raises(ArithmeticError, match="missing mod l"):
            character_table(g)
