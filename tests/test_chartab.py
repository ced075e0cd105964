"""Character tables: orthogonality, restriction, orbit structure."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest

from conductor import chartab
from conductor.catalog import (
    c7_c3,
    dihedral,
    quaternion_8,
    s3_x_c9,
    sd_c3_trivial,
    sd_c7,
    semidirect_catalog,
    symmetric_3,
    table_catalog,
)
from conductor.chartab import (
    alpha_orbits,
    character_table,
    galois_orbits,
    galois_permutations,
    restrict_and_decompose,
)
from conductor.cyclo import CycloNumber, generating_set, int_coords, normalized, totient
from conductor.groups import (
    GroupAutomorphism,
    SemidirectData,
    conjugacy_classes,
    cyclic_automorphism,
    cyclic_group,
    direct_product,
    finite_quotient,
    orbits,
)
from conductor.localfields import AbelianLocalField
from conductor.padic import echelon, echelon_coords, kernel
from fibre_product import fibre_product_table
from group_orders import element_order, exponent
from table_values import table_values


def test_s3_table_values():
    t = character_table(symmetric_3())
    assert t.degrees.count(1) == 2 and t.degrees.count(2) == 1
    # classes come out as (identity, transpositions, 3-cycles)
    assert t.sizes() == [1, 3, 2]
    rows = sorted(
        tuple(v.as_fraction() for v in row) for row in table_values(t)
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
    values = table_values(t)
    for j, rep in enumerate(reps):
        total = sum(
            (values[i][j] * t.degrees[i] for i in range(t.n_classes)),
            CycloNumber.rational(0),
        )
        want = CycloNumber.rational(g.order if rep == 0 else 0)
        assert total == want


def test_restriction_from_direct_product():
    # elements of S3 keep their indices 0..5 inside C9 x S3
    tb = character_table(direct_product(cyclic_group(9), symmetric_3()))
    ts = character_table(symmetric_3())
    for row in range(tb.n_classes):
        parts = restrict_and_decompose(tb, row, ts)
        total = sum(mult * ts.degrees[r] for r, mult in parts)
        assert total == tb.degrees[row]


def _inner_products(res, small, small_values):
    """<Res chi, eta> for every row eta of small, summed as CycloNumbers,
    res the values of chi at the classes of small."""
    h = small.group
    out = []
    for j, eta in enumerate(small_values):
        acc = CycloNumber.rational(0)
        for t, size in enumerate(small.sizes()):
            acc = acc + res[t] * eta[small.inverse_class(t)] * size
        mult = acc.as_fraction() / h.order
        assert mult.denominator == 1
        if mult:
            out.append((j, int(mult)))
    return out


def _restriction_cases():
    """(name, big table, small table), the small group at the same indices
    in the big one: S3 in C9xS3, C2 in S3, C1 in S3, and H in G_m for every
    semidirect catalog entry, C1 and C2 among them, at levels n..n+2 up to
    order 513."""
    s3 = symmetric_3()
    cases = [
        ("S3 in C9xS3", character_table(direct_product(cyclic_group(9), s3)), character_table(s3)),
        ("C2 in S3", character_table(s3), character_table(cyclic_group(2))),
        ("C1 in S3", character_table(s3), character_table(cyclic_group(1))),
    ]
    trivial = [SemidirectData(cyclic_group(q), GroupAutomorphism.identity(cyclic_group(q)), 3)
               for q in (1, 2)]
    for sd in semidirect_catalog() + trivial:
        small = character_table(sd.h)
        for m in range(sd.n, sd.n + 3):
            if sd.h.order * sd.p**m <= 513:
                big = fibre_product_table(sd, m)
                cases.append(("%s level %d" % (sd.name(), m), big, small))
    return cases


def test_restriction_matches_cyclo_inner_products():
    for name, big, small in _restriction_cases():
        on_small = [big.classes.class_of[z] for z in small.representatives()]
        wants = {}  # the reference once per distinct restriction
        big_values, small_values = table_values(big), table_values(small)
        for row in range(big.n_classes):
            key = tuple(frozenset(big.coords[row][t].items()) for t in on_small)
            if key not in wants:
                res = [big_values[row][t] for t in on_small]
                wants[key] = _inner_products(res, small, small_values)
            assert restrict_and_decompose(big, row, small) == wants[key], name


_PERTURBED_RESTRICTION = """
from conductor.catalog import symmetric_3
from conductor.chartab import character_table, restrict_and_decompose
from conductor.groups import cyclic_group, direct_product
tb = character_table(direct_product(cyclic_group(9), symmetric_3()))
ts = character_table(symmetric_3())
# chi(1) + 1 at a rational coordinate, chi(1) + zeta_9 at another
for row, i in ((0, 0), (1, 1)):
    coords = [list(r) for r in tb.coords]
    cell = dict(coords[row][0])
    cell[i] = cell.get(i, 0) + 1
    coords[row][0] = cell
    try:
        restrict_and_decompose(tb._replace(coords=coords), row, ts)
    except ArithmeticError as exc:
        print("ArithmeticError", exc)
    else:
        print("accepted")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_restriction_of_perturbed_table_raises(optimize):
    # the reconstruction certificate is no assert: it raises under -O too
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable] + (["-O"] if optimize else []) + ["-c", _PERTURBED_RESTRICTION],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ArithmeticError restriction is not the sum of its multiplicities"
    ] * 2


def test_each_value_vector_is_lifted_once(monkeypatch):
    # rows that agree on a cyclic subgroup share its value vectors mod l
    lift, seen = chartab._lift_coeffs, []

    def counted(vs, o, zinv, oinv, l):
        seen.append(tuple(vs))
        return lift(vs, o, zinv, oinv, l)

    monkeypatch.setattr(chartab, "_lift_coeffs", counted)
    for g in (symmetric_3(), c7_c3(), s3_x_c9()):
        seen.clear()
        table = character_table(g)
        assert len(seen) == len(set(seen))
        assert len(seen) < table.n_classes**2


def test_corrupted_source_lift_raises(monkeypatch):
    # rotating a multiplicity vector keeps it inside the degree bound but
    # moves its value; evaluating every lift at zeta_o mod l must catch it
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
    values = table_values(table)
    for orb in alpha_orbits(table, sd.alpha):
        for i, r in enumerate(orb.members):
            composed = [values[r][cls.class_of[sd.alpha(z)]] for z in cls.representatives()]
            assert composed == values[orb.members[(i + 1) % orb.w]]


def _reversed_rows(table):
    """The same table with its rows listed in reverse: a genuine table of
    the same group, as a new object."""
    return table._replace(coords=table.coords[::-1], degrees=table.degrees[::-1])


def test_kept_restrictions_serve_only_their_small_table():
    # one big table, two small tables of the same subgroup (rows in a
    # different order): each gets its own decomposition, whichever was
    # kept last, and each equals a fresh one
    tb = character_table(direct_product(cyclic_group(9), symmetric_3()))
    ts = character_table(symmetric_3())
    tr = _reversed_rows(ts)
    last = ts.n_classes - 1
    for row in range(tb.n_classes):
        for _ in range(2):
            for small in (ts, tr, ts):
                got = restrict_and_decompose(tb, row, small)
                assert got == restrict_and_decompose(tb._replace(), row, small)
            mirrored = restrict_and_decompose(tb, row, tr)
            assert sorted((last - j, m) for j, m in mirrored) == got
    # the key is the small table and the restricted values
    sd = SemidirectData(cyclic_group(7), GroupAutomorphism.identity(cyclic_group(7)), 3)
    big, small = character_table(finite_quotient(sd, 1)), character_table(sd.h)
    for r in range(big.n_classes):
        restrict_and_decompose(big, r, small)
    on_h = tuple(id(big.coords[0][big.classes.class_of[x]]) for x in range(7))
    assert (id(small), on_h) in big.__dict__["_restrictions"]


def test_rows_that_restrict_alike_share_one_decomposition(monkeypatch):
    # G_1 of C3 x| Z3 with the trivial action is C3 x C3: its 9 rows have
    # 3 distinct restrictions to H = C3, so 3 decompositions are built
    built, real = [], chartab._decompose
    monkeypatch.setattr(chartab, "_decompose", lambda *a: built.append(a) or real(*a))
    sd = sd_c3_trivial()
    big, small = character_table(finite_quotient(sd, 1)), character_table(sd.h)
    parts = [restrict_and_decompose(big, r, small) for r in range(big.n_classes)]
    assert big.n_classes == 9 and len(built) == 3
    assert sorted(parts) == sorted([[(j, 1)] for j in range(3)] * 3)
    # each caller gets its own list
    parts[0].clear()
    assert restrict_and_decompose(big, 0, small) != [] and len(built) == 3
    # rows that restrict alike read the same value dicts, so the kept
    # decompositions are one per distinct restriction on every entry
    for sd in semidirect_catalog():
        built.clear()
        big, small = character_table(finite_quotient(sd, sd.n)), character_table(sd.h)
        on_h = [big.classes.class_of[x] for x in small.representatives()]
        for r in range(big.n_classes):
            restrict_and_decompose(big, r, small)
        restrictions = {tuple(frozenset(row[t].items()) for t in on_h) for row in big.coords}
        assert len(built) == len(restrictions), sd.name()


def test_doctored_copy_raises_after_a_kept_restriction():
    # the genuine result is kept on the genuine tables; a doctored copy of
    # either table is a new object, so its restriction is computed and fails
    tb = character_table(direct_product(cyclic_group(9), symmetric_3()))
    ts = character_table(symmetric_3())
    genuine = restrict_and_decompose(tb, 0, ts)
    coords = [list(r) for r in tb.coords]
    cell = dict(coords[0][0])
    cell[0] = cell.get(0, 0) + 1
    coords[0][0] = cell
    with pytest.raises(ArithmeticError, match="not the sum of its multiplicities"):
        restrict_and_decompose(tb._replace(coords=coords), 0, ts)
    small = [list(r) for r in ts.coords]
    small[genuine[0][0]] = [{0: 2}] * ts.n_classes
    with pytest.raises(ArithmeticError, match="not the sum of its multiplicities"):
        restrict_and_decompose(tb, 0, ts._replace(coords=small))
    assert restrict_and_decompose(tb, 0, ts) == genuine


def test_alpha_orbits_are_kept_per_automorphism():
    # three automorphisms of C7 on one table: x -> 2x (order 3), x -> -x
    # (order 2) and the identity, each against a fresh table
    table = character_table(cyclic_group(7))
    autos = [cyclic_automorphism(7, k) for k in (2, 6, 1)]
    for _ in range(2):
        for alpha in autos:
            got = alpha_orbits(table, alpha)
            assert got == alpha_orbits(character_table(cyclic_group(7)), alpha)
            assert got == alpha_orbits(table._replace(), alpha)
    assert [sorted(o.w for o in alpha_orbits(table, a)) for a in autos] == [
        [1, 3, 3], [1, 2, 2, 2], [1] * 7
    ]
    # a caller that changes its list does not change the kept one
    alpha_orbits(table, autos[0]).clear()
    assert len(alpha_orbits(table, autos[0])) == 3


def test_trivial_character_row_need_not_come_first():
    t = character_table(cyclic_group(3))
    trivial = [
        i
        for i, row in enumerate(table_values(t))
        if all(v == CycloNumber.rational(1) for v in row)
    ]
    assert len(trivial) == 1


@pytest.mark.parametrize("make", [c7_c3, s3_x_c9, quaternion_8])
def test_values_are_printed_once_per_coordinate_dict(make, monkeypatch):
    # the table reduces no value; its JSON prints each distinct coordinate
    # dict once, at its smallest conductor
    calls = []
    minimal = CycloNumber.minimal_conductor

    def counted(self):
        calls.append(self)
        return minimal(self)

    monkeypatch.setattr(CycloNumber, "minimal_conductor", counted)
    table = character_table(make())
    assert not calls
    rows = table.to_json()["rows"]
    assert len(calls) == len({frozenset(d.items()) for row in table.coords for d in row})
    monkeypatch.undo()
    e_norm = normalized(table.exponent)
    for row, coords in zip(rows, table.coords):
        for obj, d in zip(row, coords):
            v = CycloNumber.from_json(obj)
            assert v == CycloNumber(e_norm, [d.get(i, 0) for i in range(max(d, default=0) + 1)])
            assert v.minimal_conductor().m == v.m


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_row_permutations_compare_values_not_objects(sd):
    # equal coordinate dicts held as distinct objects name the same value
    table = character_table(sd.h)
    copied = table._replace(coords=[[dict(d) for d in row] for row in table.coords])
    assert galois_permutations(copied) == galois_permutations(table)
    assert alpha_orbits(copied, sd.alpha) == alpha_orbits(table, sd.alpha)


def _galois_bases(p):
    unramified = AbelianLocalField.unramified(p, 2)  # fixed field inside Q_p(zeta_l)
    return {
        "Q": None,
        "Q_p": AbelianLocalField.qp(p),
        "unramified quadratic": unramified,
        "Q_p(zeta_p)": AbelianLocalField.cyclotomic(p, 1),
        "Q_p(zeta_l)": AbelianLocalField(p, unramified.m),  # same m, no stabilizer
    }


@pytest.mark.parametrize("p", [3, 5, 7])
def test_galois_orbits_are_kept_per_base(p):
    differ = False
    for g in table_catalog():
        table = character_table(g)
        bases = _galois_bases(p)
        kept = {name: galois_orbits(table, base) for name, base in bases.items()}
        for name, base in bases.items():
            # every base read again, and an equal field built again, hits
            # its own entry; the orbits are tuples, so no caller can change them
            assert galois_orbits(table, base) is kept[name], (g.name, name)
            if base is not None:
                again = AbelianLocalField(p, base.m, base.generating_set())
                assert galois_orbits(table, again) is kept[name], (g.name, name)
            assert isinstance(kept[name], tuple)
            assert all(isinstance(orbit, tuple) for orbit in kept[name])
            perms = galois_permutations(table, base)
            want = [sorted(o) for o in orbits(table.n_classes, perms)]
            assert [list(o) for o in kept[name]] == want, (g.name, name)
        differ |= len(set(kept.values())) > 1
    assert differ  # the bases are told apart somewhere


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
    e = exponent(g)
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
    orders = [element_order(g, z) for z in reps]
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
    mat = chartab.class_matrix(g, table.classes, 1)
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
