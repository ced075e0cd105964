"""Group construction, conjugacy, automorphisms, semidirect quotients."""

import itertools
import random

import pytest

from conductor.catalog import (
    alternating_4,
    dihedral,
    quaternion_8,
    sd_c3_trivial,
    sd_c7,
    sd_c11,
    semidirect_catalog,
    symmetric_3,
    symmetric_5,
    table_catalog,
)
from conductor.errors import InputError, InvalidQuotientError
from conductor.groups import (
    TABLE_BOUND,
    FiniteGroup,
    GroupAutomorphism,
    SemidirectData,
    conjugacy_classes,
    cyclic_automorphism,
    cyclic_group,
    direct_product,
    finite_quotient,
    orbits,
)
from group_orders import element_order


def test_cyclic_group_law():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.mult(4, 5) == 3
    assert g.inv(2) == 4


def test_class_counts():
    for g, want in ((symmetric_3(), 3), (dihedral(4), 5), (quaternion_8(), 5), (alternating_4(), 4)):
        assert len(conjugacy_classes(g).classes) == want, g.name


def test_class_sizes_partition_group():
    g = dihedral(4)
    cls = conjugacy_classes(g)
    assert sorted(cls.sizes) == [1, 1, 2, 2, 2]
    assert sum(cls.sizes) == g.order


def test_orbits_order_and_cycles():
    shift = [1, 2, 0, 3, 5, 4]
    assert orbits(6, [shift]) == [[0, 1, 2], [3], [4, 5]]
    assert orbits(6, [[2, 0, 1, 3, 4, 5]]) == [[0, 2, 1], [3], [4], [5]]  # cycle order
    assert orbits(6, [shift, [0, 1, 2, 4, 3, 5]]) == [[0, 1, 2], [3, 4, 5]]
    assert orbits(3, []) == [[0], [1], [2]]


@pytest.mark.parametrize("g", table_catalog(), ids=lambda g: g.name)
def test_conjugacy_classes_match_brute_force(g):
    cls = conjugacy_classes(g)
    brute = sorted({tuple(sorted({g.conj(a, x) for a in range(g.order)})) for x in range(g.order)})
    assert [tuple(c) for c in cls.classes] == brute
    assert all(cls.class_of[x] == i for i, c in enumerate(cls.classes) for x in c)


def test_from_table_rejects_non_group():
    bad = [[0, 1], [1, 1]]  # second row not a permutation
    with pytest.raises(InputError):
        FiniteGroup.from_table(bad)


def test_from_table_requires_identity_first():
    # this table is C2 relabeled so index 0 is not the identity
    bad = [[1, 0], [0, 1]]
    with pytest.raises(InputError):
        FiniteGroup.from_table(bad)


# a non-associative loop of order 5: a Latin square with identity 0
_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def _c13_times_loop5():
    """C13 x the loop above (order 65), labelled so that 1 and 64 lie in the
    associative factor C13 x {0}."""
    elems = [(c, 0) for c in range(12)] + [(c, q) for q in range(1, 5) for c in range(13)] + [(12, 0)]
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[((a + c) % 13, _LOOP5[q][r])] for c, r in elems] for a, q in elems
    ]


def test_from_table_rejects_non_associative_loop_above_64():
    table = _c13_times_loop5()
    n = len(table)
    assert n == 65 and all(sorted(row) == list(range(n)) for row in table)
    assert table[0] == list(range(n)) and [row[0] for row in table] == list(range(n))
    # (a b) c = a (b c) holds for every a, b at c in {0, 1, n - 1}
    assert all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in (0, 1, n - 1)
    )
    with pytest.raises(InputError):
        FiniteGroup.from_table(table)


def test_from_table_accepts_group_above_64():
    g = direct_product(symmetric_3(), cyclic_group(12))
    table = [[g.mult(a, b) for b in range(g.order)] for a in range(g.order)]
    h = FiniteGroup.from_table(table)
    assert h.order == 72 and len(conjugacy_classes(h).classes) == 36


def test_automorphism_accepts_exactly_the_homomorphisms():
    # the generator check against the n^2 law, on every permutation fixing 0
    for g in (symmetric_3(), quaternion_8(), cyclic_group(7)):
        n = g.order
        for rest in itertools.permutations(range(1, n)):
            images = [0, *rest]
            law = all(images[g.mult(a, b)] == g.mult(images[a], images[b]) for a in range(n) for b in range(n))
            if law:
                assert GroupAutomorphism(g, images).images == images
            else:
                with pytest.raises(InputError):
                    GroupAutomorphism(g, images)


def test_automorphism_order():
    alpha = cyclic_automorphism(7, 2)
    assert alpha.order() == 3
    with pytest.raises(InputError):
        cyclic_automorphism(6, 2)


def test_semidirect_requires_p_power_order():
    h = cyclic_group(7)
    alpha = cyclic_automorphism(7, 3)  # order 6
    with pytest.raises(InputError):
        SemidirectData(h, alpha, 3)
    with pytest.raises(InputError):
        SemidirectData(h, cyclic_automorphism(7, 2), 4)  # p not prime


def test_semidirect_action_exponent():
    assert sd_c7().n == 1
    assert sd_c3_trivial().n == 0


def test_semidirect_alpha_powers():
    # x -> 2x has order 243 = 3^5 on Z/487, so alpha^t is x -> 2^t x
    sd = SemidirectData(cyclic_group(487), cyclic_automorphism(487, 2), 3)
    assert sd.n == 5 and len(sd.alpha_pows) == 243
    assert sd.alpha_pows[100] == [pow(2, 100, 487) * x % 487 for x in range(487)]


def test_finite_quotient_law():
    sd = sd_c7()
    g = finite_quotient(sd, 1)
    assert g.order == 21
    hn = sd.h.order
    # gamma * h * gamma^-1 = alpha(h) for every h
    gamma = hn
    for x in range(hn):
        assert g.conj(gamma, x) == sd.alpha.images[x]


def test_finite_quotient_level_zero():
    sd = sd_c3_trivial()
    g = finite_quotient(sd, 0)
    assert g.order == 3
    assert all(gen < g.order for gen in g.generators)
    assert len(conjugacy_classes(g).classes) == 3


def _quotient_entries():
    out = list(semidirect_catalog())
    for q in (7, 13):
        out += [
            SemidirectData(cyclic_group(q), cyclic_automorphism(q, k), 3)
            for k in range(2, q)
            if pow(k, 3, q) == 1
        ]
    return out


@pytest.mark.parametrize("sd", _quotient_entries(), ids=lambda sd: "%s-%s" % (sd.name(), sd.alpha.images[1]))
def test_finite_quotient_table_matches_the_law(sd):
    # the rows built from H's rows, block by block, against the closure; G_n
    # keeps them as its table up to TABLE_BOUND, G_m, m > n, keeps none
    m = sd.n
    while sd.h.order * sd.p**m <= TABLE_BOUND:
        g = finite_quotient(sd, m)
        assert (g.table is not None) == (m == sd.n)
        law = g._mult_func
        assert [g.row(a) for a in range(g.order)] == [
            [law(a, b) for b in range(g.order)] for a in range(g.order)
        ]
        m += 1
    assert finite_quotient(sd, m).table is None


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_catalog_quotient_tables_pass_lights_test(sd):
    # the level checks certify the trace form on G_m's law, not the law;
    # the rows themselves are a group's table: from_table runs Light's
    # associativity test and the Latin-square and identity checks on them
    tabled = 0
    for m in range(sd.n, sd.n + 3):
        g = finite_quotient(sd, m)
        if g.order <= TABLE_BOUND:
            rows = [list(g.row(a)) for a in range(g.order)]
            assert FiniteGroup.from_table(rows).order == g.order
            tabled += 1
    assert tabled


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_kept_g_n_adds_no_visible_state(sd):
    # G_n is built once per sd and kept; G_m, m > n, lives only for its
    # call; the kept group does not change the repr
    sd = SemidirectData(sd.h, sd.alpha, sd.p)
    before = repr(sd)
    assert finite_quotient(sd, sd.n) is finite_quotient(sd, sd.n)
    assert finite_quotient(sd, sd.n + 1) is not finite_quotient(sd, sd.n + 1)
    assert repr(sd) == before


def test_finite_quotient_below_action_exponent():
    with pytest.raises(InvalidQuotientError):
        finite_quotient(sd_c7(), 0)


def test_direct_product_structure():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert len(conjugacy_classes(g).classes) == 6


def test_element_orders():
    g = quaternion_8()
    orders = sorted(element_order(g, x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_inverses():
    # table groups and a quotient above TABLE_BOUND (order 1375)
    for g in [finite_quotient(sd_c11(), 3)] + table_catalog():
        assert all(g.mult(x, g.inv(x)) == 0 for x in range(g.order)), g.name


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_quotient_inverses_in_closed_form_are_the_walks(sd):
    # (gamma^i x)^-1 = gamma^(-i) alpha^i(x^-1), listed at the first inv
    for m in range(sd.n, sd.n + 3):
        g = finite_quotient(sd, m)
        walk = FiniteGroup(g.order, g.mult, g.generators, row_func=g.row)
        assert [g.inv(x) for x in range(g.order)] == [walk.inv(x) for x in range(g.order)]


def test_quotient_inverses_wait_for_the_first_inv():
    # at level 10000 the order has 4773 digits: nothing is listed until asked
    g = finite_quotient(sd_c7(), 10000)
    assert g._inv is None
    # gamma times gamma^j y is gamma^(j+1) y
    assert g.row(7, 0, 21) == [b + 7 for b in range(21)]


@pytest.mark.parametrize("sd", semidirect_catalog(), ids=lambda sd: sd.name())
def test_partial_rows_are_slices_of_the_row(sd):
    rng = random.Random(sd.h.order)
    for m in range(sd.n, sd.n + 3):
        g = finite_quotient(sd, m)
        for a in rng.sample(range(g.order), min(5, g.order)):
            whole = list(g.row(a))
            ends = ((0, 0), (0, sd.h.order), (1, g.order), (3, min(g.order, 3 * sd.h.order + 2)))
            for start, stop in ends:
                assert g.row(a, start, stop) == whole[start:stop], (m, a, start, stop)
            assert g.row(a, start=g.order - 2) == whole[-2:]
            assert g.row(a, 1, g.order + sd.h.order) == whole[1:]


def test_inverse_walk_stops_on_a_table_that_is_not_a_group():
    # C3 with row 1's entries at columns 1 and 2 swapped: 2 * 2 = 1 and
    # 1 * 2 = 2, so the powers of 2 cycle without reaching the identity
    table = [list(row) for row in cyclic_group(3).table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    bad = FiniteGroup(3, lambda a, b: table[a][b], [], table=table)
    with pytest.raises(ArithmeticError):
        bad.inv(0)


def _psl27_gens():
    """PSL(2, 7) as Moebius maps of the projective line over F_7 (7 is infinity)."""

    def mobius(a, b, c, d):
        out = []
        for x in range(8):
            num, den = (a, c) if x == 7 else ((a * x + b) % 7, (c * x + d) % 7)
            out.append(7 if den == 0 else num * pow(den, -1, 7) % 7)
        return tuple(out)

    return [mobius(1, 1, 0, 1), mobius(2, 0, 0, 1), mobius(0, 6, 1, 0)]


def _random_permutation_gens(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 7)
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = list(range(degree))
        k = rng.randint(2, degree)
        support = rng.sample(range(degree), k)  # a random k-cycle
        for a, b in zip(support, support[1:] + support[:1]):
            p[a] = b
        gens.append(tuple(p))
    return gens, degree


_DIHEDRAL = [
    ([tuple((i + 1) % n for i in range(n)), tuple((n - i) % n for i in range(n))], n)
    for n in (4, 5, 6)
]
PERMUTATION_GROUPS = [
    ([(1, 0, 2), (1, 2, 0)], 3),  # S3
    ([(1, 2, 0, 3), (1, 0, 3, 2)], 4),  # A4
    ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),  # S4
    ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5),  # S5
    ([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5),  # A5
    ([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], 5),  # F20
    (_psl27_gens(), 8),
] + _DIHEDRAL + [_random_permutation_gens(seed) for seed in range(12)]


def _walk_by_composition(gens, degree):
    """Elements in the order a breadth-first walk from the identity reaches
    them, composing x then s for each generator s."""
    ident = tuple(range(degree))
    elems, index = [ident], {ident: 0}
    for cur in elems:
        for p in gens:
            nxt = tuple(p[cur[i]] for i in range(degree))
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
    return elems, index


def _check_against_composition(gens, degree, pairs):
    """The group of ``gens``, after checking its numbering, generators and
    products at ``pairs(order)`` against the walk by composition."""
    g = FiniteGroup.from_permutations(gens, degree)
    elems, index = _walk_by_composition(gens, degree)
    assert g.order == len(elems) and g.generators == [index[p] for p in gens]
    for a, b in pairs(g.order):
        pa, pb = elems[a], elems[b]
        assert g.mult(a, b) == index[tuple(pb[pa[i]] for i in range(degree))]
    return g


@pytest.mark.parametrize(
    "gens,degree", PERMUTATION_GROUPS, ids=["group%d" % i for i in range(len(PERMUTATION_GROUPS))]
)
def test_permutation_table_matches_composition(gens, degree):
    g = _check_against_composition(gens, degree, lambda n: itertools.product(range(n), repeat=2))
    assert g.table is not None


def test_permutation_group_above_the_table_bound():
    rng = random.Random(6)
    g = _check_against_composition(
        [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)],  # S6
        6,
        lambda n: [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)],
    )
    assert g.order == 720 > TABLE_BOUND and g.table is None


def _closure(table, seed):
    got = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for s in list(got):
            for y in (table[x][s], table[s][x]):
                if y not in got:
                    got.add(y)
                    frontier.append(y)
    return got


def _pairwise_greedy_generators(table):
    """Each element outside the closure so far under products on either
    side becomes a generator, in index order."""
    got, gens = {0}, []
    for x in range(1, len(table)):
        if x not in got:
            gens.append(x)
            got = _closure(table, got | {x})
            if len(got) == len(table):
                break
    return gens


def _relabelled(g, rng):
    n = g.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    return [[perm[g.mult(inv[a], inv[b])] for b in range(n)] for a in range(n)]


@pytest.mark.parametrize(
    "g",
    table_catalog()
    + [symmetric_5()]
    + [FiniteGroup.from_permutations(_psl27_gens(), 8, name="PSL(2,7)")],
    ids=lambda g: g.name,
)
def test_greedy_generators_match_pairwise_closure(g):
    rng = random.Random(g.order)
    for table in ([[g.mult(a, b) for b in range(g.order)] for a in range(g.order)],
                  _relabelled(g, rng), _relabelled(g, rng)):
        assert FiniteGroup.from_table(table).generators == _pairwise_greedy_generators(table)
