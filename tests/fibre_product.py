"""The character table of G_m = H x| Z/p^m as a fibre product: the
reference route of the tests.

``iwasawa.quotient_degree_check`` reads G_m's degrees and restrictions to
H off the table of G_n and builds no table of G_m.  The tests build the
whole table here, from the table of G_n, to compare it with
Dixon-Schneider on G_m and to run the degree check on it.
"""

from math import gcd, lcm

from conductor.chartab import (
    CharacterTable,
    _power_maps,
    character_table,
    require_table_bound,
)
from conductor.cyclo import int_coords, normalized
from conductor.groups import conjugacy_classes, finite_quotient


def fibre_product_table(sd, m, base=None) -> CharacterTable:
    """The character table of G_m = H x| Z/p^m, equal to
    ``character_table(G_m)``; for m > n it is built from ``base``, the
    table of G_n (by default its Dixon-Schneider table), so Dixon-Schneider
    runs on G_n and not on G_m.

    The classes of G_m are the pairs (c, i), c a class of G_n and i = the
    gamma-exponent of c mod p^n, and Irr(G_m) is the rows (chi, a),
    0 <= a < p^(m-n), with (chi, a)(c, i) = chi(c) zeta_(p^m)^(a i)
    (``iwasawa.quotient_degree_check`` derives both).  The exponent
    conductor E of G_m (never 2 mod 4) is a multiple of that of G_n and of
    p^m, so each value is folded once at E, per distinct
    (row, class, a i mod p^m).  The classes, power maps and split prime
    are those of G_m itself, and the rows are sorted by Dixon-Schneider's
    key (degree, coordinates at E), so the table is the same.
    Certificates (ArithmeticError): all the members of a class of G_m map
    to one pair (c, i), with i = the gamma-exponent of c mod p^n; distinct
    classes map to distinct pairs; k(G_m) = p^(m-n) k(G_n); and E is a
    multiple of both conductors.
    """
    g = finite_quotient(sd, m)
    if m == sd.n:
        return base or character_table(g)
    require_table_bound(g)
    base = base or character_table(finite_quotient(sd, sd.n))
    hn, pn, pm = sd.h.order, sd.p**sd.n, sd.p**m
    base_of = base.classes.class_of
    base_exponents = [c[0] // hn for c in base.classes.classes]
    cls = conjugacy_classes(g)
    pairs = []
    for members in cls.classes:
        got = {(base_of[x // hn % pn * hn + x % hn], x // hn) for x in members}
        if len(got) != 1:
            raise ArithmeticError("a class of G_m meets two classes of G_n x C_(p^m)")
        c, i = got.pop()
        if base_exponents[c] != i % pn:
            raise ArithmeticError("a class of G_m has another gamma-exponent than its class in G_n")
        pairs.append((c, i))
    if len(set(pairs)) != len(pairs) or len(pairs) != base.n_classes * (pm // pn):
        raise ArithmeticError("the classes of G_m are not the pairs (c, i)")
    # the order of (c, i) in G_n x C_(p^m); power map lengths are orders
    orders = [lcm(len(base.power_maps[c]), pm // gcd(i, pm)) for c, i in pairs]
    e = lcm(*orders)
    e_norm, e_base = normalized(e), normalized(base.exponent)
    if e_norm % e_base or e_norm % pm:
        raise ArithmeticError(
            "exponent conductor %d is no multiple of %d and %d" % (e_norm, e_base, pm)
        )
    folded = {}  # (G_n row, G_n class, a i mod p^m) -> coordinate dict

    def value(r, c, ai):
        coords = folded.get((r, c, ai))
        if coords is None:
            shift = ai * (e_norm // pm)
            terms = [(j * (e_norm // e_base) + shift, x) for j, x in base.coords[r][c].items()]
            coords = folded[r, c, ai] = int_coords(e_norm, terms)
        return coords

    rows = [
        (base.degrees[r], [value(r, c, a * i % pm) for c, i in pairs])
        for r in range(len(base.coords))
        for a in range(pm // pn)
    ]
    powmaps = _power_maps(g, cls.class_of, cls.representatives())
    return CharacterTable.from_rows(g, cls, rows, e, powmaps)
