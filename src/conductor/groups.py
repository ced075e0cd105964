"""Finite groups, automorphisms, and semidirect data H x| Z_p.

Elements of a FiniteGroup are integers 0..order-1 with 0 the identity.
Groups of order <= 512 carry a full multiplication table; larger groups
multiply through a callable (permutation images or the semidirect
decomposition), so quotients H x| Z/p^m stay usable past the table bound.
Every group reads by rows too: ``row(a, start, stop)`` lists the products
a b for b = start..stop-1, the whole row by default.  A quotient G_m,
m > n, keeps no table at any order: its rows are read off H's table block
by block, and its inverses come in closed form at the first ``inv``, so
building it allocates nothing in proportion to |G_m|.  Permutation groups
are walked from the identity by right multiplication, and their tables
filled from the walk's parent pointers (Schreier vectors).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .cyclo import require_odd_prime
from .errors import GroupTooLargeError, InputError, InvalidQuotientError

TABLE_BOUND = 512
ELEMENT_BOUND = 100000  # largest permutation closure, and largest degree


def kept(owner, name, key, build):
    """build(), kept on ``owner`` in the dict attribute ``name`` under
    ``key``; a build that raises stores nothing.  The result is shared, so
    no caller mutates it, and a ``_replace`` copy of the owner starts empty.
    No ``owner.__dict__``: on CPython 3.11 reading it turns the instance's
    inline attributes into a dict, and every later attribute read on the
    owner (``g.table`` in ``mult``) gets slower."""
    cache = getattr(owner, name, None)
    if cache is None:
        cache = {}
        setattr(owner, name, cache)
    if key not in cache:
        cache[key] = build()
    return cache[key]


class FiniteGroup:
    def __init__(
        self, order, mult_func, generators, name="G", table=None, row_func=None, inverses=None
    ):
        """A group given ``row_func`` ((a, start, stop) -> the products a b
        for b = start..stop-1) keeps only the table it is given; any other
        fills one up to TABLE_BOUND.  ``inverses`` () -> the list of
        inverses is called at the first ``inv``, in place of the walk."""
        self.order = order
        self.name = name
        self.generators = list(generators)
        if table is None and row_func is None and order <= TABLE_BOUND:
            table = [[mult_func(a, b) for b in range(order)] for a in range(order)]
        self.table = table
        self._mult_func = mult_func
        self._row_func = row_func
        self._inverses = inverses
        self._inv = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_table(table, name="G"):
        n = len(table)
        for row in table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise InputError("multiplication table rows must be permutations of 0..n-1")
        if any(table[0][b] != b for b in range(n)) or any(table[a][0] != a for a in range(n)):
            raise InputError("element 0 must be the identity")
        g = FiniteGroup(n, lambda a, b: table[a][b], [], name=name, table=table)
        gens = g._greedy_generators()
        # Light's test.  The walk of _greedy_generators reaches all n elements
        # as left-normed products (..(s1 s2)..) sk of the generators, and the
        # s with (x s) y = x (s y) for all x, y are closed under products:
        # (x (s t)) y = ((x s) t) y = (x s)(t y) = x (s (t y)) = x ((s t) y).
        # So checking the generators proves associativity, for any table
        for s in gens:
            row_s = table[s]
            for x in range(n):
                row_x = table[x]
                if list(table[row_x[s]]) != list(map(row_x.__getitem__, row_s)):
                    raise InputError("table is not associative")
        g.generators = gens
        return g

    @staticmethod
    def from_permutations(gens, degree, name="G"):
        """Group generated by permutations (tuples of images on 0..degree-1).

        The walk from the identity numbers the elements, records right[s][x],
        the index of x gens[s], and a parent (x, s) with y = x gens[s] for each
        new y.  Up to TABLE_BOUND, column 0 of the table is the identity and
        column y is right[s] applied to column x, since a (x s) = (a x) s."""
        gens = [tuple(p) for p in gens]
        for p in gens:
            if sorted(p) != list(range(degree)):
                raise InputError("generator is not a permutation of 0..degree-1")
        ident = tuple(range(degree))
        elems = [ident]
        index = {ident: 0}
        parent, right = [None], [[] for _ in gens]
        for x, cur in enumerate(elems):  # grows while it is walked
            for s, p in enumerate(gens):
                nxt = tuple(map(p.__getitem__, cur))
                y = index.get(nxt)
                if y is None:
                    y = index[nxt] = len(elems)
                    elems.append(nxt)
                    parent.append((x, s))
                    if y >= ELEMENT_BOUND:
                        raise GroupTooLargeError(
                            "permutation closure exceeded %d elements" % ELEMENT_BOUND
                        )
                right[s].append(y)
        n = len(elems)

        def mult(a, b):
            pa, pb = elems[a], elems[b]
            return index[tuple(pb[pa[i]] for i in range(degree))]

        table = None
        if n <= TABLE_BOUND:
            cols = [list(range(n))]
            for x, s in parent[1:]:
                cols.append(list(map(right[s].__getitem__, cols[x])))
            table = [list(row) for row in zip(*cols)]
        return FiniteGroup(n, mult, [index[p] for p in gens], name=name, table=table)

    def _greedy_generators(self):
        """Each element not yet reached becomes a generator, in index order,
        until the walk from 0 by right multiplication reaches all of G."""
        table, seen = self.table, [True] + [False] * (self.order - 1)
        reached, gens = [0], []
        for x in range(1, self.order):
            if seen[x]:
                continue
            gens.append(x)
            done = len(reached)  # reached[:done] is closed under the earlier gens
            for i, y in enumerate(reached):  # grows while it is walked
                row = table[y]
                for s in (gens if i >= done else (x,)):
                    z = row[s]
                    if not seen[z]:
                        seen[z] = True
                        reached.append(z)
            if len(reached) == self.order:
                break
        return gens

    # -- arithmetic ---------------------------------------------------

    def mult(self, a, b):
        if self.table is not None:
            return self.table[a][b]
        return self._mult_func(a, b)

    def row(self, a, start=0, stop=None):
        """The products a b for b = start..stop-1 (the whole row by
        default, stop at most the order); a whole row of a table is the
        table's own, not to be changed by the caller."""
        stop = self.order if stop is None else min(stop, self.order)
        if self.table is not None:
            row = self.table[a]
            return row if (start, stop) == (0, self.order) else row[start:stop]
        if self._row_func is not None:
            return self._row_func(a, start, stop)
        return [self._mult_func(a, b) for b in range(start, stop)]

    def inv(self, a):
        if self._inv is None and self._inverses is not None:
            self._inv = self._inverses()
        if self._inv is None:
            # one walk over the cycle of each element not yet seen:
            # (x^k)^-1 = x^(o-k), o the order of x
            inv = [None] * self.order
            for x in range(self.order):
                if inv[x] is None:
                    cycle, y = [0], x
                    while y != 0:
                        if len(cycle) == self.order:  # not a group's table
                            raise ArithmeticError("element %d has no power equal to 0" % x)
                        cycle.append(y)
                        y = self.mult(y, x)
                    for k, y in enumerate(cycle):
                        inv[y] = cycle[-k % len(cycle)]
            self._inv = inv
        return self._inv[a]

    def conj(self, a, x):
        """a x a^-1."""
        return self.mult(self.mult(a, x), self.inv(a))

    def __repr__(self):
        return "%s(order=%d)" % (self.name, self.order)


class ClassData(namedtuple("ClassData", "classes class_of")):
    """``classes``: sorted element lists, identity class first;
    ``class_of``: element -> class index."""

    __slots__ = ()

    @property
    def sizes(self):
        return [len(c) for c in self.classes]

    def representatives(self):
        return [c[0] for c in self.classes]


def orbits(n: int, perms) -> list[list[int]]:
    """Orbits on 0..n-1 of the group generated by ``perms`` (image lists).

    Orbits come ordered by their smallest point, and each lists its points
    in breadth-first discovery order from that point, so the orbit of a
    single permutation is its cycle in order.
    """
    seen = [False] * n
    out = []
    for x in range(n):
        if seen[x]:
            continue
        seen[x] = True
        orbit = [x]
        for y in orbit:  # grows while it is walked
            for perm in perms:
                z = perm[y]
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
        out.append(orbit)
    return out


def conjugacy_classes(g: FiniteGroup) -> ClassData:
    """Classes ordered by their smallest element, so the identity class is first.

    Conjugation by a generator a reads one row: x a^-1 = (a x^-1)^-1, so
    a x a^-1 = row_a[inv[row_a[inv[x]]]]."""
    inv = [g.inv(x) for x in range(g.order)]
    conj = []
    for a in g.generators:
        row = g.row(a)
        conj.append([row[inv[row[y]]] for y in inv])
    classes = [sorted(orbit) for orbit in orbits(g.order, conj)]
    class_of = [0] * g.order
    for idx, members in enumerate(classes):
        for x in members:
            class_of[x] = idx
    return ClassData(classes, class_of)


class GroupAutomorphism:
    """Automorphism of a FiniteGroup given by the full image list."""

    def __init__(self, group: FiniteGroup, images):
        if len(images) != group.order or sorted(images) != list(range(group.order)):
            raise InputError("automorphism images must be a permutation of the elements")
        if images[0] != 0:
            raise InputError("automorphism must fix the identity")
        # images[x s] = images[x] images[s] for the generators s extends to
        # all of G by induction on word length
        for s in group.generators:
            for x in range(group.order):
                if images[group.mult(x, s)] != group.mult(images[x], images[s]):
                    raise InputError("images do not define a homomorphism")
        self.group = group
        self.images = list(images)

    def __call__(self, x):
        return self.images[x]

    def order(self):
        ident = list(range(self.group.order))
        cur, o = self.images, 1
        while cur != ident:
            cur = [self.images[x] for x in cur]
            o += 1
        return o

    @staticmethod
    def identity(group):
        return GroupAutomorphism(group, list(range(group.order)))

    @staticmethod
    def inner(group, a):
        return GroupAutomorphism(group, [group.conj(a, x) for x in range(group.order)])


class SemidirectData:
    """H x| Gamma with Gamma procyclic pro-p, acting through alpha of order p^n."""

    def __init__(self, h: FiniteGroup, alpha: GroupAutomorphism, p: int):
        require_odd_prime(p)
        self.h, self.alpha, self.p = h, alpha, p
        o = alpha.order()
        n = 0
        while o % self.p == 0:
            o //= self.p
            n += 1
        if o != 1:
            raise InputError("automorphism order must be a power of p")
        self.n = n
        pows = [list(range(self.alpha.group.order))]
        for _ in range(1, self.p**self.n):
            pows.append([self.alpha.images[x] for x in pows[-1]])
        self.alpha_pows = pows

    def name(self):
        return "%s:|Z%d" % (self.h.name, self.p)


def finite_quotient(sd: SemidirectData, m: int) -> FiniteGroup:
    """The quotient H x| Z/p^m; element gamma^i * h has index i*|H| + h.

    H sits at indices 0..|H|-1 and conjugation by the coset generator
    (index |H|) acts on H through alpha.  Requires m >= n so that the
    automorphism factors through the quotient.  Each row is assembled
    from the rows of H's table when it is read, only the cosets a read
    asks for.  The inverses are in closed form,
    (gamma^i x)^-1 = gamma^(-i) alpha^i(x^-1), listed at the first ``inv``.
    G_n is built once and kept on sd (``kept``) with its table up to
    TABLE_BOUND (Dixon-Schneider reads it), so the character table kept on
    it serves every level.  G_m, m > n, is not kept and keeps no table at
    any order: building it allocates nothing in |G_m|, reading a row costs
    O(|G_m|) and the first ``inv`` O(|G_m|).

    The rows need no check of their own.  They are built from H's
    validated table and from alpha, which ``GroupAutomorphism`` validates
    as an automorphism and ``SemidirectData`` as one of order p^n dividing
    p^m, and gamma^i x gamma^j y = gamma^(i+j) alpha^(-j)(x) y is then the
    law of the semidirect product H x| Z/p^m.
    """
    if m < sd.n:
        raise InvalidQuotientError("level m=%d is below the action exponent n=%d" % (m, sd.n))
    if m == sd.n:
        return kept(sd, "_g_n", None, lambda: _quotient(sd, m))
    return _quotient(sd, m)


def _quotient(sd, m):
    """finite_quotient, unkept."""
    hn = sd.h.order
    pm = sd.p**m
    order = hn * pm
    pows, pn, h_table = sd.alpha_pows, sd.p**sd.n, sd.h.table

    def mult(a, b):
        i, x = divmod(a, hn)
        j, y = divmod(b, hn)
        # gamma^i x gamma^j y = gamma^(i+j) alpha^(-j)(x) y
        xs = pows[-j % pn][x]
        return ((i + j) % pm) * hn + (h_table[xs][y] if h_table else sd.h.mult(xs, y))

    def row(a, start, stop):
        # block j of row gamma^i x is the row of alpha^(-j)(x) in H's
        # table, shifted into the coset of gamma^(i+j); only the blocks
        # that meet the columns start..stop-1 are built
        i, x = divmod(a, hn)
        first = start // hn
        out = []
        for j in range(first, -(-stop // hn)):
            out += map(((i + j) % pm * hn).__add__, sd.h.row(pows[-j % pn][x]))
        cut = start - first * hn
        return out[cut : cut + stop - start]

    def inverses():
        h_inv = [sd.h.inv(x) for x in range(hn)]
        return [-i % pm * hn + pows[i % pn][y] for i in range(pm) for y in h_inv]

    table = None
    if m == sd.n and order <= TABLE_BOUND:
        table = [row(a, 0, order) for a in range(order)]
    gens = list(sd.h.generators)
    if pm > 1:
        gens.append(hn)
    name = "%s:|Z/%d^%d" % (sd.h.name, sd.p, m)
    return FiniteGroup(order, mult, gens, name=name, table=table, row_func=row, inverses=inverses)


def convolve(g, a, b):
    """a * b in Z[G], one ``g.row(x)`` per nonzero a[x].  On a group with
    no table each read builds the whole row, O(|G|) even when b is sparse."""
    out = [0] * g.order
    b_terms = [(y, by) for y, by in enumerate(b) if by]
    for x, ax in enumerate(a):
        if ax:
            row = g.row(x)
            for y, by in b_terms:
                # class sums and group elements have unit coefficients
                out[row[y]] += by if ax == 1 else ax * by
    return out


def direct_product(a: FiniteGroup, b: FiniteGroup, name=None) -> FiniteGroup:
    n, k = a.order, b.order

    def mult(x, y):
        xa, xb = divmod(x, k)
        ya, yb = divmod(y, k)
        return a.mult(xa, ya) * k + b.mult(xb, yb)

    gens = [ga * k for ga in a.generators] + list(b.generators)
    return FiniteGroup(n * k, mult, gens, name=name or "%sx%s" % (a.name, b.name))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(n, lambda a, b: (a + b) % n, [1] if n > 1 else [], name="C%d" % n)


def cyclic_automorphism(n: int, k: int) -> GroupAutomorphism:
    """x -> k*x on Z/n."""
    if gcd(k, n) != 1:
        raise InputError("multiplier must be a unit mod n")
    return GroupAutomorphism(cyclic_group(n), [(k * x) % n for x in range(n)])
