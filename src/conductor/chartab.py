"""Character tables of finite groups over exact cyclotomic numbers.

Dixon-Schneider: split the common eigenvectors of the class-multiplication
matrices over F_l for the smallest prime l = 1 (mod exp(G)) with
l > 2*sqrt(|G|), then lift values to Q(zeta) through root-of-unity
multiplicities, which are plain integers bounded by the degree.  The
eigenvectors are the central characters omega_chi(t) = |C_t| chi(t)/chi(1),
the eigenvalue of M_i at omega_chi being omega_chi(i).

Each class matrix M_i (c_i c_j = sum_t a_ijt c_t) is built when it is
first needed and stored sparse, one list of (t, a_ijt) pairs per row: about
k to 2.5k nonzeros for k classes.  A space is kept in reduced echelon form,
so the coordinates of a vector in it are its entries at the pivot columns;
``padic.echelon_coords`` reads them and certifies that each image stays in
the space.  The eigenspace of a root is the echelon kernel of the small
action matrix times the basis, which is again in echelon form.  A space on
which M_i acts as a scalar is kept as it is.

The table keeps its power maps (power_maps[t][s] = class of rep_t^s).
They carry the Galois action: sigma_u(chi)(g) = chi(g^u), so the class
maps t -> class of rep_t^u, u a unit mod the exponent, permute rows and
central characters alike (Schneider, "Dixon's character table algorithm
revisited", J. Symbolic Comput. 9, 1990).  The power maps come first:
  - Split.  Once a character splits off, the omegas of all its Galois
    conjugates are known (omega o class map).  Each space is tagged with
    the eigenvalues it has seen, so a known omega lies in it exactly when
    it matches the tag.  When the m known omegas matching a root of
    multiplicity m are all there, their echelon span is the eigenspace and
    no kernel is computed; each is certified to lie in the space and to
    satisfy M_i v = lambda v, and every eigenspace to have rank m.
  - Lift.  One row per Galois orbit is lifted; each conjugate row is found
    by its values mod l (rows_mod o class map) and takes the lifted values
    through the same class map.  Within a lifted row, the O(o^2)
    multiplicity lift runs once per rational class; each conjugate class
    takes the multiplicities permuted, b_j = a_{j k^-1 mod o}, certified by
    evaluating them at the class's own value mod l.

Values are stored once, as integers: each distinct multiplicity vector
gives the value's integer power-basis coordinates at the exponent
conductor E (normalized, never 2 mod 4) once, kept as the sparse dict
{i: count} of zeta_E^i (``coords``).  Restriction, the orthogonality
checks, the row permutations, the idempotent sums and the centre elements
of ``fitting`` compute on them, and rows are sorted as their dense
coordinates would compare, read off the dicts (``_row_order``); fields of
values come from the class maps (``galois_fixed``).
``values``, the same numbers as CycloNumbers at their smallest conductor,
serves JSON and ``fitting.reduced_norm``: it is built on first read, one
``minimal_conductor`` per distinct dict.
Certificates
(invariant subspaces, conjugate eigenvectors, eigenspace ranks, conjugate
rows mod l, the lift bound, the permuted lifts, integral restriction
multiplicities) raise ArithmeticError.

``character_table`` runs this on every group it is given.  The level checks
of ``iwasawa`` run it on H and G_n only: the table of G_m, m > n, is built
from the table of G_n as a fibre product (``iwasawa.fibre_product_table``),
and comes out equal to this one.

Everything is deterministic: classes are ordered by smallest member
(identity first), matrices are consumed in class order, eigenvalues
ascending, and finished rows are sorted by (degree, coefficient tuple
at the exponent conductor), compared on the dicts.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, cmp_to_key
from math import gcd, isqrt, lcm

from .cyclo import CycloNumber, generating_set, int_coords, is_prime, normalized, prime_factors
from .errors import GroupTooLargeError
from .groups import FiniteGroup, conjugacy_classes, orbits
from .padic import echelon, echelon_coords, kernel

DEFAULT_BOUND = 2000


def _split_prime(exponent: int, order: int) -> int:
    # smallest prime l = 1 (mod exponent) with l^2 > 4*order; such an l
    # never divides the group order (an element of order l would force
    # l | exponent | l - 1)
    l = exponent + 1
    while not (is_prime(l) and l * l > 4 * order):
        l += exponent
    return l


def _primitive_root(l: int) -> int:
    fact = prime_factors(l - 1)
    for w in range(2, l):
        if all(pow(w, (l - 1) // q, l) != 1 for q in fact):
            return w
    raise AssertionError("no primitive root found")


# -- linear algebra mod l ---------------------------------------------------


def _charpoly(a, l):
    """Characteristic polynomial mod l via Hessenberg reduction, ascending coeffs."""
    n = len(a)
    h = [row[:] for row in a]
    for c in range(n - 2):
        hit = next((r for r in range(c + 1, n) if h[r][c] % l), None)
        if hit is None:
            continue
        if hit != c + 1:
            h[c + 1], h[hit] = h[hit], h[c + 1]
            for r in range(n):
                h[r][c + 1], h[r][hit] = h[r][hit], h[r][c + 1]
        inv = pow(h[c + 1][c], -1, l)
        for r in range(c + 2, n):
            f = (h[r][c] * inv) % l
            if f:
                h[r] = [(x - f * y) % l for x, y in zip(h[r], h[c + 1])]
                for i in range(n):
                    h[i][c + 1] = (h[i][c + 1] + f * h[i][r]) % l
    # p_k = charpoly of leading k x k block
    polys = [[1]]
    for k in range(1, n + 1):
        p = [0] + polys[k - 1]
        top = polys[k - 1]
        p = [(x - h[k - 1][k - 1] * y) % l for x, y in zip(p, top + [0])]
        run = 1
        for i in range(k - 1, 0, -1):
            run = (run * h[i][i - 1]) % l
            f = (run * h[i - 1][k - 1]) % l
            if f:
                low = polys[i - 1] + [0] * (len(p) - len(polys[i - 1]))
                p = [(x - f * y) % l for x, y in zip(p, low)]
        polys.append(p)
    return polys[n]


# -- the table ---------------------------------------------------------------


class CharacterTable(namedtuple(
    "CharacterTable", "group classes coords degrees exponent split_prime power_maps"
)):
    """``coords[row][class]`` = {i: count} on zeta_E^i, E = normalized(exponent);
    ``power_maps[t][s]`` = class of rep_t^s, s < order of rep_t.  No
    ``__slots__``: ``values`` is cached in the instance dict."""

    @property
    def n_classes(self):
        return len(self.classes.classes)

    def representatives(self):
        return self.classes.representatives()

    def sizes(self):
        return self.classes.sizes

    def inverse_class(self, t):
        g = self.group
        return self.classes.class_of[g.inv(self.classes.classes[t][0])]

    @cached_property
    def values(self):
        """values[row][class] as CycloNumbers at their smallest conductor,
        built on first read, once per distinct coordinate dict."""
        e_norm = normalized(self.exponent)
        built = {}

        def value(d):
            key = frozenset(d.items())
            if key not in built:
                dense = [d.get(i, 0) for i in range(max(d, default=0) + 1)]
                built[key] = CycloNumber(e_norm, dense).minimal_conductor()
            return built[key]

        return [[value(d) for d in row] for row in self.coords]

    def value(self, row, elem):
        """Character value at a group element."""
        return self.values[row][self.classes.class_of[elem]]

    def verify_row_orthogonality(self):
        e_norm, sp = normalized(self.exponent), self.coords
        sizes = self.sizes()
        k = self.n_classes
        inv = [self.inverse_class(t) for t in range(k)]
        for i in range(len(sp)):
            for j in range(i, len(sp)):
                total = _sparse_sum(((sizes[t], sp[i][t], sp[j][inv[t]]) for t in range(k)), e_norm)
                if not _equals_integer(total, self.group.order if i == j else 0):
                    return False
        return True

    def verify_column_orthogonality(self):
        e_norm, sp = normalized(self.exponent), self.coords
        sizes = self.sizes()
        order = self.group.order
        k = self.n_classes
        inv = [self.inverse_class(t) for t in range(k)]
        for t in range(k):
            for s in range(t, k):
                total = _sparse_sum(((1, srow[t], srow[inv[s]]) for srow in sp), e_norm)
                if not _equals_integer(total, order // sizes[t] if s == t else 0):
                    return False
        return True

    def verify_degrees(self):
        order = self.group.order
        return (
            sum(d * d for d in self.degrees) == order
            and all(order % d == 0 for d in self.degrees)
        )

    def to_json(self):
        return {
            "order": self.group.order,
            "classes": [
                {"representative": c[0], "size": len(c)} for c in self.classes.classes
            ],
            "exponent": self.exponent,
            "split_prime": self.split_prime,
            "degrees": list(self.degrees),
            "rows": [[v.to_json() for v in row] for row in self.values],
        }


def _sparse_sum(terms, e_norm: int) -> dict:
    """Integer coordinates {index: count}, zeros dropped, at conductor e_norm
    of the sum of w * a * b over (w, a, b) in terms, a and b sparse sums
    {exponent: count} of zeta_e_norm."""
    acc: dict = {}
    for w, a, b in terms:
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = ea + eb
                acc[key] = acc.get(key, 0) + w * ca * cb
    return int_coords(e_norm, acc.items())


def _equals_integer(coords: dict, n: int) -> bool:
    return coords == ({0: n} if n else {})


def _row_order(x, y):
    """Dixon-Schneider's row order, by degree and then by the dense
    coordinates class by class, read off (degree, coordinate dicts): two
    dense vectors first differ at the least index where their dicts do."""
    if x[0] != y[0]:
        return x[0] - y[0]
    for u, v in zip(x[1], y[1]):
        if u != v:
            i = min(i for i in u.keys() | v.keys() if u.get(i, 0) != v.get(i, 0))
            return u.get(i, 0) - v.get(i, 0)
    return 0


def require_table_bound(g: FiniteGroup) -> None:
    """Refuse a group above the order for which tables are built."""
    if g.order > DEFAULT_BOUND:
        raise GroupTooLargeError(
            "character table limited to order <= %d (got %d)" % (DEFAULT_BOUND, g.order)
        )


def character_table(g: FiniteGroup) -> CharacterTable:
    """The Dixon-Schneider table of g, cached on g.  Every group goes this
    way, the quotients G_m included; ``iwasawa.fibre_product_table`` builds
    the same table of G_m (m > n) from that of G_n."""
    require_table_bound(g)
    cached = getattr(g, "_char_table", None)
    if cached is not None:
        return cached

    cls = conjugacy_classes(g)
    k = len(cls.classes)
    reps = cls.representatives()
    sizes = cls.sizes
    order = g.order
    elem_orders = [g.element_order(z) for z in reps]
    e = lcm(*elem_orders)
    l = _split_prime(e, order)
    powmaps = _power_maps(g, cls.class_of, reps, elem_orders)
    # zeta -> zeta^u for u in a generating set of the units mod e: their
    # class maps generate every Galois conjugation of rows and vectors
    units = [u for u in range(e) if gcd(u, e) == 1]
    gen_maps = [_class_map(powmaps, u) for u in generating_set(units, e)]

    # central characters -> degrees -> values mod l
    inv_class = [cls.class_of[g.inv(z)] for z in reps]
    size_inv = [pow(s, -1, l) for s in sizes]
    rows_mod = []
    degrees = []
    for u in _split(g, cls, gen_maps, l):
        s = sum(u[t] * u[inv_class[t]] * size_inv[t] for t in range(k)) % l
        d2 = (order * pow(s, -1, l)) % l
        d = next(dd for dd in range(1, isqrt(order) + 1) if (dd * dd - d2) % l == 0)
        degrees.append(d)
        rows_mod.append([(d * u[t] * size_inv[t]) % l for t in range(k)])

    # lift to exact cyclotomic values through multiplicities of roots of unity
    w = _primitive_root(l)

    # rational classes: the class of rep_t^u (u a unit mod o) gets its
    # multiplicities from its first class t0 as b_j = a_{j u^-1 mod o}
    source = [None] * k  # source[t] = (t0, u^-1 mod o)
    for t in range(k):
        if source[t] is None:
            o = elem_orders[t]
            for u in range(o):
                c = powmaps[t][u]
                if source[c] is None and gcd(u, o) == 1:
                    source[c] = (t, pow(u, -1, o))
    zetas = [pow(w, (l - 1) // o, l) for o in elem_orders]

    # each distinct multiplicity vector gives the integer coordinates of its
    # value at the exponent conductor once, as the dict that is stored
    lifted = {}  # (o, multiplicities) -> coordinate dict

    def lift(chi, d):
        out, row_mults = [], []
        for t in range(k):
            o = elem_orders[t]
            t0, uinv = source[t]
            if t0 == t:
                vs = [chi[c] for c in powmaps[t]]
                zinv = pow(zetas[t], -1, l)
                mults = tuple(_lift_coeffs(vs, o, zinv, pow(o, -1, l), l))
                if any(c > d for c in mults):
                    raise ArithmeticError("multiplicity lift exceeded the degree")
            else:
                a = row_mults[t0]
                mults = tuple(a[j * uinv % o] for j in range(o))
                if _horner(mults, zetas[t], l) != chi[t]:
                    raise ArithmeticError("permuted multiplicities miss the value mod l")
            row_mults.append(mults)
            coords = lifted.get((o, mults))
            if coords is None:
                terms = ((j * (e // o), c) for j, c in enumerate(mults))
                coords = lifted[o, mults] = int_coords(e, terms)
            out.append(coords)
        return out

    # one lift per Galois orbit of rows: sigma_u(chi) has the value of chi
    # at the class of rep_t^u, so a conjugate row, found by its values mod
    # l, takes the lifted values through the same class map
    index = {tuple(chi): r for r, chi in enumerate(rows_mod)}
    row_coords = [None] * k
    for r in range(k):
        if row_coords[r] is not None:
            continue
        row_coords[r] = lift(rows_mod[r], degrees[r])
        for r1 in (walk := [r]):
            for cmap in gen_maps:
                r2 = index.get(tuple(rows_mod[r1][c] for c in cmap))
                if r2 is None:
                    raise ArithmeticError("a Galois conjugate of a row is missing mod l")
                if row_coords[r2] is None:
                    row_coords[r2] = [row_coords[r1][c] for c in cmap]
                    walk.append(r2)

    # deterministic row order: by degree, then as the dense coordinates at
    # the exponent conductor compare, read off the dicts
    rows = sorted(zip(degrees, row_coords), key=cmp_to_key(_row_order))
    table = CharacterTable(
        group=g,
        classes=cls,
        coords=[coords for _, coords in rows],
        degrees=[degree for degree, _ in rows],
        exponent=e,
        split_prime=l,
        power_maps=powmaps,
    )
    g._char_table = table
    return table


def _power_maps(g, class_of, reps, elem_orders):
    """power_maps[t][s] = class of rep_t^s for s < order of rep_t."""
    out = []
    for z, o in zip(reps, elem_orders):
        pm = [class_of[0]]
        y = z
        for _ in range(o - 1):
            pm.append(class_of[y])
            y = g.mult(y, z)
        out.append(pm)
    return out


def _class_map(power_maps, u):
    """t -> class of rep_t^u: sigma_u(chi)(rep_t) = chi(rep_t^u)."""
    return [pm[u % len(pm)] for pm in power_maps]


def _horner(poly, x, l):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % l
    return acc


def _lift_coeffs(vs, o, zinv, oinv, l):
    """Multiplicities a_j of zeta_o^j from values on the power map."""
    out = []
    zj = 1  # zinv^j
    for _ in range(o):
        s_acc = 0
        zs = 1  # zj^s
        for v in vs:
            s_acc += v * zs
            zs = (zs * zj) % l
        out.append((s_acc * oinv) % l)
        zj = (zj * zinv) % l
    return out


# -- splitting the class matrices mod l --------------------------------------


def _class_matrix(g, cls, i):
    """Sparse M_i: row j lists the (t, a_ijt) with a_ijt != 0, where
    c_i c_j = sum_t a_ijt c_t, so (M_i omega)_j = omega_i omega_j."""
    class_of = cls.class_of
    reps = cls.representatives()
    rows = [{} for _ in reps]
    for x in cls.classes[i]:
        xi = g.inv(x)
        for t, z in enumerate(reps):
            row = rows[class_of[g.mult(xi, z)]]
            row[t] = row.get(t, 0) + 1
    return [list(row.items()) for row in rows]


def _apply(mat, vec, l):
    return [sum(a * vec[t] for t, a in row) % l for row in mat]


def _split(g, cls, conj_maps, l):
    """The central characters omega_chi mod l (identity coordinate 1): the
    common eigenvectors of the class matrices, split in class order.

    A space is (echelon basis, pivots, tag); the tag lists the (i, lambda)
    of every matrix M_i applied so far, so an omega lies in the space
    exactly when omega_i = lambda for each.  Once a character splits off,
    the conj_maps give the omegas of its Galois conjugates (u o class map).
    A root of multiplicity m whose m eigenvectors are all known needs no
    kernel.
    """
    k = len(cls.classes)
    whole = ([[int(r == c) for c in range(k)] for r in range(k)], list(range(k)), ())
    spaces, found = ([whole], []) if k > 1 else ([], [[1]])
    known = {}  # omega of every Galois conjugate of a split-off character
    for i in range(1, k):
        if not spaces:
            break
        mat = _class_matrix(g, cls, i)
        nxt = []
        for basis, piv, tag in spaces:
            # coordinates in an echelon basis are the entries at the pivots;
            # echelon_coords also certifies the image is inside
            cols = [echelon_coords(basis, piv, _apply(mat, b, l), l) for b in basis]
            act = [list(row) for row in zip(*cols)]
            lam = _scalar(act)
            if lam is not None:
                nxt.append((basis, piv, tag + ((i, lam),)))
                continue
            for lam, m in _roots(_charpoly(act, l), l):
                sub_tag = tag + ((i, lam),)
                conj = [v for v in known if all(v[j] == mu for j, mu in sub_tag)]
                if len(conj) == m:
                    sub, sub_piv = _conjugate_span(basis, piv, mat, lam, conj, l)
                else:
                    sub, sub_piv = _eigenspace(basis, piv, act, lam, l)
                if len(sub_piv) != m:
                    raise ArithmeticError(
                        "eigenspace rank %d differs from the multiplicity %d" % (len(sub_piv), m)
                    )
                if m > 1:
                    nxt.append((sub, sub_piv, sub_tag))
                elif sub_piv[0] != 0:
                    raise ArithmeticError("a central character vanishes at the identity")
                else:
                    found.append(sub[0])
                    _orbit(tuple(sub[0]), conj_maps, known)
        spaces = nxt
    if spaces or len(found) != k:
        raise ArithmeticError("class matrices failed to split")
    return found


def _scalar(act):
    """lam when the square matrix act is lam times the identity, else None."""
    lam = act[0][0]
    for r, row in enumerate(act):
        for c, x in enumerate(row):
            if x != (lam if r == c else 0):
                return None
    return lam


def _roots(poly, l):
    """(root, multiplicity) pairs, ascending, of a polynomial over F_l
    (ascending coefficients) that splits into linear factors."""
    out = []
    left = len(poly) - 1
    for lam in range(l):
        if not left:
            break
        m = 0
        while _horner(poly, lam, l) == 0:
            poly = _deflate(poly, lam, l)
            m += 1
        if m:
            out.append((lam, m))
            left -= m
    if left:
        raise ArithmeticError("characteristic polynomial does not split mod l")
    return out


def _deflate(poly, lam, l):
    """Quotient of poly by x - lam (ascending coefficients, zero remainder)."""
    acc, quo = 0, []
    for c in reversed(poly[1:]):
        acc = (acc * lam + c) % l
        quo.append(acc)
    return quo[::-1]


def _eigenspace(basis, piv, act, lam, l):
    """Echelon basis and pivots of the lam-eigenspace of act (coordinates in
    the echelon basis) inside the span of basis."""
    d = len(act)
    shifted = [[(act[r][c] - (lam if r == c else 0)) % l for c in range(d)] for r in range(d)]
    ker, kpiv = echelon(kernel(shifted, l), l)
    # echelon coefficients of an echelon basis give an echelon basis: its
    # entries at the pivot columns piv are the coefficients themselves
    return [_combine(kv, basis, l) for kv in ker], [piv[j] for j in kpiv]


def _combine(coeffs, basis, l):
    out = [0] * len(basis[0])
    for f, row in zip(coeffs, basis):
        if f:
            out = [x + f * y for x, y in zip(out, row)]
    return [x % l for x in out]


def _conjugate_span(basis, piv, mat, lam, conj, l):
    """Echelon span of Galois conjugate omegas, each certified to lie in the
    space and to satisfy M_i v = lam v."""
    for v in conj:
        echelon_coords(basis, piv, v, l)
        if _apply(mat, v, l) != [lam * x % l for x in v]:
            raise ArithmeticError("a Galois conjugate is not an eigenvector")
    return echelon(conj, l)


def _orbit(u, maps, seen):
    """Add the orbit of the vector u under the class maps to the dict seen."""
    if u in seen:
        return
    seen[u] = None
    for v in (walk := [u]):
        for cmap in maps:
            w = tuple(v[c] for c in cmap)
            if w not in seen:
                seen[w] = None
                walk.append(w)


# -- orbits of rows and restriction ------------------------------------------


def row_permutations(table: CharacterTable, class_maps) -> list[list[int]]:
    """Row permutation induced by precomposing with each map on classes.

    Row r goes to the row whose value at class t is row r's value at
    class_map[t], looked up by its values, each numbered once.  The Galois
    automorphism zeta -> zeta^k has the map t -> power_maps[t][k mod o_t]
    (sigma_k(chi)(g) = chi(g^k)); an automorphism alpha of the group has
    t -> class of alpha(rep_t).
    """
    ids = {}
    keys = [
        tuple(ids.setdefault(frozenset(d.items()), len(ids)) for d in row) for row in table.coords
    ]
    index = {key: r for r, key in enumerate(keys)}
    return [[index[tuple(key[c] for c in cmap)] for key in keys] for cmap in class_maps]


def galois_exponents(table: CharacterTable, base=None) -> list[int]:
    """Units k mod the table exponent (doubled when 2 mod 4) whose
    automorphisms zeta -> zeta^k act over the base, sorted: all of them
    over Q (base None); over an AbelianLocalField the decomposition group
    at p restricted to the automorphisms fixing the base pointwise."""
    e = table.exponent
    if e % 4 == 2:
        e *= 2
    if base is None:
        return [k for k in range(1, e + 1) if gcd(k, e) == 1]
    residues = base.galois_residues(lcm(e, base.m))
    return sorted({a % e if e > 1 else 1 for a in residues})


def galois_permutations(table: CharacterTable, base=None) -> list[list[int]]:
    """Row permutations of the Galois automorphisms over the base."""
    maps = [_class_map(table.power_maps, k) for k in galois_exponents(table, base)]
    return row_permutations(table, maps)


def galois_orbits(table: CharacterTable, base=None) -> list[list[int]]:
    """Partition of the rows of ``table`` into Galois orbits.

    With ``base=None`` the orbits are over Q (full cyclotomic Galois
    action); for an AbelianLocalField base only the automorphisms fixing
    the base pointwise act.  Orbits come out sorted, by smallest row.
    """
    return [sorted(o) for o in orbits(table.n_classes, galois_permutations(table, base))]


class CharOrbit(namedtuple("CharOrbit", "members eta_degree")):
    """Orbit of irreducible characters of H under a group automorphism;
    ``members`` are row indices in cycle order: members[i+1] = members[i] o alpha."""

    __slots__ = ()

    @property
    def w(self):
        return len(self.members)


def alpha_orbits(table: CharacterTable, alpha) -> list[CharOrbit]:
    """Orbits of table rows under eta -> eta o alpha, smallest row first."""
    cls = table.classes
    (perm,) = row_permutations(table, [[cls.class_of[alpha(z)] for z in cls.representatives()]])
    return [
        CharOrbit(tuple(members), table.degrees[members[0]])
        for members in orbits(table.n_classes, [perm])
    ]


def restrict_and_decompose(
    big: CharacterTable, row: int, small: CharacterTable, embedding=None
) -> list[tuple[int, int]]:
    """Decompose the restriction of big-row to the subgroup of `small`.

    embedding maps elements of the small group into the big group
    (default: identity indices).  Returns (small row, multiplicity) pairs
    with positive multiplicity; multiplicities are certified integers.
    """
    h = small.group
    if embedding is None:
        embedding = list(range(h.order))
    e_big, sp_big = normalized(big.exponent), big.coords
    e_small, sp_small = normalized(small.exponent), small.coords
    if e_big % e_small:
        raise ArithmeticError(
            "exponent conductor %d does not divide %d" % (e_small, e_big)
        )
    step = e_big // e_small
    res = [
        sp_big[row][big.classes.class_of[embedding[z]]]
        for z in small.classes.representatives()
    ]
    sizes = small.classes.sizes
    inv = [small.inverse_class(t) for t in range(small.n_classes)]
    out = []
    for j, eta in enumerate(sp_small):
        total = _sparse_sum(
            (
                (sizes[t], res[t], {e * step: c for e, c in eta[inv[t]].items()})
                for t in range(small.n_classes)
            ),
            e_big,
        )
        m, rest = divmod(total.pop(0, 0), h.order)
        if total or rest:
            raise ArithmeticError("inner product is not an integer")
        if m:
            out.append((j, m))
    return out


def _row_sums(table: CharacterTable, rows, weights) -> list[dict]:
    """Per class t, the coordinates {i: count} of the sum over the rows of
    weight * chi(g_t), zeros dropped (so equal sums have equal dicts)."""
    out = []
    for t in range(table.n_classes):
        acc = {}
        for r, w in zip(rows, weights):
            for i, c in table.coords[r][t].items():
                acc[i] = acc.get(i, 0) + w * c
        out.append({i: c for i, c in acc.items() if c})
    return out


def galois_fixed(table: CharacterTable, rows):
    """fixed(k) of ``field_of_values`` for the rows' summed values: zeta ->
    zeta^k (k a unit mod the exponent) sends the sum at class t to the sum
    at the class of rep_t^k, so it fixes the sums when the class map does."""
    sums = _row_sums(table, rows, [1] * len(rows))
    return lambda k: all(sums[c] == s for c, s in zip(_class_map(table.power_maps, k), sums))


def idempotent_coords(table: CharacterTable, rows) -> list[dict]:
    """Per class t, the coordinates {i: count} of the sum over the given
    rows of chi(1) chi(g_t^-1): |G| times the coefficient of g_t in the sum
    of the central idempotents e_chi = (chi(1)/|G|) sum_g chi(g^-1) g."""
    sums = _row_sums(table, rows, [table.degrees[r] for r in rows])
    return [sums[table.inverse_class(t)] for t in range(table.n_classes)]
