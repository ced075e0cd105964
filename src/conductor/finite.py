"""Central conductor of p-adic group rings of finite groups.

Two independent routes are provided.  ``jacobinski_conductor`` evaluates the
closed formula: one component per Galois orbit of irreducible characters,
with ideal (|G|/chi(1)) * D^-1(o[chi]/o) inside the character field.
``brute_force_conductor`` knows nothing about the formula: it materialises a
maximal order containing Z_p[G], writes down the divisibility constraints
defining {x central : x * maximal_order <= Z_p[G]}, and solves them by
elimination.  ``formula_conductor_lattice`` turns the formula into a lattice
in the same coordinates so the two can be compared bit for bit.

The second half of the module computes Ext^1(M, N) as the cohomology group
H^1(G, Hom(M, N)), from cocycles fixed by their values on the generators,
and checks that the conductor annihilates it, including the sharpness probe
that exhibits a central element just outside the conductor which fails to
annihilate.
"""

import random
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from math import lcm

from .chartab import character_table, galois_fixed, galois_orbits, idempotent_coords
from .cyclo import _fold, normalized, root_trace, totient, value_conductor
from .errors import InputError, UnsupportedPresentationError
from .localfields import AbelianLocalField, field_of_values, relative_data
from .padic import (
    DEFAULT_PRECISION,
    SpanSolver,
    hnf_columns,
    lattice_contains,
    smith_valuations,
    solution_lattice,
    vp,
)


def working_precision(g, p):
    """Enough headroom that |G|-denominators never eat the answer."""
    return 2 * vp(g.order, p) + DEFAULT_PRECISION


# ---------------------------------------------------------------------------
# Formula route: the report


class ConductorComponent(namedtuple(
    "ConductorComponent",
    "rep_row orbit_rows degree field multiplier multiplier_vp e f d_rel valuation",
)):
    __slots__ = ()

    def to_json(self):
        return {
            "rep_row": self.rep_row,
            "orbit_rows": list(self.orbit_rows),
            "degree": self.degree,
            "field": self.field.to_json(),
            "multiplier": {
                "num": self.multiplier.numerator,
                "den": self.multiplier.denominator,
                "vp": self.multiplier_vp,
            },
            "e": self.e,
            "f": self.f,
            "d_rel": self.d_rel,
            "valuation": self.valuation,
        }


class FiniteConductorReport:
    def __init__(self, group_name, group_order, p, base, components):
        self.group_name, self.group_order, self.p = group_name, group_order, p
        self.base, self.components = base, components

    def to_json(self):
        return {
            "group": self.group_name,
            "order": self.group_order,
            "p": self.p,
            "base": self.base.to_json(),
            "components": [c.to_json() for c in self.components],
        }


def jacobinski_conductor(g, p, base=None):
    """Central conductor of o[G], o the valuation ring of ``base``.

    One component per Galois orbit of irreducible characters over the base:
    the fractional ideal (|G|/chi(1)) * D^-1(o[chi]/o) of the character
    field, recorded through its pi-adic valuation
    e(K_chi/base) * e(base) * v_p(|G|/chi(1)) - d(K_chi/base).
    """
    if base is None:
        base = AbelianLocalField.qp(p)
    if base.p != p:
        raise InputError("base field lives over p=%d, not %d" % (base.p, p))
    table = character_table(g)
    components = []
    for orbit in galois_orbits(table, base):
        rep = orbit[0]
        degree = table.degrees[rep]
        field = field_of_values(base, table.exponent, galois_fixed(table, [rep]))
        mult = Fraction(g.order, degree)
        mvp = vp(mult, p)
        if mvp < 0:
            raise ArithmeticError("multiplier %s is not p-integral" % mult)
        e_rel, f_rel, d_rel = relative_data(base, field)
        val = e_rel * base.ramification_index * mvp - d_rel
        components.append(
            ConductorComponent(
                rep_row=rep,
                orbit_rows=orbit,
                degree=degree,
                field=field,
                multiplier=mult,
                multiplier_vp=mvp,
                e=e_rel,
                f=f_rel,
                d_rel=d_rel,
                valuation=val,
            )
        )
    return FiniteConductorReport(
        group_name=g.name,
        group_order=g.order,
        p=p,
        base=base,
        components=components,
    )


# ---------------------------------------------------------------------------
# Block bookkeeping shared by the two lattice routes


def _value_orders(table, row):
    """Per class, the multiplicative order of a linear character's value:
    chi(g)^s = chi(g^s), so at class t it is the least s >= 1 with
    chi(rep_t^s) = 1, read off the power map."""
    if table.degrees[row] != 1:
        raise InputError("character in row %d is not linear" % row)
    chi = table.coords[row]
    return [
        next(s for s in range(1, len(pm) + 1) if chi[pm[s % len(pm)]] == {0: 1})
        for pm in table.power_maps
    ]


def _orbit_idempotent(table, orbit):
    """Per-class coefficients of the central idempotent sum e_chi over a
    rational orbit; ArithmeticError unless every one is rational."""
    n = table.group.order
    coeffs = []
    for d in idempotent_coords(table, orbit):
        if set(d) - {0}:
            raise ArithmeticError("rational-orbit idempotent came out irrational")
        coeffs.append(Fraction(d.get(0, 0), n))
    return coeffs


def _abelian_block_basis(g, table, orbit):
    """Z_p-basis of the maximal order of the block cut out by a linear
    rational orbit: the block is Q_p[x]/Phi_d(x), d the character order,
    and eps * g0^j pulls back the power basis for any g0 on which the
    character has full order."""
    orders = _value_orders(table, orbit[0])
    d = lcm(*orders)
    if d not in orders:
        raise ArithmeticError("the linear character never attains its order %d" % d)
    classes = table.classes
    g0 = classes.classes[orders.index(d)][0]
    eps = _orbit_idempotent(table, orbit)
    vecs = []
    g0_pow = 0
    for _ in range(totient(d)):
        inv_pow = g.inv(g0_pow)
        vec = [eps[classes.class_of[g.mult(x, inv_pow)]] for x in range(g.order)]
        vecs.append(vec)
        g0_pow = g.mult(g0_pow, g0)
    return vecs


def _matrix_block_basis(g, rep_matrices, degree):
    """Z_p-basis of the preimage of M_n(Z_p) inside a split rational block:
    the element (n/|G|) sum_g rep(g^-1)[b][a] g maps to the matrix unit
    E_ab there and to zero in every other block."""
    n = g.order
    inv_mats = [rep_matrices[g.inv(x)] for x in range(n)]
    vecs = []
    for a in range(degree):
        for b in range(degree):
            vecs.append([Fraction(degree * inv_mats[x][b][a], n) for x in range(n)])
    return vecs


def _rep_character_row(table, rep_matrices):
    """The row whose coordinates are the traces of the representation."""
    traces = [sum(row[i] for i, row in enumerate(rep_matrices[z])) for z in table.representatives()]
    want = [{0: tr} if tr else {} for tr in traces]
    if want not in table.coords:
        raise InputError("supplied representation matches no irreducible character")
    return table.coords.index(want)


def maximal_order_basis(g, p, reps=None):
    """Basis, in rational coordinates on group elements, of a maximal order
    containing Z_p[G].

    Linear-character blocks need no input: each rational orbit of linear
    characters contributes a copy of Z_p[x]/Phi_d(x).  Blocks of degree > 1
    require an integral splitting representation, one matrix per generator;
    without one the input is rejected as unsupported.
    """
    table = character_table(g)
    rep_rows = {}
    for gen_mats in reps or ():
        mats = _element_actions(g, gen_mats, len(gen_mats[0]) if gen_mats else 0)
        rep_rows[_rep_character_row(table, mats)] = mats
    basis = []
    for orbit in galois_orbits(table, None):
        degree = table.degrees[orbit[0]]
        if degree == 1:
            vecs = _abelian_block_basis(g, table, orbit)
        elif orbit[0] in rep_rows:
            if len(orbit) != 1:
                raise UnsupportedPresentationError(
                    "degree-%d characters form an irrational orbit; matrix "
                    "blocks are only built over their rational forms" % degree
                )
            vecs = _matrix_block_basis(g, rep_rows[orbit[0]], degree)
        else:
            raise UnsupportedPresentationError(
                "no splitting representation supplied for the degree-%d "
                "character in row %d" % (degree, orbit[0])
            )
        basis.extend(vecs)
    if len(basis) != g.order:
        raise UnsupportedPresentationError(
            "block bases span dimension %d, expected %d" % (len(basis), g.order)
        )
    return basis


# ---------------------------------------------------------------------------
# Brute-force route


def brute_force_conductor(g, p, reps=None, twist_seed=None, precision=None):
    """Lattice {x central : x * O <= Z_p[G]}, O the maximal order of
    ``maximal_order_basis``, in class-sum coordinates, found by solving the
    divisibility constraints directly.

    O is a ring containing Z_p[G], so x * O <= Z_p[G] exactly when the
    identity coefficient eps(x * b) is p-integral for every basis vector b:
    the coefficient of g in x * o is eps(x * o * g^-1), and o * g^-1 lies in
    O.  The plain run solves these n constraints.

    ``twist_seed`` spans O by u * b instead, for a seeded unit
    u = 1 + p*lambda of O, lambda an integer combination of the basis: u and
    u^-1 lie in O, so u O = O and the lattice must not move.  The twisted
    run solves the full n^2 constraints (x * u b)[g] in Z_p: a second
    route, which also checks that O is closed under right multiplication
    by G.
    """
    if precision is None:
        precision = working_precision(g, p)
    basis = maximal_order_basis(g, p, reps)
    if twist_seed is None:
        return _conductor_lattice(g, p, basis, False, precision)
    return _conductor_lattice(g, p, _twist_basis(g, p, basis, twist_seed), True, precision)


def _integer_scaled(vectors):
    """(D, D * vectors) as integers, D the lcm of every denominator."""
    den = lcm(*(x.denominator for vec in vectors for x in vec))
    return den, [[x.numerator * (den // x.denominator) for x in vec] for vec in vectors]


def _conductor_lattice(g, p, vectors, full, precision):
    """{x central : x * M <= Z_p[G]} in class-sum coordinates, M the Z_p-span
    of ``vectors`` (rational coordinates on group elements, any spanning set).

    Constraint (b, g) is sum_l c_l (C_l b)[g] in Z_p, where
    (C_l b)[g] = sum over h in C_l of b[h^-1 g]; ``full`` takes every g, else
    only the identity.  The rows are summed on D * b, so the constraint
    reads row . c = 0 mod p^scale, scale = v_p(D), worked mod
    p^(precision + scale); the unit part of D does not change the row
    module.  The Hermite basis of the row module has at most k vectors, and
    ``solution_lattice`` gives the solutions.
    """
    classes = character_table(g).classes
    class_of = classes.class_of
    k = len(classes.classes)
    den, ints = _integer_scaled(vectors)
    scale = vp(den, p)
    n_work = precision + scale
    rows = {}  # distinct rows; on abelian G the full system repeats most of its n^2
    for vec in ints:
        if full:
            block = [[0] * k for _ in range(g.order)]
            for x, c in enumerate(vec):
                if c:
                    for h in range(g.order):
                        block[g.mult(h, x)][class_of[h]] += c
        else:
            block = [[0] * k]
            for x, c in enumerate(vec):
                if c:
                    block[0][class_of[g.inv(x)]] += c
        rows.update(dict.fromkeys(tuple(row) for row in block))
    row_basis = hnf_columns(p, n_work, list(rows)).cols
    vals, columns = solution_lattice(p, n_work, row_basis, k, scale)
    if len(vals) != k:
        raise ArithmeticError("conductor constraint system is not of full rank")
    return hnf_columns(p, precision, columns)


def _twist_basis(g, p, basis, seed):
    """u * b for every basis vector b, u = 1 + p*lambda for a seeded integer
    combination lambda of the basis.  The products run on the
    integer-scaled D * u and D * b, divided by D^2 once."""
    rng = random.Random(seed)
    n = g.order
    den, ints = _integer_scaled(basis)
    lam = [0] * n
    while not any(lam):
        for vec in ints:
            c = rng.randrange(-2, 3)
            if c:
                for i in range(n):
                    lam[i] += c * vec[i]
    u = [p * c for c in lam]
    u[0] += den
    return [[Fraction(x, den * den) for x in _convolve(g, u, vec)] for vec in ints]


def _convolve(g, a, b):
    out = [0] * g.order
    for x in range(g.order):
        ax = a[x]
        if not ax:
            continue
        for y in range(g.order):
            by = b[y]
            if by:
                # class sums and group elements have unit coefficients
                out[g.mult(x, y)] += by if ax == 1 else ax * by
    return out


# ---------------------------------------------------------------------------
# Formula route, materialised as a lattice in the same coordinates


def formula_conductor_lattice(g, p, precision=None):
    """The lattice the closed formula predicts, in class-sum coordinates.

    Per rational orbit the component is the fractional ideal
    p^(v_p of |G|/chi(1)) * D^-1 of the block centre Z_p[x]/Phi_d(x); it is
    pushed into the centre of Q_p[G] through
    z |-> (chi(1)/|G|) sum_j Tr(z * chi(g_j^-1)) c_j, which hits the value z
    on the chosen orbit and zero on every other one.

    The lattice is built once per (p, precision) and kept on the group, as
    the character table is; a call that raises stores nothing.  The
    returned PLattice is shared between callers and must not be mutated.
    """
    if precision is None:
        precision = working_precision(g, p)
    cache = getattr(g, "_formula_lattices", None)
    if cache is None:
        cache = g._formula_lattices = {}
    if (p, precision) not in cache:
        cache[p, precision] = _formula_lattice(g, p, precision)
    return cache[p, precision]


def _formula_lattice(g, p, precision):
    """formula_conductor_lattice, uncached."""
    table = character_table(g)
    e_norm = normalized(table.exponent)
    columns = []
    for orbit in galois_orbits(table, None):
        rep = orbit[0]
        degree = table.degrees[rep]
        d = value_conductor(table.exponent, galois_fixed(table, [rep]))
        mult_vp = vp(Fraction(g.order, degree), p)
        local = AbelianLocalField(p, d, [])
        target = local.ramification_index * mult_vp - local.different_exponent
        # at E = e_norm, z = sum_a z_a zeta_E^(a E/d), chi = sum_b chi_b zeta_E^b
        # and Tr_{Q(zeta_d)/Q} = phi(d)/phi(E) Tr_{Q(zeta_E)/Q}
        scale = Fraction(degree * totient(d), g.order * totient(e_norm))
        chis = [table.coords[rep][table.inverse_class(j)].items() for j in range(table.n_classes)]
        for col in _cyclotomic_ideal_basis(p, d, target, precision):
            z = [(a * (e_norm // d), za) for a, za in enumerate(col) if za]
            columns.append([
                scale * sum(za * cb * root_trace(e_norm, a + b) for a, za in z for b, cb in chi)
                for chi in chis
            ])
    return hnf_columns(p, precision, columns)


def _cyclotomic_ideal_basis(p, d, target, precision):
    """Power-basis coordinates of a basis of J^target in Z_p[x]/Phi_d(x),
    J the radical; ``target`` may be negative.

    Write d = p^k d' with p not dividing d'.  The ring is a product of DVRs,
    each an unramified extension of Z_p[zeta_(p^k)], so J is principal: it is
    generated by p when k = 0 and by 1 - x^d' when k >= 1, x^d' being a
    primitive p^k-th root of unity.  J^t for t >= 0 is the image of
    multiplication by the t-th power of the generator, one Hermite form;
    J^-t = p^-a J^(a e - t) for e = phi(p^k) and the least a with
    a e >= t.
    """
    deg = totient(d)
    d_prime = d
    while d_prime % p == 0:
        d_prime //= p
    e = totient(d // d_prime)
    modulus = p**precision

    def mult(u, v):
        # x^d = 1 mod Phi_d, so exponents are read mod d
        return _fold(d, ((i + j, a * b) for i, a in enumerate(u) for j, b in enumerate(v)), 0)

    def power(u, t):
        acc = [1] + [0] * (deg - 1)
        while t:
            if t & 1:
                acc = [c % modulus for c in mult(acc, u)]
            t >>= 1
            if t:
                u = [c % modulus for c in mult(u, u)]
        return acc

    if d_prime == d:
        gen = [p] + [0] * (deg - 1)
    else:
        gen = [-c for c in power([0, 1] + [0] * (deg - 2), d_prime)]
        gen[0] += 1
    a = max(0, -(target // e))
    pi = power(gen, target + a * e)
    units = [[int(i == j) for i in range(deg)] for j in range(deg)]
    cols = hnf_columns(p, precision, [mult(pi, u) for u in units]).cols
    if a:
        cols = [[Fraction(x, p**a) for x in col] for col in cols]
    return cols


# ---------------------------------------------------------------------------
# Modules, Ext^1, and the annihilation statements


class GModule(namedtuple(
    "GModule", "group rank gen_actions name quotient_exponent", defaults=("module", None)
)):
    """A Z_p[G]-lattice: Z_p^rank with one action matrix per group generator
    (columns are images of basis vectors).  ``quotient_exponent`` q presents
    the finite module lattice/p^q instead.  ``ExtComputation`` checks the
    matrices as it grows the action (``_element_actions``)."""

    __slots__ = ()

    def mod_p_power(self, q):
        return GModule(self.group, self.rank, self.gen_actions, "%s/p^%d" % (self.name, q), q)


def trivial_module(g):
    return GModule(g, 1, [[[1]] for _ in g.generators], "trivial")


def regular_module(g):
    mats = []
    for s in g.generators:
        mat = [[0] * g.order for _ in range(g.order)]
        for x in range(g.order):
            mat[g.mult(s, x)][x] = 1
        mats.append(mat)
    return GModule(g, g.order, mats, "regular")


def augmentation_module(g):
    """Kernel of the augmentation, on the basis x - 1 for x != identity."""
    r = g.order - 1
    mats = []
    for s in g.generators:
        mat = [[0] * r for _ in range(r)]
        for idx in range(1, g.order):
            y = g.mult(s, idx)
            if y != 0:
                mat[y - 1][idx - 1] += 1
            if s != 0:
                mat[s - 1][idx - 1] -= 1
        mats.append(mat)
    return GModule(g, r, mats, "augmentation")


def _permutation_action(g, basis):
    """Matrices of the generators on the lattice with the given basis
    inside the regular lattice Z_p[G], where they permute coordinates;
    InputError unless the lattice is G-stable."""
    solver = SpanSolver(basis)
    mats = []
    for s in g.generators:
        mat = []
        for v in basis:
            moved = [0] * g.order
            for x, c in enumerate(v):
                moved[g.mult(s, x)] = c
            try:
                coords = solver.solve(moved)
            except ArithmeticError:
                coords = None
            if coords is None or any(c.denominator != 1 for c in coords):
                raise InputError("columns do not span a G-stable lattice")
            mat.append([c.numerator for c in coords])
        mats.append(_transpose(mat))
    return mats


def _element_actions(g, gen_mats, rank):
    """Action matrix of every group element, grown over the Cayley graph.

    The generator matrices must be one per generator, each rank x rank.
    Every edge y = s x is checked: the matrix of y must equal M_s A(x)
    whether y is new or already reached.  Consistent edges make A well
    defined on words, hence a homomorphism, so this is the whole check that
    the generator matrices define a representation."""
    if len(gen_mats) != len(g.generators):
        raise InputError(
            "need %d generator matrices, got %d" % (len(g.generators), len(gen_mats))
        )
    if any(len(mat) != rank or any(len(row) != rank for row in mat) for mat in gen_mats):
        raise InputError("generator matrices must be %d x %d" % (rank, rank))
    acts = {0: [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s, mat in zip(g.generators, gen_mats):
            y = g.mult(s, x)
            prod = _mat_mul(mat, acts[x])
            if y not in acts:
                acts[y] = prod
                frontier.append(y)
            elif acts[y] != prod:
                raise InputError("the generator matrices do not respect the group law")
    if len(acts) != g.order:
        raise ArithmeticError("the generators do not reach every group element")
    return [acts[x] for x in range(g.order)]


def _mat_mul(a, b):
    # the action matrices are mostly zero: row i of the product sums the
    # rows of b that the nonzero entries of row i of a pick out
    width = len(b[0]) if b else 0
    out = []
    for ar in a:
        acc = [0] * width
        for t, x in enumerate(ar):
            if x:
                acc = [u + x * y for u, y in zip(acc, b[t])]
        out.append(acc)
    return out


def _transpose(m):
    return [list(r) for r in zip(*m)]


class ExtComputation:
    """Ext^1(M, N) over Z_p[G] for a lattice M and a finite module
    N = lattice/p^q (``GModule.mod_p_power``), as the first cohomology
    H^1(G, A) of A = Hom_{Z_p}(M, N): M is Z_p-free, so
    Ext^1_{Z_p[G]}(M, N) = H^1(G, A) (K. S. Brown, Cohomology of Groups,
    GTM 87, III.2).  A is the rank N x rank M matrices mod p^q, with
    x . f = N(x) f M(x^-1).

    A cocycle f is fixed by its values F_s = f(s) on the generators: the
    walk of the Cayley graph from 1 sets f(s x) = F_s + s . f(x), and each
    edge into an element already reached is a linear condition on F.  So
    H^1(G, A) is the middle cohomology of the complex of free Z_p-modules
    C: Z_p^(rank A) --D0--> Z_p^w --D1--> Z_p^(conditions), tensored with
    Z/p^q; D0 gives the coboundaries a |-> (s . a - a)_s, D1 the distinct
    conditions, and w = (number of generators) x rank A.  By the universal
    coefficient theorem (Hatcher, Algebraic Topology, Thm 3A.3; Weibel, An
    Introduction to Homological Algebra, Thm 3.6.2),
    H^1(C / p^q) = H^1(C) / p^q + coker(D1)[p^q]: the divisors are min(v, q)
    for each nonzero Smith valuation v of D0 and of D1, and q for each of
    the w - rank D0 - rank D1 free directions.  Each such v is torsion of
    H^1(G, A) or H^2(G, A), which |G| kills, so it stays below
    ``precision`` - guard; a larger one raises PrecisionExhaustedError.

    ``hom_basis`` is a basis of the cocycles Z~ = {F : D1 F = 0 mod p^q},
    and B~ = span(D0) + p^q Z_p^w.  z kills Ext^1 = Z~/B~ when z . f lies
    in B~ for each basis cocycle f.  A basis column of Smith valuation 0
    is p^q times a column of the transform, so z . f lies in p^q Z_p^w,
    inside B~, and is not tested.

    ``divisors`` is certified when the first ``annihilates`` call builds
    B~'s Hermite form: v_p[Z_p^w : B~] - v_p[Z_p^w : Z~] must equal the sum
    of the divisors, in every build (ArithmeticError).  A pair with no
    divisors returns at once and is never certified; certifying in the
    constructor would add one Hermite form to every pair.
    """

    def __init__(self, mod_m, mod_n, p):
        if mod_m.group is not mod_n.group:
            raise InputError("modules live over different groups")
        if mod_m.quotient_exponent is not None:
            raise InputError("the first argument must be a lattice")
        if mod_n.quotient_exponent is None:
            raise InputError("the second argument must be a lattice mod p^q")
        self.g = mod_m.group
        self.p = p
        self.mod_m = mod_m
        self.mod_n = mod_n
        self.precision = vp(self.g.order, p) + mod_n.quotient_exponent + DEFAULT_PRECISION
        self._run()

    def _run(self):
        g, p = self.g, self.p
        rank_n, rank_m = self.mod_n.rank, self.mod_m.rank
        acts_m = _element_actions(g, self.mod_m.gen_actions, rank_m)
        self.acts_n = _element_actions(g, self.mod_n.gen_actions, rank_n)
        # a in A is a vector of length dim, entry (i, k) at i * rank M + k;
        # the generator s = generators[j] acts on it by the matrix acts_a[j]
        dim = rank_n * rank_m
        acts_a = []
        for s in g.generators:
            n_s, m_inv = self.acts_n[s], acts_m[g.inv(s)]
            acts_a.append([
                [n_s[i][a] * m_inv[b][k] for a in range(rank_n) for b in range(rank_m)]
                for i in range(rank_n) for k in range(rank_m)
            ])
        # f(x) as its matrix on the unknowns F: dim rows, F_s at columns
        # j * dim .. (j + 1) * dim - 1
        width = len(g.generators) * dim
        values = {0: [[0] * width for _ in range(dim)]}
        frontier, conditions = [0], []
        while frontier:
            x = frontier.pop()
            for j, s in enumerate(g.generators):
                y = g.mult(s, x)
                moved = _mat_mul(acts_a[j], values[x])
                for t, row in enumerate(moved):
                    row[j * dim + t] += 1
                if y not in values:
                    values[y] = moved
                    frontier.append(y)
                else:
                    conditions += [
                        [u - v for u, v in zip(a, b)] for a, b in zip(values[y], moved)
                    ]
        # consistent edges make f well defined on words, hence a cocycle
        eqs = list(dict.fromkeys(tuple(row) for row in conditions if any(row)))
        q = self.mod_n.quotient_exponent
        self._cocycle_vals, self.hom_basis = solution_lattice(p, self.precision, eqs, width, q)
        # the coboundaries x |-> x . a - a, one column per coordinate of a
        self._coboundaries = [
            [mat[t][k] - int(t == k) for mat in acts_a for t in range(dim)]
            for k in range(dim)
        ]
        vals = smith_valuations(p, self.precision, self._coboundaries) + self._cocycle_vals
        free = width - len(vals)
        self.divisors = sorted(d for d in [min(v, q) for v in vals] + [q] * free if d)

    @cached_property
    def _image_lattice(self):
        """B~, certified against the divisors (class docstring)."""
        p, q, width = self.p, self.mod_n.quotient_exponent, len(self.hom_basis)
        scaled = [[p**q * int(i == j) for i in range(width)] for j in range(width)]
        lat = hnf_columns(p, self.precision, self._coboundaries + scaled)
        cocycle_index = sum(max(0, q - v) for v in self._cocycle_vals)
        if lat.index_valuation() - cocycle_index != sum(self.divisors):
            raise ArithmeticError("Ext^1 divisors %s disagree with [Z~ : B~]" % self.divisors)
        return lat

    def annihilates(self, class_coords) -> bool:
        """Whether the central element sum_l c_l * (class sum l) kills Ext^1."""
        if not self.divisors:
            return True
        image = self._image_lattice  # built and certified even if no column is tested
        classes = character_table(self.g).classes
        rank_n = self.mod_n.rank
        z_mat = [[0] * rank_n for _ in range(rank_n)]
        for c, cls in zip(class_coords, classes.classes):
            for h in cls if c else ():
                z_mat = [[u + c * v for u, v in zip(a, b)] for a, b in zip(z_mat, self.acts_n[h])]
        # z acts through N: (z . F)_s = N(z) F_s, F_s the rank N x rank M
        # block of rows at [j * rank N, (j + 1) * rank N), s = generators[j]
        rank_m, vals = self.mod_m.rank, self._cocycle_vals
        for i, f in enumerate(self.hom_basis):
            if i < len(vals) and not vals[i]:
                continue  # p^q times a column: z . f lies in p^q Z_p^w
            rows = [f[t : t + rank_m] for t in range(0, len(f), rank_m)]
            moved = [
                x
                for j in range(0, len(rows), rank_n)
                for row in _mat_mul(z_mat, rows[j : j + rank_n])
                for x in row
            ]
            if not lattice_contains(image, moved):
                return False
        return True


def conductor_annihilates(g, p, mod_m, mod_n, reps=None) -> bool:
    """Every generator of the computed conductor annihilates Ext^1(M, N)."""
    lat = brute_force_conductor(g, p, reps)
    comp = ExtComputation(mod_m, mod_n, p)
    return all(comp.annihilates(col) for col in lat.cols)


def maximal_order_module(g, p, reps=None):
    """The maximal order as a Z_p[G]-lattice inside the regular lattice,
    scaled by |G| to clear denominators: the scaled basis of
    ``maximal_order_basis`` is a basis of it."""
    basis = maximal_order_basis(g, p, reps)
    columns = []
    for vec in basis:
        col = [Fraction(x) * g.order for x in vec]
        if any(c.denominator != 1 for c in col):
            raise ArithmeticError("|G| times the maximal order basis is not integral")
        columns.append([c.numerator for c in col])
    return GModule(g, g.order, _permutation_action(g, columns), "maximal-order")


def sharpness_probe(g, p, pool):
    """A central element of Z_p[G] just outside the conductor, together with
    a pair (M, N) from ``pool`` whose Ext^1 it fails to annihilate.

    Returns (class_coords, name_m, name_n).  Raises if the search pool is
    exhausted, which would contradict the conductor being exactly the
    annihilator ideal.
    """
    lat = brute_force_conductor(g, p)
    k = len(lat.cols[0]) if lat.cols else 0
    # the class-sum unit vectors, the identity class (l = 0) first
    units = ([Fraction(int(j == l)) for j in range(k)] for l in range(k))
    outside = [c for c in units if not lattice_contains(lat, c)]
    for mod_m, mod_n in pool:
        comp = ExtComputation(mod_m, mod_n, p)
        if not comp.divisors:
            continue
        for cand in outside:
            if not comp.annihilates(cand):
                return cand, mod_m.name, mod_n.name
    raise ArithmeticError("no failing element found; conductor is not sharp here")
