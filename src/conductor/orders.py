"""Rings of integers as explicit lattices with exact arithmetic.

GlobalFieldModel materializes the valuation ring of an AbelianLocalField
when the presentation is globally inert (the decomposition group times
the stabilizer covers all of (Z/m)*), because then the ring of integers
of the global fixed field tensored with Z_p IS the local ring and the
global trace form agrees with the local one.  The basis is the power
basis of zeta_m for the full cyclotomic field and the Gauss period
basis otherwise; a presentation whose Gauss periods are linearly
dependent is refused.  Either way maximality at p is certified by
comparing v_p(det Gram) against the conductor-discriminant prediction, so
no unverified maximality assumption enters downstream results.

The maximal ideal is computed as the preimage of the nilradical of
O/pO, which is the kernel of a power of the Frobenius map - an F_p
-linear map here, so plain linear algebra mod p with no element search.
``ideal_power`` takes its powers as products of lattices, one Hermite
form per product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import _fold, root_trace, totient
from .errors import UnsupportedPresentationError
from .localfields import AbelianLocalField
from .padic import (
    DEFAULT_PRECISION,
    PLattice,
    SpanSolver,
    fraction_determinant,
    fraction_inverse,
    hnf_columns,
    kernel,
    residue,
    vp,
)


# -- radical of a commutative algebra over Z_p --------------------------------


def nilradical_mod_p(p, mult, dim, one):
    """Kernel of Frobenius^t on the F_p-algebra with multiplication mult.

    mult(u, v) maps integer coordinate vectors to one; the algebra is
    commutative with identity coordinates `one`.  t is chosen with
    p^t >= dim, enough to kill every nilpotent.
    """

    def power(vec, n):
        acc = list(one)
        base = [x % p for x in vec]
        while n:
            if n & 1:
                acc = [x % p for x in mult(acc, base)]
            n >>= 1
            if n:
                base = [x % p for x in mult(base, base)]
        return acc

    frob = []
    for i in range(dim):
        e = [1 if j == i else 0 for j in range(dim)]
        frob.append(power(e, p))
    # columns of the Frobenius matrix are frob[i]; iterate t times
    t = 1
    while p**t < dim:
        t += 1
    mat = [[frob[j][i] % p for j in range(dim)] for i in range(dim)]  # rows
    acc = mat
    for _ in range(t - 1):
        acc = [[sum(acc[i][k] * mat[k][j] for k in range(dim)) % p for j in range(dim)]
               for i in range(dim)]
    return kernel(acc, p)


def radical_lattice(p, precision, mult, dim, one) -> PLattice:
    """The Jacobson radical {v : v nilpotent mod p} as a lattice over Z_p."""
    kernel = nilradical_mod_p(p, mult, dim, one)
    cols = [list(v) for v in kernel]
    cols += [[p if i == j else 0 for i in range(dim)] for j in range(dim)]
    return hnf_columns(p, precision, cols)


def lattice_product(p, precision, mult, a_cols, b_cols) -> PLattice:
    """HNF of the span of all pairwise products of the given columns."""
    cols = [mult(u, v) for u in a_cols for v in b_cols]
    return hnf_columns(p, precision, cols)


def lattice_power(p, precision, mult, lattice, k) -> PLattice:
    """lattice^k for k >= 1 by binary powering; the Hermite forms are
    canonical, so the grouping of the products does not matter."""
    acc, base = None, lattice
    while True:
        if k & 1:
            acc = base if acc is None else lattice_product(p, precision, mult, acc.cols, base.cols)
        k >>= 1
        if not k:
            return acc
        base = lattice_product(p, precision, mult, base.cols, base.cols)


# -- the order model -----------------------------------------------------------


class GlobalFieldModel:
    """Ring of integers of an abelian local field as an exact lattice."""

    def __init__(self, field: AbelianLocalField):
        self.field = field
        p, m = field.p, field.m
        # the stabilizer lies in the decomposition group D, so D times it
        # is D, and the presentation is globally inert when D is all units
        units = [a for a in range(m) if gcd(a, m) == 1]
        if len(field.galois_group) != len(units):
            raise UnsupportedPresentationError(
                "presentation is not globally inert: decomposition group times "
                "stabilizer covers %d of %d residues mod %d"
                % (len(field.galois_group), len(units), m)
            )

        # basis element i is the sum of zeta_m^a over the exponents a of its
        # coset of the stabilizer: zeta_m^i itself when the stabilizer is
        # trivial, a Gauss period otherwise
        if len(field.stab) == 1:
            cosets = [(i,) for i in range(totient(m))]
        else:
            cosets, seen = [], set()
            for a in units:
                if a not in seen:
                    cosets.append(tuple((a * s) % m for s in field.stab))
                    seen.update(cosets[-1])
        self.degree = len(cosets)
        if self.degree != field.degree:
            raise ArithmeticError(
                "basis has %d elements for a field of degree %d" % (self.degree, field.degree)
            )
        self._solver = SpanSolver([_fold(m, ((a, 1) for a in c), 0) for c in cosets])
        if len(self._solver.positions) < self.degree:
            raise UnsupportedPresentationError(
                "the %d Gauss periods span a space of dimension %d only"
                % (self.degree, len(self._solver.positions))
            )
        self._one = self._solver.solve(_fold(m, ((0, 1),), 0))

        # structure constants must be p-integral for the span to be an
        # order over the local ring; a failure here means the basis does
        # not span a ring at p and the model is unusable
        self.structure = []
        for ci in cosets:
            row = []
            for cj in cosets:
                coords = self._solver.solve(_fold(m, ((a + b, 1) for a in ci for b in cj), 0))
                if any(c.denominator % p == 0 for c in coords):
                    raise UnsupportedPresentationError(
                        "basis products leave the lattice at p=%d" % p
                    )
                row.append(coords)
            self.structure.append(row)

        # Gram certificate: v_p(det) must equal the conductor-discriminant
        # prediction, which certifies maximality at p.  Tr(b_i b_j) is
        # sum_k s_ijk Tr(b_k), read off the structure constants; Tr(b_k) is
        # the trace to Q of its coset sum over the stabilizer size
        traces = [Fraction(sum(root_trace(m, a) for a in c), len(field.stab)) for c in cosets]
        self.gram = [
            [sum((c * t for c, t in zip(coords, traces) if c), Fraction(0)) for coords in row]
            for row in self.structure
        ]
        det = fraction_determinant(self.gram)
        if det == 0:
            raise ArithmeticError("the trace form of the basis is degenerate")
        if vp(det, p) != field.discriminant_valuation:
            raise UnsupportedPresentationError(
                "basis discriminant valuation %d does not match the "
                "conductor-discriminant value %d"
                % (vp(det, p), field.discriminant_valuation)
            )
        self._radical = None

    # -- arithmetic ------------------------------------------------------------

    def mult_coords(self, u, v) -> list:
        out = [Fraction(0)] * self.degree
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        s = x * y
                        for k, c in enumerate(self.structure[i][j]):
                            if c:
                                out[k] += s * c
        return out

    # -- invariants ------------------------------------------------------------

    def maximal_ideal(self) -> PLattice:
        if self._radical is None:
            p = self.field.p
            self._radical = radical_lattice(
                p,
                DEFAULT_PRECISION,
                lambda u, v: [residue(c, p, p) for c in self.mult_coords(list(u), list(v))],
                self.degree,
                [residue(c, p, p) for c in self._one],
            )
        return self._radical

    def ideal_power(self, k: int) -> PLattice:
        """J^k for k >= 0 as a lattice in basis coordinates."""
        if k == 0:
            unit_cols = [[1 if i == j else 0 for i in range(self.degree)] for j in range(self.degree)]
            return hnf_columns(self.field.p, DEFAULT_PRECISION, unit_cols)
        return lattice_power(
            self.field.p, DEFAULT_PRECISION, self.mult_coords, self.maximal_ideal(), k
        )

    def inverse_different_dual_check(self) -> bool:
        """Certify the trace dual of O equals J^(-d) with d from the
        conductor-discriminant route.  Two independent computations of the
        different must coincide."""
        p = self.field.p
        d = self.field.different_exponent
        e = self.field.ramification_index
        q = -(-d // e)  # ceil(d/e)
        r = e * q - d
        # p^q * dual lattice (columns of the inverse Gram) vs J^r
        dual_cols = [list(col) for col in zip(*fraction_inverse(self.gram))]
        scaled = [[x * p**q for x in col] for col in dual_cols]
        left = hnf_columns(p, DEFAULT_PRECISION, scaled)
        right = self.ideal_power(r)
        return left == right
