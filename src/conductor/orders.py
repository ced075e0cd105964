"""Rings of integers as explicit lattices with exact arithmetic.

GlobalFieldModel materializes the valuation ring O_K of an
AbelianLocalField K, the fixed field of the stabilizer S inside
L = Q_p(zeta_m), when the presentation is globally inert (the
decomposition group times S covers all of (Z/m)*).  Then L has degree
phi(m) over Q_p and ring of integers Z_p[zeta_m], so O_K = Z_p[zeta_m]^S:
one kernel over Z_p, read off a Smith form mod p^N, for every such
presentation.  Maximality at p is certified by comparing v_p(det Gram)
against the conductor-discriminant prediction, and the dual check
compares the trace dual with the inverse different, so no unverified
assumption enters downstream results.

The radical helpers below (``nilradical_mod_p``, ``radical_lattice``,
``lattice_product``, ``lattice_power``) compute the maximal ideal of a
commutative order as the preimage of the nilradical of O/pO - the kernel
of a power of the F_p-linear Frobenius map - and its powers as products
of lattices.  Nothing in the package calls them: they are the reference
route the closed-form ideals of ``localfields.cyclotomic_ideal_basis`` are
tested against, and a round-2 maximal-order loop over o would start from
them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import int_coords, power, root_trace, totient
from .errors import UnsupportedPresentationError
from .localfields import AbelianLocalField, cyclotomic_ideal_basis
from .padic import (
    DEFAULT_PRECISION,
    PLattice,
    hnf_columns,
    kernel,
    smith_with_column_transform,
)


# -- radical of a commutative algebra over Z_p --------------------------------


def nilradical_mod_p(p, mult, dim, one):
    """Kernel of Frobenius^t on the F_p-algebra with multiplication mult.

    mult(u, v) maps integer coordinate vectors to one; the algebra is
    commutative with identity coordinates `one`.  t is chosen with
    p^t >= dim, enough to kill every nilpotent.
    """

    def mult_mod_p(u, v):
        return [x % p for x in mult(u, v)]

    frob = [power(mult_mod_p, [int(j == i) for j in range(dim)], p, list(one)) for i in range(dim)]
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
    """O_K = Z_p[zeta_m]^S as a lattice: ``basis`` holds power-basis
    coordinates mod p^N (the exact power basis when S is trivial) and
    ``gram`` the trace form Tr_{K/Q_p}(b_i b_j) on it."""

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

        # the kernel of sigma_s - 1 stacked over generators s of S, where
        # sigma_s sends zeta^e to zeta^(e s): a Z_p-basis mod p^N, the Smith
        # column transform past the rank (a zero row alone, for trivial S,
        # keeps the unit basis)
        n = len(units)
        rows = [[0] * n]
        for s in field.generating_set():
            images = [int_coords(m, ((e * s, 1),)) for e in range(n)]
            rows += [[col.get(i, 0) - (i == e) for e, col in enumerate(images)] for i in range(n)]
        vals, cols = smith_with_column_transform(p, DEFAULT_PRECISION, rows)
        self.basis = cols[len(vals):]
        self.degree = len(self.basis)
        if self.degree != field.degree:
            raise ArithmeticError(
                "basis has %d elements for a field of degree %d" % (self.degree, field.degree)
            )

        # Gram certificate: v_p(det) must equal the conductor-discriminant
        # prediction, which certifies maximality at p.  Tr_{K/Q_p} is
        # Tr_{L/Q_p} / |S|, and Tr_{L/Q_p}(zeta^a zeta^b) is root_trace(m, a + b)
        trace = [[root_trace(m, a + b) for b in range(n)] for a in range(n)]
        traced = [[sum(t * x for t, x in zip(row, col)) for row in trace] for col in self.basis]
        self.gram = [
            [Fraction(sum(x * y for x, y in zip(bi, tj)), len(field.stab)) for tj in traced]
            for bi in self.basis
        ]
        # v_p(det) is the index of the lattice the Gram columns span
        try:
            disc = hnf_columns(p, DEFAULT_PRECISION, self.gram).index_valuation()
        except ValueError:
            raise ArithmeticError("the trace form of the basis is degenerate") from None
        if disc != field.discriminant_valuation:
            raise UnsupportedPresentationError(
                "basis discriminant valuation %d does not match the "
                "conductor-discriminant value %d" % (disc, field.discriminant_valuation)
            )

    def inverse_different_dual_check(self) -> bool:
        """Certify the trace dual of O equals J^(-d) with d from the
        conductor-discriminant route.  Two independent computations of the
        different must coincide."""
        p, m, n = self.field.p, self.field.m, self.degree
        d = self.field.different_exponent
        e = self.field.ramification_index
        q = -(-d // e)  # ceil(d/e)
        r = e * q - d
        # J^r is O intersected with J_L^t, t = r e(L/K) and e(L/K) the
        # ramification index of L, phi(p-part of m), over e; its coordinates
        # y are the first n entries of the kernel of [basis | -J_L^t]
        ideal = cyclotomic_ideal_basis(p, m, r * totient(gcd(m, p**m)) // e, DEFAULT_PRECISION)
        rows = [[b[i] for b in self.basis] + [-c[i] for c in ideal] for i in range(len(ideal))]
        vals, cols = smith_with_column_transform(p, DEFAULT_PRECISION, rows)
        # the dual lattice is Gram^-1 Z_p^n, so p^q O^dual = J^r exactly
        # when Gram J^r = p^q Z_p^n
        images = [
            [sum(x * c for x, c in zip(row, col[:n])) for row in self.gram]
            for col in cols[len(vals):]
        ]
        if any(x.denominator % p == 0 for col in images for x in col):
            return False
        target = [[p**q * int(i == j) for i in range(n)] for j in range(n)]
        return hnf_columns(p, DEFAULT_PRECISION, images) == hnf_columns(p, DEFAULT_PRECISION, target)
