"""Fitting invariants of group-ring presentations via reduced norms.

A presentation Lambda^a -> Lambda^b of a module M over Lambda = o[G] has,
for a >= b, a Fitting invariant generated by the reduced norms of the b x b
submatrices.  The reduced norm of a square matrix over K[G] is computed
through the Wedderburn components: apply the irreducible representation
entrywise and take the determinant of the resulting block.  Degree-1
components read off the character directly; higher components need an
integral splitting representation, as in the maximal-order machinery.

The annihilation statement under test: central conductor times Fitting
invariant annihilates the cokernel.  Each Fitting generator is a center
element given per character; multiplied by a conductor element it lands in
o[G] and must carry every unit vector of Lambda^b into the presentation
image, which is a lattice membership check.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .chartab import character_table
from .cyclo import CycloNumber
from .errors import InputError, UnsupportedPresentationError
from .finite import (
    _convolve,
    _expand_representation,
    _rep_character_row,
    _verify_representation,
    formula_conductor_lattice,
    working_precision,
)
from .groups import FiniteGroup, conjugacy_classes
from .padic import fraction_determinant, hnf_columns, lattice_contains, vp


@dataclass
class PresentationMatrix:
    """a x b matrix over o[G], presenting coker = Lambda^b / (rows * G)."""

    group: FiniteGroup
    a: int
    b: int
    entries: list  # entries[i][j]: coefficient vector on group elements

    def __post_init__(self):
        n = self.group.order
        if len(self.entries) != self.a:
            raise InputError("expected %d rows, got %d" % (self.a, len(self.entries)))
        for row in self.entries:
            if len(row) != self.b:
                raise InputError("expected %d columns per row" % self.b)
            for vec in row:
                if len(vec) != n:
                    raise InputError(
                        "entries must have one coefficient per group element"
                    )
        self.entries = [
            [[Fraction(c) for c in vec] for vec in row] for row in self.entries
        ]


@dataclass
class FittingGenerators:
    """Reduced norms of the b x b submatrices, ordered by row-index tuple.

    values[k][row] is the component of generator k at character ``row`` of
    the table; Galois-coherent across conjugate characters, so each
    generator descends to the center of K[G].  ``zero`` marks the a < b
    case where the Fitting class is zero and there are no generators.
    """

    subsets: list
    values: list
    zero: bool

    def to_json(self):
        return {
            "zero": self.zero,
            "generators": [
                {
                    "rows": list(subset),
                    "components": [v.to_json() for v in vals],
                }
                for subset, vals in zip(self.subsets, self.values)
            ],
        }


def _rep_rows(g, table, reps):
    out = {}
    for mats in reps or []:
        if len(mats) != g.order:
            mats = _expand_representation(g, mats)
        _verify_representation(g, mats)
        out[_rep_character_row(table, mats)] = mats
    return out


def _cyclo_det(rows):
    """Determinant of a square CycloNumber matrix by Gaussian elimination."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = CycloNumber.rational(1)
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if not rows[r][c].is_zero()), None)
        if piv is None:
            return CycloNumber.rational(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        pivot = rows[c][c]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if not f.is_zero():
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det * sign


def reduced_norm(g, matrix, reps=None):
    """nr of a square matrix over K[G], one CycloNumber per character row.

    Per character: apply the representation to every entry and take the
    determinant of the assembled block.  Degree-1 rows evaluate through the
    character; degree > 1 rows need a splitting representation.
    """
    k = len(matrix)
    for row in matrix:
        if len(row) != k:
            raise InputError("reduced norm needs a square matrix")
    table = character_table(g)
    rep_rows = _rep_rows(g, table, reps)
    out = []
    for row in range(table.n_classes):
        deg = table.degrees[row]
        if deg == 1:
            block = [
                [
                    sum(
                        (table.value(row, x) * c for x, c in enumerate(vec) if c),
                        CycloNumber.rational(0),
                    )
                    for vec in mrow
                ]
                for mrow in matrix
            ]
            out.append(_cyclo_det(block))
        elif row in rep_rows:
            mats = rep_rows[row]
            big = [[Fraction(0)] * (k * deg) for _ in range(k * deg)]
            for i in range(k):
                for j in range(k):
                    vec = matrix[i][j]
                    for x, c in enumerate(vec):
                        if c:
                            m = mats[x]
                            for s in range(deg):
                                for t in range(deg):
                                    if m[s][t]:
                                        big[i * deg + s][j * deg + t] += c * m[s][t]
            out.append(CycloNumber.rational(fraction_determinant(big)))
        else:
            raise UnsupportedPresentationError(
                "no splitting representation for the degree-%d character "
                "in row %d" % (deg, row)
            )
    return out


def materialize_center(g, values):
    """sum_chi v_chi e_chi as a rational coefficient vector on G; the
    component values must be Galois-coherent for this to land in K[G]."""
    table = character_table(g)
    n = g.order
    out = []
    for x in range(n):
        xi = g.inv(x)
        acc = CycloNumber.rational(0)
        for row, v in enumerate(values):
            acc = acc + v * table.value(row, xi) * Fraction(table.degrees[row], n)
        if not acc.is_rational():
            raise InputError(
                "center components are not Galois-coherent; the element "
                "does not descend to the rational group algebra"
            )
        out.append(acc.as_fraction())
    return out


def fitting_generators(pres: PresentationMatrix, reps=None) -> FittingGenerators:
    """Reduced norms of all b x b submatrices; zero class when a < b."""
    if pres.a < pres.b:
        return FittingGenerators(subsets=[], values=[], zero=True)
    subsets = []
    values = []
    for rows in combinations(range(pres.a), pres.b):
        sub = [pres.entries[i] for i in rows]
        subsets.append(rows)
        values.append(reduced_norm(pres.group, sub, reps))
    return FittingGenerators(subsets=subsets, values=values, zero=False)


def presentation_image(pres: PresentationMatrix, p, precision=None):
    """Image of Lambda^a -> Lambda^b as a lattice in Z_p^(b|G|): spanned by
    the rows of the matrix under all left translations."""
    g = pres.group
    n = g.order
    bad = [c for row in pres.entries for vec in row for c in vec if c and vp(c, p) < 0]
    if bad:
        raise InputError("presentation entries must be %d-integral, got %s" % (p, bad[0]))
    if precision is None:
        precision = working_precision(g, p)
    cols = []
    for i in range(pres.a):
        for x in range(n):
            vec = []
            for j in range(pres.b):
                entry = pres.entries[i][j]
                shifted = [Fraction(0)] * n
                for y, c in enumerate(entry):
                    if c:
                        shifted[g.mult(x, y)] = c
                vec.extend(shifted)
            cols.append(vec)
    return hnf_columns(p, precision, cols)


def annihilation_check(pres: PresentationMatrix, p, reps=None, precision=None) -> bool:
    """Conductor times Fitting invariant annihilates the cokernel.

    Every product of a central conductor generator with a Fitting generator
    must be p-integral and carry each unit vector of Lambda^b into the
    presentation image.  Vacuously true for the zero Fitting class.
    """
    g = pres.group
    n = g.order
    fit = fitting_generators(pres, reps)
    if fit.zero:
        return True
    if precision is None:
        precision = working_precision(g, p)
    conductor = formula_conductor_lattice(g, p, precision=precision)
    image = presentation_image(pres, p, precision=precision)
    class_of = conjugacy_classes(g).class_of
    for vals in fit.values:
        zc = materialize_center(g, vals)
        for col in conductor.cols:
            # conductor columns are class-sum coordinates; spread over elements
            spread = [Fraction(col[class_of[x]]) for x in range(n)]
            prod = _convolve(g, spread, zc)
            if any(vp(c, p) < 0 for c in prod if c):
                return False
            for k in range(pres.b):
                vec = [Fraction(0)] * (pres.b * n)
                vec[k * n : (k + 1) * n] = prod
                if not lattice_contains(image, vec):
                    return False
    return True


def group_algebra_determinant(g, matrix):
    """Determinant of a square matrix over a commutative group algebra by
    cofactor expansion; the classical-minor cross-check for reduced norms."""
    if not g.is_abelian():
        raise InputError("classical determinant needs an abelian group")
    k = len(matrix)
    for row in matrix:
        if len(row) != k:
            raise InputError("determinant needs a square matrix")

    def det(rows, cols):
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        acc = [Fraction(0)] * g.order
        rest = rows[1:]
        for t, c in enumerate(cols):
            minor = det(rest, cols[:t] + cols[t + 1 :])
            term = _convolve(g, matrix[rows[0]][c], minor)
            if t % 2:
                term = [-x for x in term]
            acc = [x + y for x, y in zip(acc, term)]
        return acc

    return det(list(range(k)), list(range(k)))
