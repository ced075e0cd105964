"""Fitting invariants of group-ring presentations via reduced norms.

A presentation Lambda^a -> Lambda^b of a module M over Lambda = o[G] has,
for a >= b, a Fitting invariant generated by the reduced norms of the b x b
submatrices.  The reduced norm of a square matrix over K[G] is taken one
Wedderburn component at a time from the character table alone: the
component of chi has reduced trace chi, so the traces of the powers of the
matrix give the power sums of its reduced characteristic polynomial, and
Newton's identities give its constant term.  No representation is needed,
whatever the degree or Schur index of chi.

The annihilation statement under test: central conductor times Fitting
invariant annihilates the cokernel.  Each Fitting generator is a center
element given per character; multiplied by a conductor element it lands in
o[G] and must carry every unit vector of Lambda^b into the presentation
image, which is a lattice membership check.  The generator is turned into
a vector on G one class at a time, summed on the table's integer
coordinates (``materialize_center``), which also certifies that it is
Galois-coherent; the conductor lattice is the group's shared
``formula_conductor_lattice``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .chartab import _normalized, _sparse_sum, character_table
from .cyclo import CycloNumber, _common_conductor
from .errors import InputError
from .finite import _convolve, formula_conductor_lattice, working_precision
from .groups import FiniteGroup, conjugacy_classes
from .padic import hnf_columns, lattice_contains, vp


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

    @property
    def zero(self):
        return not self.subsets

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


def _power_traces(g, matrix, top):
    """Class sums of the trace sum_i (M^j)_ii over Q[G], for j = 1..top."""
    k = len(matrix)
    classes = conjugacy_classes(g)
    out = []
    power = matrix
    for j in range(1, top + 1):
        if j > 1:  # M^j = M^(j-1) M over Q[G]
            power = [
                [
                    [sum(t) for t in zip(*(_convolve(g, prow[l], matrix[l][c]) for l in range(k)))]
                    for c in range(k)
                ]
                for prow in power
            ]
        sums = [Fraction(0)] * len(classes.classes)
        for i in range(k):
            for x, c in enumerate(power[i][i]):
                if c:
                    sums[classes.class_of[x]] += c
        out.append(sums)
    return out


def reduced_norm(g, matrix):
    """nrd of a square matrix over K[G], one CycloNumber per character row.

    The block of row chi has reduced trace chi, so the reduced
    characteristic polynomial of a k x k matrix M there has degree
    k chi(1) and power sums s_j = sum_i chi((M^j)_ii).  Newton's identities
    e_j = (1/j) sum_{i=1..j} (-1)^(i-1) e_{j-i} s_i give its coefficients,
    and nrd_chi(M) = e_{k chi(1)}, for every Schur index.
    """
    k = len(matrix)
    for row in matrix:
        if len(row) != k:
            raise InputError("reduced norm needs a square matrix")
    table = character_table(g)
    traces = _power_traces(g, matrix, k * max(table.degrees))
    zero = CycloNumber.rational(0)
    out = []
    for chi, deg in zip(table.values, table.degrees):
        top = k * deg
        s = [sum((v * c for v, c in zip(chi, t) if c), zero) for t in traces[:top]]
        e = [CycloNumber.rational(1)]
        for j in range(1, top + 1):
            terms = (e[j - i] * s[i - 1] for i in range(1, j + 1))
            e.append(sum((t if i % 2 else -t for i, t in enumerate(terms, 1)), zero) / j)
        out.append(zero if e[top].is_zero() else e[top])
    return out


def materialize_center(g, values):
    """sum_chi v_chi e_chi as a rational coefficient vector on G, given one
    CycloNumber v_chi per character row.

    The element is central, so its coefficient at x is one rational per
    class t of x: (1/|G|) sum_chi chi(1) v_chi chi(g_t^-1), the
    ``idempotent_coords`` sum with cyclotomic weights.  It is summed on
    integer coordinates at the common conductor L of the table's exponent
    conductor E and the components: each v_chi is lifted to L and scaled
    to integers by one common denominator D, and chi(g_t^-1) = sum_i c_i
    zeta_E^i is read at L as sum_i c_i zeta_L^(i L/E).  The components must
    be Galois-coherent, so that the element lies in Q[G]: a class whose sum
    has a nonzero coordinate past the first raises InputError.
    """
    table = character_table(g)
    if len(values) != table.n_classes:
        raise InputError(
            "expected one center component per character (%d), got %d"
            % (table.n_classes, len(values))
        )
    e_norm = _normalized(table.exponent)
    big = e_norm
    for v in values:
        big = _common_conductor(big, v.m)
    denom = lcm(*(c.denominator for v in values for c in v.coeffs))
    scaled = [  # D v_chi as {exponent at L: integer}
        {j * (big // v.m): denom // c.denominator * c.numerator
         for j, c in enumerate(v.coeffs) if c}
        for v in values
    ]
    shift = big // e_norm
    per_class = []
    for t in range(table.n_classes):
        s = table.inverse_class(t)
        folded = _sparse_sum(
            (
                (deg, ints, {i * shift: c for i, c in row[s].items()})
                for deg, ints, row in zip(table.degrees, scaled, table.coords)
            ),
            big,
        )
        if any(folded[1:]):
            raise InputError(
                "center components are not Galois-coherent; the element "
                "does not descend to the rational group algebra"
            )
        per_class.append(Fraction(folded[0], denom * g.order))
    class_of = table.classes.class_of
    return [per_class[class_of[x]] for x in range(g.order)]


def fitting_generators(pres: PresentationMatrix, reps=None) -> FittingGenerators:
    """Reduced norms of all b x b submatrices; zero class when a < b.

    Computed once per presentation and kept on it, as the character table
    is kept on its group.  ``reps`` is ignored.  It stays only for the
    benchmark's call sites and goes with the next benchmark change."""
    cached = getattr(pres, "_fitting", None)
    if cached is not None:
        return cached
    subsets = list(combinations(range(pres.a), pres.b))  # none when a < b
    values = [reduced_norm(pres.group, [pres.entries[i] for i in rows]) for rows in subsets]
    pres._fitting = FittingGenerators(subsets=subsets, values=values)
    return pres._fitting


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
    presentation image.  Vacuously true for the zero Fitting class and for
    b = 0, where the cokernel is 0.  The Fitting generators are those of
    ``fitting_generators``, computed once per presentation.
    ``reps`` is ignored, as in ``fitting_generators``.
    """
    fit = fitting_generators(pres)
    g = pres.group
    n = g.order
    if fit.zero or pres.b == 0:
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
