"""Fitting invariants of group-ring presentations via reduced norms.

A presentation Lambda^a -> Lambda^b of a module M over Lambda = o[G] has,
for a >= b, a Fitting invariant generated by the reduced norms of the b x b
submatrices.  The reduced norm of a square matrix over K[G] is taken one
Wedderburn component at a time from the character table alone: the
component of chi has reduced trace chi, so the traces of the powers of the
matrix give the power sums of its reduced characteristic polynomial, and
Newton's identities give its constant term.  No representation is needed,
whatever the degree or Schur index of chi.  On integers, with D the
common denominator: S_j = D^j s_j, F_j = j! D^j e_j, and
F_j = sum_{i<=j} (-1)^(i-1) ((j-1)!/(j-i)!) F_(j-i) S_i with F_0 = 1, on
the table's integer coordinates at the exponent conductor E: each F_j is
one ``cyclo.product_sum`` over sparse dicts, and a nonzero norm is solved
down to its conductor once (``reduced_norm``).

The annihilation statement under test: central conductor times Fitting
invariant annihilates the cokernel.  Both factors are central, so the
product of a column of the group's ``formula_conductor_lattice`` with a
generator's integer class sums over one denominator (``_center_classes``,
which certifies Galois coherence) is formed in class-sum coordinates with
the class multiplication coefficients of ``chartab.class_matrix``.  It
must be p-integral and carry each unit vector of Lambda^b into the
presentation image: a lattice membership check on residues mod p^N.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

from .chartab import character_table, class_matrix
from .cyclo import CycloNumber, int_coords, normalized, product_sum, value_conductor
from .errors import InputError
from .finite import formula_conductor_lattice, working_precision
from .groups import FiniteGroup, convolve, kept
from .padic import hnf_columns, lattice_contains, residue, scaled_residues


class PresentationMatrix:
    """a x b matrix over o[G], presenting coker = Lambda^b / (rows * G);
    entries[i][j] is a coefficient vector on group elements."""

    def __init__(self, group: FiniteGroup, a: int, b: int, entries):
        n = group.order
        if len(entries) != a:
            raise InputError("expected %d rows, got %d" % (a, len(entries)))
        for row in entries:
            if len(row) != b:
                raise InputError("expected %d columns per row" % b)
            for vec in row:
                if len(vec) != n:
                    raise InputError("entries must have one coefficient per group element")
        self.group, self.a, self.b = group, a, b
        self.entries = [[[Fraction(c) for c in vec] for vec in row] for row in entries]


class FittingGenerators:
    """Reduced norms of the b x b submatrices, ordered by row-index tuple.

    values[k][row] is the component of generator k at character ``row`` of
    the table; Galois-coherent across conjugate characters, so each
    generator descends to the center of K[G].  ``zero`` marks the a < b
    case where the Fitting class is zero and there are no generators.
    """

    def __init__(self, subsets, values):
        self.subsets, self.values = subsets, values

    @property
    def zero(self):
        return not self.subsets

    def to_json(self):
        return {
            "zero": self.zero,
            "generators": [
                {"rows": list(subset), "components": [v.to_json() for v in vals]}
                for subset, vals in zip(self.subsets, self.values)
            ],
        }


def _power_traces(g, matrix, top):
    """Class sums of the trace sum_i (M^j)_ii over Z[G] of an integer matrix
    M, for j = 1..top."""
    k = len(matrix)
    classes = character_table(g).classes
    out = []
    power = matrix
    for j in range(1, top + 1):
        if j > 1:  # M^j = M^(j-1) M over Z[G]
            power = [[[sum(t) for t in zip(*(convolve(g, r[l], matrix[l][c]) for l in range(k)))]
                      for c in range(k)] for r in power]
        sums = [0] * len(classes.classes)
        for i in range(k):
            for x, c in enumerate(power[i][i]):
                if c:
                    sums[classes.class_of[x]] += c
        out.append(sums)
    return out


def _newton(m, sums):
    """F_top from S_1..S_top, integer coordinates {index: count} at
    conductor m, each F_j one ``product_sum``."""
    f = [{0: 1}]
    for j in range(1, len(sums) + 1):
        terms, w = [], 1  # w = (j-1)!/(j-i)!
        for i in range(1, j + 1):
            terms.append((w if i % 2 else -w, f[j - i], sums[i - 1]))
            w *= j - i
        f.append(product_sum(m, terms))
    return f[-1]


def reduced_norm(g, matrix):
    """nrd of a square matrix over K[G], one CycloNumber per character row.

    The block of row chi has reduced trace chi, so the reduced
    characteristic polynomial of a k x k matrix M there has degree
    top = k chi(1) and power sums s_j = sum_i chi((M^j)_ii); nrd_chi(M) is
    its e_top, for every Schur index.  With D the common denominator of M,
    S_j = D^j s_j are integer coordinates at the exponent conductor E, on
    the table's ``coords``, and
    F_j = j! D^j e_j = sum_{i=1..j} (-1)^(i-1) ((j-1)!/(j-i)!) F_(j-i) S_i,
    F_0 = 1, so e_top = F_top / (top! D^top).  A nonzero norm is written at
    the conductor m of the chi(t) at the classes t where some tr(M^j),
    j <= top, is nonzero, read off the power maps as ``chartab.galois_fixed``
    reads them, by one solve from E (``CycloNumber.descend``); a zero norm
    is the rational 0.  Products at E cost phi(E)^2 against phi(m)^2, yet
    246 seeded norms on the catalog and the G_m of order <= 81 took
    0.26-0.38 s, against 0.26-0.33 s at m (2-vCPU Xeon, Python 3.11).
    """
    k = len(matrix)
    for row in matrix:
        if len(row) != k:
            raise InputError("reduced norm needs a square matrix")
    table = character_table(g)
    e_norm, pm = normalized(table.exponent), table.power_maps
    den = lcm(*(c.denominator for row in matrix for vec in row for c in vec))
    scaled = [[[c.numerator * (den // c.denominator) for c in v] for v in row] for row in matrix]
    traces = _power_traces(g, scaled, k * max(table.degrees))  # D^j tr(M^j)
    zero = CycloNumber.rational(0)
    out = []
    for chi, deg in zip(table.coords, table.degrees):
        top = k * deg
        live = {t for tr in traces[:top] for t, c in enumerate(tr) if c}
        sums = [int_coords(e_norm, ((i, c * tr[t]) for t in live for i, c in chi[t].items()))
                for tr in traces[:top]]  # S_j
        f = _newton(e_norm, sums)
        if not f:
            out.append(zero)
            continue
        m = value_conductor(
            table.exponent, lambda u: all(chi[t] == chi[pm[t][u % len(pm[t])]] for t in live)
        )
        scale = factorial(top) * den**top
        coeffs = [Fraction(f.get(i, 0), scale) for i in range(max(f) + 1)]
        out.append(CycloNumber(e_norm, coeffs).descend(m))
    return out


def _center_classes(g, values):
    """sum_chi v_chi e_chi, given one CycloNumber v_chi per character row, as
    integer class sums over one denominator: (sums, D |G|).

    The coefficient at class t is (1/|G|) sum_chi chi(1) v_chi chi(g_t^-1),
    summed on integer coordinates at the common conductor L of the table's
    exponent conductor E and the components: each v_chi lifted to L and
    scaled to integers by one common denominator D, chi(g_t^-1) =
    sum_i c_i zeta_E^i read at L as sum_i c_i zeta_L^(i L/E).  A class sum
    with a nonzero coordinate past the first means the components are not
    Galois-coherent and raises InputError.
    """
    table = character_table(g)
    if len(values) != table.n_classes:
        raise InputError(
            "expected one center component per character (%d), got %d"
            % (table.n_classes, len(values))
        )
    e_norm = normalized(table.exponent)
    big = lcm(e_norm, *(v.m for v in values))
    denom = lcm(*(c.denominator for v in values for c in v.coeffs))
    scaled = [  # D v_chi as {exponent at L: integer}
        {j * (big // v.m): denom // c.denominator * c.numerator
         for j, c in enumerate(v.coeffs) if c}
        for v in values
    ]
    shift = big // e_norm
    coords = table.coords
    if shift > 1:
        coords = [[{i * shift: c for i, c in d.items()} for d in row] for row in coords]
    sums = []
    for t in range(table.n_classes):
        s = table.inverse_class(t)
        folded = product_sum(
            big, ((deg, ints, row[s]) for deg, ints, row in zip(table.degrees, scaled, coords))
        )
        sums.append(folded.pop(0, 0))
        if folded:
            raise InputError(
                "center components are not Galois-coherent; the element "
                "does not descend to the rational group algebra"
            )
    return sums, denom * g.order


def fitting_generators(pres: PresentationMatrix, reps=None) -> FittingGenerators:
    """Reduced norms of all b x b submatrices; zero class when a < b.

    Kept on the presentation (``groups.kept``), as the table is on its
    group.  ``reps`` is ignored.  It stays only for the benchmark's call
    sites and goes with the next benchmark change."""
    return kept(pres, "_fitting", None, lambda: _fitting_generators(pres))


def _fitting_generators(pres):
    """fitting_generators, unkept."""
    subsets = list(combinations(range(pres.a), pres.b))  # none when a < b
    values = [reduced_norm(pres.group, [pres.entries[i] for i in rows]) for rows in subsets]
    return FittingGenerators(subsets=subsets, values=values)


def _require_integral(pres, p):
    bad = [c for row in pres.entries for vec in row for c in vec if c.denominator % p == 0]
    if bad:
        raise InputError("presentation entries must be %d-integral, got %s" % (p, bad[0]))


def presentation_image(pres: PresentationMatrix, p, precision=None):
    """Image of Lambda^a -> Lambda^b as a lattice in Z_p^(b|G|): spanned by
    the rows of the matrix under all left translations, each translation by
    x read off one ``g.row(x)``.  On a group with no table each read builds
    the whole row, O(|G|) even when the entries are sparse."""
    g = pres.group
    n = g.order
    _require_integral(pres, p)
    if precision is None:
        precision = working_precision(g, p)
    modulus = p**precision
    cols = []
    for entries in pres.entries:
        row = [[residue(c, p, modulus) for c in entry] for entry in entries]
        terms = [[(y, c) for y, c in enumerate(entry) if c] for entry in row]
        for x in range(n):
            left = g.row(x)
            vec = []
            for entry_terms in terms:
                shifted = [0] * n
                for y, c in entry_terms:
                    shifted[left[y]] = c
                vec.extend(shifted)
            cols.append(vec)
    return hnf_columns(p, precision, cols)


def annihilation_check(pres: PresentationMatrix, p, reps=None, precision=None) -> bool:
    """Conductor times Fitting invariant annihilates the cokernel.

    Entries that are not p-integral raise InputError.  Every product of a
    central conductor generator with a Fitting generator (those of
    ``fitting_generators``) must be p-integral and carry each unit vector
    of Lambda^b into the presentation image.  Vacuously true for the zero
    Fitting class and for b = 0, where the cokernel is 0.  ``reps`` is
    ignored, as in ``fitting_generators``.
    """
    _require_integral(pres, p)
    fit = fitting_generators(pres)
    g = pres.group
    n = g.order
    if fit.zero or pres.b == 0:
        return True
    if precision is None:
        precision = working_precision(g, p)
    modulus = p**precision
    conductor = formula_conductor_lattice(g, p, precision=precision)
    image = presentation_image(pres, p, precision=precision)
    classes = character_table(g).classes
    k = len(classes.classes)
    mats = [class_matrix(g, classes, s) for s in range(k)]
    for vals in fit.values:
        z, den = _center_classes(g, vals)
        times_z = [[0] * k for _ in range(k)]  # c_s z = sum_j z_j c_s c_j, on class sums
        for acc, mat in zip(times_z, mats):
            for zj, row in zip(z, mat):
                if zj:
                    for t, a in row:
                        acc[t] += a * zj
        for col in conductor.cols:
            prod = [0] * k  # den times col * z
            for c, row in zip(col, times_z):
                if c:
                    for t, x in enumerate(row):
                        prod[t] += c * x
            try:
                res = scaled_residues(prod, den, p, modulus)
            except ArithmeticError:  # col * z is not p-integral
                return False
            spread = [res[t] for t in classes.class_of]
            for j in range(pres.b):
                vec = [0] * (j * n) + spread + [0] * ((pres.b - 1 - j) * n)
                if not lattice_contains(image, vec):
                    return False
    return True
