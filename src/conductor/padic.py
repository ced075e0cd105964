"""Exact linear algebra: every elimination loop of the package but one
lives here (``chartab._charpoly``, a Hessenberg reduction over F_l, is the
other).

Three kinds of elimination, each written once:

- over F_l: ``echelon``, ``echelon_coords`` and ``kernel`` (character
  tables split eigenspaces with them; nilradicals of orders mod p are
  kernels of Frobenius powers);
- over Z/p^N: canonical column Hermite forms, lattice membership and
  Smith forms (optionally tracking the column transform), and
  ``solution_lattice``, the solutions of a linear system mod p^q read off
  that transform (the conductor oracle and the cocycles of Ext^1; the
  rings of integers in ``orders`` are its columns past the rank);
- over Z: ``exact_row_hnf``, an exact row Hermite form, and
  ``exact_kernel``, the integer left kernel read off it
  (``finite._permutation_action`` reads the action of G on a lattice from
  them).

Nothing here solves over Q: ``cyclo`` descends by relative traces.

``residue`` is the one conversion of a p-integral Fraction into Z/p^N; an
int takes a fast path before the Fraction check, and the forms mod p^N
reduce int entries inline (``x % modulus``) without calling it.
``scaled_residues`` reduces many numerators over one shared denominator
with one inverse of its unit part, for the Fitting annihilation check and
the columns of the formula lattice.  A
non-p-integral entry raises ArithmeticError in every build, on either
route.

Both forms mod p^N take their pivot from one search, ``_pivot``: the
first entry of least valuation in scan order (across the unplaced columns
in one row for the Hermite form, row by row over the remaining block for
Smith), stopping at the first unit.

Every row operation mod p^N goes through one kernel: ``_nonzero`` lists
the (index, entry) pairs of the vector being subtracted, once per pivot
(or once per ``PLattice`` for ``lattice_contains``, kept on the lattice),
and ``_subtract`` does vec -= q * w in place on those indices only.  The
other entries of vec are already reduced, so skipping them changes
nothing.

The Smith form sweeps rows only.  Once the rows below the pivot are
cleared, the pivot column is p^v over zeros, so clearing the pivot row by
column operations changes no other row, and each entry it clears is
divisible by p^v because v is the least valuation in the block; the
column transform still records those operations.

Precision is never silent: any step that would need to certify a
valuation >= N - guard raises PrecisionExhaustedError instead of
returning an unreliable answer.  The column Hermite form is canonical:
pivot entries are exact powers of p (the unit part is normalized away),
columns are ordered by pivot row, entries of the other columns in a
pivot row are reduced into [0, p^a).  Two spanning sets of the same
lattice therefore produce identical forms, which is what the lattice
comparisons rely on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from .errors import PrecisionExhaustedError

DEFAULT_GUARD = 8
# working precision p^N beyond a problem's own valuations (finite, orders)
DEFAULT_PRECISION = 24


def vp(n, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    if isinstance(n, Fraction):
        if n == 0:
            raise ValueError("valuation of zero")
        return vp(n.numerator, p) - vp(n.denominator, p)
    if n == 0:
        raise ValueError("valuation of zero")
    return _valuation(n, p)


def _valuation(x: int, p: int) -> int:
    """p-adic valuation of a nonzero int (a residue mod p^N)."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _pivot(entries, p: int):
    """(v, key) for the first entry of least valuation v among the
    (key, nonzero residue) pairs, in scan order; a unit cannot be beaten,
    so the scan stops at the first one.  None when there are no entries."""
    best = None
    for key, x in entries:
        v = _valuation(x, p)
        if best is None or v < best[0]:
            best = (v, key)
            if not v:
                break
    return best


def _nonzero(vec) -> list:
    """The (index, entry) pairs of vec's nonzero entries."""
    return [(i, x) for i, x in enumerate(vec) if x]


def _subtract(vec, q: int, terms, modulus: int) -> None:
    """vec -= q * w mod modulus in place, w given by ``_nonzero(w)``."""
    for i, x in terms:
        vec[i] = (vec[i] - q * x) % modulus


def residue(x, p: int, modulus: int) -> int:
    """x mod p^N for an int or a p-integral Fraction (modulus = p^N)."""
    if x.denominator % p == 0:
        raise ArithmeticError("%s is not %d-integral" % (x, p))
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def scaled_residues(nums, den, p: int, modulus: int) -> list:
    """num / den mod p^N for each int num over one int den, with one
    inverse of den's unit part; ArithmeticError if a quotient is not
    p-integral."""
    pa = 1
    while den % p == 0:
        den //= p
        pa *= p
    if pa > 1:
        for x in nums:
            if x % pa:
                raise ArithmeticError("%s is not %d-integral" % (Fraction(x, pa * den), p))
    inv = pow(den, -1, modulus)
    return [x // pa * inv % modulus for x in nums]


# -- elimination over F_l ------------------------------------------------------


def echelon(vectors, l):
    """Reduced row echelon form over F_l; returns (rows, pivot columns)."""
    rows = [[x % l for x in v] for v in vectors]
    piv = []
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][c], -1, l)
        rows[r] = [(x * inv) % l for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % l for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    return rows[:r], piv


def echelon_coords(basis_rows, piv, vec, l):
    """Coordinates of vec in an echelon basis (vec must lie in the span)."""
    v = list(vec)
    out = []
    for row, c in zip(basis_rows, piv):
        f = v[c] % l
        out.append(f)
        if f:
            v = [(x - f * y) % l for x, y in zip(v, row)]
    if any(x % l for x in v):
        raise ArithmeticError("vector escaped the invariant subspace")
    return out


def kernel(rows, l):
    """Basis of {x : rows * x = 0} over F_l, one vector per free column."""
    width = len(rows[0]) if rows else 0
    ech, piv = echelon(rows, l)
    out = []
    for fc in range(width):
        if fc in piv:
            continue
        v = [0] * width
        v[fc] = 1
        for row, c in zip(ech, piv):
            v[c] = (-row[fc]) % l
        out.append(v)
    return out


# -- lattices mod p^N ---------------------------------------------------------


class PLattice:
    """Canonical column Hermite form of a Z_p-lattice in Z_p^n, mod p^N."""

    def __init__(self, p, precision, dim, pivots, pivot_vals, cols):
        self.p, self.precision, self.dim = p, precision, dim
        self.pivots = pivots  # pivot row per column, increasing
        self.pivot_vals = pivot_vals  # valuation a_i of the pivot entry p^{a_i}
        self.cols = cols  # reduced columns, ints mod p^N

    @cached_property
    def terms(self):
        """``_nonzero`` of each column, for ``lattice_contains``; built on
        first use and kept, so a shared lattice must not be mutated.
        ``__eq__`` does not read it."""
        return [_nonzero(col) for col in self.cols]

    def index_valuation(self) -> int:
        """v_p of [Z_p^n : L] when the lattice has full rank."""
        if len(self.pivots) != self.dim:
            raise ValueError("lattice does not have full rank")
        return sum(self.pivot_vals)

    def __eq__(self, other):
        return (
            isinstance(other, PLattice)
            and self.p == other.p
            and self.dim == other.dim
            and self.pivots == other.pivots
            and self.pivot_vals == other.pivot_vals
            and self.cols == other.cols
        )


def hnf_columns(p, precision, columns) -> PLattice:
    """Canonical column Hermite form mod p^precision.

    columns: vectors of ints or p-integral Fractions; a Fraction with p
    in its denominator raises ArithmeticError (scale the lattice yourself
    if you need it).
    """
    if not columns:
        raise ValueError("no columns")
    dim = len(columns[0])
    modulus = p**precision
    work = [
        [x % modulus if type(x) is int else residue(x, p, modulus) for x in col]
        for col in columns
    ]

    pivots, pivot_vals, placed = [], [], []
    for row in range(dim):
        found = _pivot(((idx, col[row]) for idx, col in enumerate(work) if col[row]), p)
        if found is None:
            continue
        best_v, best = found
        if best_v > precision - DEFAULT_GUARD:
            raise PrecisionExhaustedError(
                "pivot valuation %d in row %d exceeds precision %d - guard %d"
                % (best_v, row, precision, DEFAULT_GUARD)
            )
        piv = work.pop(best)
        unit = piv[row] // p**best_v
        inv = pow(unit, -1, modulus)
        piv = [(x * inv) % modulus for x in piv]
        # clear this row from the remaining unplaced columns (their entries
        # here have valuation >= best_v, so the quotient is p-integral)
        terms, pv = _nonzero(piv), p**best_v
        for col in work:
            x = col[row]
            if x:
                _subtract(col, x // pv, terms, modulus)
        placed.append(piv)
        pivots.append(row)
        pivot_vals.append(best_v)

    # every leftover column was cleared at each pivot row and had no pivot
    # of its own, so it must be exactly zero now
    if any(any(col) for col in work):
        raise ArithmeticError("unplaced column with visible entries")

    # canonical reduction: entries of column j at later pivot rows into
    # [0, p^{a_i}); increasing i keeps earlier reductions intact because
    # placed[i] vanishes at all pivot rows before its own.  The terms of
    # placed[i] are taken before the pass: placed[i] changes only on its
    # own turn (j = i), after every j < i has used it.
    terms = [_nonzero(col) for col in placed]
    for j, col in enumerate(placed):
        for i in range(j + 1, len(placed)):
            q = col[pivots[i]] // p ** pivot_vals[i]
            if q:
                _subtract(col, q, terms[i], modulus)
    return PLattice(p, precision, dim, pivots, pivot_vals, placed)


def lattice_contains(lat: PLattice, vector) -> bool:
    """Whether the vector lies in the lattice, mod p^precision."""
    p, modulus = lat.p, lat.p**lat.precision
    v = [x % modulus if type(x) is int else residue(x, p, modulus) for x in vector]
    for terms, row, a in zip(lat.terms, lat.pivots, lat.pivot_vals):
        x = v[row]
        if x == 0:
            continue
        pa = p**a
        if x % pa:
            return False
        _subtract(v, x // pa, terms, modulus)
    floor = p ** max(lat.precision - DEFAULT_GUARD, 1)
    return all(x % floor == 0 for x in v)


def smith_valuations(p, precision, rows) -> list:
    """Elementary divisor valuations of an integer matrix over Z_p.

    Returns the list of valuations (ascending), one per invariant factor
    with valuation < precision - guard; a divisor indistinguishable from
    zero at this precision raises PrecisionExhaustedError.
    """
    return _smith(p, precision, rows, False)[0]


def smith_with_column_transform(p, precision, rows):
    """Smith form tracking column operations: returns (vals, c_cols) where
    R * A * C = diag(p^vals) for unimodular R (discarded) and C, and c_cols
    lists the columns of C.  Columns beyond len(vals) span directions on
    which A vanishes mod p^precision."""
    return _smith(p, precision, rows, True)


def solution_lattice(p, precision, rows, width, q):
    """(vals, basis): the Smith valuations of the rows and a basis of
    {x in Z_p^width : rows * x = 0 mod p^q}, column i of the transform C
    times p^max(0, q - vals[i]) (unscaled past the rank)."""
    if not rows:
        return [], [[int(i == j) for i in range(width)] for j in range(width)]
    vals, c_cols = smith_with_column_transform(p, precision, rows)
    return vals, [
        [x * p ** max(0, q - vals[i]) for x in col] if i < len(vals) else col
        for i, col in enumerate(c_cols)
    ]


def _smith(p, precision, rows, track):
    """Smith elimination mod p^precision; the column transform C (as a list
    of columns) is kept only when ``track`` is set, else None."""
    modulus = p**precision
    a = [[x % modulus for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    c = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)] if track else None
    out = []
    for top in range(min(nrows, ncols)):
        # the block below and right of (top, top), row by row
        block = (
            ((i, j), x) for i in range(top, nrows) for j, x in enumerate(a[i][top:], top) if x
        )
        best = _pivot(block, p)
        if best is None:
            # every remaining entry vanishes mod p^N: the rank is len(out)
            break
        v, (bi, bj) = best
        if v > precision - DEFAULT_GUARD:
            raise PrecisionExhaustedError(
                "invariant factor valuation %d exceeds precision %d - guard %d"
                % (v, precision, DEFAULT_GUARD)
            )
        a[top], a[bi] = a[bi], a[top]
        if bj != top:
            for row in a:
                row[top], row[bj] = row[bj], row[top]
            if track:
                c[top], c[bj] = c[bj], c[top]
        pv = p**v
        inv = pow(a[top][top] // pv, -1, modulus)
        row = a[top] = [(x * inv) % modulus for x in a[top]]
        terms = _nonzero(row)
        for i in range(top + 1, nrows):
            x = a[i][top]
            if x:
                _subtract(a[i], x // pv, terms, modulus)
        # column top is now p^v over zeros, so the column sweep only zeroes
        # the tail of row top (each entry divisible by p^v; module docstring)
        c_terms = _nonzero(c[top]) if track else None
        for j in range(top + 1, ncols):
            x = row[j]
            if x:
                q, r = divmod(x, pv)
                if r:
                    raise ArithmeticError("entry below the least valuation %d" % v)
                row[j] = 0
                if track:
                    _subtract(c[j], q, c_terms, modulus)
        out.append(v)
    return out, c


# -- exact integer forms -------------------------------------------------------


def exact_row_hnf(rows):
    """Row echelon form over Z (exact, Euclidean), returns new rows."""
    a = [list(r) for r in rows]
    if not a:
        return a
    ncols = len(a[0])
    top = 0
    for col in range(ncols):
        piv = None
        for i in range(top, len(a)):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        for i in range(top + 1, len(a)):
            while a[i][col]:
                q = a[i][col] // a[top][col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                if a[i][col]:
                    a[top], a[i] = a[i], a[top]
        if a[top][col] < 0:
            a[top] = [-x for x in a[top]]
        for i in range(top):
            q = a[i][col] // a[top][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
        top += 1
    return [r for r in a if any(r)] + [r for r in a if not any(r)]


def exact_kernel(rows):
    """Z-basis of the integer kernel {x : x * rows = 0} (x as row vector)."""
    n = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced = exact_row_hnf(aug)
    out = []
    for row in reduced:
        if all(x == 0 for x in row[:width]):
            tail = row[width:]
            if any(tail):
                out.append(tail)
    return out
