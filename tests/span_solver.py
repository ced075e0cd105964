"""Exact solves over Q: the reference route of the tests.

The package eliminates over F_l, Z/p^N and Z only; ``cyclo`` descends
Q(zeta_m) -> Q(zeta_d) by relative traces and ``finite`` reads the action of
G on a lattice off an integer kernel.  The tests' reference routes that
solve over Q (the Ext^1 reference of ``test_finite.py``, the Gram inverse of
``test_orders.py``) use ``SpanSolver``.
"""

from fractions import Fraction
from math import gcd, lcm


class SpanSolver:
    """Exact solves over Q against one fixed basis, factored once.

    Each basis vector (ints or Fractions) is scaled to integers, and one
    integer Gauss-Jordan pass over them keeps the pivot rows and the row
    transform.  Each ``solve`` is then a product with the stored transform
    plus an exact check that the target lies in the Q-span.  Basis vectors
    dependent on earlier ones get coordinate 0.
    """

    def __init__(self, cols):
        self.scales = [lcm(*(x.denominator for x in col)) for col in cols]
        ints = [
            [x.numerator * (s // x.denominator) for x in col]
            for col, s in zip(cols, self.scales)
        ]
        self.size = len(ints)
        width = len(ints[0]) if ints else 0
        pivots = []  # (position, row), row = [t . ints | t] for a transform t
        for j, vec in enumerate(ints):
            row = vec + [0] * self.size
            row[width + j] = 1
            for pos, prow in pivots:
                if row[pos]:
                    row = _combine(prow[pos], row, row[pos], prow)
            pos = next((i for i in range(width) if row[i]), None)
            if pos is None:
                continue
            row = _primitive(row)
            pivots = [
                (ppos, _combine(row[pos], prow, prow[pos], row) if prow[pos] else prow)
                for ppos, prow in pivots
            ]
            pivots.append((pos, row))
        self.positions = [pos for pos, _ in pivots]
        self.denominator = lcm(*(row[pos] for pos, row in pivots))
        # coordinate j = scales[j] * sum_i transform[j][i] * target[positions[i]] / denominator
        self.transform = [
            [row[width + j] * (self.denominator // row[pos]) for pos, row in pivots]
            for j in range(self.size)
        ]
        # the target must agree with the solution off the pivot positions
        taken = set(self.positions)
        self.checks = [
            (i, [(j, vec[i]) for j, vec in enumerate(ints) if vec[i]])
            for i in range(width)
            if i not in taken
        ]

    def solve(self, target):
        """Coordinates of target (ints or Fractions); ArithmeticError if it
        is outside the span."""
        if not self.size and any(target):
            raise ArithmeticError("target is outside the span of the basis")
        scale = lcm(*(x.denominator for x in target))
        ints = [x.numerator * (scale // x.denominator) for x in target]
        known = [(i, ints[pos]) for i, pos in enumerate(self.positions) if ints[pos]]
        nums = [sum(row[i] * v for i, v in known) for row in self.transform]
        for i, terms in self.checks:
            if sum(nums[j] * c for j, c in terms) != self.denominator * ints[i]:
                raise ArithmeticError("target is outside the span of the basis")
        return [Fraction(num * s, self.denominator * scale) for num, s in zip(nums, self.scales)]


def _combine(a, row, b, other):
    """The primitive part of a * row - b * other."""
    return _primitive([a * x - b * y for x, y in zip(row, other)])


def _primitive(row):
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]
