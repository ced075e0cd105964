"""Element orders and the exponent by walking powers: the tests' reference
for what ``chartab.character_table`` reads off its power maps."""

from math import lcm


def element_order(g, a):
    """The least o >= 1 with a^o the identity."""
    o, y = 1, a
    while y != 0:
        y = g.mult(y, a)
        o += 1
    return o


def exponent(g):
    """The lcm of the element orders of g."""
    return lcm(*(element_order(g, x) for x in range(g.order)))
