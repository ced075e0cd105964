"""Character values as CycloNumbers: the reference route of the tests.

A character table keeps its values only as integer coordinates at the
exponent conductor (``CharacterTable.coords``).  Tests that check it
against CycloNumber arithmetic build the numbers here.
"""

from conductor.cyclo import CycloNumber, normalized


def table_values(table):
    """values[row][class] as CycloNumbers at their smallest conductor, one
    ``minimal_conductor`` per distinct coordinate dict."""
    e_norm = normalized(table.exponent)
    built = {}

    def value(d):
        key = frozenset(d.items())
        if key not in built:
            dense = [d.get(i, 0) for i in range(max(d, default=0) + 1)]
            built[key] = CycloNumber(e_norm, dense).minimal_conductor()
        return built[key]

    return [[value(d) for d in row] for row in table.coords]


def element_values(table):
    """values[row][x] at every group element x."""
    class_of = table.classes.class_of
    return [[row[c] for c in class_of] for row in table_values(table)]
