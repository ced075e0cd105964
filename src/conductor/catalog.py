"""Named test groups, hand-entered splitting representations, semidirect data.

The representation matrices below are validated by tests: each list of
generator matrices must extend to a homomorphism on the whole group and
its trace vector must match a character table row exactly.
"""

from __future__ import annotations

from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    SemidirectData,
    cyclic_automorphism,
    cyclic_group,
    direct_product,
    finite_quotient,
)


def symmetric_3() -> FiniteGroup:
    # generators: transposition (01), 3-cycle (012)
    return FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3, name="S3")


def dihedral(n: int) -> FiniteGroup:
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return FiniteGroup.from_permutations([rot, ref], n, name="D%d" % n)


def quaternion_8() -> FiniteGroup:
    # 0..7 = 1, -1, i, -i, j, -j, k, -k
    base = {
        ("1", "1"): ("+", "1"), ("1", "i"): ("+", "i"), ("1", "j"): ("+", "j"), ("1", "k"): ("+", "k"),
        ("i", "1"): ("+", "i"), ("i", "i"): ("-", "1"), ("i", "j"): ("+", "k"), ("i", "k"): ("-", "j"),
        ("j", "1"): ("+", "j"), ("j", "i"): ("-", "k"), ("j", "j"): ("-", "1"), ("j", "k"): ("+", "i"),
        ("k", "1"): ("+", "k"), ("k", "i"): ("+", "j"), ("k", "j"): ("-", "i"), ("k", "k"): ("-", "1"),
    }
    names = ["1", "1", "i", "i", "j", "j", "k", "k"]

    def mult(a, b):
        sign = (-1) ** (a % 2) * (-1) ** (b % 2)
        s, axis = base[(names[a], names[b])]
        if s == "-":
            sign = -sign
        idx = {"1": 0, "i": 2, "j": 4, "k": 6}[axis]
        return idx + (0 if sign > 0 else 1)

    return FiniteGroup(8, mult, [2, 4], name="Q8")


def alternating_4() -> FiniteGroup:
    # generators: (012), (01)(23)
    return FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], 4, name="A4")


def symmetric_4() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], 4, name="S4")


def symmetric_5() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5, name="S5")


def alternating_5() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5, name="A5")


def frobenius_20() -> FiniteGroup:
    # C5 x| C4: translation x+1 and multiplication 2x mod 5
    return FiniteGroup.from_permutations([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], 5, name="F20")


def c7_c3() -> FiniteGroup:
    """C7 x| C3 through x -> 2x, as the level-1 quotient of the semidirect data."""
    return finite_quotient(sd_c7(), 1)


def s3_x_c9() -> FiniteGroup:
    return direct_product(symmetric_3(), cyclic_group(9), name="S3xC9")


def c3_x_c3() -> FiniteGroup:
    return direct_product(cyclic_group(3), cyclic_group(3), name="C3xC3")


def conductor_catalog() -> list[FiniteGroup]:
    """Groups for the finite formula-vs-brute-force comparison."""
    out = [cyclic_group(n) for n in range(2, 10)]
    out += [c3_x_c3(), symmetric_3(), dihedral(4), alternating_4()]
    return out


def table_catalog() -> list[FiniteGroup]:
    """Groups of order <= 200 for the character-table invariant sweep."""
    return [
        symmetric_3(),
        dihedral(4),
        quaternion_8(),
        alternating_4(),
        symmetric_4(),
        symmetric_5(),
        alternating_5(),
        dihedral(5),
        dihedral(6),
        dihedral(17),
        frobenius_20(),
        c7_c3(),
        c3_x_c3(),
        cyclic_group(15),
        s3_x_c9(),
    ]


# -- splitting representations ---------------------------------------------
#
# For each named nonabelian catalog group: integer matrices per generator,
# one entry per irreducible character of degree > 1 (degree-1
# representations come straight from the table row).  Only the
# brute-force maximal-order oracle in ``finite`` uses them.


def splitting_reps(name: str):
    if name == "S3":
        return [
            [((0, 1), (1, 0)), ((0, -1), (1, -1))],  # standard 2-dim
        ]
    if name == "D4":
        return [
            [((0, -1), (1, 0)), ((1, 0), (0, -1))],  # rotation/reflection 2-dim
        ]
    if name == "A4":
        return [
            [
                ((0, -1, 1), (1, -1, 1), (0, 0, 1)),  # (012) on the sum-zero lattice
                ((-1, 1, 0), (0, 1, 0), (0, 1, -1)),  # (01)(23)
            ],
        ]
    return []


# -- semidirect catalog ------------------------------------------------------


def sd_c7() -> SemidirectData:
    return SemidirectData(cyclic_group(7), cyclic_automorphism(7, 2), 3)


def sd_c3_trivial() -> SemidirectData:
    g = cyclic_group(3)
    return SemidirectData(g, GroupAutomorphism.identity(g), 3)


def sd_s3_trivial() -> SemidirectData:
    g = symmetric_3()
    return SemidirectData(g, GroupAutomorphism.identity(g), 3)


def sd_s3_inner() -> SemidirectData:
    g = symmetric_3()
    return SemidirectData(g, GroupAutomorphism.inner(g, g.generators[1]), 3)


def sd_c9() -> SemidirectData:
    return SemidirectData(cyclic_group(9), cyclic_automorphism(9, 4), 3)


def sd_c3c3_shear() -> SemidirectData:
    g = c3_x_c3()
    # (x, y) -> (x + y, y) on indices x*3 + y
    images = [((x + y) % 3) * 3 + y for x in range(3) for y in range(3)]
    return SemidirectData(g, GroupAutomorphism(g, images), 3)


def sd_c11() -> SemidirectData:
    return SemidirectData(cyclic_group(11), cyclic_automorphism(11, 3), 5)


def sd_c19() -> SemidirectData:
    # x -> 4x has order 9 mod 19, the one n = 2 entry
    return SemidirectData(cyclic_group(19), cyclic_automorphism(19, 4), 3)


def semidirect_catalog() -> list[SemidirectData]:
    return [
        sd_c7(),
        sd_c3_trivial(),
        sd_s3_trivial(),
        sd_s3_inner(),
        sd_c9(),
        sd_c3c3_shear(),
        sd_c11(),
        sd_c19(),
    ]
