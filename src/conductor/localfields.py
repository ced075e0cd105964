"""Abelian extensions of Q_p presented inside cyclotomic fields.

A field is a triple (p, m, stab_gens): the fixed field of the subgroup S
generated by stab_gens inside the decomposition group

    U = Gal(Q_p(zeta_m)/Q_p) <= (Z/m)*,

the units a mod m whose residue mod m' is a power of p, where m = p^k m'
with p not dividing m'.  Its inertia group I is the units = 1 mod m'.
The closures and generating sets of subgroups of (Z/m)* are ``cyclo``'s
``unit_closure`` and ``generating_set``.  Ramification data comes from the
conductor-discriminant formula evaluated on the higher unit filtration
I_i = {a in I : a = 1 mod p^i}, so everything stays integer arithmetic.
``cyclotomic_ideal_basis`` gives the powers of the radical of
Z_p[x]/Phi_d(x) as explicit lattices.

Only odd p is supported, though ``decomposition_group`` holds for every p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclo import generating_set, is_prime, normalized, power, product_sum, require_odd_prime
from .cyclo import totient, unit_closure, unit_lift, value_conductor
from .errors import ContainmentError, InputError
from .padic import hnf_columns


def _split_conductor(p: int, m: int) -> tuple[int, int]:
    """m = p^k * m' with p not dividing m'; returns (p^k, m')."""
    pk = 1
    rest = m
    while rest % p == 0:
        pk *= p
        rest //= p
    return pk, rest


@lru_cache(maxsize=None)
def decomposition_group(p: int, m: int) -> tuple:
    """Gal(Q_p(zeta_m)/Q_p) as a sorted tuple of residues mod m: the units
    whose residue mod m' (m = p^k m', p not dividing m') is a power of p."""
    _, rest = _split_conductor(p, m)
    frobenius = set(unit_closure([p], rest))
    return tuple(a for a in range(m) if gcd(a, m) == 1 and a % rest in frobenius)


class AbelianLocalField:
    """Fixed field of <stab_gens> inside Q_p(zeta_m), p an odd prime."""

    __slots__ = ("p", "m", "stab", "galois_group", "_ram")

    def __init__(self, p: int, m: int, stab_gens=()):
        require_odd_prime(p)
        if m < 1:
            raise InputError("conductor must be positive (got %r)" % (m,))
        if normalized(m) != m:
            # zeta_{2u} and zeta_u generate the same field for odd u
            m = normalized(m)
            stab_gens = [g % m for g in stab_gens]
        self.p = p
        self.m = m
        self.galois_group = decomposition_group(p, m)
        uset = set(self.galois_group)
        for g in stab_gens:
            if gcd(g, m) != 1:
                raise InputError("stabilizer residue %d is not a unit mod %d" % (g, m))
            if g % m not in uset:
                raise InputError(
                    "residue %d is outside the decomposition group mod %d" % (g, m)
                )
        self.stab = unit_closure(stab_gens, m)
        self._ram = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def qp(p: int) -> "AbelianLocalField":
        return AbelianLocalField(p, 1)

    @staticmethod
    def cyclotomic(p: int, k: int) -> "AbelianLocalField":
        """Q_p(zeta_{p^k})."""
        return AbelianLocalField(p, p**k)

    @staticmethod
    def unramified(p: int, f: int) -> "AbelianLocalField":
        """The unramified extension of Q_p of degree f."""
        if f == 1:
            return AbelianLocalField.qp(p)
        l = 2
        while True:
            if l != p and is_prime(l) and len(unit_closure([p], l)) % f == 0:
                return AbelianLocalField(p, l, [pow(p, f, l)])
            l += 1

    @staticmethod
    def from_json(obj: dict) -> "AbelianLocalField":
        return AbelianLocalField(
            int(obj["p"]), int(obj["m"]), [int(g) for g in obj.get("stab_gens", [])]
        )

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "stab_gens": list(self.generating_set())}

    def generating_set(self) -> tuple:
        """A short generating set of the stabilizer subgroup."""
        return generating_set(self.stab, self.m)

    # -- invariants ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.galois_group) // len(self.stab)

    def _ramification(self):
        if self._ram is None:
            pk, rest = _split_conductor(self.p, self.m)
            u_size = len(self.galois_group)
            s = set(self.stab)
            inertia = [a for a in self.galois_group if a % rest == 1 % rest]
            e = len(inertia) // len([a for a in inertia if a in s])
            f = self.degree // e
            # conductor-discriminant: v_p(disc) counts characters of U/S
            # still nontrivial on each higher unit group I_i
            disc = 0
            i = 0
            while True:
                pi = self.p**i
                level = [a for a in inertia if a % pi == 1 % pi]
                prod_size = len(s) * len(level) // len([a for a in level if a in s])
                nontrivial = self.degree - u_size // prod_size
                if nontrivial == 0:
                    break
                disc += nontrivial
                i += 1
            if disc % f:
                raise ArithmeticError("discriminant valuation must be divisible by f")
            self._ram = (e, f, disc, disc // f)
        return self._ram

    @property
    def ramification_index(self) -> int:
        return self._ramification()[0]

    @property
    def residue_degree(self) -> int:
        return self._ramification()[1]

    @property
    def discriminant_valuation(self) -> int:
        """v_p of the discriminant over Q_p."""
        return self._ramification()[2]

    @property
    def different_exponent(self) -> int:
        """Valuation of the different over Q_p in the normalized (pi-adic) sense."""
        return self._ramification()[3]

    # -- comparisons ---------------------------------------------------------

    def galois_residues(self, big_m: int) -> list:
        """Gal(Q_p(zeta_M)/self) for M = big_m a multiple of self.m: the
        residues mod M in the decomposition group whose residue mod m lies in
        the stabilizer, ascending."""
        stab = set(self.stab)
        return [a for a in decomposition_group(self.p, big_m) if a % self.m in stab]

    def contains(self, other: "AbelianLocalField") -> bool:
        """Whether other is a subfield of self."""
        if self.p != other.p:
            return False
        big = lcm(self.m, other.m)
        return set(self.galois_residues(big)) <= set(other.galois_residues(big))

    def equals(self, other: "AbelianLocalField") -> bool:
        return self.contains(other) and other.contains(self)

    def __repr__(self):
        return "AbelianLocalField(p=%d, m=%d, stab=%r)" % (self.p, self.m, self.generating_set())


def field_of_values(base: AbelianLocalField, w: int, fixed) -> AbelianLocalField:
    """The compositum of base with Q_p(values in Q(zeta_w)), where fixed(k)
    says whether zeta_w -> zeta_w^k (k a unit mod w) fixes every value.

    It sits at m = lcm(base.m, c), c the values' conductor; its stabilizer
    is the residues a mod m fixing the base pointwise and the values, on
    which a acts as any unit mod w that is a mod c."""
    c = value_conductor(w, fixed)
    big = lcm(base.m, c)
    stab = [a for a in base.galois_residues(big) if fixed(unit_lift(a, c, w))]
    return AbelianLocalField(base.p, big, stab)


def relative_data(base: AbelianLocalField, ext: AbelianLocalField) -> tuple[int, int, int]:
    """(e, f, d) of ext/base: ramification, residue degree, different exponent.

    Raises ContainmentError unless base is a subfield of ext.
    """
    if not ext.contains(base):
        raise ContainmentError(
            "base field (m=%d) is not contained in the extension (m=%d)"
            % (base.m, ext.m)
        )
    e = ext.ramification_index // base.ramification_index
    f = ext.residue_degree // base.residue_degree
    # transitivity of the different along Q_p - base - ext
    d = ext.different_exponent - e * base.different_exponent
    if (
        e * base.ramification_index != ext.ramification_index
        or f * base.residue_degree != ext.residue_degree
        or d < 0
    ):
        raise ArithmeticError("relative e, f or different exponent is inconsistent")
    return e, f, d


def cyclotomic_ideal_basis(p, d, target, precision):
    """Power-basis coordinates of a basis of J^target in Z_p[x]/Phi_d(x),
    J the radical; ``target`` may be negative.

    Write d = p^k d' with p not dividing d'.  The ring is a product of DVRs,
    each an unramified extension of Z_p[zeta_(p^k)], so J is principal: it is
    generated by p when k = 0 and by 1 - x^d' when k >= 1, x^d' being a
    primitive p^k-th root of unity.  J^t for t >= 0 is the image of
    multiplication by the t-th power of the generator, one Hermite form;
    J^-t = p^-a J^(a e - t) for e = phi(p^k) and the least a with
    a e >= t.  Elements are sparse dicts mod Phi_d and p^precision,
    multiplied by ``cyclo.product_sum`` and powered by ``cyclo.power``.
    """
    deg = totient(d)
    d_prime = d
    while d_prime % p == 0:
        d_prime //= p
    e = totient(d // d_prime)
    modulus = p**precision

    def mult(u, v):
        prod = product_sum(d, ((1, u, v),))
        return {i: c % modulus for i, c in prod.items() if c % modulus}

    gen = {0: p} if d_prime == d else mult({0: 1, d_prime: -1}, {0: 1})  # 1 - x^d'
    a = max(0, -(target // e))
    pi = power(mult, gen, target + a * e, {0: 1})
    images = [mult(pi, {j: 1}) for j in range(deg)]
    cols = hnf_columns(p, precision, [[x.get(i, 0) for i in range(deg)] for x in images]).cols
    if a:
        cols = [[Fraction(x, p**a) for x in col] for col in cols]
    return cols
