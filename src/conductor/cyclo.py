"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Numbers are vectors of Fractions on the power basis 1, z, ..., z^(phi(m)-1)
with z = exp(2*pi*i/m), reduced modulo the m-th cyclotomic polynomial.
Reduction reads zeta^e from a table of rows stored sparse, as the nonzero
(index, coefficient) pairs: a unit for e < phi(m), a few terms past it.
One kernel (``_sparse_fold``) sums them into a dict {index: coefficient},
the form character tables store; ``_fold`` is its dense view.  Beside it,
one product, ``product_sum`` (sums of w * a * b over sparse dicts, one
fold), and one square-and-multiply, ``power``, serve every module's
products in Z[zeta_m]; ``iwasawa._product`` alone packs into integers.  No
floating point anywhere; equality is decided exactly after moving both sides
to a common conductor.  Conductors are normalized to m != 2 (mod 4), using
zeta_{2u} = -zeta_u^((u+1)/2) for odd u.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InputError, InvalidAutomorphismError

ZERO = Fraction(0)
ONE = Fraction(1)


def totient(m: int) -> int:
    out = m
    for q in prime_factors(m):
        out = out // q * (q - 1)
    return out


def divisors(m: int) -> list[int]:
    small, large = [], []
    q = 1
    while q * q <= m:
        if m % q == 0:
            small.append(q)
            if q != m // q:
                large.append(m // q)
        q += 1
    return small + large[::-1]


PRIME_BOUND = 1 << 64
# the least strong pseudoprime to all of these bases is about 3.2 * 10^23
# (Sorenson and Webster, Math. Comp. 86, 2017), so Miller-Rabin on them
# decides primality exactly below 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^64; ValueError above."""
    if n >= PRIME_BOUND:
        raise ValueError("primality is decided only below 2^64, got %d" % n)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    """InputError unless p is an odd prime below 2^64."""
    if p >= PRIME_BOUND:
        raise InputError("p = %d is too large: primes are decided only below 2^64" % p)
    if p < 3 or not is_prime(p):
        raise InputError("p must be an odd prime (got %r)" % (p,))


def prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _poly_divmod(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact integer polynomial division")
        c //= den[-1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("integer polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficient tuple (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    poly = [0] * m + [1]
    poly[0] = -1  # x^m - 1
    for d in divisors(m)[:-1]:
        poly = _poly_divmod(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_context(m: int):
    """Power basis data for Q(zeta_m): (phi, rows), rows[e] the nonzero
    (index, coefficient) pairs of zeta^e for 0 <= e < max(m, 2*phi-1).
    Row e < phi is ((e, 1),); each later row shifts the one before and
    subtracts its top coefficient times Phi_m, over Phi_m's nonzero terms."""
    phi = totient(m)
    top = [(i, -c) for i, c in enumerate(cyclotomic_poly(m)[:-1]) if c]  # z^phi
    rows = [((e, 1),) for e in range(phi)]
    cur = {phi - 1: 1}
    for _ in range(phi, max(m, 2 * phi - 1)):
        lead = cur.pop(phi - 1, 0)
        cur = {i + 1: c for i, c in cur.items()}
        for i, c in top:
            c = cur.get(i, 0) + lead * c
            if c:
                cur[i] = c
            else:
                cur.pop(i, None)
        rows.append(tuple(sorted(cur.items())))
    return phi, rows


def _sparse_fold(m: int, terms) -> dict:
    """Power-basis coordinates {index: coefficient}, zeros dropped, at
    conductor m (m != 2 mod 4) of the sum of c * zeta_m^e over (e, c) in
    terms; exponents are read mod m."""
    rows = _reduction_context(m)[1]
    out: dict = {}
    for e, c in terms:
        if c:
            for i, t in rows[e % m]:
                x = c if t == 1 else c * t
                out[i] = out[i] + x if i in out else x
    for i in [i for i, c in out.items() if not c]:  # in place: no second dict per call
        del out[i]
    return out


def _fold(m: int, terms, zero=ZERO) -> list:
    """The dense view of ``_sparse_fold``: all phi(m) coordinates, zero
    where the sum has none."""
    out = [zero] * _reduction_context(m)[0]
    for i, c in _sparse_fold(m, terms).items():
        out[i] = c
    return out


def _normalize(m: int, terms):
    """Rewrite (conductor, terms) at the odd conductor u when m = 2u, u odd,
    using zeta_{2u} = -zeta_u^((u+1)/2)."""
    if m % 4 != 2:
        return m, terms
    u = m // 2
    s = (u + 1) // 2
    return u, ((e * s, -c if e % 2 else c) for e, c in terms)


def int_coords(m: int, terms) -> dict:
    """Integer power-basis coordinates {index: coefficient}, zeros dropped,
    at m normalized (halved when 2 mod 4), of the sum of c * zeta_m^e over
    integer pairs (e, c) in terms."""
    return _sparse_fold(*_normalize(m, terms))


def product_sum(m: int, terms) -> dict:
    """Coordinates {index: coefficient}, zeros dropped, at conductor m of
    the sum of w * a * b over (w, a, b) in terms, a and b sparse dicts
    {exponent: coefficient} of zeta_m (ints or Fractions, exponents read
    mod m), with one fold.  At m = 2 (mod 4) it works mod Phi_m on zeta_m's
    own power basis, as ``localfields.cyclotomic_ideal_basis`` asks."""
    acc: dict = {}
    for w, a, b in terms:
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = ea + eb
                acc[key] = acc.get(key, 0) + w * ca * cb
    return _sparse_fold(m, acc.items())


def power(mul, x, n: int, one):
    """x^n for n >= 0 by square-and-multiply, under the associative
    product mul with identity one."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


class CycloNumber:
    """An element of Q(zeta_m), exact and canonical at its stored conductor."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        if m <= 0:
            raise InvalidAutomorphismError("conductor must be positive")
        if m % 4 == 2:
            m, terms = _normalize(m, enumerate(coeffs))
            coeffs = _fold(m, ((e, Fraction(c)) for e, c in terms))
        phi, _ = _reduction_context(m)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) < phi:
            cs += [ZERO] * (phi - len(cs))
        elif len(cs) > phi:
            cs = _fold(m, enumerate(cs))
        self.m = m
        self.coeffs = tuple(cs)

    @staticmethod
    def root(m: int, e: int = 1) -> "CycloNumber":
        """zeta_m^e."""
        m, terms = _normalize(m, ((e, ONE),))
        return CycloNumber(m, _fold(m, terms))

    @staticmethod
    def rational(q) -> "CycloNumber":
        return CycloNumber(1, [Fraction(q)])

    def lift(self, big: int) -> "CycloNumber":
        """Rewrite at a conductor multiple (big % self.m == 0)."""
        if big == self.m:
            return self
        if big % self.m or big % 4 == 2:
            raise ArithmeticError("cannot lift conductor %d to %d" % (self.m, big))
        step = big // self.m
        return CycloNumber(big, _fold(big, ((e * step, c) for e, c in enumerate(self.coeffs))))

    def _pair(self, other):
        other = other if isinstance(other, CycloNumber) else CycloNumber.rational(other)
        if self.m == other.m:
            return self, other
        m = lcm(self.m, other.m)  # neither is 2 mod 4, so nor is the lcm
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return CycloNumber(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.m, [c * other for c in self.coeffs])
        a, b = self._pair(other)
        sa, sb = ({e: c for e, c in enumerate(x.coeffs) if c} for x in (a, b))
        prod = product_sum(a.m, ((1, sa, sb),))
        return CycloNumber(a.m, [prod.get(i, ZERO) for i in range(len(a.coeffs))])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloNumber":
        if n < 0:
            raise ValueError("negative powers of cyclotomic numbers are not supported")
        return power(CycloNumber.__mul__, self, n, CycloNumber(self.m, [ONE]))

    def __eq__(self, other):
        if not isinstance(other, (CycloNumber, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        red = self.minimal_conductor()
        return hash((red.m, red.coeffs))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %r" % (self,))
        return self.coeffs[0]

    def galois(self, k: int) -> "CycloNumber":
        """Apply zeta_m -> zeta_m^k; k must be a unit mod m."""
        if gcd(k, self.m) != 1:
            raise InvalidAutomorphismError(
                "exponent %d is not coprime to conductor %d" % (k, self.m)
            )
        return CycloNumber(self.m, _fold(self.m, ((e * k, c) for e, c in enumerate(self.coeffs))))

    def trace_to_q(self) -> Fraction:
        """Trace to Q, one ``root_trace`` per nonzero coordinate."""
        return sum((c * root_trace(self.m, e) for e, c in enumerate(self.coeffs) if c), ZERO)

    def minimal_conductor(self) -> "CycloNumber":
        """Rewrite at the smallest conductor (never 2 mod 4); idempotent."""
        scale, ints = self._scaled()
        if not ints.keys() - {0}:
            return CycloNumber(1, self.coeffs[:1])
        m = self.m
        d = value_conductor(
            m, lambda k: _sparse_fold(m, ((e * k, c) for e, c in ints.items())) == ints
        )
        return self if d == m else self._descend(d, scale, ints)

    def _scaled(self):
        """(scale, {e: scale * coeffs[e]}), zeros dropped, scale the least
        common denominator of the coefficients."""
        scale = lcm(*(c.denominator for c in self.coeffs))
        ints = {e: c.numerator * (scale // c.denominator) for e, c in enumerate(self.coeffs) if c}
        return scale, ints

    def descend(self, d: int) -> "CycloNumber":
        """Rewrite at a conductor d dividing self.m (d != 2 mod 4) whose
        field holds the number; ArithmeticError if it does not.

        No solve: one prime q of m/d at a time, from conductor n to n/q.
        Where q^2 divides n, Phi_n(z) = Phi_(n/q)(z^q), so the number is read
        off every q-th coordinate.  Where q exactly divides n, the number is
        Tr(x) / (q - 1), Tr the trace to Q(zeta_(n/q)), with
        Tr(zeta_n^e) = (q - 1 if q | e, else -1) zeta_(n/q)^(e b) and
        b = q^-1 mod n/q (Washington, GTM 83, ch. 2), folded once; at q = 2
        this is the rule zeta_2u = -zeta_u^((u+1)/2).  At d = 1 the number
        is its coordinate 0.  The steps run on integer coordinates over one
        denominator.  Each reading returns a number for any input, so the
        result is certified by folding it back to self.m."""
        return self if d == self.m else self._descend(d, *self._scaled())

    def _descend(self, d, scale, ints) -> "CycloNumber":
        """``descend`` to d != self.m, on ``_scaled``'s output."""
        m = self.m
        if m % d:
            raise ArithmeticError("cannot descend conductor %d to %d" % (m, d))
        x, n, k = ints, m, 1  # x: k * scale times the number, at conductor n
        for q in prime_factors(m // d) if d > 1 else ():
            while n % (d * q) == 0:
                n //= q
                if n % q == 0:
                    x = {e // q: c for e, c in x.items() if e % q == 0}
                else:
                    b, k = pow(q, -1, n), k * (q - 1)
                    terms = ((e * b, c * (q - 1) if e % q == 0 else -c) for e, c in x.items())
                    x = _sparse_fold(n, terms)
        coords = [x.get(i, 0) for i in range(totient(d))]
        back = _sparse_fold(m, ((i * (m // d), c) for i, c in enumerate(coords)))
        if back != {e: c * k for e, c in ints.items()}:
            raise ArithmeticError("Q(zeta_%d) does not hold %r" % (d, self))
        return CycloNumber(d, [Fraction(c, scale * k) for c in coords])

    def to_json(self) -> dict:
        """InputError if a coefficient has more digits than str prints
        (``sys.get_int_max_str_digits``): its input was too large."""
        try:
            coeffs = [[str(c.numerator), str(c.denominator)] for c in self.coeffs]
        except ValueError:
            raise InputError(
                "a value has a coefficient of more than %d digits, too long to print"
                % sys.get_int_max_str_digits()
            ) from None
        return {"m": self.m, "coeffs": coeffs}

    @staticmethod
    def from_json(obj: dict) -> "CycloNumber":
        coeffs = [Fraction(int(n), int(d)) for n, d in obj["coeffs"]]
        return CycloNumber(int(obj["m"]), coeffs)

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                if e == 0:
                    terms.append(str(c))
                else:
                    mono = "z%d" % self.m if e == 1 else "z%d^%d" % (self.m, e)
                    terms.append(mono if c == 1 else "%s*%s" % (c, mono))
        return " + ".join(terms).replace("+ -", "- ")


def coords_json(m: int, coords: dict) -> dict:
    """``CycloNumber.to_json`` at the smallest conductor of the number with
    integer coordinates {index: count} at the conductor m."""
    dense = [coords.get(i, 0) for i in range(max(coords, default=0) + 1)]
    return CycloNumber(m, dense).minimal_conductor().to_json()


@lru_cache(maxsize=None)
def _mu(n: int) -> int:
    primes = prime_factors(n)
    if any(n % (q * q) == 0 for q in primes):
        return 0
    return (-1) ** len(primes)


def normalized(m: int) -> int:
    """m halved when 2 mod 4: Q(zeta_2u) = Q(zeta_u) for odd u, so a
    conductor is never 2 mod 4."""
    return m // 2 if m % 4 == 2 else m


def unit_closure(gens, m: int) -> tuple:
    """The subgroup of (Z/m)* generated by the residues gens, sorted."""
    one = 1 % m
    out = {one}
    frontier = [one]
    gens = [g % m for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in out:
                out.add(y)
                frontier.append(y)
    return tuple(sorted(out))


def generating_set(elements, m: int) -> tuple:
    """Generators of the subgroup of (Z/m)* whose residues are the ascending
    elements: each the least element outside the subgroup of those before it."""
    gens, sub = [], {1 % m}
    for a in elements:
        if a not in sub:
            gens.append(a)
            sub = set(unit_closure(gens, m))
    return tuple(gens)


def value_conductor(w: int, fixed) -> int:
    """The smallest d (never 2 mod 4) with values in Q(zeta_w) inside
    Q(zeta_d), fixed(k) telling whether zeta_w -> zeta_w^k (k a unit mod w)
    fixes them.  Such d are the multiples of the smallest, so the descent
    drops one prime at a time while the generators of the kernel of
    (Z/d)* -> (Z/d')* fix the values."""
    d = normalized(w)
    for q in prime_factors(d):
        while d % q == 0:
            sub = normalized(d // q)
            if not all(fixed(k) for k in _descent_exponents(w, d, sub)):
                break
            d = sub
    return d


def unit_lift(a: int, c: int, w: int) -> int:
    """A unit mod w that is a mod c, for c dividing w and a a unit mod c."""
    k = (a - 1) % c + 1
    while gcd(k, w) != 1:
        k += c
    return k


@lru_cache(maxsize=None)
def root_trace(m: int, e: int) -> int:
    """Tr_{Q(zeta_m)/Q}(zeta_m^e) = mu(m/g) phi(m)/phi(m/g), g = gcd(e, m)."""
    g = gcd(e, m)
    return _mu(m // g) * totient(m) // totient(m // g)


@lru_cache(maxsize=None)
def _descent_exponents(m: int, d: int, sub: int) -> tuple:
    """Units mod m whose residues generate the kernel of (Z/d)* -> (Z/sub)*."""
    kernel = [k for k in range(1, d, sub) if gcd(k, d) == 1]
    return tuple(unit_lift(a, d, m) for a in generating_set(kernel, d))
