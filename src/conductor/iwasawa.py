"""Central conductor of o[[H x| Gamma]] for Gamma procyclic pro-p.

The completed group algebra of G = H x| Gamma decomposes, over the maximal
order, into blocks indexed by classes of characters: alpha-orbits of Irr(H)
merged under the Galois action of the base field.  Each class carries the
data the conductor formula consumes: the orbit length w (which divides p^n),
the character field K_chi of the summed orbit values, the multiplier
|H|/eta(1), and the inverse different of K_chi over the base.  The component
of the conductor at the class is

    (|H| w / chi(1)) * D^-1(o_chi / o) * Lambda^{o_chi}(Gamma_chi)

with chi(1) = w * eta(1), and Gamma_chi embedding through
1 + T |-> gamma_chi^(p^n / w).

The second half of the module provides the finite-level certificates: the
trace form and dual basis of o[G_m] as a free module of rank p^n|H| over
R_m = o[u]/(u^{p^{m-n}} - 1), u = gamma^{p^n}, computed on the finite
quotient G_m itself; the dual basis of a scalar extension
Lambda^{o'}(Gamma), whose field part is the inverse different of o' and is
certified on its integral model; the idempotent suite; and the degree
bookkeeping check against character tables of the finite quotients.  The
tables of H and G_n come from Dixon-Schneider (``chartab.character_table``);
the table of G_m, m > n, is built from that of G_n as a fibre product
(``fibre_product_table``).  G_n is built once per SemidirectData
(``finite_quotient`` keeps it), so its table is computed once and serves
every level; each G_m, m > n, is built for its call only.

The certificates and the idempotent suite compute on plain integers.  With
rank = p^n|H|, the element of index x in G_m (``finite_quotient``) is
u^s b, (s, b) = divmod(x, rank), since x = (s p^n + i)|H| + h and
b = i|H| + h < rank is the R_m-basis element gamma^i h; an R_m-trace is the
list of its coefficients at u^0, ..., u^{p^{m-n}-1}.  The dual basis is
checked as the pairing against h^-1 gamma^-i being p^n|H| times the
identity.  The idempotents are scaled by |H|: |H| e_eta has
coefficients eta(1) eta(h^-1), read from the table's integer coordinates
at E, the exponent conductor of H, and products are reduced to
power-basis coordinates only to be compared.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from .chartab import (
    CharacterTable,
    _power_maps,
    _row_order,
    _sparse_sum,
    _split_prime,
    alpha_orbits,
    character_table,
    galois_exponents,
    galois_fixed,
    galois_orbits,
    galois_permutations,
    idempotent_coords,
    require_table_bound,
    restrict_and_decompose,
)
from .cyclo import int_coords, normalized
from .errors import InputError, InvalidQuotientError
from .finite import jacobinski_conductor
from .groups import conjugacy_classes, finite_quotient
from .groups import orbits as group_orbits
from .localfields import AbelianLocalField, field_of_values, relative_data
from .orders import GlobalFieldModel
from .padic import vp


# ---------------------------------------------------------------------------
# Character classes


class CharacterClass(namedtuple(
    "CharacterClass",
    "orbits w eta_degree field multiplier multiplier_vp e f d_rel embedding_exponent",
)):
    """One equivalence class of characters with open kernel.

    ``orbits`` lists the alpha-orbits (as row tuples into Irr(H)) merged by
    the Galois action over the base; they all share w and eta_degree.
    gamma_chi = gamma^w * c for a unit c of the block that is never
    computed, since the conductor data only depends on w and the character
    field.
    """

    __slots__ = ()

    @property
    def chi_degree(self):
        return self.w * self.eta_degree

    @property
    def invdiff_v(self):
        """pi_chi-valuation of the inverse different D^-1(o_chi / o)."""
        return -self.d_rel

    def total_valuation(self):
        """pi_chi-valuation of the conductor component."""
        return self.field.ramification_index * self.multiplier_vp + self.invdiff_v

    def to_json(self):
        return {
            "w": self.w,
            "eta_degree": self.eta_degree,
            "chi_degree": self.chi_degree,
            "field": {
                "e": self.field.ramification_index,
                "f": self.field.residue_degree,
                "d_abs": self.field.different_exponent,
            },
            "multiplier": {
                "num": self.multiplier.numerator,
                "den": self.multiplier.denominator,
                "vp": self.multiplier_vp,
            },
            "invdiff_v": self.invdiff_v,
            "total_valuation": self.total_valuation(),
            "embedding_exponent": self.embedding_exponent,
        }


def character_classes(sd, base=None):
    """Classes of characters of H x| Gamma over the base field.

    Irr(H) is partitioned into alpha-orbits; orbits are then merged when a
    base-field Galois automorphism carries one to another.  The character
    field K_chi is the field of the summed orbit values (the values of the
    restriction of chi to H), which can be smaller than the field of any
    single member.
    """
    if base is None:
        base = AbelianLocalField.qp(sd.p)
    if base.p != sd.p:
        raise InputError("base field lives over p=%d, not %d" % (base.p, sd.p))
    table = character_table(sd.h)
    orbits = alpha_orbits(table, sd.alpha)
    orbit_of_row = {r: oi for oi, orb in enumerate(orbits) for r in orb.members}
    # the Galois action commutes with eta -> eta o alpha, so it permutes
    # the alpha-orbits; a class is an orbit of that action
    perms = [
        [orbit_of_row[perm[orb.members[0]]] for orb in orbits]
        for perm in galois_permutations(table, base)
    ]

    classes = []
    pn = sd.p**sd.n
    for part in group_orbits(len(orbits), perms):
        members = [orbits[oi] for oi in sorted(part)]
        w = members[0].w
        eta_degree = members[0].eta_degree
        for orb in members:
            if orb.w != w or orb.eta_degree != eta_degree:
                raise ArithmeticError("merged orbits disagree on w or eta(1)")
        if pn % w != 0:
            raise ArithmeticError("orbit length %d does not divide p^n = %d" % (w, pn))
        k_chi = field_of_values(base, table.exponent, galois_fixed(table, members[0].members))
        mult = Fraction(sd.h.order, eta_degree)
        mvp = vp(mult, sd.p)
        if mvp < 0:
            raise ArithmeticError("multiplier %s is not p-integral" % mult)
        e_rel, f_rel, d_rel = relative_data(base, k_chi)
        classes.append(
            CharacterClass(
                orbits=[list(orb.members) for orb in members],
                w=w,
                eta_degree=eta_degree,
                field=k_chi,
                multiplier=mult,
                multiplier_vp=mvp,
                e=e_rel,
                f=f_rel,
                d_rel=d_rel,
                embedding_exponent=pn // w,
            )
        )
    return classes


# ---------------------------------------------------------------------------
# The conductor description


class ConductorDescription:
    def __init__(self, name, p, n, base, classes, r_cap_exponent, splitting_field):
        self.name, self.p, self.n, self.base, self.classes = name, p, n, base, classes
        self.r_cap_exponent, self.splitting_field = r_cap_exponent, splitting_field

    def to_json(self):
        return {
            "group": self.name,
            "p": self.p,
            "n": self.n,
            "base": self.base.to_json(),
            "components": [c.to_json() for c in self.classes],
            "r_cap_exponent": self.r_cap_exponent,
            "splitting_field": {
                "e": self.splitting_field.ramification_index,
                "f": self.splitting_field.residue_degree,
                "d_abs": self.splitting_field.different_exponent,
            },
        }


def central_conductor(sd, base=None):
    """The conductor of o[[H x| Gamma]] over the base field: one component
    per character class, each a multiplier/inverse-different scaled copy of
    Lambda^{o_chi}(Gamma_chi), plus the scalar intersection exponent and a
    certified splitting field."""
    if base is None:
        base = AbelianLocalField.qp(sd.p)
    classes = character_classes(sd, base)
    e_field = splitting_field_bound(sd, base)
    return ConductorDescription(
        name=sd.name(),
        p=sd.p,
        n=sd.n,
        base=base,
        classes=classes,
        r_cap_exponent=scalar_conductor_exponent(classes, base),
        splitting_field=e_field,
    )


def scalar_conductor_exponent(classes, base) -> int:
    """Exponent a with R intersect conductor = pi^a R.  Per class the scalar
    part of the component is the ideal multiplier * (D^-1 cap K), of
    pi_K-valuation e_K * v_p(multiplier) - floor(d_rel / e_rel); the
    intersection over classes takes the maximum."""
    e_base = base.ramification_index
    return max(e_base * c.multiplier_vp - c.d_rel // c.e for c in classes)


def splitting_field_bound(sd, base=None):
    """E = K(zeta_exp(H)), certified to split E[H]: every Galois class of
    Irr(H) over E is a singleton whose value field is E itself.  Raises
    ArithmeticError when the certificate fails."""
    if base is None:
        base = AbelianLocalField.qp(sd.p)
    exph = normalized(sd.h.exponent())
    m = lcm(exph, base.m)
    stab = [a for a in base.galois_residues(m) if exph == 1 or a % exph == 1]
    e_field = AbelianLocalField(base.p, m, stab)
    table = character_table(sd.h)
    orbits = galois_orbits(table, e_field)
    if not all(
        len(orbit) == 1
        and field_of_values(e_field, table.exponent, galois_fixed(table, orbit)).equals(e_field)
        for orbit in orbits
    ):
        raise ArithmeticError("claimed splitting field failed its certificate")
    return e_field


# ---------------------------------------------------------------------------
# Idempotents, scaled by |H| to integer sums of roots of unity


def _scaled_idempotent(table, rows) -> list:
    """|H| times the sum of e_eta = (eta(1)/|H|) sum_h eta(h^-1) h over the
    given rows: per element of H, the power-basis coordinates {exponent:
    count} of zeta_E (E the table's exponent conductor), zeros dropped, so
    two coefficients are equal exactly when their dicts are."""
    per_class = idempotent_coords(table, rows)
    return [per_class[t] for t in table.classes.class_of]


def _coords(e_norm, a, scale=1, k=1) -> list:
    """Integer coordinates {index: count}, zeros dropped, of sigma_k(scale * a)
    for each coefficient of a."""
    return [int_coords(e_norm, ((e * k, scale * c) for e, c in ax.items())) for ax in a]


def _product(h, a, b, e_norm) -> list:
    """Integer coordinates {index: count}, zeros dropped, of the coefficients
    of a * b in Z[zeta_E][H]."""
    return [
        _sparse_sum(((1, a[x], b[h.mult(h.inv(x), z)]) for x in range(h.order)), e_norm)
        for z in range(h.order)
    ]


def _central_at_level(g, h_coeffs) -> bool:
    """Whether an element of E[H] is central in E[G_m] (g = G_m, H its first
    elements): conjugation by every generator, including gamma, must fix the
    coefficient of every element."""
    hn = len(h_coeffs)
    for gen in g.generators:
        for x in range(hn):
            z = g.conj(gen, x)
            if h_coeffs[x] != (h_coeffs[z] if z < hn else {}):
                return False
    return True


def idempotent_suite(sd, level=None) -> dict:
    """Exact verification of the idempotent relations over Q_p: e_eta and
    e_chi are idempotent, e_chi is central in E[G_m], distinct orbit
    idempotents are orthogonal, the class idempotents epsilon_chi have
    coefficients fixed by the Galois action of Q_p and sum to 1.

    Every idempotent is scaled by |H| to an integral element of Z[zeta_E][H],
    so idempotency reads (|H|e)^2 = |H| (|H|e), orthogonality
    (|H|e_i)(|H|e_j) = 0 and the partition of unity sum |H|eps = |H|."""
    base = AbelianLocalField.qp(sd.p)
    if level is None:
        level = sd.n
    h = sd.h
    table = character_table(h)
    e_norm = normalized(table.exponent)
    classes = character_classes(sd, base)
    stab_ks = galois_exponents(table, base)
    g = finite_quotient(sd, level)
    results = {
        "eta_idempotent": True,
        "chi_idempotent": True,
        "chi_central": True,
        "orbit_orthogonal": True,
        "partition_of_unity": True,
        "class_base_stable": True,
    }
    chis = []
    for klass in classes:
        for orbit_rows in klass.orbits:
            e_eta = _scaled_idempotent(table, orbit_rows[:1])
            e_chi = _scaled_idempotent(table, orbit_rows)
            for key, e in (("eta_idempotent", e_eta), ("chi_idempotent", e_chi)):
                if _product(h, e, e, e_norm) != _coords(e_norm, e, h.order):
                    results[key] = False
            if not _central_at_level(g, e_chi):
                results["chi_central"] = False
            chis.append(e_chi)
        eps = _scaled_idempotent(table, [r for orbit in klass.orbits for r in orbit])
        if any(_coords(e_norm, eps, k=k) != _coords(e_norm, eps) for k in stab_ks):
            results["class_base_stable"] = False
    zero = [{}] * h.order
    for i in range(len(chis)):
        for j in range(i + 1, len(chis)):
            if _product(h, chis[i], chis[j], e_norm) != zero:
                results["orbit_orthogonal"] = False
    rows = [r for klass in classes for orbit in klass.orbits for r in orbit]
    if _scaled_idempotent(table, rows) != [{0: h.order}] + [{}] * (h.order - 1):
        results["partition_of_unity"] = False
    return results


# ---------------------------------------------------------------------------
# The trace form of o[G_m] over R_m, on the elements u^s b of G_m


def trace_closed_form(g, rank, x) -> list:
    """The R_m-trace of right multiplication by x in closed form: p^n |H|
    times the coefficient of the identity basis element."""
    s, b = divmod(x, rank)
    out = [0] * (g.order // rank)
    if b == 0:
        out[s] = rank
    return out


def trace_structure_constants(g, rank, x) -> list:
    """The same trace from the structure constants of G_m: the sum of the
    diagonal R_m-entries of right multiplication by x over the basis, where
    c x = u^s c contributes u^s."""
    out = [0] * (g.order // rank)
    for c in range(rank):
        s, b = divmod(g.mult(c, x), rank)
        if b == c:
            out[s] += 1
    return out


def trace_lemma_check(sd, level) -> bool:
    """The structure-constant trace agrees with the closed form p^n|H| delta
    on every basis element gamma^i h of o[G_m] over R_m."""
    g = finite_quotient(sd, level)
    rank = sd.p**sd.n * sd.h.order
    return all(
        trace_structure_constants(g, rank, b) == trace_closed_form(g, rank, b)
        for b in range(rank)
    )


def dual_basis_check(sd, level) -> bool:
    """The trace pairing of the basis gamma^i h against the claimed dual
    system (p^n |H|)^-1 h^-1 gamma^-i is exactly the identity over R_m;
    checked on integers as the pairing against h^-1 gamma^-i being
    p^n |H| times the identity.  The inverse is G_m's own, so
    (gamma^i h)^-1 = u^-1 gamma^(p^n - i) alpha^i(h^-1) for i > 0 carries
    its u-exponent in its index."""
    g = finite_quotient(sd, level)
    rank = sd.p**sd.n * sd.h.order
    for b2 in range(rank):
        dual = g.inv(b2)
        for b1 in range(rank):
            tr = trace_closed_form(g, rank, g.mult(b1, dual))
            if tr[0] != (rank if b1 == b2 else 0) or any(tr[1:]):
                return False
    return True


# ---------------------------------------------------------------------------
# Dual bases for scalar extensions Lambda^{o'}(Gamma)


def extension_dual_basis_check(kprime: AbelianLocalField, n: int, level: int) -> bool:
    """For Lambda^{o'}(Gamma) over R with 1 + T |-> gamma^(p^n): on the
    R-basis {x_j gamma^i} the trace dual is {p^-n x_j_dual gamma^-i}, with
    {x_j_dual} the trace dual of o', which is the inverse different.

    The Gamma part is immediate: the trace of gamma^(i-r) over R is p^n at
    i = r and 0 otherwise, for 0 <= i, r < p^n and at every level m >= n.
    What gets certified is the field part, by the integral model of o'
    (``inverse_different_dual_check``): the columns of the inverse Gram
    matrix of its trace form must span J^-d, with d from the
    conductor-discriminant formula.
    """
    if level < n:
        raise InvalidQuotientError(
            "level m=%d is below the twist exponent n=%d" % (level, n)
        )
    return GlobalFieldModel(kprime).inverse_different_dual_check()


# ---------------------------------------------------------------------------
# Degree bookkeeping against the finite quotients


def fibre_product_table(sd, m) -> CharacterTable:
    """The character table of G_m = H x| Z/p^m, equal to
    ``character_table(G_m)``; for m > n it is built from the table of G_n,
    so Dixon-Schneider runs on G_n and not on G_m.

    gamma^(p^n) acts trivially on H, so it is central in G_m.  The map
    gamma^i h -> (gamma^i h mod gamma^(p^n), i mod p^m) embeds G_m in
    G_n x C_(p^m).  The image is the pairs (x, i) with i = the
    gamma-exponent of x mod p^n, of index p^n, and the image times the
    central 1 x C_(p^m) is the whole product.  For characters of a direct
    product and their restrictions see Isaacs, *Character Theory of Finite
    Groups*, ch. 4.
      - Classes.  G_m and the central factor generate the product, so
        conjugacy in G_m is conjugacy in G_n x C_(p^m): the classes of G_m
        are the pairs (c, i), c a class of G_n and i = the gamma-exponent
        of c mod p^n.  So k(G_m) = p^(m-n) k(G_n).
      - Characters.  The central factor acts by scalars on an irreducible
        representation of the product, so a subspace invariant under G_m
        is invariant under the product: each chi x lambda_a, with
        lambda_a(i) = zeta_(p^m)^(a i), restricts irreducibly.  Two pairs
        restrict alike exactly when they differ by (mu, mu^-1), mu a
        character of G_n/H = C_(p^n) read on the product; that action is
        free, and each orbit has exactly one a in [0, p^(m-n)).  These
        k(G_n) p^(m-n) = k(G_m) restrictions are Irr(G_m).
      - Values.  (chi x lambda_a)(c, i) = chi(c) zeta_(p^m)^(a i), of degree
        chi(1).  The exponent conductor E of G_m (never 2 mod 4) is a
        multiple of that of G_n and of p^m, so each value is folded once at
        E, per distinct (row, class, a i mod p^m).
    The classes, power maps and split prime are those of G_m itself, and
    the rows are sorted by Dixon-Schneider's key (degree, coordinates at
    E), so the table is the same.  Certificates (ArithmeticError): all the
    members of a class of G_m map to one pair (c, i), with i = the
    gamma-exponent of c mod p^n; distinct classes map to distinct pairs;
    k(G_m) = p^(m-n) k(G_n); and E is a multiple of both conductors.
    """
    g = finite_quotient(sd, m)
    if m == sd.n:
        return character_table(g)
    require_table_bound(g)
    base = character_table(finite_quotient(sd, sd.n))
    hn, pn, pm = sd.h.order, sd.p**sd.n, sd.p**m
    base_of = base.classes.class_of
    base_exponents = [c[0] // hn for c in base.classes.classes]
    cls = conjugacy_classes(g)
    pairs = []
    for members in cls.classes:
        got = {(base_of[x // hn % pn * hn + x % hn], x // hn) for x in members}
        if len(got) != 1:
            raise ArithmeticError("a class of G_m meets two classes of G_n x C_(p^m)")
        c, i = got.pop()
        if base_exponents[c] != i % pn:
            raise ArithmeticError("a class of G_m has another gamma-exponent than its class in G_n")
        pairs.append((c, i))
    if len(set(pairs)) != len(pairs) or len(pairs) != base.n_classes * (pm // pn):
        raise ArithmeticError("the classes of G_m are not the pairs (c, i)")
    # the order of (c, i) in G_n x C_(p^m); power map lengths are orders
    orders = [lcm(len(base.power_maps[c]), pm // gcd(i, pm)) for c, i in pairs]
    e = lcm(*orders)
    e_norm, e_base = normalized(e), normalized(base.exponent)
    if e_norm % e_base or e_norm % pm:
        raise ArithmeticError(
            "exponent conductor %d is no multiple of %d and %d" % (e_norm, e_base, pm)
        )
    folded = {}  # (G_n row, G_n class, a i mod p^m) -> coordinate dict

    def value(r, c, ai):
        coords = folded.get((r, c, ai))
        if coords is None:
            shift = ai * (e_norm // pm)
            terms = [(j * (e_norm // e_base) + shift, x) for j, x in base.coords[r][c].items()]
            coords = folded[r, c, ai] = int_coords(e_norm, terms)
        return coords

    rows = sorted(
        (
            (base.degrees[r], [value(r, c, a * i % pm) for c, i in pairs])
            for r in range(len(base.coords))
            for a in range(pm // pn)
        ),
        key=cmp_to_key(_row_order),
    )
    return CharacterTable(
        group=g,
        classes=cls,
        coords=[coords for _, coords in rows],
        degrees=[degree for degree, _ in rows],
        exponent=e,
        split_prime=_split_prime(e, g.order),
        power_maps=_power_maps(g, cls.class_of, cls.representatives(), orders),
    )


def quotient_degree_check(sd, m) -> bool:
    """Every irreducible character of G_m restricts to H multiplicity-free,
    supported on exactly one alpha-orbit, with chi(1) = w * eta(1).

    The table of G_m (``fibre_product_table``) must first be complete: one
    row per class, and the squared degrees summing to |G_m|.  A
    decomposition depends only on the row's values on H, so each distinct
    restriction is decomposed once and every row is checked against it."""
    big = fibre_product_table(sd, m)
    g = big.group
    if len(big.coords) != big.n_classes or sum(d * d for d in big.degrees) != g.order:
        return False
    small = character_table(sd.h)
    orbits = alpha_orbits(small, sd.alpha)
    orbit_of_row = {r: oi for oi, orb in enumerate(orbits) for r in orb.members}
    on_h = [big.classes.class_of[z] for z in small.classes.representatives()]
    decomposed = {}
    for row in range(big.n_classes):
        key = tuple(frozenset(big.coords[row][t].items()) for t in on_h)
        if key not in decomposed:
            decomposed[key] = restrict_and_decompose(big, row, small)
        parts = decomposed[key]
        if any(mult != 1 for _, mult in parts):
            return False
        hit = {orbit_of_row[r] for r, _ in parts}
        if len(hit) != 1:
            return False
        orb = orbits[hit.pop()]
        if set(r for r, _ in parts) != set(orb.members):
            return False
        if big.degrees[row] != orb.w * orb.eta_degree:
            return False
    return True


def degeneration_matches_finite(sd) -> bool:
    """With n = 0 the class data must reproduce the finite-group conductor
    of H over Q_p, component by component."""
    if sd.n != 0:
        raise InputError("degeneration check needs a trivial action (n = 0)")
    classes = character_classes(sd)
    report = jacobinski_conductor(sd.h, sd.p)
    if len(classes) != len(report.components):
        return False
    for klass, comp in zip(classes, report.components):
        rows = sorted(r for orbit in klass.orbits for r in orbit)
        if rows != sorted(comp.orbit_rows):
            return False
        if klass.multiplier != comp.multiplier:
            return False
        if not klass.field.equals(comp.field):
            return False
        if klass.d_rel != comp.d_rel:
            return False
        if klass.total_valuation() != comp.valuation:
            return False
    return True
