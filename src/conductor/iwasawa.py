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
tables of H and G_n come from Dixon-Schneider (``chartab.character_table``).
No table of G_m, m > n, is built: G_m is a fibre product of G_n and
C_(p^m), so once its classes are certified to be the pairs of that
product, the degrees and restrictions to H of G_n's rows are those of
G_m's (``quotient_degree_check``).  G_n is built once per SemidirectData
(``finite_quotient`` keeps it), so its table is computed once and serves
every level, and each distinct restriction of its rows to H is decomposed
once (the table keeps it); each G_m, m > n, is built for its call only,
keeps no multiplication table, and is read by rows, in the cosets each
check pairs: the first p^n for the trace, coset 0 and the last p^n - 1
(where the inverses of the basis lie) for the dual basis.

The certificates and the idempotent suite compute on plain integers.  With
rank = p^n|H|, the element of index x in G_m (``finite_quotient``) is
u^s b, (s, b) = divmod(x, rank), since x = (s p^n + i)|H| + h and
b = i|H| + h < rank is the R_m-basis element gamma^i h; an R_m-trace is the
list of its coefficients at u^0, ..., u^{p^{m-n}-1}.  The dual basis is
checked as the pairing against h^-1 gamma^-i being p^n|H| times the
identity.  The idempotents are scaled by |H|: |H| e_eta has
coefficients eta(1) eta(h^-1), read from the table's integer coordinates
at E, the exponent conductor of H; a product packs each coefficient into
one integer (``_product``) and is reduced to power-basis coordinates only
to be compared.
"""

from collections import namedtuple
from fractions import Fraction

from .chartab import (
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
from .cyclo import generating_set, int_coords, normalized
from .errors import InputError, InvalidQuotientError
from .groups import conjugacy_classes, convolve, finite_quotient, kept
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

    Kept on H's table (``groups.kept``) per alpha-orbits, n and base (p, m,
    stabilizer), which fix the result, so the conductor and the idempotent
    suite of one entry share it; shared, so ``orbits`` is a tuple of tuples.
    """
    if base is None:
        base = AbelianLocalField.qp(sd.p)
    if base.p != sd.p:
        raise InputError("base field lives over p=%d, not %d" % (base.p, sd.p))
    table = character_table(sd.h)
    orbits = alpha_orbits(table, sd.alpha)
    key = (tuple(orb.members for orb in orbits), sd.n, base.p, base.m, base.stab)
    return list(kept(table, "_character_classes", key, lambda: tuple(
        _character_classes(sd, base, table, orbits))))


def _character_classes(sd, base, table, orbits):
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
                orbits=tuple(orb.members for orb in members),
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
    table = character_table(sd.h)
    exph = normalized(table.exponent)
    # 1 % exph: over a trivial H every k fixes the values, and E is the base
    e_field = field_of_values(base, exph, lambda k: k % exph == 1 % exph)
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


def _is_idempotent(h, e, e_norm) -> bool:
    """(|H|e)^2 = |H| (|H|e), e = ``_scaled_idempotent``, whose dicts are
    reduced coordinates already: |H| (|H|e) scales their values."""
    return _product(h, e, e, e_norm) == [{i: h.order * c for i, c in d.items()} for d in e]


def _product(h, a, b, e_norm) -> list:
    """Integer coordinates {index: count}, zeros dropped, of the coefficients
    of a * b in Z[zeta_E][H].

    Kronecker substitution: each coefficient dict d is packed once into
    P(d) = sum_i d[i] 2^(W i), so N_z = sum_x P(a_x) P(b_(x^-1 z)), the
    convolution over H of the packed integers (``groups.convolve``), is
    sum_i c_i 2^(W i) with c_i = sum_x sum_(i1 + i2 = i) a_x[i1] b_(x^-1 z)[i2],
    the coordinates of z in a * b on zeta_E^i, folded once per z.  Slot
    width: |c_i| <= M = (sum of all |a_x[i]|) (largest |b_y[i]|), and
    W = bitlen(M) + 1 makes M < 2^(W-1).  An integer has one expansion in
    base 2^W with digits in [-2^(W-1), 2^(W-1)), so the c_i are the
    balanced digits of N_z; ``_unpacked`` reads the (top index of a) +
    (top index of b) + 1 of them and raises ArithmeticError on a rest.
    """
    bound = sum(abs(c) for d in a for c in d.values()) * max(
        (abs(c) for d in b for c in d.values()), default=0
    )
    width = bound.bit_length() + 1
    slots = sum(max((i for d in f for i in d), default=0) for f in (a, b)) + 1
    pa = _packed(a, width)
    pb = pa if b is a else _packed(b, width)
    return [int_coords(e_norm, _unpacked(n, width, slots)) for n in convolve(h, pa, pb)]


def _packed(coeffs, width) -> list:
    """Each dict {i: c} as the integer sum_i c 2^(width i)."""
    return [sum(c << (width * i) for i, c in d.items()) for d in coeffs]


def _unpacked(n, width, slots):
    """The (i, c) of the nonzero balanced base-2^width digits c of n,
    -2^(width-1) <= c < 2^(width-1), of which it has at most ``slots``."""
    full, half = 1 << width, 1 << (width - 1)
    for i in range(slots):
        c = n & (full - 1)
        if c >= half:
            c -= full
        if c:
            yield i, c
        n = (n - c) >> width
    if n:
        raise ArithmeticError("a packed product has more digits than its slots")


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


def idempotent_suite(sd, level) -> dict:
    """Exact verification of the idempotent relations over Q_p: e_eta and
    e_chi are idempotent, e_chi is central in E[G_m] at m = ``level``,
    distinct orbit idempotents are orthogonal, the class idempotents
    epsilon_chi have coefficients fixed by the Galois action of Q_p and sum
    to 1.

    Every idempotent is scaled by |H| to an integral element of Z[zeta_E][H],
    so idempotency reads (|H|e)^2 = |H| (|H|e), orthogonality
    (|H|e_i)(|H|e_j) = 0 and the partition of unity sum |H|eps = |H|.

    Only generators (``cyclo.generating_set``) of the group of Galois
    exponents k are applied: sigma_j sigma_k = sigma_jk, so what they fix
    the group fixes.  A single-member orbit has e_eta = e_chi, so one
    product gives both idempotency verdicts."""
    base = AbelianLocalField.qp(sd.p)
    h = sd.h
    table = character_table(h)
    e_norm = normalized(table.exponent)
    classes = character_classes(sd, base)
    e_units = table.exponent * 2 if table.exponent % 4 == 2 else table.exponent
    stab_gens = generating_set(galois_exponents(table, base), e_units)
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
            e_chi = _scaled_idempotent(table, orbit_rows)
            chi_ok = _is_idempotent(h, e_chi, e_norm)
            eta_ok = chi_ok if len(orbit_rows) == 1 else _is_idempotent(
                h, _scaled_idempotent(table, orbit_rows[:1]), e_norm
            )
            if not eta_ok:
                results["eta_idempotent"] = False
            if not chi_ok:
                results["chi_idempotent"] = False
            if not _central_at_level(g, e_chi):
                results["chi_central"] = False
            chis.append(e_chi)
        eps = _scaled_idempotent(table, [r for orbit in klass.orbits for r in orbit])
        if any([int_coords(e_norm, ((e * k, c) for e, c in d.items())) for d in eps] != eps
               for k in stab_gens):
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


def trace_lemma_check(sd, level) -> bool:
    """The trace from the structure constants of G_m agrees with the closed
    form p^n|H| delta on every basis element gamma^i h of o[G_m] over R_m.
    The structure-constant trace of x sums the diagonal R_m-entries of
    right multiplication by x over the basis: c x = u^s c contributes u^s.
    It is read row by row, the row of each basis element c giving c x for
    every basis element x: the first p^n cosets, all the check reads.  It
    certifies the trace form on G_m's law, not the law: a product moved
    outside <u> changes neither trace (``groups.finite_quotient`` says why
    the law needs no check)."""
    g = finite_quotient(sd, level)
    rank = sd.p**sd.n * sd.h.order
    traces = [[0] * (g.order // rank) for _ in range(rank)]
    for c in range(rank):
        row = g.row(c, 0, rank)
        for x in [x for x in range(rank) if row[x] % rank == c]:
            traces[x][row[x] // rank] += 1
    return all(traces[x] == trace_closed_form(g, rank, x) for x in range(rank))


def dual_basis_check(sd, level) -> bool:
    """The trace pairing of the basis gamma^i h against the claimed dual
    system (p^n |H|)^-1 h^-1 gamma^-i is exactly the identity over R_m;
    checked on integers as the pairing against h^-1 gamma^-i being
    p^n |H| times the identity.  The inverse is G_m's own, so
    (gamma^i h)^-1 = u^-1 gamma^(p^n - i) alpha^i(h^-1) for i > 0 carries
    its u-exponent in its index.

    The entry at (b1, b2) is the trace of right multiplication by
    x = b1 b2^-1, read off the row of b1 in the cosets that hold the
    inverses: coset 0 and the last p^n - 1.  It depends on x alone, so
    ``trace_closed_form`` runs once per distinct product, and each pair
    reads its product's verdict (p^n|H|, zero or neither).  Like
    ``trace_lemma_check`` it certifies the trace form on G_m's law, not
    the law itself."""
    g = finite_quotient(sd, level)
    hn = sd.h.order
    rank = sd.p**sd.n * hn
    tail = g.order - rank + hn  # the first column of the last p^n - 1 cosets
    one = [rank] + [0] * (g.order // rank - 1)
    duals = [g.inv(b) for b in range(rank)]
    if any(hn <= d < tail for d in duals):
        raise ArithmeticError("a basis inverse lies outside the cosets read")
    # where each dual's column sits in the two blocks read
    at = [d if d < hn else d - tail + hn for d in duals]
    verdicts = {}  # x -> its trace is p^n|H| (True), zero (False) or neither (None)
    for b1 in range(rank):
        products = list(map((g.row(b1, 0, hn) + g.row(b1, tail)).__getitem__, at))
        for x in set(products).difference(verdicts):
            tr = trace_closed_form(g, rank, x)
            verdicts[x] = True if tr == one else (False if not any(tr) else None)
        if list(map(verdicts.__getitem__, products)) != [b2 == b1 for b2 in range(rank)]:
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
    What gets certified is the field part, on o' built as the S-fixed
    lattice of Z_p[zeta_m] (``GlobalFieldModel``): the columns of the
    inverse Gram matrix of its trace form must span J^-d, with d from the
    conductor-discriminant formula.  ``inverse_different_dual_check``
    compares Gram J^r with p^q Z_p^n, J^r being o' intersected with a
    closed-form ideal power of Z_p[zeta_m].
    """
    if level < n:
        raise InvalidQuotientError(
            "level m=%d is below the twist exponent n=%d" % (level, n)
        )
    return GlobalFieldModel(kprime).inverse_different_dual_check()


# ---------------------------------------------------------------------------
# Degree bookkeeping against the finite quotients


def quotient_degree_check(sd, m) -> bool:
    """Every irreducible character of G_m restricts to H multiplicity-free,
    supported on exactly one alpha-orbit, with chi(1) = w * eta(1).

    For m > n the rows of G_n's table are checked in place of G_m's, which
    is never built.  gamma^(p^n) acts trivially on H, so it is central in
    G_m.  The map gamma^i h -> (gamma^i h mod gamma^(p^n), i mod p^m)
    embeds G_m in G_n x C_(p^m).  The image is the pairs (x, i) with
    i = the gamma-exponent of x mod p^n, of index p^n, and the image times
    the central 1 x C_(p^m) is the whole product.  For characters of a
    direct product and their restrictions see Isaacs, *Character Theory of
    Finite Groups*, ch. 4.
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
        k(G_n) p^(m-n) = k(G_m) restrictions are Irr(G_m), the row
        (chi, a) taking the value chi(c) zeta_(p^m)^(a i) at (c, i).
      - Degrees and restrictions.  The row (chi, a) has degree chi(1), and
        an element of H has gamma-exponent 0, so its value at the class
        (c, 0) is chi(c): its restriction to H is chi's.  The table of G_m
        has one row per class and squared degrees summing to |G_m| exactly
        when that of G_n has them for G_n, since both counts scale by
        p^(m-n).
    So once the class map is certified on G_m (ArithmeticError: all the
    members of a class of G_m map to one pair (c, i), with i = the
    gamma-exponent of c mod p^n; distinct classes map to distinct pairs;
    k(G_m) = p^(m-n) k(G_n)), G_n's rows give G_m's verdict.

    The table must first be complete: one row per class, and the squared
    degrees summing to the group order.  Rows that restrict alike to H
    share one kept decomposition (``restrict_and_decompose``), and every
    row is checked against it."""
    g = finite_quotient(sd, m)
    require_table_bound(g)
    big = character_table(finite_quotient(sd, sd.n) if m > sd.n else g)
    if m > sd.n:
        _certify_class_pairs(sd, m, g, big.classes)
    if len(big.coords) != big.n_classes or sum(d * d for d in big.degrees) != big.group.order:
        return False
    small = character_table(sd.h)
    orbits = alpha_orbits(small, sd.alpha)
    orbit_of_row = {r: oi for oi, orb in enumerate(orbits) for r in orb.members}
    for row in range(big.n_classes):
        parts = restrict_and_decompose(big, row, small)
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


def _certify_class_pairs(sd, m, g, base):
    """The classes of G_m = g, m > n, are the pairs (c, i) of
    ``quotient_degree_check``, base the classes of G_n; raises
    ArithmeticError when they are not."""
    hn, pn = sd.h.order, sd.p**sd.n
    base_exponents = [c[0] // hn for c in base.classes]
    pairs = []
    for members in conjugacy_classes(g).classes:
        got = {(base.class_of[x // hn % pn * hn + x % hn], x // hn) for x in members}
        if len(got) != 1:
            raise ArithmeticError("a class of G_m meets two classes of G_n x C_(p^m)")
        c, i = got.pop()
        if base_exponents[c] != i % pn:
            raise ArithmeticError("a class of G_m has another gamma-exponent than its class in G_n")
        pairs.append((c, i))
    if len(set(pairs)) != len(pairs) or len(pairs) != len(base.classes) * sd.p ** (m - sd.n):
        raise ArithmeticError("the classes of G_m are not the pairs (c, i)")


def degeneration_matches_finite(sd) -> bool:
    """With n = 0 the class data must reproduce the finite-group conductor
    of H over Q_p, component by component."""
    from .finite import jacobinski_conductor

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
