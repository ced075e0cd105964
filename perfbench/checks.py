"""Correctness checks on the program's outputs.

Each check compares an output against a property the method must have or
against a second computation made apart from the route under test; none
compares against a stored copy of earlier output.  A failed check raises
CheckError.  The checks take plain data so that the self-test can feed
them perturbed results.
"""

import json
from fractions import Fraction


class CheckError(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


def vp(x, p):
    """p-adic valuation of a nonzero rational (written here rather than
    taken from ``conductor.padic``, whose results the checks test)."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# -- lattices ---------------------------------------------------------------


def lattice_key(lat):
    """The canonical column Hermite form as plain data."""
    return (lat.p, lat.dim, list(lat.pivots), list(lat.pivot_vals),
            [list(c) for c in lat.cols])


def check_same_lattice(a, b, what):
    """Canonical forms agree entry for entry."""
    require(lattice_key(a) == lattice_key(b), "%s: lattices differ" % what)


def check_unit_lattice(lat, what):
    """p does not divide |G|: the conductor is all of the centre of Z_p[G],
    which in class-sum coordinates is Z_p^k."""
    require(len(lat.pivots) == lat.dim and all(v == 0 for v in lat.pivot_vals),
            "%s: p does not divide |G| but the conductor has index p^%d"
            % (what, sum(lat.pivot_vals)))


def lattice_contains(lat, vector, guard=8):
    """Membership in a canonical column HNF mod p^N, by reduction along the
    pivots (written here, apart from the package's own routine)."""
    p, modulus = lat.p, lat.p**lat.precision
    v = []
    for x in vector:
        x = Fraction(x)
        v.append(x.numerator * pow(x.denominator, -1, modulus) % modulus)
    for col, row, a in zip(lat.cols, lat.pivots, lat.pivot_vals):
        x = v[row]
        if x == 0:
            continue
        if x % p**a:
            return False
        q = x // p**a
        v = [(v[r] - q * col[r]) % modulus for r in range(lat.dim)]
    floor = p ** max(lat.precision - guard, 1)
    return all(x % floor == 0 for x in v)


# -- finite conductor reports --------------------------------------------------


def check_finite_report(report, order, p, what):
    """Report JSON over Q_p: the Galois orbits cover Irr(G) (sum of
    |orbit| chi(1)^2 is |G|), each valuation is e * v_p(|G|/chi(1)) - d_rel,
    and every valuation is 0 when p does not divide |G|."""
    comps = report["components"]
    total = sum(len(c["orbit_rows"]) * c["degree"] ** 2 for c in comps)
    require(total == order, "%s: sum of chi(1)^2 is %d, not |G| = %d" % (what, total, order))
    for c in comps:
        mult = Fraction(c["multiplier"]["num"], c["multiplier"]["den"])
        require(mult == Fraction(order, c["degree"]), "%s: multiplier %s" % (what, mult))
        want = c["e"] * vp(mult, p) - c["d_rel"]
        require(c["valuation"] == want,
                "%s: valuation %d, formula gives %d" % (what, c["valuation"], want))
    if order % p:
        require(all(c["valuation"] == 0 for c in comps),
                "%s: p does not divide |G| but a valuation is nonzero" % what)


def check_norms_of_p(values, degrees, p, what):
    """Reduced norm of the 1 x 1 matrix (p): p^chi(1) in every component."""
    require(len(values) == len(degrees), "%s: %d components" % (what, len(values)))
    for row, (v, d) in enumerate(zip(values, degrees)):
        require(v.is_rational() and v.as_fraction() == p**d,
                "%s: nr(p) in row %d is %r, not %d" % (what, row, v, p**d))


# -- completed algebra ---------------------------------------------------------


def check_classes(classes, h_order, p, n, what):
    """Character classes: chi(1) = w eta(1), w | p^n, total valuation is
    e * v_p(multiplier) + invdiff_v, the alpha-orbits cover Irr(H), and
    every valuation is 0 when p does not divide |H|."""
    cover = 0
    for c in classes:
        require(c.chi_degree == c.w * c.eta_degree, "%s: chi(1) != w eta(1)" % what)
        require(p**n % c.w == 0, "%s: w = %d does not divide p^n" % (what, c.w))
        require(c.multiplier == Fraction(h_order, c.eta_degree), "%s: multiplier" % what)
        want = c.field.ramification_index * vp(c.multiplier, p) + c.invdiff_v
        require(c.total_valuation() == want, "%s: total valuation" % what)
        for orbit in c.orbits:
            require(len(orbit) == c.w, "%s: orbit length differs from w" % what)
            cover += len(orbit) * c.eta_degree**2
    require(cover == h_order, "%s: orbits cover %d, not |H| = %d" % (what, cover, h_order))
    if h_order % p:
        require(all(c.total_valuation() == 0 for c in classes),
                "%s: p does not divide |H| but a valuation is nonzero" % what)


def clifford_degrees(orbits, p, m):
    """Degrees of Irr(H x| Z/p^m) predicted by Clifford theory for a cyclic
    top: an alpha-orbit of length w of eta contributes p^m / w characters
    of degree w eta(1)."""
    out = []
    for w, eta_degree in orbits:
        out += [w * eta_degree] * (p**m // w)
    return sorted(out)


def check_quotient_table(degrees, restrictions, orbits, order, p, m, what):
    """Character table of G_m: sum of chi(1)^2 is |G_m|; the degrees are the
    Clifford prediction; each character restricts to H multiplicity-free on
    exactly one alpha-orbit, with chi(1) = w eta(1).

    ``orbits``: list of (members, eta_degree); ``restrictions[row]``: the
    (H row, multiplicity) pairs of the restriction of that row."""
    total = sum(d * d for d in degrees)
    require(total == order, "%s: sum of chi(1)^2 is %d, not %d" % (what, total, order))
    want = clifford_degrees([(len(mem), eta) for mem, eta in orbits], p, m)
    require(sorted(degrees) == want, "%s: degrees differ from the Clifford count" % what)
    orbit_of = {r: i for i, (mem, _) in enumerate(orbits) for r in mem}
    for row, parts in enumerate(restrictions):
        require(all(mult == 1 for _, mult in parts), "%s: row %d not multiplicity-free" % (what, row))
        hit = {orbit_of[r] for r, _ in parts}
        require(len(hit) == 1, "%s: row %d meets %d orbits" % (what, row, len(hit)))
        members, eta = orbits[hit.pop()]
        require(sorted(r for r, _ in parts) == sorted(members),
                "%s: row %d misses part of its orbit" % (what, row))
        require(degrees[row] == len(members) * eta, "%s: row %d degree" % (what, row))


def conjugacy_class_count(mult, order, generators):
    """Number of conjugacy classes of a group whose identity is element 0:
    the orbits of x -> s x s^-1 over the generators s (written here, apart
    from ``groups.conjugacy_classes``)."""
    inverses = [next(y for y in range(order) if mult(s, y) == 0) for s in generators]
    seen = [False] * order
    count = 0
    for x in range(order):
        if seen[x]:
            continue
        count += 1
        seen[x] = True
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for s, t in zip(generators, inverses):
                z = mult(mult(s, y), t)
                if not seen[z]:
                    seen[z] = True
                    frontier.append(z)
    return count


def check_class_count(classes, n_classes, p, m, what):
    """Clifford theory for a cyclic top: an alpha-orbit of length w in the
    class data gives p^m / w irreducible characters of G_m, so their total
    is the number ``n_classes`` of conjugacy classes of G_m."""
    want = sum(p**m // c.w for c in classes for _ in c.orbits)
    require(want == n_classes, "%s: Clifford count %d, but G_m has %d classes"
            % (what, want, n_classes))


def check_degeneration(classes, report, what):
    """n = 0: the class data is the finite Jacobinski report of H."""
    comps = report.components
    require(len(classes) == len(comps), "%s: %d classes, %d components" % (what, len(classes), len(comps)))
    for c, comp in zip(classes, comps):
        rows = sorted(r for orbit in c.orbits for r in orbit)
        require(rows == sorted(comp.orbit_rows), "%s: rows differ" % what)
        require(c.multiplier == comp.multiplier, "%s: multipliers differ" % what)
        require((c.e, c.f, c.d_rel) == (comp.e, comp.f, comp.d_rel), "%s: fields differ" % what)
        require(c.total_valuation() == comp.valuation, "%s: valuations differ" % what)


# -- Ext -----------------------------------------------------------------------


def p_rank_of_abelianization(mult, order, p):
    """r with |G^ab[p]| = p^r: |{x : x^p in [G, G]}| / |[G, G]|."""
    inv = [next(y for y in range(order) if mult(x, y) == 0) for x in range(order)]
    comms = {mult(mult(a, b), mult(inv[a], inv[b])) for a in range(order) for b in range(order)}
    sub = set(comms) | {0}
    frontier = list(sub)
    while frontier:
        x = frontier.pop()
        for s in list(sub):
            y = mult(x, s)
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    count = 0
    for x in range(order):
        y = 0
        for _ in range(p):
            y = mult(y, x)
        count += y in sub
    size, r = count // len(sub), 0
    while size > 1:
        require(size % p == 0, "p-torsion count is not a power of p")
        size //= p
        r += 1
    return r


def check_trivial_ext(divisors, p_rank, what):
    """Ext^1(Z_p, Z_p/p) = Hom(G, Z/p): p_rank divisors, each p^1."""
    require(divisors == [1] * p_rank,
            "%s: divisors %s, expected %d copies of 1" % (what, divisors, p_rank))


def check_zero_ext(divisors, what):
    """The regular module is projective: Ext^1(Z_p[G], N) = 0."""
    require(divisors == [], "%s: Ext of a projective is %s" % (what, divisors))


# -- command line ----------------------------------------------------------------


def canonical(payload):
    """The documented canonical form: sorted keys, two-space indent, newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_canonical(text, what):
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CheckError("%s: stdout is not JSON: %s" % (what, exc))
    require(canonical(payload) == text, "%s: stdout is not in canonical form" % what)
    return payload


def check_chartab_payload(payload, what):
    degrees = payload["degrees"]
    order = payload["order"]
    require(sum(d * d for d in degrees) == order, "%s: sum of chi(1)^2 != |G|" % what)
    require(sum(c["size"] for c in payload["classes"]) == order, "%s: class sizes" % what)
    require(len(payload["rows"]) == len(payload["classes"]) == len(degrees), "%s: table not square" % what)
    for d, row in zip(degrees, payload["rows"]):
        first = row[0]
        require(first["m"] == 1 and first["coeffs"] == [[str(d), "1"]],
                "%s: value at the identity is not chi(1)" % what)


def check_iwasawa_payload(payload, h_order, p, what):
    pn = p ** payload["n"]
    for c in payload["components"]:
        require(c["chi_degree"] == c["w"] * c["eta_degree"], "%s: chi(1) != w eta(1)" % what)
        require(pn % c["w"] == 0, "%s: w does not divide p^n" % what)
        mult = Fraction(c["multiplier"]["num"], c["multiplier"]["den"])
        require(mult == Fraction(h_order, c["eta_degree"]), "%s: multiplier" % what)
        want = c["field"]["e"] * vp(mult, p) + c["invdiff_v"]
        require(c["total_valuation"] == want, "%s: total valuation" % what)
        require(c["embedding_exponent"] * c["w"] == pn, "%s: embedding exponent" % what)
    if h_order % p:
        require(all(c["total_valuation"] == 0 for c in payload["components"]),
                "%s: p does not divide |H| but a valuation is nonzero" % what)
    if "level_checks" in payload:
        ck = payload["level_checks"]
        require(ck["trace_lemma"] and ck["dual_basis"] and ck["degrees"],
                "%s: a level check failed" % what)


def check_fitting_payload(payload, what, p=None, degrees=None):
    require(payload["annihilates"] is True, "%s: annihilation fails" % what)
    if degrees is not None:
        # the 1 x 1 presentation (p): nr = p^chi(1) per component
        gens = payload["fitting"]["generators"]
        require(len(gens) == 1, "%s: %d generators" % (what, len(gens)))
        got = [c["coeffs"] for c in gens[0]["components"]]
        require(got == [[[str(p**d), "1"]] for d in degrees], "%s: nr(p) components" % what)


def check_verify_payload(payload, what):
    require(payload["ok"] is True, "%s: suite failed" % what)
    require(len(payload["checks"]) > 0, "%s: no checks ran" % what)
    require(all(c["ok"] for c in payload["checks"]), "%s: a check failed" % what)
