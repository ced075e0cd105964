"""Named verification suites over the built-in catalogs.

Each suite runs a batch of exact checks (no tolerances anywhere) and
returns CheckResult records; the CLI ``verify`` subcommand prints them and
the acceptance tests assert on them.  Suites accept an optional prime
filter ``p`` restricting catalog entries to that prime, a ``seed`` for the
randomized twist probe, and a ``precision`` override.  A suite with no
cases at the requested prime is an input error, never a vacuous pass.
"""

from collections import namedtuple

from .catalog import (
    conductor_catalog,
    sd_c3_trivial,
    sd_c7,
    sd_s3_inner,
    sd_s3_trivial,
    semidirect_catalog,
    splitting_reps,
    symmetric_3,
    table_catalog,
)
from .chartab import character_table
from .errors import InputError
from .finite import (
    augmentation_module,
    brute_force_conductor,
    conductor_annihilates,
    formula_conductor_lattice,
    jacobinski_conductor,
    maximal_order_module,
    regular_module,
    sharpness_probe,
    trivial_module,
    working_precision,
)
from .fitting import PresentationMatrix
from .fitting import annihilation_check as fitting_annihilation_check
from .groups import cyclic_group, finite_quotient
from .iwasawa import (
    character_classes,
    degeneration_matches_finite,
    dual_basis_check,
    extension_dual_basis_check,
    idempotent_suite,
    quotient_degree_check,
    scalar_conductor_exponent,
    trace_lemma_check,
)
from .localfields import AbelianLocalField
from .padic import vp


ODD_PRIMES = (3, 5, 7, 11, 13)
TWIST_SEEDS = (1, 7, 2026)


def _sd_label(sd):
    return "%s n=%d" % (sd.name(), sd.n)


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=("",))):
    __slots__ = ()

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


def _primes_for(p):
    """Primes to run a catalog group at."""
    return [q for q in ODD_PRIMES if p is None or q == p]


def _small_primes_for(g, p):
    """Primes for the twist and Fitting suites: 3, and also 7 for A4."""
    return [q for q in ((3, 7) if g.name == "A4" else (3,)) if p is None or q == p]


def suite_conductor(p=None, seed=None, precision=None):
    """Formula vs brute force: identical conductor lattices on the catalog."""
    checks = []
    for g in conductor_catalog():
        reps = splitting_reps(g.name)
        for q in _primes_for(p):
            prec = precision or working_precision(g, q)
            formula = formula_conductor_lattice(g, q, precision=prec)
            brute = brute_force_conductor(g, q, reps=reps, precision=prec)
            checks.append(
                CheckResult(
                    "%s p=%d formula == brute force" % (g.name, q),
                    formula == brute,
                    "index v_p = %d" % sum(formula.pivot_vals),
                )
            )
    return checks


def suite_twists(p=None, seed=None, precision=None):
    """Seeded unit twists: the full constraint system of the twisted basis
    against the identity-coefficient system of the plain one.

    The twisted run spans the maximal order O by u * b, u = 1 + p*lambda a
    unit of O, so u O = O and both runs solve for the same lattice.  It
    reads every coefficient of x * u b, so it is a second route, and it
    also checks that O is closed under right multiplication by G."""
    checks = []
    seeds = (seed,) if seed is not None else TWIST_SEEDS
    for g in conductor_catalog():
        reps = splitting_reps(g.name)
        for q in _small_primes_for(g, p):
            prec = precision or working_precision(g, q)
            plain = brute_force_conductor(g, q, reps=reps, precision=prec)
            for s in seeds:
                twisted = brute_force_conductor(
                    g, q, reps=reps, twist_seed=s, precision=prec
                )
                checks.append(
                    CheckResult(
                        "%s p=%d twist seed %d" % (g.name, q, s), twisted == plain
                    )
                )
    return checks


def suite_iwasawa(p=None, seed=None, precision=None):
    """The worked completed-algebra cases over Q_3."""
    if p not in (None, 3):
        return []
    checks = []
    cls = character_classes(sd_c7())
    got = sorted(
        (c.w, c.field.ramification_index, c.field.residue_degree, c.total_valuation())
        for c in cls
    )
    checks.append(
        CheckResult(
            "C7:|Z3 components (w, e, f, valuation)",
            len(cls) == 2 and got == [(1, 1, 1, 0), (3, 1, 2, 0)],
            str(got),
        )
    )
    emb = sorted((c.w, c.embedding_exponent) for c in cls)
    checks.append(
        CheckResult("C7:|Z3 embedding exponents w * p^n/w = p", emb == [(1, 3), (3, 1)], str(emb))
    )
    checks.append(
        CheckResult(
            "C7:|Z3 scalar intersection exponent",
            scalar_conductor_exponent(cls, AbelianLocalField.qp(3)) == 0,
        )
    )

    cls = character_classes(sd_c3_trivial())
    got = sorted(
        (c.w, c.field.ramification_index, c.field.residue_degree, c.total_valuation())
        for c in cls
    )
    checks.append(
        CheckResult(
            "C3 x Z3 components (w, e, f, valuation)",
            len(cls) == 2 and got == [(1, 1, 1, 1), (1, 2, 1, 1)],
            str(got),
        )
    )
    checks.append(
        CheckResult(
            "C3 x Z3 scalar intersection exponent",
            scalar_conductor_exponent(cls, AbelianLocalField.qp(3)) == 1,
        )
    )
    checks.append(
        CheckResult(
            "S3 x Z3 degenerates to the finite S3 report",
            degeneration_matches_finite(sd_s3_trivial()),
        )
    )
    return checks


def suite_trace(p=None, seed=None, precision=None):
    """Regular trace p^n|H| delta and the dual-basis Gram identity."""
    checks = []
    for sd in semidirect_catalog():
        if p is not None and sd.p != p:
            continue
        for m in range(sd.n, sd.n + 3):
            checks.append(
                CheckResult(
                    "%s level %d trace lemma" % (_sd_label(sd), m),
                    trace_lemma_check(sd, m),
                )
            )
            checks.append(
                CheckResult(
                    "%s level %d dual basis" % (_sd_label(sd), m),
                    dual_basis_check(sd, m),
                )
            )
    return checks


def suite_different(p=None, seed=None, precision=None):
    """Dual bases of scalar extensions Lambda^{o'}(Gamma) over R: the Gamma
    part is immediate, so each check certifies the inverse different of o'
    (``extension_dual_basis_check``)."""
    fields = (
        ("Q3", AbelianLocalField.qp(3)),
        ("Q3(zeta3)", AbelianLocalField.cyclotomic(3, 1)),
        ("unramified quadratic", AbelianLocalField.unramified(3, 2)),
    )
    checks = []
    for label, k in fields:
        if p is not None and k.p != p:
            continue
        for n in (0, 1):
            for level in (n, n + 1):
                checks.append(
                    CheckResult(
                        "%s n=%d level %d" % (label, n, level),
                        extension_dual_basis_check(k, n, level),
                    )
                )
    return checks


def suite_degrees(p=None, seed=None, precision=None):
    """Restriction to H is multiplicity-free on one orbit, chi(1) = w eta(1)."""
    checks = []
    for sd in semidirect_catalog():
        if p is not None and sd.p != p:
            continue
        for m in range(sd.n, sd.n + 3):
            checks.append(
                CheckResult(
                    "%s level %d degrees" % (_sd_label(sd), m),
                    quotient_degree_check(sd, m),
                )
            )
    return checks


def suite_idempotents(p=None, seed=None, precision=None):
    checks = []
    for sd in semidirect_catalog():
        if p is not None and sd.p != p:
            continue
        results = idempotent_suite(sd, level=sd.n + 1)
        bad = sorted(k for k, v in results.items() if not v)
        checks.append(
            CheckResult(
                "%s idempotent relations" % _sd_label(sd),
                not bad,
                "failed: %s" % ", ".join(bad) if bad else "",
            )
        )
    return checks


def suite_integrality(p=None, seed=None, precision=None):
    """v_p(|H| w / chi(1)) >= 0 everywhere; divisor bound chi(1) | |H| w."""
    checks = []
    for sd in semidirect_catalog():
        if p is not None and sd.p != p:
            continue
        classes = character_classes(sd)
        ok_v = all(c.multiplier_vp >= 0 for c in classes)
        ok_div = all(
            vp(c.chi_degree, sd.p) <= vp(sd.h.order * c.w, sd.p) for c in classes
        )
        certified = sum(1 for c in classes if c.chi_degree == 1)
        checks.append(
            CheckResult(
                "%s multiplier integrality" % _sd_label(sd),
                ok_v,
                "%d classes" % len(classes),
            )
        )
        checks.append(
            CheckResult(
                "%s divisor bound chi(1) | |H| w" % _sd_label(sd),
                ok_div,
                "%d certified-split classes" % certified,
            )
        )
    for g in conductor_catalog():
        for q in _primes_for(p):
            report = jacobinski_conductor(g, q)
            checks.append(
                CheckResult(
                    "%s p=%d finite multipliers integral" % (g.name, q),
                    all(c.multiplier_vp >= 0 for c in report.components),
                )
            )
    return checks


def suite_ext(p=None, seed=None, precision=None):
    """Conductor annihilates Ext^1 over Z_3, and a sub-conductor element fails."""
    if p not in (None, 3):
        return []
    checks = []
    for g, reps in ((cyclic_group(3), []), (symmetric_3(), splitting_reps("S3"))):
        triv = trivial_module(g)
        aug = augmentation_module(g)
        mx = maximal_order_module(g, 3, reps=reps)
        pairs = [
            (triv, triv.mod_p_power(1)),
            (aug, triv.mod_p_power(1)),
            (triv, aug.mod_p_power(1)),
            (mx, triv.mod_p_power(1)),
            (aug, aug.mod_p_power(2)),
        ]
        if g.order <= 4:
            pairs.append((regular_module(g), triv.mod_p_power(1)))
        for mod_m, mod_n in pairs:
            checks.append(
                CheckResult(
                    "Z3[%s] conductor kills Ext(%s, %s)"
                    % (g.name, mod_m.name, mod_n.name),
                    conductor_annihilates(g, 3, mod_m, mod_n, reps=reps),
                )
            )
    g = cyclic_group(3)
    triv = trivial_module(g)
    target = triv.mod_p_power(1)
    # the probe returns only a candidate it has just seen fail on this pair
    # and raises otherwise, so the check holds whenever it returns
    coords, name_m, name_n = sharpness_probe(g, 3, pool=[(triv, target)])
    checks.append(
        CheckResult(
            "Z3[C3] sharpness: element outside the conductor fails",
            True,
            "coords [%s] on Ext(%s, %s)"
            % (", ".join(str(c) for c in coords), name_m, name_n),
        )
    )
    return checks


def _unit_vec(g, coeffs):
    out = [0] * g.order
    for k, v in coeffs.items():
        out[k] = v
    return out


def suite_fitting(p=None, seed=None, precision=None):
    """Conductor times Fitting generators annihilates the cokernel, on the
    catalog and on the quotients G_1 of C7:|Z3 and S3:|Z3 (inner)."""
    cases = [(g, q) for g in conductor_catalog() for q in _small_primes_for(g, p)]
    if p in (None, 3):
        cases += [(finite_quotient(sd, 1), 3) for sd in (sd_c7(), sd_s3_inner())]
    checks = []
    for g, q in cases:
        g0 = g.generators[0] if g.generators else 0
        presentations = [
            ("(p)", PresentationMatrix(g, 1, 1, [[_unit_vec(g, {0: q})]])),
            (
                "diag(p^2, 1 - g0)",
                PresentationMatrix(
                    g,
                    2,
                    2,
                    [
                        [_unit_vec(g, {0: q * q}), _unit_vec(g, {})],
                        [_unit_vec(g, {}), _unit_vec(g, {0: 1, g0: -1})],
                    ],
                ),
            ),
            (
                "tall [p; 1 - g0]",
                PresentationMatrix(
                    g, 2, 1, [[_unit_vec(g, {0: q})], [_unit_vec(g, {0: 1, g0: -1})]]
                ),
            ),
        ]
        for label, pres in presentations:
            checks.append(
                CheckResult(
                    "%s p=%d %s" % (g.name, q, label),
                    fitting_annihilation_check(pres, q, precision=precision),
                )
            )
    return checks


def suite_tables(p=None, seed=None, precision=None):
    """Character table orthogonality and degree sums on the order <= 200 list.

    Character tables are over C and do not depend on a prime, so ``p`` is
    ignored."""
    checks = []
    for g in table_catalog():
        t = character_table(g)
        ok = (
            t.verify_row_orthogonality()
            and t.verify_column_orthogonality()
            and t.verify_degrees()
        )
        checks.append(
            CheckResult(
                "%s (order %d, %d classes)" % (g.name, g.order, t.n_classes), ok
            )
        )
    return checks


def suite_exponents(p=None, seed=None, precision=None):
    """Different exponent of Q_p(zeta_{p^k}) matches p^(k-1) (k(p-1) - 1)."""
    checks = []
    for q in (3, 5):
        if p is not None and q != p:
            continue
        for k in (1, 2):
            field = AbelianLocalField.cyclotomic(q, k)
            want = q ** (k - 1) * (k * (q - 1) - 1)
            checks.append(
                CheckResult(
                    "Q%d(zeta_%d^%d) different exponent %d" % (q, q, k, want),
                    field.different_exponent == want,
                    "got %d" % field.different_exponent,
                )
            )
    return checks


SUITES = {
    "conductor": suite_conductor,
    "twists": suite_twists,
    "iwasawa": suite_iwasawa,
    "trace": suite_trace,
    "different": suite_different,
    "degrees": suite_degrees,
    "idempotents": suite_idempotents,
    "integrality": suite_integrality,
    "ext": suite_ext,
    "fitting": suite_fitting,
    "tables": suite_tables,
    "exponents": suite_exponents,
}


def run_suite(name, p=None, seed=None, precision=None):
    """Run one named suite; returns (all passed, list of CheckResult).

    Raises InputError if the suite is unknown or has no cases at ``p``."""
    if name not in SUITES:
        raise InputError(
            "unknown suite %r; available: %s" % (name, ", ".join(sorted(SUITES)))
        )
    checks = SUITES[name](p=p, seed=seed, precision=precision)
    if not checks:
        raise InputError("suite %r has no cases at p=%s" % (name, p))
    return all(c.ok for c in checks), checks
