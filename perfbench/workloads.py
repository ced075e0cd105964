"""The four workloads: seeded inputs, operations and their checks.

A workload is a list of operations run one at a time in a closed loop; one
pass over the list is a round.  An operation's ``run(step)`` makes its
calls into the program through ``step(fn, *args)``, which times each call
(see run.py); its ``check(result)`` runs afterwards and is not timed.
Every round builds its groups afresh, so no result of the program (the
character tables cached on group objects included) carries over from one
round to the next.

Inputs come from ``random.Random(seed)``.  The seed changes what the
program sees (element labels, automorphism multipliers, presentation
entries, the order of operations) but not the size of the work, so that
runs with different seeds stay comparable.
"""

import json
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import comb, gcd

from conductor import catalog, chartab, cli, finite, fitting, groups, iwasawa

import checks

CHILD_TIMEOUT_S = 120


class Op:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    def __init__(self, ops, min_rounds=1, child_rss=False):
        self.ops = ops
        self.min_rounds = min_rounds
        self.child_rss = child_rss  # peak memory is the largest child's
        self.child_peak_kb = 0


def direct(fn, *args, **kwargs):
    """A ``step`` that only calls: for running operations outside run.py."""
    return fn(*args, **kwargs)


# -- seeded inputs -------------------------------------------------------------


def relabelled_table(g, rng):
    """Multiplication table of g with the non-identity elements shuffled;
    returns the table and the new label of each old element."""
    n = g.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    return [[perm[g.mult(inv[a], inv[b])] for b in range(n)] for a in range(n)], perm


def abelian_group(factors):
    g = groups.cyclic_group(factors[0])
    for f in factors[1:]:
        g = groups.direct_product(g, groups.cyclic_group(f))
    return g


def _vec(n, coeffs):
    out = [0] * n
    for k, v in coeffs.items():
        out[k] += v
    return out


def presentations(n, p, x, g0):
    """(label, a, b, entries): (p), diag(p^2 x, 1 - g0), [p x; 1 - g0]."""
    return [
        ("(p)", 1, 1, [[_vec(n, {0: p})]]),
        ("diag(p^2 x, 1-g0)", 2, 2, [[_vec(n, {x: p * p}), _vec(n, {})],
                                     [_vec(n, {}), _vec(n, {0: 1, g0: -1})]]),
        ("[p x; 1-g0]", 2, 1, [[_vec(n, {x: p})], [_vec(n, {0: 1, g0: -1})]]),
    ]


def units_of_order(q, order):
    """k in (Z/q)* of multiplicative order ``order``."""
    out = []
    for k in range(2, q):
        if gcd(k, q) != 1:
            continue
        y, o = k, 1
        while y != 1:
            y = y * k % q
            o += 1
        if o == order:
            out.append(k)
    return out


# -- finite-oracle -----------------------------------------------------------------

# (name, group constructor, p): catalog groups keep the catalog's element
# numbering, which the hand-entered splitting representations assume
FINITE_CATALOG = (("S3", catalog.symmetric_3, 3), ("D4", lambda: catalog.dihedral(4), 3),
                  ("A4", catalog.alternating_4, 7))
# abelian groups as products of cyclic factors, at a prime dividing |G| or not
FINITE_ABELIAN = (((5, 5), 5), ((3, 9), 3), ((3, 3, 3), 3), ((5, 5), 3), ((3, 5), 7))
# the unit twist of the maximal order is fixed: its size sets the cost of
# the twisted oracle run, which a seeded twist would make vary
TWIST_SEED = 2026


def finite_oracle(seed):
    """One operation per (G, p): the formula report, the formula lattice,
    the oracle lattice plain and twisted, and three Fitting checks."""
    rng = random.Random(seed)
    ops = []
    for name, make, p in FINITE_CATALOG:
        g = make()
        ops.append(_finite_entry(name, make, p, catalog.splitting_reps(name),
                                 x=rng.randrange(g.order), g0=g.generators[0]))
    for factors, p in FINITE_ABELIAN:
        factors = list(factors)
        rng.shuffle(factors)
        table, _ = relabelled_table(abelian_group(factors), rng)
        label = "x".join("C%d" % f for f in factors)
        make = (lambda t=table, l=label: groups.FiniteGroup.from_table(t, name=l))
        n = len(table)
        ops.append(_finite_entry(label, make, p, [], x=rng.randrange(n), g0=rng.randrange(1, n)))
    return Workload(ops)


def _finite_entry(label, make, p, reps, x, g0):
    what = "%s p=%d" % (label, p)
    pres_data = presentations(make().order, p, x, g0)

    def run(step):
        g = step(make)
        out = {
            "g": g,
            "report": step(finite.jacobinski_conductor, g, p).to_json(),
            "formula": step(finite.formula_conductor_lattice, g, p),
            "brute": step(finite.brute_force_conductor, g, p, reps=reps),
            "twisted": step(finite.brute_force_conductor, g, p, reps=reps, twist_seed=TWIST_SEED),
            "fitting": [],
        }
        for plabel, a, b, entries in pres_data:
            pres = fitting.PresentationMatrix(g, a, b, entries)
            out["fitting"].append((plabel, a, b,
                                   step(fitting.fitting_generators, pres, reps=reps),
                                   step(fitting.annihilation_check, pres, p, reps=reps)))
        return out

    def check(out):
        g = out["g"]
        checks.check_finite_report(out["report"], g.order, p, what)
        checks.check_same_lattice(out["formula"], out["brute"], what + " formula vs oracle")
        checks.check_same_lattice(out["brute"], out["twisted"], what + " unit twist")
        if g.order % p:
            checks.check_unit_lattice(out["brute"], what)
        for plabel, a, b, gens, verdict in out["fitting"]:
            name = "%s Fitting %s" % (what, plabel)
            checks.require(verdict is True, name + ": annihilation fails")
            checks.require(len(gens.values) == (comb(a, b) if a >= b else 0),
                           name + ": one generator per b x b minor")
            if plabel == "(p)":
                degrees = chartab.character_table(g).degrees
                checks.check_norms_of_p(gens.values[0], degrees, p, name)

    return Op(what, run, check)


# -- iwasawa-levels ----------------------------------------------------------------

# catalog entries: (constructor, number of levels from n); the top level is
# left out where the quotient is too large for a run (C11 at 5^3, C19 at 3^4)
IWASAWA_CATALOG = (
    (catalog.sd_c7, 3), (catalog.sd_c3_trivial, 3), (catalog.sd_s3_trivial, 3),
    (catalog.sd_s3_inner, 3), (catalog.sd_c9, 3), (catalog.sd_c3c3_shear, 3),
    (catalog.sd_c11, 2), (catalog.sd_c19, 2),
)
# seeded entries: H = C_q, x -> kx with k of order p drawn by the seed;
# (q, p, number of levels)
IWASAWA_SEEDED = ((7, 3, 2), (13, 3, 2))


def iwasawa_levels(seed):
    rng = random.Random(seed)
    entries = list(IWASAWA_CATALOG)
    for q, p, levels in IWASAWA_SEEDED:
        k = rng.choice(units_of_order(q, p))
        make = (lambda q=q, k=k, p=p: groups.SemidirectData(
            groups.cyclic_group(q), groups.cyclic_automorphism(q, k), p))
        entries.append((make, levels))
    ops = []
    for make, levels in entries:
        ops += _iwasawa_entry(make, levels)
    return Workload(ops)


def _iwasawa_entry(make, levels):
    """One operation for the entry (central conductor, the finite report
    when n = 0, the idempotent suite, the table of G_n with its restrictions
    to H) and one per level m (degree, trace and dual-basis checks)."""
    probe = make()
    what = "%s n=%d" % (probe.name(), probe.n)
    p, n, h_order = probe.p, probe.n, probe.h.order
    st = {}

    def base_table(sd):
        g = groups.finite_quotient(sd, n)
        big, small = chartab.character_table(g), chartab.character_table(sd.h)
        orbits = chartab.alpha_orbits(small, sd.alpha)
        restr = [chartab.restrict_and_decompose(big, r, small) for r in range(big.n_classes)]
        return list(big.degrees), restr, [(o.members, o.eta_degree) for o in orbits], g.order

    def conductor(step):
        st["sd"] = sd = step(make)
        desc = step(iwasawa.central_conductor, sd)
        st["classes"] = desc.classes
        return {"desc": desc,
                "report": step(finite.jacobinski_conductor, sd.h, p) if n == 0 else None,
                "idempotents": step(iwasawa.idempotent_suite, sd, level=n + 1),
                "table": step(base_table, sd)}

    def check_conductor(out):
        classes = out["desc"].classes
        checks.check_classes(classes, h_order, p, n, what)
        if out["report"] is not None:
            checks.check_degeneration(classes, out["report"], what + " n=0 vs finite")
        bad = sorted(k for k, v in out["idempotents"].items() if not v)
        checks.require(not bad, "%s idempotents: %s" % (what, bad))
        degrees, restr, orbits, order = out["table"]
        checks.check_quotient_table(degrees, restr, orbits, order, p, n, "%s G_%d table" % (what, n))

    ops = [Op(what + " conductor", conductor, check_conductor)]
    for m in range(n, n + levels):
        ops.append(_level_op(st, "%s level %d" % (what, m), m))
    return ops


def _level_op(st, name, m):
    """The three level checks of the program; the benchmark's own check
    compares the class count of G_m with the Clifford count of the entry's
    class data."""
    def run(step):
        sd = st["sd"]
        return {"degrees": step(iwasawa.quotient_degree_check, sd, m),
                "trace lemma": step(iwasawa.trace_lemma_check, sd, m),
                "dual basis": step(iwasawa.dual_basis_check, sd, m)}

    def check(result):
        bad = sorted(k for k, v in result.items() if v is not True)
        checks.require(not bad, "%s: %s failed" % (name, ", ".join(bad)))
        sd = st["sd"]
        g = groups.finite_quotient(sd, m)
        count = checks.conjugacy_class_count(g.mult, g.order, g.generators)
        checks.check_class_count(st["classes"], count, sd.p, m, name)

    return Op(name, run, check)


# -- ext-annihilation ----------------------------------------------------------------

# (M, N, q) for Ext^1(M, N/p^q) at p = 3; hom dimensions from 2 (C3,
# trivial) to 50 (S3, augmentation against the standard representation)
EXT_PAIRS = {
    "C3": [("trivial", "trivial", 1), ("augmentation", "trivial", 1),
           ("trivial", "augmentation", 1), ("maximal-order", "trivial", 1),
           ("augmentation", "augmentation", 2), ("regular", "trivial", 1),
           ("maximal-order", "maximal-order", 1)],
    "S3": [("trivial", "trivial", 1), ("augmentation", "trivial", 1),
           ("trivial", "augmentation", 1), ("maximal-order", "trivial", 1),
           ("regular", "trivial", 1), ("standard", "trivial", 1),
           ("augmentation", "standard", 1)],
}


def ext_annihilation(seed):
    """Per group, one operation for the conductor and the modules; one per
    pair for Ext^1 and the annihilation by every conductor column; then the
    sharpness probe.  The seed sets the order of the pair operations."""
    rng = random.Random(seed)
    ops, pair_ops = [], []
    for gname, pairs in EXT_PAIRS.items():
        st = {}
        ops.append(_ext_setup_op(gname, st))
        pair_ops += [_ext_pair_op(gname, st, *pair) for pair in pairs]
    rng.shuffle(pair_ops)
    return Workload(ops + pair_ops + [_sharpness_op()])


def _ext_modules(gname):
    if gname == "C3":
        g, reps = groups.cyclic_group(3), []
    else:
        g, reps = catalog.symmetric_3(), catalog.splitting_reps("S3")
    mods = {"trivial": finite.trivial_module(g), "augmentation": finite.augmentation_module(g),
            "maximal-order": finite.maximal_order_module(g, 3, reps=reps),
            "regular": finite.regular_module(g)}
    if reps:
        # the lattice of the 2-dimensional splitting representation
        mats = [[list(row) for row in m] for m in reps[0]]
        mods["standard"] = finite.GModule(g, 2, mats, "standard")
    return g, reps, mods


def _ext_setup_op(gname, st):
    def run(step):
        g, reps, mods = step(_ext_modules, gname)
        lat = step(finite.brute_force_conductor, g, 3, reps)
        st.update(g=g, lat=lat, modules=mods)
        return lat

    def check(lat):
        k = len(chartab.character_table(st["g"]).classes.classes)
        checks.require(len(lat.cols) == k, "%s conductor is not of full rank" % gname)

    return Op("%s conductor and modules" % gname, run, check)


def _ext_pair_op(gname, st, m_name, n_name, q):
    name = "%s Ext(%s, %s/p^%d)" % (gname, m_name, n_name, q)

    def run(step):
        mods = st["modules"]
        comp = step(finite.ExtComputation, mods[m_name], mods[n_name].mod_p_power(q), 3)
        return comp, [step(comp.annihilates, col) for col in st["lat"].cols]

    def check(result):
        comp, kills = result
        checks.require(all(kills), name + ": a conductor element does not annihilate")
        if m_name == "regular":
            checks.check_zero_ext(comp.divisors, name)
        if (m_name, n_name, q) == ("trivial", "trivial", 1):
            g = st["g"]
            rank = checks.p_rank_of_abelianization(g.mult, g.order, 3)
            checks.check_trivial_ext(comp.divisors, rank, name)

    return Op(name, run, check)


def _sharpness_op():
    st = {}

    def run(step):
        g = groups.cyclic_group(3)
        t = finite.trivial_module(g)
        st.update(g=g, pair=(t, t.mod_p_power(1)))
        return step(finite.sharpness_probe, g, 3, pool=[st["pair"]])

    def check(result):
        coords, _, _ = result
        lat = finite.brute_force_conductor(st["g"], 3)
        checks.require(not checks.lattice_contains(lat, coords),
                       "sharpness: the probe element lies in the conductor")
        comp = finite.ExtComputation(*st["pair"], 3)
        checks.require(not comp.annihilates(coords), "sharpness: the probe element annihilates")

    return Op("C3 sharpness probe", run, check)


# -- cli-inputs ------------------------------------------------------------------------


def _psl27():
    """PSL(2, 7) acting on the projective line over F_7 (point 7 is infinity)."""
    def mobius(a, b, c, d):
        out = []
        for x in range(8):
            num, den = (a, c) if x == 7 else ((a * x + b) % 7, (c * x + d) % 7)
            out.append(7 if den == 0 else num * pow(den, -1, 7) % 7)
        return tuple(out)
    return groups.FiniteGroup.from_permutations(
        [mobius(1, 1, 0, 1), mobius(2, 0, 0, 1), mobius(0, 6, 1, 0)], 8, name="PSL(2,7)")


def cli_inputs(seed, root, in_process=False):
    """Each operation is one ``conductor`` subcommand, run as its own
    process (in the traced pass: through ``cli.run`` in this process).
    Seeded inputs are written under perfbench/work/."""
    rng = random.Random(seed)
    work = os.path.join(root, "perfbench", "work", "cli-inputs-%d" % seed)
    os.makedirs(work, exist_ok=True)

    def write(name, obj):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return os.path.relpath(path, root)

    def table_file(name, g):
        table, perm = relabelled_table(g, rng)
        return write(name + ".json", {"name": name, "mult_table": table}), perm

    samples = "sample_inputs"
    cmds = []  # (label, argv, check of the parsed payload)

    for name, g in (("S4", catalog.symmetric_4()), ("A5", catalog.alternating_5()),
                    ("S5", catalog.symmetric_5()), ("PSL27", _psl27())):
        path, _ = table_file("T-" + name, g)
        what = "chartab " + name
        cmds.append((what, ["chartab", "--group", path],
                     lambda pl, w=what: checks.check_chartab_payload(pl, w)))

    for name, g, p in (("F20", catalog.frobenius_20(), 5), ("A4", catalog.alternating_4(), 3),
                       ("PSL27", _psl27(), 7)):
        path, _ = table_file("F-" + name, g)
        what = "finite %s p=%d" % (name, p)
        cmds.append((what, ["finite", "--group", path, "--p", str(p)],
                     lambda pl, o=g.order, p=p, w=what: checks.check_finite_report(pl, o, p, w)))
    cmds.append(("finite S3 p=7 sample", ["finite", "--group", samples + "/s3.json", "--p", "7"],
                 lambda pl: checks.check_finite_report(pl, 6, 7, "finite S3 p=7 sample")))

    # completed algebras: H as a relabelled table, alpha as an image list
    for q, p, levels in ((7, 3, (None, 1)), (13, 3, (None,)), (9, 3, (2,))):
        k = rng.choice(units_of_order(q, p))
        h_path, perm = table_file("H-C%d" % q, groups.cyclic_group(q))
        images = [0] * q
        for x in range(q):
            images[perm[x]] = perm[k * x % q]
        a_path = write("H-C%d-alpha.json" % q, {"alpha_images": images})
        for level in levels:
            what = "iwasawa C%d" % q + (" level %d" % level if level else "")
            argv = ["iwasawa", "--h", h_path, "--alpha", a_path, "--p", str(p)]
            argv += ["--level", str(level)] if level else []
            cmds.append((what, argv, lambda pl, q=q, p=p, w=what:
                         checks.check_iwasawa_payload(pl, q, p, w)))
    what = "iwasawa C7 sample level 1"
    cmds.append((what, ["iwasawa", "--h", samples + "/c7.json", "--alpha", samples + "/sq.json",
                        "--p", "3", "--level", "1"],
                 lambda pl: checks.check_iwasawa_payload(pl, 7, 3, "iwasawa C7 sample level 1")))

    # presentations over relabelled abelian groups
    for factors, p in (((3, 3), 3), ((9,), 3)):
        g = abelian_group(list(factors))
        label = "x".join("C%d" % f for f in factors)
        path, _ = table_file("P-" + label, g)
        n = g.order
        x, g0 = rng.randrange(n), rng.randrange(1, n)
        for plabel, a, b, entries in presentations(n, p, x, g0):
            slug = "".join(c if c.isalnum() else "_" for c in plabel).strip("_")
            m_path = write("P-%s-%s.json" % (label, slug), {"a": a, "b": b, "entries": entries})
            degrees = [1] * n if plabel == "(p)" else None
            what = "fitting %s %s" % (label, plabel)
            cmds.append((what, ["fitting", "--group", path, "--p", str(p), "--matrix", m_path],
                         lambda pl, w=what, p=p, d=degrees:
                         checks.check_fitting_payload(pl, w, p=p, degrees=d)))
    cmds.append(("fitting S3 sample",
                 ["fitting", "--group", samples + "/s3.json", "--p", "3",
                  "--matrix", samples + "/times3.json"],
                 lambda pl: checks.check_fitting_payload(pl, "fitting S3 sample", p=3,
                                                         degrees=[1, 1, 2])))

    for suite, p in (("exponents", 3), ("different", 3), ("iwasawa", None)):
        what = "verify " + suite
        argv = ["verify", "--suite", suite] + (["--p", str(p)] if p else [])
        cmds.append((what, argv, lambda pl, w=what: checks.check_verify_payload(pl, w)))

    rng.shuffle(cmds)
    # five rounds at least: stdout is compared between repeats, and the
    # slowest command's time is a median of five
    wl = Workload([], min_rounds=5, child_rss=not in_process)
    seen = {}
    for label, argv, payload_check in cmds:
        run = _cli_in_process(argv) if in_process else _cli_process(wl, root, argv)
        wl.ops.append(Op("cli " + label, run, _cli_check(seen, label, payload_check)))
    return wl


def _cli_process(wl, root, argv):
    env = dict(os.environ)
    env.pop("CONDUCTOR_PRECISION", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "conductor.cli"] + argv
    err_path = os.path.join(root, "perfbench", "work", "cli-stderr.txt")

    def spawn():
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # reap the child here rather than through Popen.wait, so that
                # its own resource usage (peak memory) can be read
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
        wl.child_peak_kb = max(wl.child_peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read().decode(errors="replace")[-500:]
            raise RuntimeError("exit code %d: %s" % (proc.returncode, tail))
        return out.decode()

    return lambda step: step(spawn)


def _cli_in_process(argv):
    def call():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError("exit code %d: %s" % (code, err.getvalue()[-500:]))
        return out.getvalue()

    return lambda step: step(call)


def _cli_check(seen, label, payload_check):
    def check(text):
        payload = checks.check_canonical(text, label)
        first = seen.setdefault(label, text)
        checks.require(first == text, "%s: stdout differs between repeats" % label)
        payload_check(payload)

    return check


BUILDERS = {
    "finite-oracle": lambda seed, root, traced: finite_oracle(seed),
    "iwasawa-levels": lambda seed, root, traced: iwasawa_levels(seed),
    "ext-annihilation": lambda seed, root, traced: ext_annihilation(seed),
    "cli-inputs": lambda seed, root, traced: cli_inputs(seed, root, in_process=traced),
}


def build(name, seed, root, traced=False):
    return BUILDERS[name](seed, root, traced)
