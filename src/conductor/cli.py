"""The ``conductor`` command line.

Subcommands: chartab (character table of a finite group), finite (central
conductor of o[G]), iwasawa (central conductor of the completed algebra
o[[H x| Gamma]]), verify (run a named check suite), fitting (Fitting
generators of a presentation and the annihilation verdict).

JSON is the canonical output; ``--format table`` renders a view derived
from the same payload.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 precision exhaustion.  Timing goes to stderr so reports
are byte-identical across runs.  Each handler imports the modules it
runs, so a subcommand loads only what it needs.

A run is mostly start-up.  On a 2-vCPU Xeon with Python 3.11.7 and no
bytecode cache, ``python -c pass`` takes about 45 ms, importing this
module about 25 ms more, and ``chartab`` on ``sample_inputs/s3.json``
about 80 ms in all.  The records are plain classes and namedtuples, not
``@dataclass``: its module would load ``inspect``, ``ast``, ``dis`` and
``tokenize`` into every process.
"""

import argparse
import os
import sys
import time

from .errors import InputError, PrecisionExhaustedError
from .jsonio import (
    alpha_images_from_json,
    base_field,
    dump_json,
    group_from_json,
    load_json,
    presentation_from_json,
)


def _parser():
    parser = argparse.ArgumentParser(
        prog="conductor",
        description="Central conductors of p-adic group rings and of "
        "completed algebras of one-dimensional p-adic Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument(
            "--format",
            choices=("json", "table"),
            default="json",
            help="output format (default json)",
        )

    sp = sub.add_parser("chartab", help="character table of a finite group")
    sp.add_argument("--group", required=True, help="group description JSON")
    add_format(sp)

    sp = sub.add_parser("finite", help="central conductor of o[G]")
    sp.add_argument("--group", required=True, help="group description JSON")
    sp.add_argument("--p", required=True, type=int, help="odd prime")
    sp.add_argument("--base", default="qp", help="'qp' or a field JSON path")
    add_format(sp)

    sp = sub.add_parser(
        "iwasawa", help="central conductor of the completed algebra"
    )
    sp.add_argument("--h", required=True, help="finite normal subgroup JSON")
    sp.add_argument("--alpha", required=True, help="automorphism images JSON")
    sp.add_argument("--p", required=True, type=int, help="odd prime")
    sp.add_argument("--base", default="qp", help="'qp' or a field JSON path")
    sp.add_argument(
        "--level",
        type=int,
        default=None,
        help="also verify the trace and degree identities in the level-m quotient",
    )
    add_format(sp)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True, help="suite name, or 'all'")
    sp.add_argument("--p", type=int, default=None, help="restrict to one prime")
    sp.add_argument("--seed", type=int, default=None, help="twist-probe seed")
    add_format(sp)

    sp = sub.add_parser(
        "fitting", help="Fitting generators and cokernel annihilation"
    )
    sp.add_argument("--group", required=True, help="group description JSON")
    sp.add_argument("--p", required=True, type=int, help="odd prime")
    sp.add_argument("--matrix", required=True, help="presentation matrix JSON")
    add_format(sp)

    return parser


def _env_precision():
    raw = os.environ.get("CONDUCTOR_PRECISION")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError("CONDUCTOR_PRECISION=%r is not an integer" % raw)
    if value < 1:
        raise InputError("CONDUCTOR_PRECISION must be positive, got %d" % value)
    return value


def _cmd_chartab(args):
    from .chartab import character_table

    g = group_from_json(load_json(args.group))
    return 0, character_table(g).to_json()


def _cmd_finite(args):
    from .finite import jacobinski_conductor

    g = group_from_json(load_json(args.group))
    base = base_field(args.base, args.p)
    report = jacobinski_conductor(g, args.p, base=base)
    return 0, report.to_json()


def _cmd_iwasawa(args):
    from .groups import GroupAutomorphism, SemidirectData
    from .iwasawa import (
        central_conductor,
        dual_basis_check,
        quotient_degree_check,
        trace_lemma_check,
    )

    h = group_from_json(load_json(args.h), where=args.h)
    images = alpha_images_from_json(load_json(args.alpha), where=args.alpha)
    sd = SemidirectData(h, GroupAutomorphism(h, images), args.p)
    base = base_field(args.base, args.p)
    payload = central_conductor(sd, base).to_json()
    code = 0
    if args.level is not None:
        # the degree check comes first: it refuses a G_m above the table
        # bound before the O(p^(m-n)) trace and dual-basis checks run
        checks = {
            "level": args.level,
            "degrees": quotient_degree_check(sd, args.level),
            "trace_lemma": trace_lemma_check(sd, args.level),
            "dual_basis": dual_basis_check(sd, args.level),
        }
        payload["level_checks"] = checks
        if not (checks["trace_lemma"] and checks["dual_basis"] and checks["degrees"]):
            code = 1
    return code, payload


def _cmd_verify(args):
    from .cyclo import require_odd_prime
    from .verify import SUITES, run_suite

    if args.p is not None:
        require_odd_prime(args.p)
    precision = _env_precision()
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    suites = []
    ok = True
    for name in names:
        t0 = time.time()
        try:
            suite_ok, checks = run_suite(name, p=args.p, seed=args.seed, precision=precision)
        except InputError:
            if args.suite == "all":
                continue  # this suite has no cases at p
            raise
        print(
            "suite %s: %d checks in %.2fs" % (name, len(checks), time.time() - t0),
            file=sys.stderr,
        )
        ok = ok and suite_ok
        suites.append(
            {"suite": name, "ok": suite_ok, "checks": [c.to_json() for c in checks]}
        )
    if not suites:
        raise InputError("no suite has cases at p=%s" % args.p)
    payload = suites[0] if args.suite != "all" else {"ok": ok, "suites": suites}
    return (0 if ok else 1), payload


def _cmd_fitting(args):
    from .fitting import annihilation_check, fitting_generators

    g = group_from_json(load_json(args.group))
    pres = presentation_from_json(load_json(args.matrix), g, where=args.matrix)
    generators = fitting_generators(pres)
    verdict = annihilation_check(pres, args.p, precision=_env_precision())
    payload = {
        "group": g.name,
        "order": g.order,
        "p": args.p,
        "shape": {"a": pres.a, "b": pres.b},
        "fitting": generators.to_json(),
        "annihilates": verdict,
    }
    return (0 if verdict else 1), payload


_HANDLERS = {
    "chartab": _cmd_chartab,
    "finite": _cmd_finite,
    "iwasawa": _cmd_iwasawa,
    "verify": _cmd_verify,
    "fitting": _cmd_fitting,
}


def _cyclo_str(obj):
    from .cyclo import CycloNumber

    return repr(CycloNumber.from_json(obj))


def _table_lines(command, payload):
    """Human-readable rendering, computed from the JSON payload alone."""
    lines = []
    if command == "chartab":
        heads = ["chi"] + [
            "c%d(#%d)" % (c["representative"], c["size"]) for c in payload["classes"]
        ]
        rows = [
            ["X%d" % i] + [_cyclo_str(v) for v in row]
            for i, row in enumerate(payload["rows"])
        ]
        widths = [
            max(len(heads[j]), max((len(r[j]) for r in rows), default=0))
            for j in range(len(heads))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(heads, widths)))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    elif command in ("finite", "iwasawa"):
        lines.append(
            "%s over p=%d, base (p=%d, m=%d)"
            % (
                payload["group"],
                payload["p"],
                payload["base"]["p"],
                payload["base"]["m"],
            )
        )
        for i, c in enumerate(payload["components"]):
            field = c["field"]
            mult = c["multiplier"]
            extra = (
                "  w=%d" % c["w"] if "w" in c else "  rows=%s" % (c["orbit_rows"],)
            )
            e = field["e"] if "e" in field else c["e"]
            f = field["f"] if "f" in field else c["f"]
            lines.append(
                "  component %d:%s  degree=%d  field(e=%d, f=%d)  "
                "multiplier=%s/%s (v_p=%d)  valuation=%d"
                % (
                    i,
                    extra,
                    c.get("chi_degree", c.get("degree")),
                    e,
                    f,
                    mult["num"],
                    mult["den"],
                    mult["vp"],
                    c.get("total_valuation", c.get("valuation")),
                )
            )
        if "r_cap_exponent" in payload:
            lines.append("  scalar intersection exponent: %d" % payload["r_cap_exponent"])
        if "level_checks" in payload:
            ck = payload["level_checks"]
            lines.append(
                "  level %d checks: trace=%s dual=%s degrees=%s"
                % (ck["level"], ck["trace_lemma"], ck["dual_basis"], ck["degrees"])
            )
    elif command == "verify":
        suites = payload.get("suites", [payload])
        for block in suites:
            lines.append(
                "suite %s: %s" % (block["suite"], "PASS" if block["ok"] else "FAIL")
            )
            for c in block["checks"]:
                mark = "pass" if c["ok"] else "FAIL"
                detail = "  [%s]" % c["detail"] if c.get("detail") else ""
                lines.append("  %s  %s%s" % (mark, c["name"], detail))
    elif command == "fitting":
        lines.append(
            "%s (order %d) over p=%d, matrix %dx%d"
            % (
                payload["group"],
                payload["order"],
                payload["p"],
                payload["shape"]["a"],
                payload["shape"]["b"],
            )
        )
        fit = payload["fitting"]
        if fit["zero"]:
            lines.append("  zero Fitting class (a < b); annihilation vacuous")
        for gen in fit["generators"]:
            vals = ", ".join(_cyclo_str(v) for v in gen["components"])
            lines.append("  rows %s: (%s)" % (tuple(gen["rows"]), vals))
        lines.append(
            "  conductor * Fitting annihilates cokernel: %s" % payload["annihilates"]
        )
    return lines


def run(argv=None):
    args = _parser().parse_args(argv)
    try:
        code, payload = _HANDLERS[args.command](args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrecisionExhaustedError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(dump_json(payload))
    else:
        sys.stdout.write("\n".join(_table_lines(args.command, payload)) + "\n")
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
