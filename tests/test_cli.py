"""The command line: reports, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from conductor import fitting
from conductor.catalog import alternating_4, quaternion_8
from conductor.cli import run
from conductor.verify import suite_ext

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")


def sample(name):
    return os.path.join(SAMPLES, name)


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_iwasawa_worked_case(capsys):
    code, out = run_capture(
        capsys, ["iwasawa", "--h", sample("c7.json"), "--alpha", sample("sq.json"), "--p", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    comps = sorted(
        (c["w"], c["field"]["e"], c["field"]["f"], c["total_valuation"])
        for c in payload["components"]
    )
    assert comps == [(1, 1, 1, 0), (3, 1, 2, 0)]
    assert payload["r_cap_exponent"] == 0


def test_finite_prime_to_order(capsys):
    code, out = run_capture(
        capsys, ["finite", "--group", sample("s3.json"), "--p", "7"]
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c["valuation"] == 0 for c in payload["components"])


def test_finite_with_base_field(capsys, tmp_path):
    field = tmp_path / "base.json"
    field.write_text(json.dumps({"p": 3, "m": 3, "stab_gens": []}))
    code, out = run_capture(
        capsys,
        ["finite", "--group", sample("s3.json"), "--p", "3", "--base", str(field)],
    )
    assert code == 0
    assert json.loads(out)["base"]["m"] == 3


def test_chartab_table_format(capsys):
    code, out = run_capture(
        capsys, ["chartab", "--group", sample("s3.json"), "--format", "table"]
    )
    assert code == 0
    assert "chi" in out.splitlines()[0]


def test_verify_suite_passes(capsys):
    code, out = run_capture(capsys, ["verify", "--suite", "exponents"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and all(c["ok"] for c in payload["checks"])


def test_fitting_verdict(capsys):
    code, out = run_capture(
        capsys,
        [
            "fitting",
            "--group",
            sample("s3.json"),
            "--p",
            "3",
            "--matrix",
            sample("times3.json"),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["annihilates"]
    assert payload["fitting"]["generators"][0]["rows"] == [0]


@pytest.mark.parametrize("make", [alternating_4, quaternion_8])
def test_fitting_needs_no_representation(capsys, tmp_path, make):
    # A4 with its non-identity elements relabelled, and Q8 (a degree-2
    # block of Schur index 2): reduced norms come from the table alone
    g = make()
    n = g.order
    perm = [0] + list(range(n - 1, 0, -1))
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    table = [[perm[g.mult(inv[a], inv[b])] for b in range(n)] for a in range(n)]
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"name": g.name, "mult_table": table}))
    entries = [[[3] + [0] * (n - 1)], [[1, -1] + [0] * (n - 2)]]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"a": 2, "b": 1, "entries": entries}))
    code, out = run_capture(
        capsys,
        ["fitting", "--group", str(group), "--p", "3", "--matrix", str(matrix)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["annihilates"] is True
    assert len(payload["fitting"]["generators"]) == 2


def test_fitting_computes_each_reduced_norm_once(capsys, tmp_path, monkeypatch):
    calls = []
    exact = fitting.reduced_norm
    monkeypatch.setattr(fitting, "reduced_norm", lambda g, m: calls.append(m) or exact(g, m))
    entries = [[[3, 0, 0, 0, 0, 0]], [[1, -1, 0, 0, 0, 0]]]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"a": 2, "b": 1, "entries": entries}))
    code, out = run_capture(
        capsys, ["fitting", "--group", sample("s3.json"), "--p", "3", "--matrix", str(matrix)]
    )
    assert code == 0 and json.loads(out)["annihilates"] is True
    assert len(calls) == 2  # one per 1 x 1 minor


def _run_optimized(argv):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "conductor.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("optimize", [False, True])
def test_fitting_empty_presentation(capsys, tmp_path, optimize):
    # Lambda^0 -> Lambda^0 has cokernel 0, which everything annihilates
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"a": 0, "b": 0, "entries": []}))
    argv = ["fitting", "--group", sample("s3.json"), "--p", "3", "--matrix", str(path)]
    if optimize:
        code, out, err = _run_optimized(argv)
    else:
        code = run(argv)
        out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    payload = json.loads(out)
    assert payload["annihilates"] is True
    assert [gen["rows"] for gen in payload["fitting"]["generators"]] == [[]]


def test_ext_details_print_plain_numbers():
    details = [c.detail for c in suite_ext()]
    assert any("coords [1, 0, 0]" in d for d in details)
    assert not any("Fraction(" in d for d in details)


@pytest.mark.parametrize("optimize", [False, True])
def test_fitting_rejects_non_integral_entry(capsys, tmp_path, optimize):
    with open(sample("times3.json")) as fh:
        matrix = json.load(fh)
    matrix["entries"][0][0][0] = "1/3"
    path = tmp_path / "third.json"
    path.write_text(json.dumps(matrix))
    argv = ["fitting", "--group", sample("s3.json"), "--p", "3", "--matrix", str(path)]
    if optimize:
        code, _, err = _run_optimized(argv)
    else:
        code = run(argv)
        err = capsys.readouterr().err
    assert code == 2
    assert "3-integral" in err and "Traceback" not in err


def test_iwasawa_above_the_table_bound(capsys, tmp_path):
    # S6 (order 720) with the identity action: n = 0, one component per
    # irreducible character, all of them rational
    h, alpha = tmp_path / "s6.json", tmp_path / "id.json"
    gens = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
    h.write_text(json.dumps({"name": "S6", "perm_gens": gens, "degree": 6}))
    alpha.write_text(json.dumps({"alpha_images": list(range(720))}))
    code, out = run_capture(capsys, ["iwasawa", "--h", str(h), "--alpha", str(alpha), "--p", "3"])
    assert code == 0
    assert len(json.loads(out)["components"]) == 11


def test_iwasawa_level_checks(capsys):
    code, out = run_capture(
        capsys,
        [
            "iwasawa",
            "--h",
            sample("c7.json"),
            "--alpha",
            sample("sq.json"),
            "--p",
            "3",
            "--level",
            "1",
        ],
    )
    assert code == 0
    checks = json.loads(out)["level_checks"]
    assert checks == {"level": 1, "trace_lemma": True, "dual_basis": True, "degrees": True}


def test_iwasawa_level_refuses_large_quotient_first(capsys, monkeypatch):
    # G_12 has order 7 * 3^12: the degree check refuses it at once, before
    # the trace and dual-basis checks, which grow like 3^12, would run
    def must_not_run(sd, level):
        raise AssertionError("level check ran before the table bound")

    monkeypatch.setattr("conductor.iwasawa.trace_lemma_check", must_not_run)
    monkeypatch.setattr("conductor.iwasawa.dual_basis_check", must_not_run)
    argv = ["iwasawa", "--h", sample("c7.json"), "--alpha", sample("sq.json"), "--p", "3"]
    assert run(argv + ["--level", "12"]) == 2
    assert "character table limited to order <= 2000" in capsys.readouterr().err


MALFORMED = [
    ("group", {"mult_table": []}, "group: mult_table has no rows"),
    ("group", {"mult_table": [1, 2]}, "group.mult_table[0]"),
    ("group", {"perm_gens": [[0, "a"]], "degree": 2}, "group.perm_gens[0][1]"),
    ("base", {"p": 3}, "missing key 'm'"),
    ("base", {"p": 3, "m": "x"}, ".m: expected an integer"),
    ("base", {"p": 3, "m": 9, "stab_gens": 5}, ".stab_gens: expected a list"),
    ("group", {"perm_gens": [], "degree": 2000000}, "group.degree: 2000000 exceeds the bound 100000"),
    ("base", {"p": 2**64 + 13, "m": 1}, "too large"),
    ("base", {"p": 3, "m": 10**6}, ".m: 1000000 exceeds the bound 100000"),
]


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "flag,payload,message",
    MALFORMED,
    ids=[
        "no-rows",
        "int-rows",
        "string-entry",
        "no-m",
        "string-m",
        "int-stab-gens",
        "trivial-perm-degree",
        "huge-base-p",
        "huge-base-m",
    ],
)
def test_malformed_json_is_input_error(capsys, tmp_path, flag, payload, message, optimize):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    group = str(path) if flag == "group" else sample("s3.json")
    argv = ["finite", "--group", group, "--p", "3"]
    if flag == "base":
        argv += ["--base", str(path)]
    if optimize:
        code, _, err = _run_optimized(argv)
    else:
        code = run(argv)
        err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and message in err and "Traceback" not in err


def test_missing_file_is_input_error(capsys):
    assert run(["finite", "--group", "/no/such.json", "--p", "3"]) == 2


def test_bad_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["finite", "--group", str(bad), "--p", "3"]) == 2


def test_bad_prime_is_input_error(capsys):
    assert run(["finite", "--group", sample("s3.json"), "--p", "4"]) == 2


def test_prime_near_2_to_61_is_accepted(capsys):
    # 2^61 - 1 is prime and prime to |S3|: decided at once, every valuation 0
    code, out = run_capture(capsys, ["finite", "--group", sample("s3.json"), "--p", str(2**61 - 1)])
    assert code == 0
    assert all(c["valuation"] == 0 for c in json.loads(out)["components"])


@pytest.mark.parametrize("command", ["finite", "iwasawa", "verify"])
def test_prime_above_2_to_64_is_input_error(capsys, command):
    p = str(2**64 + 13)
    argv = {
        "finite": ["finite", "--group", sample("s3.json"), "--p", p],
        "iwasawa": ["iwasawa", "--h", sample("c7.json"), "--alpha", sample("sq.json"), "--p", p],
        "verify": ["verify", "--suite", "all", "--p", p],
    }[command]
    assert run(argv) == 2
    assert "too large" in capsys.readouterr().err


def test_verify_prime_must_be_odd_prime(capsys):
    # --suite all would otherwise run the prime-independent tables suite
    for p in ("4", "2", "1", "9"):
        assert run(["verify", "--suite", "all", "--p", p]) == 2
        err = capsys.readouterr().err
        assert "odd prime" in err and "suite tables" not in err


def test_bad_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("CONDUCTOR_PRECISION", "zero")
    assert run(["verify", "--suite", "exponents"]) == 2


def test_verify_suite_without_cases_at_p_is_input_error(capsys):
    assert run(["verify", "--suite", "different", "--p", "5"]) == 2
    assert "'different'" in capsys.readouterr().err


def test_unknown_suite_is_input_error(capsys):
    assert run(["verify", "--suite", "nosuch"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "unknown suite 'nosuch'; available: conductor, degrees," in err


def test_verify_all_skips_suites_without_cases(capsys, monkeypatch):
    from conductor import verify

    code, out = run_capture(capsys, ["verify", "--suite", "all", "--p", "17"])
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == ["tables"]
    monkeypatch.delitem(verify.SUITES, "tables")
    assert run(["verify", "--suite", "all", "--p", "17"]) == 2


def test_output_is_deterministic(capsys):
    argv = ["finite", "--group", sample("s3.json"), "--p", "3"]
    _, first = run_capture(capsys, argv)
    _, second = run_capture(capsys, argv)
    assert first == second


def test_round_trip_property(capsys):
    _, out = run_capture(
        capsys, ["finite", "--group", sample("s3.json"), "--p", "3"]
    )
    payload = json.loads(out)
    from conductor.jsonio import dump_json

    assert json.loads(dump_json(payload)) == payload


def test_table_view_of_verify(capsys):
    code, out = run_capture(
        capsys, ["verify", "--suite", "exponents", "--format", "table"]
    )
    assert code == 0
    assert out.startswith("suite exponents: PASS")


# Run one subcommand in a fresh interpreter; print its exit code and the
# conductor modules it loaded.
_FOOTPRINT = """\
import json, sys
from contextlib import redirect_stdout
from io import StringIO
from conductor.cli import run
with redirect_stdout(StringIO()):
    code = run(sys.argv[1:])
loaded = [m.split(".", 1)[1] for m in sys.modules if m.startswith("conductor.")]
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["chartab", "--group", "s3.json"],
         {"finite", "fitting", "iwasawa", "orders", "verify", "catalog"}),
        (["finite", "--group", "s3.json", "--p", "3"], {"fitting", "iwasawa", "verify"}),
        (["fitting", "--group", "s3.json", "--p", "3", "--matrix", "times3.json"],
         {"iwasawa", "verify"}),
    ],
    ids=["chartab", "finite", "fitting"],
)
def test_subcommand_loads_only_what_it_runs(argv, absent):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = [sample(a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT] + argv,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "cli" in loaded and not absent & set(loaded)
