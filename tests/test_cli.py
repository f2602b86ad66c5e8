"""CLI behavior: subcommands, exit codes, schemas, byte determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from chebsum import campaign as camp
from chebsum.cli import build_parser, main
from chebsum.errors import DomainError, UnknownId
from chebsum.kibble import CorrMatrix, kibble_closed_eval

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "chebsum" / "schemas"
POLY_SCHEMA = json.loads((SCHEMA_DIR / "poly.schema.json").read_text())
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.schema.json").read_text())


def run(args, tmp_path, name="out.json"):
    path = tmp_path / name
    code = main(args + ["--json", str(path)])
    return code, path.read_text() if path.exists() else ""


def test_w_build_matches_poly_schema(tmp_path):
    code, text = run(["w", "build", "--n", "2"], tmp_path)
    assert code == 0
    data = json.loads(text)
    jsonschema.validate(data, POLY_SCHEMA)
    assert data["vars"] == ["x1", "x2", "rho"]


def test_chi_build_payload(tmp_path):
    code, text = run(["chi", "build", "--k", "0", "--n", "1", "--t", "0"], tmp_path)
    assert code == 0
    data = json.loads(text)
    jsonschema.validate(data["l"], POLY_SCHEMA)
    jsonschema.validate(data["w"], POLY_SCHEMA)
    assert data["l"]["terms"] == [{"coeff": "1/1", "exps": [0, 0]}]


def test_chi_eval_value(tmp_path):
    code, text = run(["chi", "eval", "--k", "0", "--n", "1", "--t", "0",
                      "--x", "0.5", "--rho", "0.5"], tmp_path)
    assert code == 0
    assert json.loads(text)["value"] == pytest.approx(4 / 3, abs=1e-12)


def test_chi_verify_pass_and_fail(tmp_path):
    code, text = run(["chi", "verify", "--k", "1", "--n", "1", "--t", "1,0",
                      "--trials", "10", "--seed", "3"], tmp_path)
    assert code == 0
    rec = json.loads(text)
    assert rec["pass"] and rec["max_abs_err"] < 1e-8
    # An absurd tolerance turns the same campaign into a failure (exit 1).
    code, text = run(["chi", "verify", "--k", "1", "--n", "1", "--t", "1,0",
                      "--trials", "10", "--seed", "3", "--tol", "1e-30"],
                     tmp_path, name="fail.json")
    assert code == 1
    assert json.loads(text)["pass"] is False


def test_kibble_eval_and_denominator(tmp_path):
    code, text = run(["kibble", "eval", "--kind", "U", "--x=-0.9,-0.95,0.94",
                      "--rho", "12=0.6,13=0.8,23=0.9", "--oracle-cutoff", "200"],
                     tmp_path)
    assert code == 0
    rec = json.loads(text)
    assert rec["closed"] == pytest.approx(-0.0912121, abs=1e-4)
    assert rec["oracle"] == pytest.approx(rec["closed"], abs=1e-6)
    code, text = run(["kibble", "denominator", "--n", "2", "--rho", "12=1/2"],
                     tmp_path, name="den.json")
    assert code == 0
    jsonschema.validate(json.loads(text), POLY_SCHEMA)


def test_q_check_and_probe(tmp_path):
    code, text = run(["q", "check", "--suite", "duality", "--q", "1/3",
                      "--nmax", "8"], tmp_path)
    assert code == 0
    assert all(json.loads(line)["pass"] for line in text.splitlines())
    # Without --nmax a suite runs to its own limit: idb checks n = 0..6, k = 0..8.
    code, text = run(["q", "check", "--suite", "idb", "--q", "1/3"], tmp_path,
                     name="idb.json")
    assert code == 0 and len(text.splitlines()) == 7 * 9
    code, text = run(["q", "probe", "--conjecture", "beta", "--nmax", "3",
                      "--q", "1/2,1/3,2/5"], tmp_path, name="probe.json")
    assert code == 0
    first = json.loads(text.splitlines()[0])
    assert first["verdict"] == "REPRESENTABLE"


def test_q_check_d2_compares_values(tmp_path, monkeypatch):
    args = ["q", "check", "--suite", "d2", "--q", "1/3", "--nmax", "3"]
    code, text = run(args, tmp_path)
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["n"] for r in records] == [1, 2, 3]
    assert all(r["pass"] and r["abs_err"] <= r["bound"] for r in records)

    import chebsum.qseries as qseries
    right = qseries.d2_coeff
    # d2_2 with one coefficient off by 1/1000 must fail the check.
    monkeypatch.setattr(qseries, "d2_coeff",
                        lambda ctx, n: right(ctx, n) + (n == 2) * Fraction(1, 1000))
    code, text = run(args, tmp_path, name="wrong.json")
    assert code == 1
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["pass"] for r in records] == [True, False, True]
    assert records[1]["abs_err"] > records[1]["bound"]


def test_q_check_duality_fails_a_wrong_d_n(tmp_path, monkeypatch):
    # d_coeff does not check itself; the duality records make the one check, so a T_3
    # off by 1 fails d_3's record alone and the run exits 1.
    import chebsum.qseries as qseries
    right = qseries.cheb_poly
    monkeypatch.setattr(qseries, "cheb_poly",
                        lambda c, var="x1": right(c, var) + int((c.kind, c.index) == ("T", 3)))
    code, text = run(["q", "check", "--suite", "duality", "--q", "1/3", "--nmax", "4"], tmp_path)
    assert code == 1
    assert [json.loads(line)["pass"] for line in text.splitlines()] == [True] * 3 + [False, True]


def test_q_check_duality_fails_a_wrong_q_pochhammer(tmp_path, monkeypatch):
    # qq does not check itself against a second product; the records do.  A (q;q)_3
    # doubled as it is rolled carries into (q;q)_4 and (q;q)_5, so d_3 and d_4 FAIL
    # while d_5's q-binomials cancel it, and the run exits 1 with every record written.
    from chebsum.qseries import QContext
    right = QContext.qq

    def doubled_third(self, n):
        if len(self._qq) <= 3 <= n:
            right(self, 3)
            self._qq[3] *= 2
        return right(self, n)

    monkeypatch.setattr(QContext, "qq", doubled_third)
    code, text = run(["q", "check", "--suite", "duality", "--q", "1/3", "--nmax", "5"], tmp_path)
    assert code == 1
    assert [(r["n"], r["pass"]) for r in map(json.loads, text.splitlines())] == [
        (0, True), (1, True), (2, True), (3, False), (4, False), (5, True)]


NUMPY_FREE_COMMANDS = [
    ["w", "build", "--n", "4"], ["chi", "build", "--k", "2", "--n", "2", "--t=-1,0,0,1"],
    ["chi", "eval", "--k", "1", "--n", "1", "--t", "1,0", "--x", "0.5,0.25", "--rho", "0.3"],
    ["q", "check", "--suite", "d2"], ["q", "probe", "--conjecture", "common-denominator"],
    ["q", "probe", "--conjecture", "beta", "--nmax", "5"],
    ["kibble", "denominator", "--n", "3", "--rho", "12=1/2,13=1/3,23=1/5"],
    ["verify", "w"], ["verify", "q"]]


def test_exact_commands_never_import_numpy():
    # Importing numpy adds tens of MB of RSS and tens of ms to a process; exact work
    # and the scalar float paths need none of it.  A fresh process, so nothing is loaded.
    script = ("import sys\nfrom chebsum.cli import main\n"
              f"codes = [main(args) for args in {NUMPY_FREE_COMMANDS!r}]\n"
              "print(codes, 'numpy' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(NUMPY_FREE_COMMANDS)} False"


def test_q_check_bytes_pinned(tmp_path):
    # Pinned bytes of every q check suite at three q values, one seed.
    text = "".join(run(["q", "check", "--suite", suite, "--q", "1/3,-2/7,5/11",
                        "--seed", "4"], tmp_path, name=f"{suite}.json")[1]
                   for suite in ("duality", "idb", "chi1t", "d2", "final-identity"))
    assert len(text.splitlines()) == 267
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3097486bbb06a66271add58165286a0113094f885172d6ca69004d01ec2af7a1")


def test_q_probe_bytes_pinned(tmp_path):
    # Pinned bytes of both conjecture probes at their default q values.
    digests = [hashlib.sha256(run(["q", "probe", "--conjecture", which] + extra, tmp_path,
                                  name=f"{which}.json")[1].encode()).hexdigest()
               for which, extra in (("common-denominator", []), ("beta", ["--nmax", "5"]))]
    assert digests == [
        "84ad3def4d840ed582571d8f05376250d162f9fcfc09d30b276745f19422c2f4",
        "f83a6abf032269a96c3a6a39c01791f91ba490f94c5f401507365b5b5201268c"]


def test_verify_all_passes_and_validates(tmp_path):
    code, text = run(["verify", "all", "--trials", "4", "--points", "6",
                      "--seed", "7", "--nodes", "128"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    for line in lines:
        jsonschema.validate(json.loads(line), REPORT_SCHEMA)
    summaries = [json.loads(l) for l in lines if json.loads(l).get("summary")]
    assert len(summaries) == 9 and all(s["pass"] for s in summaries)


def test_verify_all_byte_identical(tmp_path):
    args = ["verify", "all", "--trials", "3", "--points", "5", "--seed", "7",
            "--nodes", "128"]
    _, a = run(args, tmp_path, name="a.json")
    # Pinned bytes: a change to any record or float in the report shows here.
    assert hashlib.sha256(a.encode()).hexdigest() == (
        "5d1c2801b8141df30fc436974a4ccceb3657f6d103016fecf18819516d04caf2")
    _, b = run(args, tmp_path, name="b.json")
    assert a == b
    # --jobs is accepted and ignored: campaigns run in one process.
    _, c = run(args + ["--jobs", "3"], tmp_path, name="c.json")
    assert a == c
    # A different seed changes the sampled cases.
    _, d = run(["verify", "all", "--trials", "3", "--points", "5", "--seed",
                "8", "--nodes", "128"], tmp_path, name="d.json")
    assert a != d
    # With 11 trials the kibble suite runs two n=4 and two n=5 cases after
    # its n=3 trials and fixed cases; 64 nodes make the marginals fail.
    _, e = run(["verify", "all", "--trials", "11", "--points", "4", "--seed",
                "3", "--nodes", "64"], tmp_path, name="e.json")
    assert hashlib.sha256(e.encode()).hexdigest() == (
        "6d9daf797904e456562f0ea0e4ae643b8bfd7df532e30b2a0cab3c3d4e84c343")


def test_config_file_defaults(tmp_path):
    # Seed-dependent: three-path samples its cases from --seed, so a config
    # that did not reach the command would show as seed-0 bytes.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "seed": 5}))
    _, a = run(["verify", "three-path", "--trials", "3", "--seed", "5"], tmp_path,
               name="a.json")
    _, b = run(["--config", str(cfg), "verify", "three-path"], tmp_path, name="b.json")
    assert a == b
    _, zero = run(["verify", "three-path", "--trials", "3"], tmp_path, name="zero.json")
    assert zero != a
    # Explicit flags win over the config file.
    _, c = run(["--config", str(cfg), "verify", "three-path", "--seed", "0"], tmp_path,
               name="c.json")
    assert c == zero
    # Every key must be a flag of the chosen command.
    assert main(["--config", str(cfg), "chi", "eval", "--k", "1", "--n", "0",
                 "--x", "0.5", "--rho", "0.5"]) == 2
    cfg.write_text(json.dumps({"trials": 3, "bogus": 1}))
    assert main(["--config", str(cfg), "verify", "three-path"]) == 2


def test_config_values_must_suit_their_flags(tmp_path, capsys):
    # argparse passes only string defaults through a flag's type: a JSON value
    # of another type used to reach the command and die with a traceback.
    cfg = tmp_path / "cfg.json"
    for command, bad in ((["verify", "three-path"], {"trials": 2.5}),
                         (["verify", "three-path"], {"trials": True}),
                         (["verify", "three-path"], {"tol": "small"}),
                         (["verify", "three-path"], {"json_path": 3}),
                         (["kibble", "denominator", "--n", "2"], {"symbolic": 1}),
                         (["kibble", "eval", "--kind", "T", "--x", "0.5,0.5", "--rho", "12=0.3"],
                          {"kind": "X"})):
        cfg.write_text(json.dumps(bad))
        assert main(["--config", str(cfg)] + command) == 2, bad
        assert "argument --config" in capsys.readouterr().err
    cfg.write_text(json.dumps({"trials": 2, "tol": 1}))  # a JSON integer is a number
    assert run(["--config", str(cfg), "verify", "three-path"], tmp_path)[0] == 0


def test_kibble_eval_at_the_ends_of_a_u_slot(tmp_path, capsys):
    # The U closed form divides by sin(acos x), zero at x = +-1 where f_U is
    # finite: the lattice oracle alone gives the value there.
    K = CorrMatrix.from_dict(2, {(1, 2): 0.3})
    for x, near in (("1,0.5", 1e-3), ("-1,0.5", math.pi - 1e-3)):
        code, text = run(["kibble", "eval", "--kind", "U", f"--x={x}", "--rho", "12=0.3",
                          "--oracle-cutoff", "50"], tmp_path)
        assert code == 0
        rec = json.loads(text)
        assert rec["closed"] is None
        closed_near = kibble_closed_eval("U", [near, math.acos(0.5)], K)
        assert rec["oracle"] == pytest.approx(closed_near, abs=1e-6)
        assert main(["kibble", "eval", "--kind", "U", f"--x={x}", "--rho", "12=0.3"]) == 2
        assert "--oracle-cutoff" in capsys.readouterr().err


# The commands that draw points from --seed, and so the only ones that take it.
SEEDED = {("chi", "verify"), ("kibble", "verify"), ("q", "check"), ("verify",)}
COMMANDS = {
    ("w", "build"): ["--n", "1"],
    ("w", "check"): [],
    ("chi", "build"): ["--k", "0", "--n", "1"],
    ("chi", "eval"): ["--k", "0", "--n", "1", "--x", "0.5", "--rho", "0.5"],
    ("chi", "verify"): ["--k", "0", "--n", "1", "--trials", "2", "--order", "20"],
    ("kibble", "eval"): ["--kind", "T", "--x", "0.5,0.5", "--rho", "12=0.3"],
    ("kibble", "verify"): ["--trials", "1"],
    ("kibble", "denominator"): ["--n", "2", "--rho", "12=1/2"],
    ("q", "check"): ["--suite", "d2", "--nmax", "2"],
    ("q", "probe"): ["--conjecture", "beta", "--nmax", "2", "--q", "1/2"],
    ("verify",): ["three-path", "--trials", "1"],
}


def test_seed_only_where_a_command_draws_points(tmp_path, capsys):
    assert len(COMMANDS) == 11 and SEEDED <= COMMANDS.keys()
    for command, flags in COMMANDS.items():
        code, _ = run(list(command) + flags + ["--seed", "4"], tmp_path)
        assert code == (0 if command in SEEDED else 2), command
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 4" in err


def test_readme_commands_parse():
    # Every command the README shows must parse: a removed flag fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert len(lines) >= 11 and all(words[0] == "chebsum" for words in lines)
    parser = build_parser()
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(words)}")


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["w", "build", "--n", "9"]) == 2
    assert main(["w", "build"]) == 2
    assert main(["kibble", "eval", "--kind", "U", "--x", "0.5,0.5",
                 "--rho", "bogus"]) == 2
    assert main(["kibble", "denominator", "--n", "3", "--rho", "1=1/2"]) == 2
    assert main(["w", "check", "--config"]) == 2
    assert main(["--config", str(tmp_path / "missing.json"), "w", "check"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "w", "check"]) == 2
    assert main(["chi", "eval", "--k", "0", "--n", "1", "--t", "0",
                 "--x", "2", "--rho", "0.5"]) == 2
    assert main(["chi", "eval", "--k", "0", "--n", "1", "--t", "0",
                 "--x", "0.5", "--rho", "1.5"]) == 2
    assert main(["verify", "marginals", "--nodes", "0"]) == 2
    # A shift past the exponent limit, or shifts whose exact numerator would
    # run for hours, are refused before any Chebyshev work.
    for shifts in (["--k", "1", "--n", "0", "--t=40000"], ["--k", "1", "--n", "0", "--t=20000"],
                   ["--k", "0", "--n", "4", "--t=64,64,64,64"]):
        t0 = time.perf_counter()
        assert main(["chi", "build"] + shifts) == 2
        assert time.perf_counter() - t0 < 1.0
    # Six coordinates would give a closed value that no oracle checks, after
    # 32 sign vectors of 2^15 Gray steps each: refused before any trig.
    t0 = time.perf_counter()
    assert main(["kibble", "eval", "--kind", "U", "--x", "0.1,0.2,0.3,0.4,0.5,0.6",
                 "--rho", "12=0.1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "n = 6 exceeds the supported maximum 5" in capsys.readouterr().err
    # Inputs that would check nothing, or leave the series domain, are refused.
    chi_verify = ["chi", "verify", "--k", "1", "--n", "0"]
    assert main(chi_verify + ["--trials", "0"]) == 2
    assert main(chi_verify + ["--order", "-1"]) == 2
    assert main(chi_verify + ["--rho-max", "1"]) == 2
    capsys.readouterr()
    assert main(["verify", "chi-forms", "--order", "-5"]) == 2
    assert main(["verify", "chi-oracle", "--points", "0"]) == 2
    # ... by the campaign's own checks, not by a numpy error on the way.
    err = capsys.readouterr().err
    assert "order must be >= 0" in err and "points must be >= 1" in err
    assert main(["q", "check", "--suite", "duality", "--q", "1/3", "--nmax", "-1"]) == 2
    assert main(["q", "check", "--suite", "d2", "--nmax", "0"]) == 2
    # --nmax beyond a suite's limit, or for a suite without one, is refused.
    assert main(["q", "check", "--suite", "idb", "--nmax", "20"]) == 2
    assert main(["q", "check", "--suite", "chi1t", "--nmax", "6"]) == 2
    assert main(["q", "check", "--suite", "d2", "--nmax", "9"]) == 2
    assert main(["q", "check", "--suite", "final-identity", "--nmax", "3"]) == 2
    # A probe that would probe nothing, or a series order below zero, is refused
    # with the program's own message.
    capsys.readouterr()
    assert main(["q", "probe", "--conjecture", "beta", "--nmax", "-2"]) == 2
    assert main(["q", "probe", "--conjecture", "beta", "--nmax", "1"]) == 2
    assert main(["q", "probe", "--conjecture", "common-denominator",
                 "--rho-order", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--nmax for --conjecture beta" in captured.err
    assert "rho_order must lie in 0..12" in captured.err
    # chi verify applies the campaigns' tol > 0.
    assert main(chi_verify + ["--tol", "-1"]) == 2
    assert main(chi_verify + ["--tol", "0"]) == 2
    assert "tol must be positive" in capsys.readouterr().err
    # NaN fails every domain check instead of printing a NaN that is not JSON,
    # and |x| > 1 is refused before acos with the oracle's own message.
    chi_eval = ["chi", "eval", "--k", "1", "--n", "0"]
    assert main(chi_eval + ["--x", "0.5", "--rho", "nan"]) == 2
    assert main(chi_eval + ["--x", "nan", "--rho", "0.5"]) == 2
    kibble_eval = ["kibble", "eval", "--kind", "U", "--x"]
    assert main(kibble_eval + ["0.1,nan,0.3", "--rho", "12=0.1,13=0.2,23=0.3"]) == 2
    assert main(kibble_eval + ["0.1,0.2,0.3", "--rho", "12=0.1,13=0.2,23=nan"]) == 2
    capsys.readouterr()
    assert main(kibble_eval + ["0.1,0.2,0.3", "--rho", "12=0.1,13=0.2,23=nan",
                               "--oracle-cutoff", "10"]) == 2
    assert main(["kibble", "eval", "--kind", "T", "--x", "0.1,1.5,0.3",
                 "--rho", "12=0.1,13=0.2,23=0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|rho_23| must be < 1, got nan" in captured.err
    assert "|x_m| must be <= 1, got 1.5" in captured.err
    # Only verify still takes --jobs, and there it is ignored.
    assert main(["w", "check", "--jobs", "2"]) == 2
    assert main(["q", "check", "--suite", "d2", "--jobs", "2"]) == 2


def test_campaign_knobs_raise_domain_error(capsys):
    # A typed error: the CLI reports it as "error:", not as a usage error.
    with pytest.raises(DomainError, match="trials must be >= 1"):
        camp.check_sampling(0, 0.5, 10, 1e-8)
    with pytest.raises(DomainError, match="points must be >= 1"):
        camp.Campaign("chi-oracle", points=0)
    assert main(["verify", "chi-oracle", "--points", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: points must be >= 1")


def test_zero_denominators_repeated_pairs_and_endless_tol_are_refused(capsys):
    # A zero denominator ended in a ZeroDivisionError traceback, a repeated pair
    # key kept its last value, and --tol inf or nan let every comparison pass.
    for argv in (["q", "check", "--suite", "duality", "--q", "1/0"],
                 ["q", "probe", "--conjecture", "beta", "--q", "1/0", "--nmax", "2"],
                 ["kibble", "denominator", "--n", "3", "--rho", "12=1/0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: zero denominator in '1/0'\n"
    assert main(["kibble", "denominator", "--n", "3", "--rho", "12=1/2,12=1/3"]) == 2
    assert main(["kibble", "eval", "--kind", "T", "--x", "0.1,0.2,0.3",
                 "--rho", "12=0.1,13=0.2,12=0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage error: pair key 12 is given twice") == 2
    for tol in ("inf", "nan", "-inf"):
        assert main(["chi", "verify", "--k", "1", "--n", "0", f"--tol={tol}"]) == 2
        assert main(["verify", "chi-forms", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"error: tol must be positive and finite, got {tol}") == 2
    for tol in (math.inf, math.nan):
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            camp.check_sampling(1, 0.5, 10, tol)


def test_unread_flags_exit_2():
    # kibble verify samples n = 2..5 and has no --n; --tol is taken only where
    # a bound reads it (chi verify, verify).
    assert main(["kibble", "verify", "--trials", "1", "--n", "3"]) == 2
    assert main(["w", "check", "--tol", "1e-300"]) == 2
    assert main(["kibble", "verify", "--trials", "1", "--tol", "1e-300"]) == 2
    assert main(["chi", "eval", "--k", "0", "--n", "1", "--x", "0.5", "--rho", "0.5",
                 "--tol", "1e-3"]) == 2
    assert main(["q", "check", "--suite", "d2", "--tol", "1e-3"]) == 2


def test_chi_eval_at_a_large_shift(capsys):
    # The shift limit binds the exact builders only: this float path takes O(|t|) steps.
    assert main(["chi", "eval", "--k", "1", "--n", "0", "--t=20000",
                 "--x", "0.5", "--rho", "0.3"]) == 0
    assert capsys.readouterr().out == '{"value":-0.8227848101265823}\n'


def test_chi_eval_refuses_a_shift_past_the_seed_limit(capsys):
    # The float seeds take O(|t|) steps: 10^9 would run for minutes, so it is
    # refused before any work.
    t0 = time.perf_counter()
    assert main(["chi", "eval", "--k", "1", "--n", "0", "--t=1000000000",
                 "--x", "0.5", "--rho", "0.3"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the supported limit" in capsys.readouterr().err


def test_chi_eval_memory_does_not_grow_with_the_shift(capsys):
    # The recurrence keeps two values: a list of every T_j would take about 32 MB here.
    tracemalloc.start()
    try:
        code = main(["chi", "eval", "--k", "1", "--n", "0", "--t=1000000",
                     "--x", "0.5", "--rho", "0.3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == '{"value":-0.25316455696202533}\n'
    assert peak < 2 ** 20


def test_stdout_without_json_flag(capsys):
    code = main(["chi", "eval", "--k", "1", "--n", "0", "--t", "0",
                 "--x", "0.5", "--rho", "0.25"])
    assert code == 0
    out = capsys.readouterr().out
    val = json.loads(out)["value"]
    want = (1 - 0.25 * 0.5) / (1 - 2 * 0.25 * 0.5 + 0.25 ** 2)
    assert val == pytest.approx(want, abs=1e-12)


def test_rounding_memory_and_digit_limits_exit_2(capsys):
    # Each of these ended in a traceback: a float denominator that rounds to 0,
    # a marginal mesh of 298 GiB, and exact values past the int-to-str limit.
    for argv, message in (
            (["chi", "eval", "--k", "1", "--n", "0", "--x", "1", "--rho", "0.999999999"],
             "the float denominator w rounds to 0"),
            (["chi", "eval", "--k", "0", "--n", "1", "--x=-1", "--rho=-0.999999999"],
             "the float denominator w rounds to 0"),
            (["kibble", "eval", "--kind", "T", "--x", "1,1", "--rho", "12=0.999999999"],
             "the geometric denominator rounds to 0"),
            (["verify", "marginals", "--nodes", "100000"], "mesh points"),
            (["q", "probe", "--conjecture", "common-denominator", "--q", "9/10"],
             "digits exceeds"),
            (["kibble", "denominator", "--n", "2", "--rho", "12=1/1" + "0" * 1500],
             "an exact value of 6000 digits exceeds")):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err, captured.err
        assert "Traceback" not in captured.err


def test_build_parser_takes_no_parameter():
    # --config sets the chosen command's defaults and parses the same parser again.
    import inspect

    assert not inspect.signature(build_parser).parameters


def test_marginal_mesh_limit_refused_before_any_suite(capsys):
    # verify all ran seven suites (about 1 s) before the marginals suite refused.
    for argv in (["verify", "all", "--nodes", "100000"], ["verify", "all", "--nodes", "0"]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 0.5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
    # Suites that take no nodes do not check them.
    assert main(["verify", "positivity", "--nodes", "100000"]) == 0


def test_q_check_refuses_nmax_before_any_record():
    # The library checks the index range itself: the first draw raises, no record comes.
    for suite, nmax, message in (("idb", 7, "must lie in 0..6, got 7"),
                                 ("chi1t", -1, "must lie in 0..5, got -1"),
                                 ("d2", 0, "must lie in 1..8, got 0"),
                                 ("final-identity", 0, "takes no --nmax")):
        with pytest.raises(DomainError, match=message):
            next(camp.q_check(suite, [Fraction(1, 3)], nmax, 0))


def test_campaign_refusals_are_typed(capsys):
    # An --nmax out of range and an unknown suite are ChebsumErrors: the CLI
    # prints them as "error:" and exits 2, as it did when they were ValueErrors.
    assert main(["q", "check", "--suite", "idb", "--q", "1/3", "--nmax", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --nmax for --suite idb must lie in 0..6, got 20\n"
    with pytest.raises(UnknownId, match="unknown suite 'bogus'; choose from w, chi-forms"):
        camp.run_campaign(camp.Campaign("bogus"))


def test_float_q_checks_refuse_where_truncation_cannot_decide(capsys):
    # Near q = 1 the truncated sides differ by more than tol, and so may their
    # truncations: these printed a false FAIL with exit 1 (chi1t at q = 0.9:
    # abs_err 4.3e-3 at t = 1, within its bound 1.4e-2).
    for suite, q in (("chi1t", "0.999"), ("final-identity", "0.999"), ("chi1t", "0.9")):
        assert main(["q", "check", "--suite", suite, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "truncation bound" in captured.err
    # Where the bound is within tol the check still decides: at q = 0.9 final-identity passes.
    assert main(["q", "check", "--suite", "final-identity", "--q", "0.9"]) == 0
