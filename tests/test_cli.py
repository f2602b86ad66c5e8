"""CLI behavior: subcommands, exit codes, schemas, byte determinism."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from chebsum.cli import main

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


def test_q_check_bytes_pinned(tmp_path):
    # Pinned bytes of every q check suite at three q values, one seed.
    text = "".join(run(["q", "check", "--suite", suite, "--q", "1/3,-2/7,5/11",
                        "--seed", "4"], tmp_path, name=f"{suite}.json")[1]
                   for suite in ("duality", "idb", "chi1t", "d2", "final-identity"))
    assert len(text.splitlines()) == 267
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3097486bbb06a66271add58165286a0113094f885172d6ca69004d01ec2af7a1")


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "points": 5, "seed": 7, "nodes": 128}))
    _, a = run(["verify", "positivity", "--trials", "3", "--points", "5",
                "--seed", "7", "--nodes", "128"], tmp_path, name="a.json")
    _, b = run(["--config", str(cfg), "verify", "positivity"], tmp_path,
               name="b.json")
    assert a == b
    # Explicit flags win over the config file.
    _, c = run(["--config", str(cfg), "verify", "positivity", "--seed", "9"],
               tmp_path, name="c.json")
    assert c == a  # positivity cases are seed-independent grids


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


def test_unread_flags_exit_2():
    # kibble verify samples n = 2..5 and has no --n; --tol is taken only where
    # a bound reads it (chi verify, verify).
    assert main(["kibble", "verify", "--trials", "1", "--n", "3"]) == 2
    assert main(["w", "check", "--tol", "1e-300"]) == 2
    assert main(["kibble", "verify", "--trials", "1", "--tol", "1e-300"]) == 2
    assert main(["chi", "eval", "--k", "0", "--n", "1", "--x", "0.5", "--rho", "0.5",
                 "--tol", "1e-3"]) == 2
    assert main(["q", "check", "--suite", "d2", "--tol", "1e-3"]) == 2


def test_stdout_without_json_flag(capsys):
    code = main(["chi", "eval", "--k", "1", "--n", "0", "--t", "0",
                 "--x", "0.5", "--rho", "0.25"])
    assert code == 0
    out = capsys.readouterr().out
    val = json.loads(out)["value"]
    want = (1 - 0.25 * 0.5) / (1 - 2 * 0.25 * 0.5 + 0.25 ** 2)
    assert val == pytest.approx(want, abs=1e-12)
