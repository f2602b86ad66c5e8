"""Command-line front end.

Machine-readable JSON goes to stdout (or --json PATH); the human summary
goes to stderr.  Exit status: 0 on success/pass, 1 on verification failure,
2 on usage or domain errors.  Reports are reproducible byte for byte for a
fixed --seed.  Campaigns run in one process; ``verify`` accepts --jobs N
and ignores it.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import campaign as camp
from .denom import build_w
from .errors import ChebsumError
from .genfun import GenSpec, chi_closed, chi_closed_value, chi_series_oracle_grid
from .kibble import (CorrMatrix, _check_unit, kibble_closed_eval, kibble_denominator,
                     kibble_series_oracle)
from .qseries import conjecture_probe


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _parse_rho_pairs(text: str, value=float) -> dict[tuple[int, int], object]:
    """Pair list like 12=0.6,13=0.8 (values parsed by ``value``); "" gives {}."""
    out = {}
    for item in text.split(",") if text else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if len(key) != 2 or not key.isdigit():
            raise ValueError(f"pair key must be two digits ij, got {key!r}")
        out[(int(key[0]), int(key[1]))] = value(val)
    return out


def _emit(args, text: str) -> None:
    if getattr(args, "json_path", None):
        with open(args.json_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path", default=None,
                   help="write machine output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chebsum",
                                  description="closed forms and oracles for "
                                              "Chebyshev generating sums")
    top.add_argument("--config", default=None,
                     help="JSON file of flag defaults; explicit flags win")
    sub = top.add_subparsers(dest="command", required=True)

    w = sub.add_parser("w", help="denominator polynomials")
    wsub = w.add_subparsers(dest="action", required=True)
    wb = wsub.add_parser("build")
    wb.add_argument("--n", type=int, required=True)
    _common_flags(wb)
    wc = wsub.add_parser("check")
    _common_flags(wc)

    chi = sub.add_parser("chi", help="mixed generating functions")
    csub = chi.add_subparsers(dest="action", required=True)
    cp = {}
    for action in ("build", "eval", "verify"):
        p = cp[action] = csub.add_parser(action)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=str, default="")
        _common_flags(p)
    cp["eval"].add_argument("--x", type=str, required=True)
    cp["eval"].add_argument("--rho", type=float, required=True)
    cp["verify"].add_argument("--tol", type=float, default=1e-8)
    cp["verify"].add_argument("--trials", type=int, default=50)
    cp["verify"].add_argument("--rho-max", type=float, default=0.5)
    cp["verify"].add_argument("--order", type=int, default=200)

    kb = sub.add_parser("kibble", help="correlation-matrix lattice sums")
    ksub = kb.add_subparsers(dest="action", required=True)
    ke = ksub.add_parser("eval")
    ke.add_argument("--kind", choices=["T", "U"], required=True)
    ke.add_argument("--x", type=str, required=True)
    ke.add_argument("--rho", type=str, required=True,
                    help="pair list like 12=0.6,13=0.8,23=0.9")
    ke.add_argument("--oracle-cutoff", type=int, default=0,
                    help="also sum the truncated lattice to this cutoff")
    _common_flags(ke)
    kv = ksub.add_parser("verify")
    kv.add_argument("--trials", type=int, default=50)
    kv.add_argument("--cutoff", type=int, default=40)
    _common_flags(kv)
    kd = ksub.add_parser("denominator")
    kd.add_argument("--n", type=int, required=True)
    kd.add_argument("--rho", type=str, default="",
                    help="pair list; entries are exact rationals like 12=1/2")
    kd.add_argument("--symbolic", action="store_true")
    _common_flags(kd)

    q = sub.add_parser("q", help="q-deformed families and identities")
    qsub = q.add_subparsers(dest="action", required=True)
    qc = qsub.add_parser("check")
    qc.add_argument("--suite", required=True,
                    choices=["duality", "idb", "chi1t", "d2", "final-identity"])
    qc.add_argument("--q", type=str, default="1/3", help="comma list of rationals")
    qc.add_argument("--nmax", type=int, default=None,
                    help="largest index checked; default and limit per suite: "
                         "duality 10 (no limit), idb 6, chi1t 5, d2 8 (from 1); "
                         "final-identity takes none")
    _common_flags(qc)
    qp = qsub.add_parser("probe")
    qp.add_argument("--conjecture", required=True,
                    choices=["beta", "common-denominator"])
    qp.add_argument("--q", type=str, default="1/2,1/3,2/5,3/7")
    qp.add_argument("--nmax", type=int, default=8)
    qp.add_argument("--rho-order", type=int, default=12)
    _common_flags(qp)

    v = sub.add_parser("verify", help="verification campaigns")
    v.add_argument("what", choices=["all", *camp.ALL_SUITES])
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--points", type=int, default=20)
    v.add_argument("--rho-max", type=float, default=0.5)
    v.add_argument("--order", type=int, default=150)
    v.add_argument("--cutoff", type=int, default=30)
    v.add_argument("--nodes", type=int, default=128)
    v.add_argument("--tol", type=float, default=1e-8,
                   help="bound of the chi-forms and chi-oracle suites; "
                        "the other suites use fixed bounds")
    v.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: campaigns run in one process")
    _common_flags(v)
    return top


def _cmd_w(args) -> int:
    if args.action == "build":
        w = build_w(args.n)
        _emit(args, camp.canonical_json(w.poly.to_json_dict()) + "\n")
        print(f"w_{args.n}: {len(w.poly.terms)} terms", file=sys.stderr)
        return 0
    rep = camp.run_campaign(camp.Campaign("w", seed=args.seed))
    _emit(args, camp.emit_ndjson([rep]))
    _human([rep])
    return 0 if rep.passed else 1


def _cmd_chi(args) -> int:
    t = _parse_int_list(args.t) or (0,) * (args.k + args.n)
    spec = GenSpec(args.k, args.n, t)
    if args.action == "build":
        rf = chi_closed(spec)
        payload = {"l": rf.numerator.to_json_dict(), "w": rf.denominator.to_json_dict()}
        _emit(args, camp.canonical_json(payload) + "\n")
        print(f"chi k={args.k} n={args.n} t={t}: numerator "
              f"{len(rf.numerator.terms)} terms", file=sys.stderr)
        return 0
    if args.action == "eval":
        xs = _parse_float_list(args.x)
        val = chi_closed_value(spec, xs, args.rho)
        _emit(args, camp.canonical_json({"value": val}) + "\n")
        return 0
    # single-spec verify: the oracle in one call over all trials
    camp.check_sampling(args.trials, args.rho_max, args.order, args.tol)
    rng = random.Random(f"{args.seed}:chi-verify")
    trials = [([rng.uniform(-1, 1) for _ in range(spec.slots)],
               rng.uniform(-args.rho_max, args.rho_max)) for _ in range(args.trials)]
    points, rhos = zip(*trials)
    series = chi_series_oracle_grid(spec, list(zip(*points)), rhos, args.order)
    worst, argmax = 0.0, None
    for (xs, rho), oracle in zip(trials, series):
        err = abs(chi_closed_value(spec, xs, rho) - float(oracle))
        if err > worst:
            worst, argmax = err, {"x": xs, "rho": rho}
    ok = worst <= args.tol
    _emit(args, camp.canonical_json({"max_abs_err": worst, "argmax_point": argmax,
                                     "pass": ok}) + "\n")
    print(f"chi verify k={args.k} n={args.n} t={t}: max err {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'})", file=sys.stderr)
    return 0 if ok else 1


def _cmd_kibble(args) -> int:
    if args.action == "denominator":
        K = CorrMatrix.from_dict(args.n, _parse_rho_pairs(args.rho, Fraction))
        p = kibble_denominator(K, symbolic=args.symbolic)
        _emit(args, camp.canonical_json(p.to_json_dict()) + "\n")
        return 0
    if args.action == "eval":
        xs = _parse_float_list(args.x)
        K = CorrMatrix.from_dict(len(xs), _parse_rho_pairs(args.rho))
        _check_unit(xs)  # before acos
        alphas = [math.acos(v) for v in xs]
        closed = kibble_closed_eval(args.kind, alphas, K)
        payload = {"kind": args.kind, "x": xs, "closed": closed}
        if args.oracle_cutoff:
            payload["oracle"] = kibble_series_oracle(args.kind, xs, K,
                                                     args.oracle_cutoff)
        _emit(args, camp.canonical_json(payload) + "\n")
        return 0
    rep = camp.run_campaign(camp.Campaign("kibble", trials=args.trials,
                                          seed=args.seed, cutoff=args.cutoff))
    _emit(args, camp.emit_ndjson([rep]))
    _human([rep])
    return 0 if rep.passed else 1


# q check --nmax per suite: (smallest, default, largest); final-identity takes none.
_Q_NMAX = {"duality": (0, 10, math.inf), "idb": (0, 6, 6), "chi1t": (0, 5, 5), "d2": (1, 8, 8)}


def _cmd_q(args) -> int:
    qs = [Fraction(v) for v in args.q.split(",")]
    if args.action == "probe":
        if args.conjecture == "beta":
            if args.nmax < 2:
                raise ValueError(f"--nmax for --conjecture beta must be >= 2, got {args.nmax}")
            records = [conjecture_probe("beta-expansion", n=n, q_values=qs)
                       for n in range(2, args.nmax + 1)]
        else:
            records = [conjecture_probe("common-denominator", n_h=nh, m_t=mt, q=qs[0],
                                        rho_order=args.rho_order)
                       for nh, mt in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
        _emit(args, "\n".join(camp.canonical_json(r) for r in records) + "\n")
        return 0
    low, nmax, high = _Q_NMAX.get(args.suite, (None, None, None))
    if args.nmax is not None:
        if low is None:
            raise ValueError(f"--suite {args.suite} takes no --nmax")
        if not low <= args.nmax <= high:
            raise ValueError(f"--nmax for --suite {args.suite} must lie in "
                             f"{low}..{high}, got {args.nmax}")
        nmax = args.nmax
    records = list(camp.q_check(args.suite, qs, nmax, args.seed))
    ok = all(r["pass"] for r in records)
    _emit(args, "\n".join(camp.canonical_json(r) for r in records) + "\n")
    print(f"q check {args.suite}: {'PASS' if ok else 'FAIL'} "
          f"({len(records)} records)", file=sys.stderr)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    suites = list(camp.ALL_SUITES) if args.what == "all" else [args.what]
    reports = []
    for s in suites:
        reports.append(camp.run_campaign(camp.Campaign(
            s, trials=args.trials, points=args.points, seed=args.seed,
            rho_max=args.rho_max, order=args.order, tol=args.tol,
            cutoff=args.cutoff, nodes=args.nodes)))
    _emit(args, camp.emit_ndjson(reports))
    _human(reports)
    return 0 if all(r.passed for r in reports) else 1


def _human(reports) -> None:
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.suite}: {len(rep.records)} cases, {rep.failures} failures, "
              f"{status} ({rep.elapsed:.2f}s)", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # Config file supplies defaults; explicit flags win because they are
        # parsed afterwards.
        if "--config" in argv:
            at = argv.index("--config")
            if at + 1 == len(argv):
                parser.error("argument --config: expected one argument")
            try:
                with open(argv[at + 1]) as fh:
                    config = json.load(fh)
            except (OSError, ValueError) as exc:
                parser.error(f"argument --config: cannot load {argv[at + 1]}: {exc}")
            if not isinstance(config, dict):
                parser.error(f"argument --config: {argv[at + 1]} must hold a JSON object")
            parser.set_defaults(**config)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "w":
            return _cmd_w(args)
        if args.command == "chi":
            return _cmd_chi(args)
        if args.command == "kibble":
            return _cmd_kibble(args)
        if args.command == "q":
            return _cmd_q(args)
        return _cmd_verify(args)
    except ChebsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
