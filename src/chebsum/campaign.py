"""Verification campaigns: reproducible suites, records, reports.

Each suite is a generator that yields its records in a fixed order, and
every random draw comes from a generator seeded by (seed, suite, tag), so a
campaign is fully determined by (suite, params).  ``run_campaign`` numbers
the records of one suite.  Campaigns run in one process, so the caches of
denominators, Chebyshev polynomials and numerators carry over from one suite
to the next.  ``q_check`` yields the records of ``chebsum q check``; the q
suite runs two of its checks.  Records are emitted as newline-delimited JSON
with sorted keys and compact separators, so identical parameters (including
the seed) produce byte-identical output.  Timing is kept out of the machine
records and reported only on the human side.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import cheb, denom, forms, genfun, kibble, poly, qseries
from .errors import DomainError

ALL_SUITES = ("w", "chi-forms", "chi-oracle", "three-path", "formal-series",
              "kibble", "positivity", "marginals", "q")


@dataclass(frozen=True)
class Campaign:
    """Knobs for one verification run."""

    suite: str
    trials: int = 20
    points: int = 50
    seed: int = 0
    rho_max: float = 0.5
    order: int = 200
    tol: float = 1e-8
    cutoff: int = 40
    nodes: int = 128

    def __post_init__(self):
        check_sampling(self.trials, self.rho_max, self.order, self.tol)
        if self.points < 1:
            raise DomainError("points must be >= 1")
        if self.suite == "marginals":  # before any suite of a run starts: (3, 3) needs the most
            genfun.check_marginal(3, 3, self.nodes)


def check_sampling(trials: int, rho_max: float, order: int, tol: float) -> None:
    """Raise DomainError unless trials >= 1, 0 < rho_max < 1, order >= 0 and 0 < tol < inf."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not 0 < rho_max < 1:
        raise DomainError("rho_max must lie in (0, 1)")
    if order < 0:
        raise DomainError("order must be >= 0")
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")


def _rng(c: Campaign, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (c.seed, c.suite) + tags))


def _rec(name: str, passed: bool, **extra) -> dict:
    return {"name": name, "pass": bool(passed), **extra}


# --------------------------------------------------------------------- suites


_KN_PAIRS = [(k, n) for total in range(1, 5) for k in range(total + 1)
             for n in [total - k]]
_KN_SMALL = [(k, n) for (k, n) in _KN_PAIRS if k + n <= 3]


def _w(c: Campaign):
    rho = poly.Poly.variable("rho")
    x1, x2 = poly.Poly.variable("x1"), poly.Poly.variable("x2")
    got = denom.build_w(1).poly
    yield _rec("w1-exact", got == 1 - 2 * rho * x1 + rho ** 2, terms=len(got.terms))
    got = denom.build_w(2).poly
    want = (1 - rho ** 2) ** 2 - 4 * x1 * x2 * rho * (1 + rho ** 2) \
        + 4 * rho ** 2 * (x1 ** 2 + x2 ** 2)
    yield _rec("w2-exact", got == want, terms=len(got.terms))
    got = denom.build_w(3).poly
    yield _rec("w3-exact", got == _w3_transcription(), terms=len(got.terms))
    for n in range(1, 5):
        ok = denom.build_w_recursive(n).poly == denom.build_w(n).poly
        yield _rec(f"recursive-equals-direct-n{n}", ok)
    yield _rec("specialize-x1-n2",
               denom.w_specialize_one(2) == (1 - 2 * rho * x2 + rho ** 2) ** 2)
    yield _rec("specialize-x1-n3", denom.w_specialize_one(3) == denom.w_shifted(2) ** 2)
    ok = True
    for n in range(2, 5):
        w = denom.build_w(n).poly
        for a in range(1, n):
            swapped = w.rename({f"x{a}": "x9"}).rename({f"x{a + 1}": f"x{a}"}) \
                       .rename({"x9": f"x{a + 1}"})
            ok = ok and swapped == w
        ok = ok and w.degree("rho") == 2 ** n
        ok = ok and all(w.degree(f"x{j}") == 2 ** (n - 1) for j in range(1, n + 1))
    yield _rec("symmetry-and-degrees-n2-4", ok)


def _w3_transcription() -> poly.Poly:
    x1, x2, x3 = (poly.Poly.variable(v) for v in ("x1", "x2", "x3"))
    rho = poly.Poly.variable("rho")
    s2 = x1 ** 2 + x2 ** 2 + x3 ** 2
    s4 = x1 ** 4 + x2 ** 4 + x3 ** 4
    p22 = x1 ** 2 * x2 ** 2 + x1 ** 2 * x3 ** 2 + x2 ** 2 * x3 ** 2
    xyz = x1 * x2 * x3
    return (16 * rho ** 4 * s4 - 8 * rho ** 2 * (1 + rho ** 2) ** 2 * s2
            + 16 * rho ** 2 * (1 + rho ** 4) * p22 + 64 * rho ** 4 * xyz ** 2
            - 32 * rho ** 3 * (1 + rho ** 2) * xyz * s2
            - 8 * rho * (1 + rho ** 2) * (1 + rho ** 4 - 6 * rho ** 2) * xyz
            + (1 + rho ** 2) ** 4)


_FORM_CASES: list[tuple[str, dict]] = (
    [(fid, {}) for fid in ("_1_T", "_1_U", "_2", "_3", "_4",
                           "tri_TTT", "tri_UUU", "tri_TUU", "tri_TTU")]
    + [("shifted_T", {"m": m}) for m in range(5)]
    + [("shifted_U", {"m": m}) for m in range(5)]
    + [(fid, {"n": n, "m": m}) for fid in ("shifted_TT", "shifted_UU", "shifted_UT")
       for n in range(3) for m in range(3)]
)

# Transcriptions that must match the convolution numerator exactly; the rest
# are diff reports whose binding check is oracle agreement.
_FORM_EXACT = {"_1_T", "_1_U", "_2", "_3", "_4", "tri_TTT", "tri_UUU", "tri_TUU",
               "tri_TTU", "shifted_T", "shifted_U"}


def _chi_forms(c: Campaign):
    for i, (fid, shifts) in enumerate(_FORM_CASES):
        cmp = forms.compare_form(fid, **shifts)
        name = fid + "".join(f"-{k}{v}" for k, v in sorted(shifts.items()))
        if fid in _FORM_EXACT:
            yield _rec(name, cmp.matches, matches=cmp.matches,
                       diff_terms=len(cmp.difference.terms))
            continue
        # Printed display may deviate; bind the case to oracle agreement instead.
        worst = _closed_vs_oracle_worst(cmp.spec, _rng(c, "forms", i), points=8,
                                        rho_max=c.rho_max, order=c.order)
        yield _rec(name, worst <= c.tol, matches=cmp.matches,
                   diff_terms=len(cmp.difference.terms),
                   swapped_matches=cmp.swapped_matches, abs_err=worst, bound=c.tol)


def _closed_vs_oracle_worst(spec: genfun.GenSpec, rng: random.Random,
                            points: int, rho_max: float, order: int) -> float:
    import numpy as np

    K = spec.slots
    xs = [np.array([rng.uniform(-1, 1) for _ in range(points)]) for _ in range(K)]
    rhos = np.array([rng.uniform(-rho_max, rho_max) for _ in range(points)])
    closed = genfun.chi_closed_values_grid(spec, xs, rhos)
    series = genfun.chi_series_oracle_grid(spec, xs, rhos, order)
    return float(np.max(np.abs(closed - series)))


def _chi_oracle(c: Campaign):
    for i in range(c.trials):
        rng = _rng(c, i)
        k, n = _KN_PAIRS[i % len(_KN_PAIRS)]
        t = tuple(rng.randint(-2, 2) for _ in range(k + n))
        worst = _closed_vs_oracle_worst(genfun.GenSpec(k, n, t), rng, c.points,
                                        c.rho_max, c.order)
        yield _rec(f"chi-k{k}-n{n}", worst <= c.tol, t=list(t), abs_err=worst,
                   bound=c.tol, points=c.points, order=c.order)


def _three_path(c: Campaign):
    tol = 1e-10
    for i, (k, n) in enumerate(_KN_SMALL):
        rng = _rng(c, i)
        worst = 0.0
        for _ in range(c.trials):
            t = tuple(rng.randint(-2, 2) for _ in range(k + n))
            spec = genfun.GenSpec(k, n, t)
            alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(k + n)]
            xs = [math.cos(a) for a in alphas]
            rho = rng.uniform(-c.rho_max, c.rho_max)
            closed = genfun.chi_closed_value(spec, xs, rho)
            angle = genfun.chi_angle_eval(spec, alphas, rho)
            worst = max(worst, abs(closed - angle))
        yield _rec(f"paths-k{k}-n{n}", worst <= tol, abs_err=worst, bound=tol,
                   tuples=c.trials)


def _formal_series(c: Campaign):
    for i, (k, n) in enumerate(_KN_SMALL):
        rng = _rng(c, 2 * i + 1)
        for t in ((0,) * (k + n), tuple(rng.randint(-2, 2) for _ in range(k + n))):
            spec = genfun.GenSpec(k, n, t)
            top = 2 ** (k + n) + 8
            ok = all(genfun.series_convolution_residual(spec, r).is_zero()
                     for r in range(2 ** (k + n), top + 1))
            yield _rec(f"series-k{k}-n{n}", ok, t=list(t), orders=top)


def _kibble_random(rng: random.Random, n: int, kind: str, band: float,
                   cutoff: int, bound: float) -> dict:
    """Closed form against the lattice oracle at one seeded matrix and point."""
    pairs = {(a, b): rng.uniform(-band, band) for a in range(1, n + 1)
             for b in range(a + 1, n + 1)}
    K = kibble.CorrMatrix.from_dict(n, pairs)
    alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(n)]
    xs = [math.cos(a) for a in alphas]
    err = abs(kibble.kibble_closed_eval(kind, alphas, K)
              - kibble.kibble_series_oracle(kind, xs, K, cutoff))
    return _rec(f"n{n}-{kind}", err <= bound, abs_err=err, bound=bound, cutoff=cutoff)


def _kibble(c: Campaign):
    for i, kind in enumerate("TU"):
        rng = _rng(c, i)
        spec = genfun.GenSpec(2, 0, (0, 0)) if kind == "T" else genfun.GenSpec(0, 2, (0, 0))
        worst = 0.0
        for _ in range(10):
            r = rng.uniform(-0.8, 0.8)
            K = kibble.CorrMatrix.from_dict(2, {(1, 2): r})
            a = [rng.uniform(0.2, 2.9) for _ in range(2)]
            xs = [math.cos(v) for v in a]
            f = kibble.kibble_closed_eval(kind, a, K)
            worst = max(worst, abs(f - genfun.chi_closed_value(spec, xs, r)))
        yield _rec(f"n2-reduction-{kind}", worst <= 1e-10, abs_err=worst, bound=1e-10)
    for j in range(c.trials):
        yield _kibble_random(_rng(c, 2 + j), 3, "TU"[j % 2], 0.3, c.cutoff, 1e-7)
    K = kibble.CorrMatrix.from_dict(3, {(1, 2): 0.6, (1, 3): 0.8, (2, 3): 0.9})
    xs = [-0.9, -0.95, 0.94]
    target = -0.0912121
    got = kibble.kibble_closed_eval("U", [math.acos(v) for v in xs], K)
    yield _rec("counterexample-closed", abs(got - target) <= 1e-4, got=got,
               expected=target, bound=1e-4)
    got = kibble.kibble_series_oracle("U", xs, K, 300)
    yield _rec("counterexample-oracle", abs(got - target) <= 1e-4, got=got,
               expected=target, bound=1e-4)
    cmp = kibble.f_U3_compare(*xs, 0.6, 0.8, 0.9)
    # The printed display deviates; the record documents by how much and
    # confirms the symmetrized reading matches the closed evaluator.
    yield _rec("published-fU3-report", cmp.symmetrized_deviation <= 1e-10,
               published=cmp.published, closed=cmp.closed, symmetrized=cmp.symmetrized,
               published_deviation=cmp.published_deviation,
               symmetrized_deviation=cmp.symmetrized_deviation)
    per = max(1, c.trials // 5)
    for j in range(2 * per):
        yield _kibble_random(_rng(c, 5 + c.trials + j), 4 if j < per else 5,
                             "TU"[j % 2], 0.2, 25, 1e-6)


def _positivity(c: Campaign):
    for n in range(1, 4):
        lo = genfun.positivity_grid_min(n)
        yield _rec(f"chi-n{n}-nonnegative", lo >= -1e-12, minimum=lo)


def _marginals(c: Campaign):
    for n, j in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        rep = genfun.marginal_check(n, j, nodes=c.nodes)
        yield _rec(f"marginal-n{n}-j{j}", rep.passed, abs_err=rep.max_abs_dev_from_one,
                   bound=rep.tol, dev_from_lower_order=rep.max_abs_dev_from_lower_order,
                   nodes=c.nodes)


_Q_SET = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 5))


def _q(c: Campaign):
    F = Fraction
    yield _rec("d-equals-b-n12",
               all(r["pass"] for r in q_check("duality", _Q_SET, 12, c.seed)))
    ok = True
    for qv in _Q_SET:
        ctx = qseries.QContext(qv)
        qi = 1 / qv
        x = poly.Poly.variable("x1")
        h_inv = cheb.recur([None] * 13, x ** 0, 2 * x,  # h_n(x | 1/q), n <= 12
                           lambda m, p1, p0: 2 * x * p1 - (1 - qi ** m) * p0)
        for n, h in enumerate(h_inv):
            want = F(-1) ** n * qv ** (n * (n - 1) // 2) * h
            ok = ok and qseries.hb_poly(ctx, "b", n) == want
    yield _rec("b-h-duality-n12", ok)
    yield _rec("idb-n6-k8", all(r["pass"] for r in q_check("idb", [F(1, 2)], 6, c.seed)))
    ok = True
    for qv in (F(1, 2), F(-1, 3)):
        ctx = qseries.QContext(qv)
        q = ctx.q
        b = lambda n, v="x1": (qseries.hb_poly(ctx, "b", n) if v == "x1"
                               else qseries.hb_poly(ctx, "b", n).rename({"x1": v}))
        ok = ok and qseries.d2_coeff(ctx, 1) == -(b(1) * b(1, "x2"))
        ok = ok and qseries.d2_coeff(ctx, 2) == (b(2) * b(2, "x2") - (1 - q ** 2)) * (1 / q)
        ok = ok and qseries.d2_coeff(ctx, 3) == -(b(3) * b(3, "x2")
                - q ** 2 * (ctx.qq(3) / ctx.qq(1) ** 2) * b(1) * b(1, "x2")) * (1 / q ** 3)
        ok = ok and qseries.d2_coeff(ctx, 4) == (b(4) * b(4, "x2")
                - q ** 4 * (ctx.qq(4) / (ctx.qq(1) * ctx.qq(2))) * b(2) * b(2, "x2")
                + q ** 5 * ctx.qq(4) / ctx.qq(2)) * (1 / q ** 6)
    yield _rec("d2-printed-displays", ok)
    rng = _rng(c, 4)
    reps = [qseries.chi1t_check(qseries.QContext(F(1, 4)), t,
                                rng.uniform(-0.9, 0.9), rng.uniform(-0.6, 0.6)) for t in range(6)]
    # Every report is asked (a list, not a generator), so any undecidable one refuses.
    yield _rec("chi1t-t5", all([r.passes(1e-9) for r in reps]),
               abs_err=max(r.abs_diff for r in reps), bound=1e-9)
    rng = _rng(c, 5)
    reps = [qseries.final_identity_check(qseries.QContext(F(rng.randint(-6, 6) or 1, 11)),
                                         rng.uniform(-1, 1), rng.uniform(-1, 1),
                                         rng.uniform(-0.25, 0.25)) for _ in range(20)]
    yield _rec("final-identity-20pts", all([r.passes(1e-8) for r in reps]),
               abs_err=max(r.abs_diff for r in reps), bound=1e-8)
    probe = qseries.conjecture_probe("beta-expansion", n=2,
                                     q_values=[F(1, 2), F(1, 3), F(2, 5), F(3, 7)])
    ok = probe["verdict"] == "REPRESENTABLE"
    for row in probe["per_q"]:
        qv = F(row["q"])
        ok = ok and F(row["beta"][0]) == 1 and F(row["beta"][1]) == -(1 - qv ** 2)
    yield _rec("beta-n2-exact", ok, fits=probe["beta_fits_in_q"])
    ok = True
    for qv in (F(1, 2), F(1, 3)):
        ctx = qseries.QContext(qv)
        p3 = qseries.conjecture_probe("beta-expansion", n=3, q_values=[qv])
        ok = ok and F(p3["per_q"][0]["beta"][1]) == -qv ** 2 * ctx.qq(3) / ctx.qq(1) ** 2
        p4 = qseries.conjecture_probe("beta-expansion", n=4, q_values=[qv])
        ok = ok and F(p4["per_q"][0]["beta"][1]) == -qv ** 4 * ctx.qq(4) / (ctx.qq(1) * ctx.qq(2))
        ok = ok and F(p4["per_q"][0]["beta"][2]) == qv ** 5 * ctx.qq(4) / ctx.qq(2)
    yield _rec("beta-n3-n4-printed", ok)
    verdicts = {str(n): qseries.conjecture_probe("beta-expansion", n=n,
                                                 q_values=[F(1, 2), F(1, 3)])["verdict"]
                for n in range(5, 9)}
    yield _rec("beta-n5-8-verdicts", all(v == "REPRESENTABLE" for v in verdicts.values()),
               verdicts=verdicts)
    rep = qseries.fh_integral_check(qseries.QContext(F(1, 2)))
    yield _rec("fh-integrates-to-1", rep.passes(1e-9), abs_err=rep.abs_diff, bound=1e-9)
    ctx = qseries.QContext(F(1, 2))
    polys = [qseries.tn_construct(ctx, n).poly for n in range(9)]
    worst = max(abs(float(qseries.ft_inner_product(ctx, polys[a] * polys[bb])))
                for a in range(9) for bb in range(a))
    yield _rec("tn-gram-diagonal", worst <= 1e-8, abs_err=worst, bound=1e-8)
    probe = qseries.conjecture_probe("common-denominator", n_h=1, m_t=0)
    ok = probe["all_above_vanish"]
    probe2 = qseries.conjecture_probe("common-denominator", n_h=2, m_t=0)
    persisting = [r["order"] for r in probe2["coefficients"] if r["persists"]]
    yield _rec("common-denominator-probe", ok, pure_h_vanishes=ok,
               hh_persisting_orders=persisting)


# q check's nmax per suite: (smallest, default, largest); final-identity takes none.
_Q_NMAX = {"duality": (0, 10, math.inf), "idb": (0, 6, 6), "chi1t": (0, 5, 5), "d2": (1, 8, 8)}


def q_check(suite: str, qs, nmax: int | None, seed: int):
    """Yield the records of ``chebsum q check --suite SUITE``, q by q.

    nmax None is the suite's default in ``_Q_NMAX``; one outside the suite's
    range, or any for final-identity, raises ValueError before the first
    record.  The d2 and final-identity points are drawn from ``seed``.
    """
    low, default, high = _Q_NMAX.get(suite, (None, None, None))
    if nmax is not None and (low is None or not low <= nmax <= high):
        raise ValueError(f"--suite {suite} takes no --nmax" if low is None else
                         f"--nmax for --suite {suite} must lie in {low}..{high}, got {nmax}")
    nmax = default if nmax is None else nmax
    for qv in qs:
        ctx = qseries.QContext(qv)
        if suite == "duality":
            for n in range(nmax + 1):
                yield {"suite": "duality", "q": str(qv), "n": n,
                       "pass": qseries.d_coeff(ctx, n) == qseries.hb_poly(ctx, "b", n)}
        elif suite == "idb":
            for n in range(nmax + 1):
                for k in range(9):
                    yield {"suite": "idb", "q": str(qv), "n": n, "k": k,
                           "pass": qseries.idb_check(ctx, n, k).passed}
        elif suite == "chi1t":
            for t in range(nmax + 1):
                rep = qseries.chi1t_check(ctx, t, 0.3, 0.4)
                yield {"suite": "chi1t", "q": str(qv), "t": t, "abs_err": rep.abs_diff,
                       "pass": rep.passes(1e-9)}
        elif suite == "d2":
            # d2_n expanded exactly, against the product form at two seeded points.
            rng = random.Random(f"{seed}:d2:{qv}")
            points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
            values = [qseries.d2_values(ctx, x, y, nmax + 1) for x, y in points]
            for n in range(1, nmax + 1):
                p = qseries.d2_coeff(ctx, n)
                # The point nearest to (or furthest past) its bound is recorded.
                err, bound = max(((abs(p.eval({"x1": x, "x2": y}) - v[n]),
                                   1e-9 * max(1.0, abs(v[n])))
                                  for (x, y), v in zip(points, values)),
                                 key=lambda eb: eb[0] / eb[1])
                yield {"suite": "d2", "q": str(qv), "n": n, "terms": len(p.terms),
                       "abs_err": err, "bound": bound, "pass": err <= bound}
        else:  # final-identity
            rng = random.Random(f"{seed}:final:{qv}")
            reps = [qseries.final_identity_check(ctx, rng.uniform(-1, 1), rng.uniform(-1, 1),
                                                 rng.uniform(-0.25, 0.25)) for _ in range(10)]
            yield {"suite": "final-identity", "q": str(qv), "abs_err": max(r.abs_diff for r in reps),
                   "pass": all([r.passes(1e-8) for r in reps])}


_SUITES = {"w": _w, "chi-forms": _chi_forms, "chi-oracle": _chi_oracle,
           "three-path": _three_path, "formal-series": _formal_series, "kibble": _kibble,
           "positivity": _positivity, "marginals": _marginals, "q": _q}


@dataclass
class Report:
    """All case records of one suite plus the aggregate verdict."""

    suite: str
    records: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.records)

    @property
    def failures(self) -> int:
        return sum(not r["pass"] for r in self.records)

    def summary(self) -> dict:
        return {"suite": self.suite, "summary": True, "cases": len(self.records),
                "failures": self.failures, "pass": self.passed}


def run_campaign(campaign: Campaign) -> Report:
    """Run every case of a suite in order, in this process, numbering them."""
    import time

    if campaign.suite not in _SUITES:
        raise ValueError(f"unknown suite {campaign.suite!r}; "
                         f"choose from {', '.join(ALL_SUITES)}")
    t0 = time.perf_counter()
    records = [{"suite": campaign.suite, "case": i, **rec}
               for i, rec in enumerate(_SUITES[campaign.suite](campaign))]
    return Report(campaign.suite, records, time.perf_counter() - t0)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit_ndjson(reports: list[Report]) -> str:
    """Machine-readable campaign output: one record per line, then summaries."""
    lines = []
    for rep in reports:
        for rec in rep.records:
            lines.append(canonical_json(rec))
        lines.append(canonical_json(rep.summary()))
    return "\n".join(lines) + "\n"
