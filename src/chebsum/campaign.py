"""Verification campaigns: reproducible case generation, records, reports.

Every suite exposes a case count and a pure per-index case function, so a
campaign is fully determined by (suite, params).  Campaigns run in one
process: each suite computes its cases in index order, and the caches of
denominators, Chebyshev polynomials and numerators carry over from one
suite to the next.  Records are emitted as newline-delimited JSON with
sorted keys and compact separators, so identical parameters (including the
seed) produce byte-identical output.  Timing is kept out of the machine
records and reported only on the human side.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import denom, forms, genfun, kibble, poly, qseries

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
            raise ValueError("points must be >= 1")


def check_sampling(trials: int, rho_max: float, order: int, tol: float) -> None:
    """Raise ValueError unless trials >= 1, 0 < rho_max < 1, order >= 0 and tol > 0."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 < rho_max < 1:
        raise ValueError("rho_max must lie in (0, 1)")
    if order < 0:
        raise ValueError("order must be >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")


def _rng(c: Campaign, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (c.seed, c.suite) + tags))


def _rec(c: Campaign, case: int, name: str, passed: bool, **extra) -> dict:
    out = {"suite": c.suite, "case": case, "name": name, "pass": bool(passed)}
    for k, v in extra.items():
        if isinstance(v, Fraction):
            v = str(v)
        out[k] = v
    return out


# --------------------------------------------------------------------- suites


_KN_PAIRS = [(k, n) for total in range(1, 5) for k in range(total + 1)
             for n in [total - k]]
_KN_SMALL = [(k, n) for (k, n) in _KN_PAIRS if k + n <= 3]


def _w_cases(c: Campaign) -> int:
    return 10


def _w_case(c: Campaign, i: int) -> dict:
    rho = poly.Poly.variable("rho")
    x1, x2 = poly.Poly.variable("x1"), poly.Poly.variable("x2")
    if i == 0:
        got = denom.build_w(1).poly
        ok = got == 1 - 2 * rho * x1 + rho ** 2
        return _rec(c, i, "w1-exact", ok, terms=len(got.terms))
    if i == 1:
        got = denom.build_w(2).poly
        want = (1 - rho ** 2) ** 2 - 4 * x1 * x2 * rho * (1 + rho ** 2) \
            + 4 * rho ** 2 * (x1 ** 2 + x2 ** 2)
        return _rec(c, i, "w2-exact", got == want, terms=len(got.terms))
    if i == 2:
        got = denom.build_w(3).poly
        ok = got == _w3_transcription()
        return _rec(c, i, "w3-exact", ok, terms=len(got.terms))
    if 3 <= i <= 6:
        n = i - 2
        ok = denom.build_w_recursive(n).poly == denom.build_w(n).poly
        return _rec(c, i, f"recursive-equals-direct-n{n}", ok)
    if i == 7:
        ok = denom.w_specialize_one(2) == (1 - 2 * rho * x2 + rho ** 2) ** 2
        return _rec(c, i, "specialize-x1-n2", ok)
    if i == 8:
        ok = denom.w_specialize_one(3) == denom.w_shifted(2) ** 2
        return _rec(c, i, "specialize-x1-n3", ok)
    if i == 9:
        ok = True
        for n in range(2, 5):
            w = denom.build_w(n).poly
            for a in range(1, n):
                swapped = w.rename({f"x{a}": "x9"}).rename({f"x{a + 1}": f"x{a}"}) \
                           .rename({"x9": f"x{a + 1}"})
                ok = ok and swapped == w
            ok = ok and w.degree("rho") == 2 ** n
            ok = ok and all(w.degree(f"x{j}") == 2 ** (n - 1) for j in range(1, n + 1))
        return _rec(c, i, "symmetry-and-degrees-n2-4", ok)
    raise IndexError(i)


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
_FORM_EXACT = {("_1_T",), ("_1_U",), ("_2",), ("_3",), ("_4",),
               ("tri_TTT",), ("tri_UUU",), ("tri_TUU",), ("tri_TTU",),
               ("shifted_T",), ("shifted_U",)}


def _chi_forms_cases(c: Campaign) -> int:
    return len(_FORM_CASES)


def _chi_forms_case(c: Campaign, i: int) -> dict:
    fid, shifts = _FORM_CASES[i]
    cmp = forms.compare_form(fid, **shifts)
    name = fid + "".join(f"-{k}{v}" for k, v in sorted(shifts.items()))
    if (fid,) in _FORM_EXACT:
        return _rec(c, i, name, cmp.matches, matches=cmp.matches,
                    diff_terms=len(cmp.difference.terms))
    # Printed display may deviate; bind the case to oracle agreement instead.
    rng = _rng(c, "forms", i)
    worst = _closed_vs_oracle_worst(cmp.spec, rng, points=8, rho_max=c.rho_max,
                                    order=c.order)
    return _rec(c, i, name, worst <= c.tol, matches=cmp.matches,
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


def _chi_oracle_cases(c: Campaign) -> int:
    return c.trials


def _chi_oracle_case(c: Campaign, i: int) -> dict:
    rng = _rng(c, i)
    k, n = _KN_PAIRS[i % len(_KN_PAIRS)]
    t = tuple(rng.randint(-2, 2) for _ in range(k + n))
    spec = genfun.GenSpec(k, n, t)
    worst = _closed_vs_oracle_worst(spec, rng, c.points, c.rho_max, c.order)
    return _rec(c, i, f"chi-k{k}-n{n}", worst <= c.tol, t=list(t),
                abs_err=worst, bound=c.tol, points=c.points, order=c.order)


def _three_path_cases(c: Campaign) -> int:
    return len(_KN_SMALL)


def _three_path_case(c: Campaign, i: int) -> dict:
    k, n = _KN_SMALL[i]
    rng = _rng(c, i)
    worst = 0.0
    tuples = c.trials
    for _ in range(tuples):
        t = tuple(rng.randint(-2, 2) for _ in range(k + n))
        spec = genfun.GenSpec(k, n, t)
        alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(k + n)]
        xs = [math.cos(a) for a in alphas]
        rho = rng.uniform(-c.rho_max, c.rho_max)
        closed = genfun.chi_closed_value(spec, xs, rho)
        angle = genfun.chi_angle_eval(spec, alphas, rho)
        worst = max(worst, abs(closed - angle))
    tol = 1e-10
    return _rec(c, i, f"paths-k{k}-n{n}", worst <= tol, abs_err=worst,
                bound=tol, tuples=tuples)


def _formal_series_cases(c: Campaign) -> int:
    return 2 * len(_KN_SMALL)


def _formal_series_case(c: Campaign, i: int) -> dict:
    k, n = _KN_SMALL[i // 2]
    if i % 2 == 0:
        t = (0,) * (k + n)
    else:
        rng = _rng(c, i)
        t = tuple(rng.randint(-2, 2) for _ in range(k + n))
    spec = genfun.GenSpec(k, n, t)
    top = 2 ** (k + n) + 8
    ok = all(genfun.series_convolution_residual(spec, r).is_zero()
             for r in range(2 ** (k + n), top + 1))
    return _rec(c, i, f"series-k{k}-n{n}", ok, t=list(t), orders=top)


def _kibble_cases(c: Campaign) -> int:
    return 2 + c.trials + 3 + 2 * max(1, c.trials // 5)


def _kibble_case(c: Campaign, i: int) -> dict:
    rng = _rng(c, i)
    if i < 2:
        kind = "T" if i == 0 else "U"
        worst = 0.0
        for _ in range(10):
            r = rng.uniform(-0.8, 0.8)
            K = kibble.CorrMatrix.from_dict(2, {(1, 2): r})
            a = [rng.uniform(0.2, 2.9) for _ in range(2)]
            xs = [math.cos(v) for v in a]
            f = kibble.kibble_closed_eval(kind, a, K)
            spec = genfun.GenSpec(2, 0, (0, 0)) if kind == "T" else genfun.GenSpec(0, 2, (0, 0))
            worst = max(worst, abs(f - genfun.chi_closed_value(spec, xs, r)))
        return _rec(c, i, f"n2-reduction-{kind}", worst <= 1e-10, abs_err=worst,
                    bound=1e-10)
    i2 = i - 2
    if i2 < c.trials:
        pairs = {(a, b): rng.uniform(-0.3, 0.3) for a in range(1, 4)
                 for b in range(a + 1, 4)}
        K = kibble.CorrMatrix.from_dict(3, pairs)
        alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(3)]
        xs = [math.cos(a) for a in alphas]
        kind = "T" if i2 % 2 == 0 else "U"
        closed = kibble.kibble_closed_eval(kind, alphas, K)
        oracle = kibble.kibble_series_oracle(kind, xs, K, c.cutoff)
        err = abs(closed - oracle)
        return _rec(c, i, f"n3-{kind}", err <= 1e-7, abs_err=err, bound=1e-7,
                    cutoff=c.cutoff)
    i3 = i2 - c.trials
    if i3 < 3:
        K = kibble.CorrMatrix.from_dict(3, {(1, 2): 0.6, (1, 3): 0.8, (2, 3): 0.9})
        xs = [-0.9, -0.95, 0.94]
        target = -0.0912121
        if i3 == 0:
            got = kibble.kibble_closed_eval("U", [math.acos(v) for v in xs], K)
            return _rec(c, i, "counterexample-closed", abs(got - target) <= 1e-4,
                        got=got, expected=target, bound=1e-4)
        if i3 == 1:
            got = kibble.kibble_series_oracle("U", xs, K, 300)
            return _rec(c, i, "counterexample-oracle", abs(got - target) <= 1e-4,
                        got=got, expected=target, bound=1e-4)
        cmp = kibble.f_U3_compare(*xs, 0.6, 0.8, 0.9, cutoff=150)
        # The printed display deviates; the record documents by how much and
        # confirms the symmetrized reading matches the closed evaluator.
        ok = cmp.symmetrized_deviation <= 1e-10
        return _rec(c, i, "published-fU3-report", ok, published=cmp.published,
                    closed=cmp.closed, symmetrized=cmp.symmetrized,
                    published_deviation=cmp.published_deviation,
                    symmetrized_deviation=cmp.symmetrized_deviation)
    i4 = i3 - 3
    per = max(1, c.trials // 5)
    n = 4 if i4 < per else 5
    pairs = {(a, b): rng.uniform(-0.2, 0.2) for a in range(1, n + 1)
             for b in range(a + 1, n + 1)}
    K = kibble.CorrMatrix.from_dict(n, pairs)
    alphas = [rng.uniform(0.15, math.pi - 0.15) for _ in range(n)]
    xs = [math.cos(a) for a in alphas]
    kind = "T" if i4 % 2 == 0 else "U"
    closed = kibble.kibble_closed_eval(kind, alphas, K)
    oracle = kibble.kibble_series_oracle(kind, xs, K, 25)
    err = abs(closed - oracle)
    return _rec(c, i, f"n{n}-{kind}", err <= 1e-6, abs_err=err, bound=1e-6,
                cutoff=25)


def _positivity_cases(c: Campaign) -> int:
    return 3


def _positivity_case(c: Campaign, i: int) -> dict:
    n = i + 1
    lo = genfun.positivity_grid_min(n)
    return _rec(c, i, f"chi-n{n}-nonnegative", lo >= -1e-12, minimum=lo)


def _marginal_cases(c: Campaign) -> int:
    return 6


def _marginal_case(c: Campaign, i: int) -> dict:
    pairs = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    n, j = pairs[i]
    rep = genfun.marginal_check(n, j, nodes=c.nodes, tol=1e-9)
    return _rec(c, i, f"marginal-n{n}-j{j}", rep.passed,
                abs_err=rep.max_abs_dev_from_one, bound=rep.tol,
                dev_from_lower_order=rep.max_abs_dev_from_lower_order,
                nodes=c.nodes)


_Q_SET = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 5))


def _q_cases(c: Campaign) -> int:
    return 12


def _q_case(c: Campaign, i: int) -> dict:
    F = Fraction
    if i == 0:
        ok = True
        for qv in _Q_SET:
            ctx = qseries.QContext(qv)
            for n in range(13):
                ok = ok and qseries.d_coeff(ctx, n) == qseries.hb_poly(ctx, "b", n)
        return _rec(c, i, "d-equals-b-n12", ok)
    if i == 1:
        ok = True
        for qv in _Q_SET:
            ctx = qseries.QContext(qv)
            qi = 1 / qv
            x = poly.Poly.variable("x1")
            for n in range(13):
                p0, p1 = poly.Poly.const(1, ("x1",)), 2 * x
                for m in range(1, n):
                    p0, p1 = p1, 2 * x * p1 - (1 - qi ** m) * p0
                h_inv = p0 if n == 0 else p1
                want = F(-1) ** n * qv ** (n * (n - 1) // 2) * h_inv
                ok = ok and qseries.hb_poly(ctx, "b", n) == want
        return _rec(c, i, "b-h-duality-n12", ok)
    if i == 2:
        ctx = qseries.QContext(F(1, 2))
        ok = all(qseries.idb_check(ctx, n, k).passed
                 for n in range(7) for k in range(9))
        return _rec(c, i, "idb-n6-k8", ok)
    if i == 3:
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
        return _rec(c, i, "d2-printed-displays", ok)
    if i == 4:
        rng = _rng(c, i)
        worst = 0.0
        for t in range(6):
            rep = qseries.chi1t_check(qseries.QContext(F(1, 4)), t,
                                      rng.uniform(-0.9, 0.9),
                                      rng.uniform(-0.6, 0.6))
            worst = max(worst, rep.abs_diff)
        return _rec(c, i, "chi1t-t5", worst <= 1e-9, abs_err=worst, bound=1e-9)
    if i == 5:
        rng = _rng(c, i)
        worst = 0.0
        for _ in range(20):
            qv = F(rng.randint(-6, 6) or 1, 11)
            rep = qseries.final_identity_check(qseries.QContext(qv),
                                               rng.uniform(-1, 1), rng.uniform(-1, 1),
                                               rng.uniform(-0.25, 0.25), J=20)
            worst = max(worst, rep.abs_diff)
        return _rec(c, i, "final-identity-20pts", worst <= 1e-8, abs_err=worst,
                    bound=1e-8)
    if i == 6:
        probe = qseries.conjecture_probe("beta-expansion", n=2,
                                         q_values=[F(1, 2), F(1, 3), F(2, 5), F(3, 7)])
        ok = probe["verdict"] == "REPRESENTABLE"
        for row in probe["per_q"]:
            qv = F(row["q"])
            ok = ok and F(row["beta"][0]) == 1 and F(row["beta"][1]) == -(1 - qv ** 2)
        return _rec(c, i, "beta-n2-exact", ok, fits=probe["beta_fits_in_q"])
    if i == 7:
        ok = True
        for qv in (F(1, 2), F(1, 3)):
            ctx = qseries.QContext(qv)
            p3 = qseries.conjecture_probe("beta-expansion", n=3, q_values=[qv])
            ok = ok and F(p3["per_q"][0]["beta"][1]) == -qv ** 2 * ctx.qq(3) / ctx.qq(1) ** 2
            p4 = qseries.conjecture_probe("beta-expansion", n=4, q_values=[qv])
            ok = ok and F(p4["per_q"][0]["beta"][1]) == -qv ** 4 * ctx.qq(4) / (ctx.qq(1) * ctx.qq(2))
            ok = ok and F(p4["per_q"][0]["beta"][2]) == qv ** 5 * ctx.qq(4) / ctx.qq(2)
        return _rec(c, i, "beta-n3-n4-printed", ok)
    if i == 8:
        verdicts = {}
        for n in range(5, 9):
            p = qseries.conjecture_probe("beta-expansion", n=n, q_values=[F(1, 2), F(1, 3)])
            verdicts[str(n)] = p["verdict"]
        return _rec(c, i, "beta-n5-8-verdicts", True, verdicts=verdicts)
    if i == 9:
        ctx = qseries.QContext(F(1, 2))
        rep = qseries.fh_integral_check(ctx)
        return _rec(c, i, "fh-integrates-to-1", rep.abs_diff <= 1e-9,
                    abs_err=rep.abs_diff, bound=1e-9)
    if i == 10:
        ctx = qseries.QContext(F(1, 2))
        polys = [qseries.tn_construct(ctx, n).poly for n in range(9)]
        worst = 0.0
        for a in range(9):
            for bb in range(a):
                v = qseries.ft_inner_product(ctx, polys[a] * polys[bb])
                worst = max(worst, abs(float(v)))
        return _rec(c, i, "tn-gram-diagonal", worst <= 1e-8, abs_err=worst,
                    bound=1e-8)
    if i == 11:
        probe = qseries.conjecture_probe("common-denominator", n_h=1, m_t=0)
        ok = probe["all_above_vanish"]
        probe2 = qseries.conjecture_probe("common-denominator", n_h=2, m_t=0)
        persisting = [r["order"] for r in probe2["coefficients"] if r["persists"]]
        return _rec(c, i, "common-denominator-probe", ok,
                    pure_h_vanishes=ok, hh_persisting_orders=persisting)
    raise IndexError(i)


_SUITES = {
    "w": (_w_cases, _w_case),
    "chi-forms": (_chi_forms_cases, _chi_forms_case),
    "chi-oracle": (_chi_oracle_cases, _chi_oracle_case),
    "three-path": (_three_path_cases, _three_path_case),
    "formal-series": (_formal_series_cases, _formal_series_case),
    "kibble": (_kibble_cases, _kibble_case),
    "positivity": (_positivity_cases, _positivity_case),
    "marginals": (_marginal_cases, _marginal_case),
    "q": (_q_cases, _q_case),
}


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
    """Run every case of a suite in index order, in this process."""
    import time

    if campaign.suite not in _SUITES:
        raise ValueError(f"unknown suite {campaign.suite!r}; "
                         f"choose from {', '.join(ALL_SUITES)}")
    count_fn, case_fn = _SUITES[campaign.suite]
    t0 = time.perf_counter()
    records = [case_fn(campaign, i) for i in range(count_fn(campaign))]
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
