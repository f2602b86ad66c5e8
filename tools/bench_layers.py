"""Layer timing of the float closed form and series oracle, exact builds, q-families and Poly ops.

Run from anywhere, with no options:

    python3 tools/bench_layers.py

It writes six files at the repository root, each with the git sha, the
Python version and the number of usable CPUs:

* ``BENCH_series_oracle.json``: ``genfun.chi_series_oracle_grid`` at series
  order J = 200 for K = 1..4 slots and N = 50 and 2000 points (fixed seeded
  inputs), 15 calls per case after one warm-up call: the median and
  quartiles of the call times and, from one more call under
  ``tracemalloc``, the peak of traced memory; also the numpy version.
* ``BENCH_float_closed.json``: the float closed form on fixed seeded inputs, for
  K = 1..4 slots with the shift multiset below.  ``genfun.chi_closed_value`` at
  16 points: its first call on fresh rho-coefficient polynomials of w_K, which
  compiles their Horner plans (15 cold calls, each after rebuilding them), and
  warm calls (15 samples of one call per point, the per-call time in us).
  ``genfun.chi_closed_values_grid`` at N = 50 and 2000 points, 15 warm calls
  after one warm-up.  Each case gives the median and quartiles.
* ``BENCH_exact_builds.json``: the median and quartiles of 15 cold-cache
  calls of ``genfun.numerator_l`` per slot count K = 1..4 and of
  ``denom.build_w`` and ``denom.build_w_recursive`` for n = 1..4.  One
  numerator call builds every split k + n = K with the shift multiset of
  perfbench's closed-forms workload, after clearing the numerator and
  Chebyshev caches (w_K stays warm: it is timed on its own).  A w call
  clears every exact cache first.  Also ``genfun.series_convolution_residual``
  per K = 1..4: one sample checks every split at orders 2^K .. 2^K + 8, as
  the closed-forms workload does, cold (w_K rebuilt before the clock starts,
  so the first call makes its Chebyshev image) and warm (the image kept).
* ``BENCH_q_families.json``: the median and quartiles of 15 cold calls per q
  of ``qseries.hb_poly`` for h and for b, n = 0..24 in turn, of
  ``qseries.d2_coeff``, n = 0..14 in turn, of ``qseries.tn_construct``,
  n = 0..12 in turn (with d(q), the f_t moments of U_n and gamma_n), of
  ``QContext.qq`` and ``QContext.binom``, every (n, k) with n <= 24, each call
  on a fresh ``QContext``; of ``qseries.conjecture_probe("common-denominator")``
  for n_h = 1 and 2 (m_t = 0, rho order 12), which makes its own context; and
  of the 91 Gram products t_a t_b, b <= a <= 12,
  through ``qseries.ft_inner_product``, on a fresh context whose t_n and
  products are made before the clock starts, so the x^e moments are cold.
  One q per denominator 7, 11 and 13 with |q| in [1/3, 1/2], as in
  perfbench's q-exact workload.
* ``BENCH_poly_ops.json``: single ``Poly`` operations on fixed operands: a
  same-variable product (w_2 * w_2), a mixed-variable product (x1 * rho), a
  product whose sine markers reduce (two cosines of three-angle sums made by
  ``denom._angle_step``), a sum (w_2 + rho), a sum over interleaved variables
  ((1 - 2 rho x1 + rho^2) + (x1 x2 + 3), whose union merges x2 between x1 and
  rho), an int plus a
  polynomial (3 + (1 - 2 rho x1 + rho^2)), a substitution (x2 of w_2 by
  cos(a_2 + a_3), as in ``build_w_recursive(3)``), an evaluation of w_3 at a float point (its
  Horner plan compiled by a warm-up call), an embed that keeps every field (x1
  onto x1, x2, rho), one that moves fields (w_2 onto x1, x2, x3, rho) and
  rho ** 2.  Each of 15 samples times a batch of 200 calls; the file holds
  the median and quartiles of the per-call time of the samples, in us.
* ``BENCH_kibble.json``: warm ``kibble.kibble_closed_eval`` and
  ``kibble.kibble_series_oracle`` for n = 3, 4 and 5 vertices, f_T and f_U,
  at the cutoffs and |rho_ij| bands of perfbench's float-eval workload (each
  band keeps every pair's cap at the cutoff) on one fixed seeded point per
  case: the median and quartiles of 15 calls after one warm-up call.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import math  # noqa: E402

import numpy as np  # noqa: E402

from chebsum import cheb, denom, genfun, kibble, qseries  # noqa: E402
from chebsum.genfun import GenSpec, chi_series_oracle_grid, numerator_l  # noqa: E402
from chebsum.poly import Poly  # noqa: E402

ORDER = 200
CALLS = 15
POINTS = (50, 2000)
# The shift multiset per slot count of perfbench's closed-forms workload.
SHIFTS = {1: (-1,), 2: (-1, 1), 3: (-1, 0, 1), 4: (-1, 0, 0, 1)}
# One q per denominator of perfbench's q-exact workload, |q| in [1/3, 1/2].
Q_VALUES = (Fraction(3, 7), Fraction(-4, 11), Fraction(5, 13))
# (n, cutoff, |rho_ij| band) of perfbench's float-eval KIBBLE_CASES.
KIBBLE_CASES = ((3, 30, (0.3, 0.4)), (4, 20, (0.16, 0.25)), (5, 12, (0.05, 0.1)))
POLY_BATCH = 200
SCALAR_POINTS = 16
EXACT_CACHES = (denom.build_w, denom.build_w_recursive, denom.w_rho_coeff_polys,
                cheb._cheb_poly_cached, genfun._numerator_cached)


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _quartiles_ms(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"calls": len(times), "median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3}


def _cold_times(prepare, call) -> list[float]:
    times = []
    for _ in range(CALLS):
        prepare()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times


def _clear_exact_caches() -> None:
    for cache in EXACT_CACHES:
        cache.cache_clear()


def bench_numerators(K: int) -> dict:
    specs = [GenSpec(k, K - k, SHIFTS[K]) for k in range(K + 1)]

    def prepare():
        genfun._numerator_cached.cache_clear()
        cheb._cheb_poly_cached.cache_clear()
        denom.build_w(K), denom.w_rho_coeff_polys(K)

    times = _cold_times(prepare, lambda: [numerator_l(spec) for spec in specs])
    return {"layer": "genfun.numerator_l", "K": K, "specs": [[s.k, s.n, list(s.t)] for s in specs],
            **_quartiles_ms(times)}


def bench_residuals(K: int, cold: bool) -> dict:
    specs = [GenSpec(k, K - k, SHIFTS[K]) for k in range(K + 1)]
    orders = range(2 ** K, 2 ** K + 9)

    def call():
        for spec in specs:
            for order in orders:
                genfun.series_convolution_residual(spec, order)

    call()  # warm-up: w_K, and the image a warm sample keeps
    times = _cold_times((lambda: (denom.build_w.cache_clear(), denom.build_w(K))) if cold
                        else (lambda: None), call)
    return {"layer": "genfun.series_convolution_residual", "K": K,
            "calls_on": "cold image" if cold else "warm image",
            "residuals": len(specs) * len(orders), **_quartiles_ms(times)}


def bench_w(build, n: int) -> dict:
    times = _cold_times(_clear_exact_caches, lambda: build(n))
    return {"layer": f"denom.{build.__name__}", "n": n, **_quartiles_ms(times)}


def bench_q_family(q: Fraction, family: str) -> dict:
    if family == "gram":
        made = []

        def prepare():
            ctx = qseries.QContext(q)
            tn = [qseries.tn_construct(ctx, n).poly for n in range(13)]
            made[:] = [ctx, [tn[a] * tn[b] for a in range(13) for b in range(a + 1)]]

        times = _cold_times(prepare, lambda: [qseries.ft_inner_product(made[0], p)
                                              for p in made[1]])
        return {"layer": "qseries.ft_inner_product", "family": family, "q": str(q),
                **_quartiles_ms(times)}
    layer, call = {
        "h": ("qseries.hb_poly", lambda ctx: [qseries.hb_poly(ctx, "h", n) for n in range(25)]),
        "b": ("qseries.hb_poly", lambda ctx: [qseries.hb_poly(ctx, "b", n) for n in range(25)]),
        "d2": ("qseries.d2_coeff", lambda ctx: [qseries.d2_coeff(ctx, n) for n in range(15)]),
        "t": ("qseries.tn_construct",
              lambda ctx: [qseries.tn_construct(ctx, n) for n in range(13)]),
        "binom": ("qseries.QContext.binom",
                  lambda ctx: [ctx.binom(n, k) for n in range(25) for k in range(n + 1)]),
        **{f"probe n_h={n_h}": ("qseries.conjecture_probe", lambda ctx, n_h=n_h: (
            qseries.conjecture_probe("common-denominator", n_h=n_h, m_t=0, q=ctx.q)))
           for n_h in (1, 2)},
    }[family]
    times = _cold_times(lambda: None, lambda: call(qseries.QContext(q)))
    return {"layer": layer, "family": family, "q": str(q), **_quartiles_ms(times)}


def poly_ops() -> dict:
    """The timed Poly operations by name, each a call on fixed operands."""
    x1, rho = Poly.variable("x1"), Poly.variable("rho")
    w2, w3 = denom.build_w(2).poly, denom.build_w(3).poly
    a1, a2 = (tuple(denom._angle_step(denom._UNIT, i, 1)) for i in (1, 2))
    plus = next(denom._angle_step(a2, 3, 1))  # cos(a_2 + a_3)
    a, b = (next(denom._angle_step(tuple(denom._angle_step(a1, 2, sign)), 3, 1))
            for sign in (1, -1))  # cos(a_1 + a_2 + a_3), cos(a_1 - a_2 + a_3)
    point = {"x1": 0.3, "x2": -0.2, "x3": 0.5, "rho": 0.4}
    w1 = 1 - 2 * rho * x1 + rho ** 2
    x1x2 = x1 * Poly.variable("x2") + 3
    return {"mul same variables": lambda: w2 * w2, "mul x1 * rho": lambda: x1 * rho,
            "mul with markers": lambda: a * b, "add": lambda: w2 + rho,
            "add interleaved variables": lambda: w1 + x1x2, "int + poly": lambda: 3 + w1,
            "subs": lambda: w2.subs("x2", plus), "eval": lambda: w3.eval(point),
            "embed keeping fields": lambda: x1.embed(("x1", "x2", "rho")),
            "embed moving fields": lambda: w2.embed(("x1", "x2", "x3", "rho")),
            "pow rho ** 2": lambda: rho ** 2}


def bench_poly_op(op: str, call) -> dict:
    call()  # warm-up: makes eval's Horner plan

    def batch():
        for _ in range(POLY_BATCH):
            call()

    times = [t / POLY_BATCH for t in _cold_times(lambda: None, batch)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"op": op, "samples": len(times), "batch": POLY_BATCH,
            "median_us": 1e6 * median, "q1_us": 1e6 * q1, "q3_us": 1e6 * q3}


def _closed_inputs(K: int, N: int | None):
    """(spec, xs, rho): N seeded points as arrays, or SCALAR_POINTS scalar points for N None."""
    spec = GenSpec(K // 2, K - K // 2, SHIFTS[K])
    rng = np.random.default_rng(K * 7919 + (N or 0))
    xs = rng.uniform(-1, 1, (K, N or SCALAR_POINTS))
    rho = rng.uniform(-0.9, 0.9, N or SCALAR_POINTS)
    return spec, (list(xs) if N else xs.T.tolist()), (rho if N else rho.tolist())


def bench_closed_scalar(K: int, first: bool) -> dict:
    spec, points, rhos = _closed_inputs(K, None)
    if first:  # fresh coefficient polynomials: the first call compiles their plans
        times = _cold_times(lambda: (denom.w_rho_coeff_polys.cache_clear(),
                                     denom.w_rho_coeff_polys(K)),
                            lambda: genfun.chi_closed_value(spec, points[0], rhos[0]))
        return {"layer": "genfun.chi_closed_value", "K": K, "calls_on": "first call",
                **_quartiles_ms(times)}

    def calls():
        for xs, rho in zip(points, rhos):
            genfun.chi_closed_value(spec, xs, rho)

    calls()  # warm-up
    times = [t / SCALAR_POINTS for t in _cold_times(lambda: None, calls)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"layer": "genfun.chi_closed_value", "K": K, "calls_on": "warm", "points": SCALAR_POINTS,
            "median_us": 1e6 * median, "q1_us": 1e6 * q1, "q3_us": 1e6 * q3}


def bench_closed_grid(K: int, N: int) -> dict:
    spec, xs, rho = _closed_inputs(K, N)
    genfun.chi_closed_values_grid(spec, xs, rho)  # warm-up
    times = _cold_times(lambda: None, lambda: genfun.chi_closed_values_grid(spec, xs, rho))
    return {"layer": "genfun.chi_closed_values_grid", "K": K, "points": N, **_quartiles_ms(times)}


def bench_case(K: int, N: int) -> dict:
    spec = GenSpec(K // 2, K - K // 2, (0,) * K)
    rng = np.random.default_rng(K * 10007 + N)
    xs = [rng.uniform(-1, 1, N) for _ in range(K)]
    rho = rng.uniform(-0.9, 0.9, N)
    chi_series_oracle_grid(spec, xs, rho, ORDER)  # warm-up
    times = _cold_times(lambda: None, lambda: chi_series_oracle_grid(spec, xs, rho, ORDER))
    tracemalloc.start()
    try:
        chi_series_oracle_grid(spec, xs, rho, ORDER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"K": K, "k": spec.k, "n": spec.n, "points": N, "order": ORDER,
            **_quartiles_ms(times), "tracemalloc_peak_mb": peak / 2 ** 20}


def bench_kibble(n: int, cutoff: int, band: tuple[float, float], kind: str, oracle: bool) -> dict:
    rng = np.random.default_rng(n * 101 + (kind == "U"))
    K = kibble.CorrMatrix.from_dict(n, {(a, b): rng.choice((-1.0, 1.0)) * rng.uniform(*band)
                                        for a in range(1, n + 1) for b in range(a + 1, n + 1)})
    alphas = rng.uniform(0.15, math.pi - 0.15, n).tolist()
    if oracle:
        layer, xs = "kibble.kibble_series_oracle", [math.cos(a) for a in alphas]
        call = lambda: kibble.kibble_series_oracle(kind, xs, K, cutoff)
    else:
        layer, call = "kibble.kibble_closed_eval", lambda: kibble.kibble_closed_eval(kind, alphas, K)
    call()  # warm-up
    return {"layer": layer, "n": n, "kind": kind, "cutoff": cutoff, "rho_band": list(band),
            **_quartiles_ms(_cold_times(lambda: None, call))}


def _write(name: str, doc: dict) -> None:
    (ROOT / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for c in doc["cases"]:
        size = ", ".join(f"{k}={c[k]}" for k in ("K", "k", "n", "kind", "points", "calls_on",
                                                 "family", "q", "op")
                         if k in c)
        unit = "ms" if "median_ms" in c else "us"
        print(f"{c.get('layer', doc['layer'])} {size}: median {c['median_' + unit]:.2f} {unit} "
              f"[{c['q1_' + unit]:.2f}, {c['q3_' + unit]:.2f}]"
              + (f", peak {c['tracemalloc_peak_mb']:.2f} MB" if "tracemalloc_peak_mb" in c else ""))


def main() -> None:
    status = _git("status", "--porcelain", "--", "src")
    env = {
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }
    _write("BENCH_series_oracle.json", {
        "layer": "genfun.chi_series_oracle_grid", **env, "numpy": np.__version__,
        "cases": [bench_case(K, N) for K in range(1, 5) for N in POINTS]})
    _write("BENCH_float_closed.json", {
        "layer": "float closed form", **env, "numpy": np.__version__,
        "caches": "first call: rho-coefficient polynomials of w_K rebuilt from a warm w_K, "
                  "so the call compiles their Horner plans; warm: plans compiled, w_K cached",
        "cases": [bench_closed_scalar(K, first) for K in range(1, 5) for first in (True, False)]
        + [bench_closed_grid(K, N) for K in range(1, 5) for N in POINTS]})
    _write("BENCH_exact_builds.json", {
        "layer": "cold exact builds", **env,
        "caches": "numerator_l: numerator and Chebyshev caches cleared, w_K warm; "
                  "build_w, build_w_recursive: every exact cache cleared; "
                  "series_convolution_residual: cold image, w_K rebuilt before each sample, "
                  "warm image, the w_K of the warm-up call kept",
        "cases": [bench_numerators(K) for K in range(1, 5)]
        + [bench_w(build, n) for build in (denom.build_w, denom.build_w_recursive)
           for n in range(1, 5)]
        + [bench_residuals(K, cold) for K in range(1, 5) for cold in (True, False)]})
    _write("BENCH_q_families.json", {
        "layer": "cold q-families", **env,
        "caches": "a fresh QContext per call: h, b and d2 roll from their seeds, and "
                  "(q;q)_n, the q-binomials, the q-powers, d(q), the f_t moments and ortho_chi "
                  "start empty; the probe makes its own context; w_K's rho-coefficients stay "
                  "warm; gram: t_n and the products made on that context before the clock starts",
        "cases": [bench_q_family(q, family) for q in Q_VALUES
                  for family in ("h", "b", "d2", "t", "gram", "binom", "probe n_h=1",
                                 "probe n_h=2")]})
    _write("BENCH_poly_ops.json", {
        "layer": "poly", **env,
        "caches": "none: every call makes its result; eval runs the plan its warm-up compiled",
        "cases": [bench_poly_op(op, call) for op, call in poly_ops().items()]})
    _write("BENCH_kibble.json", {
        "layer": "kibble", **env, "numpy": np.__version__,
        "caches": "warm: one call on the same inputs before the timed calls",
        "cases": [bench_kibble(n, cutoff, band, kind, oracle) for n, cutoff, band in KIBBLE_CASES
                  for kind in ("T", "U") for oracle in (False, True)]})


if __name__ == "__main__":
    main()
