"""Layer timing of the float series oracle, the exact builds, the q-families and Poly ops.

Run from anywhere, with no options:

    python3 tools/bench_layers.py

It writes four files at the repository root, each with the git sha, the
Python version and the number of usable CPUs:

* ``BENCH_series_oracle.json``: ``genfun.chi_series_oracle_grid`` at series
  order J = 200 for K = 1..4 slots and N = 50 and 2000 points (fixed seeded
  inputs), 15 calls per case after one warm-up call: the median and
  quartiles of the call times and, from one more call under
  ``tracemalloc``, the peak of traced memory; also the numpy version.
* ``BENCH_exact_builds.json``: the median and quartiles of 15 cold-cache
  calls of ``genfun.numerator_l`` per slot count K = 1..4 and of
  ``denom.build_w`` and ``denom.build_w_recursive`` for n = 1..4.  One
  numerator call builds every split k + n = K with the shift multiset of
  perfbench's closed-forms workload, after clearing the numerator and
  Chebyshev caches (w_K stays warm: it is timed on its own).  A w call
  clears every exact cache first.
* ``BENCH_q_families.json``: the median and quartiles of 15 cold calls per q
  of ``qseries.hb_poly`` for h and for b, n = 0..24 in turn, and of
  ``qseries.d2_coeff``, n = 0..14 in turn, each call on a fresh
  ``QContext``; one q per denominator 7, 11 and 13 with |q| in [1/3, 1/2],
  as in perfbench's q-exact workload.
* ``BENCH_poly_ops.json``: single ``Poly`` operations on fixed operands: a
  same-variable product (w_2 * w_2), a mixed-variable product (x1 * rho), a
  product whose sine markers reduce (two ``denom._cos_of_sum`` factors), a
  sum (w_2 + rho), a substitution (x2 of w_2 by cos(a_2 + a_3), as in
  ``build_w_recursive(3)``), an evaluation of w_3 at a float point (its
  Horner plan made by a warm-up call), an embed that keeps every field (x1
  onto x1, x2, rho), one that moves fields (w_2 onto x1, x2, x3, rho) and
  rho ** 2.  Each of 15 samples times a batch of 200 calls; the file holds
  the median and quartiles of the per-call time of the samples, in us.
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

import numpy as np  # noqa: E402

from chebsum import cheb, denom, genfun, qseries  # noqa: E402
from chebsum.genfun import GenSpec, chi_series_oracle_grid, numerator_l  # noqa: E402
from chebsum.poly import Poly  # noqa: E402

ORDER = 200
CALLS = 15
POINTS = (50, 2000)
# The shift multiset per slot count of perfbench's closed-forms workload.
SHIFTS = {1: (-1,), 2: (-1, 1), 3: (-1, 0, 1), 4: (-1, 0, 0, 1)}
# One q per denominator of perfbench's q-exact workload, |q| in [1/3, 1/2].
Q_VALUES = (Fraction(3, 7), Fraction(-4, 11), Fraction(5, 13))
POLY_BATCH = 200
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


def bench_w(build, n: int) -> dict:
    times = _cold_times(_clear_exact_caches, lambda: build(n))
    return {"layer": f"denom.{build.__name__}", "n": n, **_quartiles_ms(times)}


def bench_q_family(q: Fraction, family: str) -> dict:
    if family == "d2":
        layer, call = "qseries.d2_coeff", lambda ctx: [qseries.d2_coeff(ctx, n) for n in range(15)]
    else:
        layer = "qseries.hb_poly"
        call = lambda ctx: [qseries.hb_poly(ctx, family, n) for n in range(25)]
    times = _cold_times(lambda: None, lambda: call(qseries.QContext(q)))
    return {"layer": layer, "family": family, "q": str(q), **_quartiles_ms(times)}


def poly_ops() -> dict:
    """The timed Poly operations by name, each a call on fixed operands."""
    x1, rho = Poly.variable("x1"), Poly.variable("rho")
    w2, w3 = denom.build_w(2).poly, denom.build_w(3).poly
    plus = denom._cos_of_sum([0, 1, 1])
    a, b = denom._cos_of_sum([1, 1, 1]), denom._cos_of_sum([1, -1, 1])
    point = {"x1": 0.3, "x2": -0.2, "x3": 0.5, "rho": 0.4}
    return {"mul same variables": lambda: w2 * w2, "mul x1 * rho": lambda: x1 * rho,
            "mul with markers": lambda: a * b, "add": lambda: w2 + rho,
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


def _write(name: str, doc: dict) -> None:
    (ROOT / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for c in doc["cases"]:
        size = ", ".join(f"{k}={c[k]}" for k in ("K", "k", "n", "points", "family", "q", "op")
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
    _write("BENCH_exact_builds.json", {
        "layer": "cold exact builds", **env,
        "caches": "numerator_l: numerator and Chebyshev caches cleared, w_K warm; "
                  "build_w, build_w_recursive: every exact cache cleared",
        "cases": [bench_numerators(K) for K in range(1, 5)]
        + [bench_w(build, n) for build in (denom.build_w, denom.build_w_recursive)
           for n in range(1, 5)]})
    _write("BENCH_q_families.json", {
        "layer": "cold q-families", **env,
        "caches": "a fresh QContext per call: h, b and the conjugate halves roll from their seeds",
        "cases": [bench_q_family(q, family) for q in Q_VALUES for family in ("h", "b", "d2")]})
    _write("BENCH_poly_ops.json", {
        "layer": "poly", **env,
        "caches": "none: every call makes its result; eval walks the plan its warm-up made",
        "cases": [bench_poly_op(op, call) for op, call in poly_ops().items()]})


if __name__ == "__main__":
    main()
