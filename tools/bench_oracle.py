"""Layer timing of the float series oracle, ``genfun.chi_series_oracle_grid``.

Run from anywhere, with no options:

    python3 tools/bench_oracle.py

It times the oracle at series order J = 200 for K = 1..4 slots and N = 50
and 2000 points (fixed seeded inputs), 15 calls per case after one warm-up
call, and records the median and quartiles of the call times and, from one
more call under ``tracemalloc``, the peak of traced memory.  The result goes
to ``BENCH_series_oracle.json`` at the repository root, with the git sha,
the Python and numpy versions and the number of usable CPUs.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from chebsum.genfun import GenSpec, chi_series_oracle_grid  # noqa: E402

ORDER = 200
CALLS = 15
POINTS = (50, 2000)
OUT = ROOT / "BENCH_series_oracle.json"


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def bench_case(K: int, N: int) -> dict:
    spec = GenSpec(K // 2, K - K // 2, (0,) * K)
    rng = np.random.default_rng(K * 10007 + N)
    xs = [rng.uniform(-1, 1, N) for _ in range(K)]
    rho = rng.uniform(-0.9, 0.9, N)
    chi_series_oracle_grid(spec, xs, rho, ORDER)  # warm-up
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        chi_series_oracle_grid(spec, xs, rho, ORDER)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4)
    tracemalloc.start()
    try:
        chi_series_oracle_grid(spec, xs, rho, ORDER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"K": K, "k": spec.k, "n": spec.n, "points": N, "order": ORDER, "calls": CALLS,
            "median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "tracemalloc_peak_mb": peak / 2 ** 20}


def main() -> None:
    status = _git("status", "--porcelain", "--", "src")
    doc = {
        "layer": "genfun.chi_series_oracle_grid",
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cases": [bench_case(K, N) for K in range(1, 5) for N in POINTS],
    }
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for c in doc["cases"]:
        print(f"K={c['K']} N={c['points']}: median {c['median_ms']:.2f} ms "
              f"[{c['q1_ms']:.2f}, {c['q3_ms']:.2f}], peak {c['tracemalloc_peak_mb']:.2f} MB")


if __name__ == "__main__":
    main()
