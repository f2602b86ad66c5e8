"""Measurement loop shared by run.py and selftest.py.

A run is: set-up probes (fresh processes, timed from spawn to ready), then
in this process the workload's own set-up, then passes until the measured
time reaches ``--seconds`` (at least one pass).  Reference checks are timed
separately and kept out of each pass's time.  A traced run makes untraced
passes first, so the tracing overhead is the difference.

Every time reported is scaled to reference speed by a ``speed.SpeedMeter``
whose samples are taken between the timed operations (see speed.py).
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9
# Stop starting new passes once a run has measured this long, whatever
# --seconds asks, so a run ends well inside its time limit.
MAX_MEASURE_S = 100.0
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metrics a traced run computes; BENCHMARK.json lists the same.
SELF_TIMED = (
    "poly.mul", "poly.add", "poly.subs", "poly.eval", "poly.eval_grid", "cheb.seq",
    "genfun.chi_closed_values_grid", "genfun.chi_series_oracle_grid",
    "genfun.chi_closed_value", "genfun.chi_angle_eval",
    "denom.build_w", "denom.build_w_recursive",
    "genfun.numerator_l", "genfun.series_convolution_residual", "forms.compare_form",
    "cheb.cheb_poly", "kibble.kibble_closed_eval", "kibble.kibble_series_oracle",
    "cheb.multi_trig_sum", "qseries.hb_poly", "qseries.d2_coeff", "qseries.tn_construct",
    "qseries.idb_check", "qseries.conjecture_probe",
)
SUITES = ("w", "chi-forms", "chi-oracle", "three-path", "formal-series",
          "kibble", "positivity", "marginals", "q")
PER_LAYER = (
    ["poly.mul.calls", "poly.mul.term_products", "poly.mul.products_per_s",
     "poly.mul.fraction_share", "genfun.closed_grid.points_per_s",
     "genfun.interior.fail_share", "genfun.corner.fail_share",
     "denom.w_rho_coeff_polys.hit_ratio", "denom.w5.terms", "genfun.numerator_l.terms",
     "cheb.cheb_poly.hit_ratio"]
    + [f"{name}.self_s" for name in SELF_TIMED]
    + [f"campaign.{s}.elapsed_s" for s in SUITES]
    + ["campaign.jobs2_speedup", "cli.overhead_s", "setup.import_s", "setup.prime_s",
       "check.reference_s", "trace.overhead_s", "denom.w5.build_s", "speed.kernel_ms"]
)
END_TO_END = ("setup_s", "pass_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def program_present(root: Path = ROOT) -> bool:
    return (root / "src" / "chebsum" / "__init__.py").is_file()


def import_program(root: Path = ROOT):
    """Import chebsum from this checkout's sources, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import chebsum

    if src not in Path(chebsum.__file__).resolve().parents:
        raise RuntimeError(f"chebsum imported from {chebsum.__file__}, not {src}")
    return chebsum


# ------------------------------------------------------------------ set-up


def setup_probes(name: str, count: int = SETUP_PROBES) -> list[dict]:
    """Start ``count`` fresh processes one after another; time each to ready.

    ``raw_s`` of a sample is as measured; ``setup_s``, ``import_s`` and
    ``prime_s`` are at reference speed, scaled by the kernel time the probe
    process measures right after it is ready."""
    from speed import REFERENCE_S
    from workloads import child_env

    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), name], cwd=ROOT,
                                env=child_env(ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out, err = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0 or not line or not out:
            raise RuntimeError(f"set-up probe failed: {err.decode()[-2000:]}")
        sample = json.loads(line)
        scale = REFERENCE_S / json.loads(out)["kernel_s"]
        sample.update(raw_s=ready, setup_s=ready * scale, import_s=sample["import_s"] * scale,
                      prime_s=sample["prime_s"] * scale)
        samples.append(sample)
    return samples


# ------------------------------------------------------------------ passes


@dataclass
class PassResult:
    wall_s: float          # pass time without reference checks and speed samples
    total_s: float
    rec: object            # workloads.Recorder
    peak_rss_mb: float     # this process's high-water RSS when the pass ended
    scaled_s: float        # the pass's op time at reference speed


def run_passes(wl, seconds: float, tracer=None, max_passes: int | None = None,
               meter=None) -> list[PassResult]:
    from workloads import Recorder, peak_rss_self_mb

    if not wl.scaled:
        meter = None
    passes: list[PassResult] = []
    measured = 0.0
    # A pass with a failure ends the run: the inputs are the same every pass,
    # so later passes would fail alike, and a failing operation can be quick
    # enough to make passes without number.
    while not passes or (measured < seconds and measured < MAX_MEASURE_S
                         and not passes[-1].rec.failed
                         and (max_passes is None or len(passes) < max_passes)):
        rec = Recorder(tracer, meter)
        rec.start(cold=wl.cold)
        if meter is not None:
            meter.sample()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.enter("pass", new_op=True)
        try:
            wl.run_pass(rec)
        finally:
            if tracer is not None:
                tracer.exit()
        total = time.perf_counter() - t0
        if meter is not None:
            meter.sample()  # closes the interval of the pass's last operations
        rec.bank_caches()
        wall = total - rec.reference_s - rec.meter_s
        passes.append(PassResult(wall, total, rec, peak_rss_self_mb(),
                                 sum(rec.scaled_latencies())))
        measured += wall
    return passes


def cross_pass_checks(wl, seed: int, passes: list[PassResult], extra=(),
                      more_digests: dict | None = None) -> object:
    """Every pass must give the first pass's digests; the default seed must
    also give the recorded golden digests.  ``more_digests`` are made once
    per run, outside the passes (closed-forms' w5 in a traced run)."""
    from workloads import Recorder

    rec = Recorder()
    first = passes[0].rec.digests
    for i, p in enumerate(list(passes[1:]) + list(extra), start=1):
        other = p.rec.digests if isinstance(p, PassResult) else p
        diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
        rec.verify("determinism", lambda: not diff, check=f"pass-{i}", mismatched=diff[:20])
    made = {**first, **(more_digests or {})}
    golden = load_golden().get(wl.name) if seed == DEFAULT_SEED else None
    if golden is not None:
        for key in sorted(set(golden) | set(made)):
            if key not in made and key in wl.golden_optional:
                continue
            rec.verify("golden", lambda: golden.get(key) == made.get(key), check=key,
                       want=golden.get(key), got=made.get(key))
    return rec


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    data = json.loads(GOLDEN.read_text())
    return data["workloads"] if data.get("seed") == DEFAULT_SEED else {}


# ----------------------------------------------------------------- metrics


def tail_percentile(per_pass: int) -> float | None:
    """Highest ladder percentile that leaves >= 10 samples beyond it in one pass."""
    for p in TAIL_LADDER:
        if per_pass - math.ceil(p / 100 * per_pass) >= 10:
            return p
    return None


def percentile(values: list[float], p: float | None) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it (None: maximum)."""
    s = sorted(values)
    if p is None:
        return s[-1], 0
    idx = max(0, math.ceil(p / 100 * len(s)) - 1)
    return s[idx], len(s) - idx - 1


def end_to_end(wl, passes: list[PassResult], setup: list[dict]) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p.rec.scaled_latencies()]
    pct = tail_percentile(len(passes[0].rec.latencies))
    tail, beyond = percentile(lat, pct)
    rss = getattr(wl, "peak_rss_mb", None)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "pass_s": statistics.median(p.scaled_s for p in passes),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        # The high-water mark after the first pass: later passes of a cold
        # workload only add allocator growth, and their number varies.
        "peak_rss_mb": statistics.median(rss) if rss else passes[0].peak_rss_mb,
    }
    info = {"tail_percentile": pct if pct is not None else 100.0, "tail_samples": len(lat),
            "tail_beyond": beyond, "pass_scaled": [p.scaled_s for p in passes],
            "pass_walls": [p.wall_s for p in passes],
            "setup_samples": [s["setup_s"] for s in setup],
            "setup_raw": [s["raw_s"] for s in setup]}
    return metrics, info


def _share(passes: list[PassResult], group: str) -> float:
    att = sum(p.rec.checks.get(group, (0, 0))[0] for p in passes)
    bad = sum(p.rec.checks.get(group, (0, 0))[1] for p in passes)
    return bad / att if att else 0.0


def _hit_ratio(passes: list[PassResult], key: str) -> float:
    hits = sum(p.rec.cache_delta.get(key, (0, 0))[0] for p in passes)
    misses = sum(p.rec.cache_delta.get(key, (0, 0))[1] for p in passes)
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(untraced: list[PassResult], traced: list[PassResult], tr,
                  setup: list[dict], meter) -> dict:
    """Per-layer metrics per traced pass; times at the run's median speed."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    n = len(traced)
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = tr.self_s(name) / n
    c = tr.counters
    products = c["poly.mul.term_products"]
    mul_total = tr.stats.get("poly.mul", [0, 0.0, 0.0])[2]
    grid_total = tr.stats.get("genfun.chi_closed_values_grid", [0, 0.0, 0.0])[2]
    m.update({
        "poly.mul.products_per_s": products / mul_total if mul_total else 0.0,
        "genfun.closed_grid.points_per_s":
            c["genfun.closed_grid.points"] / grid_total if grid_total else 0.0,
        "check.reference_s": statistics.median(p.rec.reference_s for p in untraced),
    })
    scale = meter.median_scale()
    for key in m:
        if key.endswith("per_s"):
            m[key] /= scale
        elif key.endswith("_s"):
            m[key] *= scale
    m.update({
        "poly.mul.calls": tr.calls("poly.mul") / n,
        "poly.mul.term_products": products / n,
        "poly.mul.fraction_share": c["poly.mul.fraction_products"] / products if products else 0.0,
        "genfun.numerator_l.terms": c["genfun.numerator_l.terms"] / n,
        "genfun.interior.fail_share": _share(traced, "interior"),
        "genfun.corner.fail_share": _share(traced, "corner"),
        "denom.w_rho_coeff_polys.hit_ratio": _hit_ratio(traced, "w_rho_coeff_polys"),
        "cheb.cheb_poly.hit_ratio": _hit_ratio(traced, "cheb_poly"),
        "trace.overhead_s": (statistics.median(p.scaled_s for p in traced)
                             - statistics.median(p.scaled_s for p in untraced)),
    })
    m.update(run_layer_metrics(setup, meter))
    return m


def run_layer_metrics(setup: list[dict], meter) -> dict:
    """The set-up times and machine speed every traced run reports."""
    return {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.prime_s": statistics.median(s["prime_s"] for s in setup),
        "speed.kernel_ms": meter.median_kernel_ms(),
    }


# ---------------------------------------------------------------- environment


def git_sha(root: Path = ROOT) -> str | None:
    """HEAD's commit read from .git without running git (None outside a clone)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine()}
