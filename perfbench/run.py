"""chebsum benchmark: one command for every workload, metric and check.

Run from the repository root:

    python3 perfbench/run.py --workload closed-forms --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --compare OLD.ndjson NEW.ndjson

A run makes its inputs from --seed, measures passes for --seconds, checks
every output, appends a results record (environment, metrics, failures) to
--out (default .perfbench/results.ndjson) and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Metric names and units are those of BENCHMARK.json.  Times are at
reference speed (speed.py).

``attempted`` counts operations plus checks; ``failed`` counts operations
that raised plus checks that failed, and ``correct`` is true when there are
none.  A miss of a float-eval check of the float closed form against an
accurate independent path (the corner slice near |x| -> 1, |rho| -> 1, and
the interior scalar-vs-angle check) is the known float defect: it is counted
apart, printed with the run, listed point by point in the results record and
included in the record's ``fail_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import harness

WORKLOAD_NAMES = ("closed-forms", "float-eval", "q-exact", "verify-all")
MAX_LISTED_FAILURES = 500


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def make_workload(name: str, seed: int):
    import workloads

    if name == "verify-all":
        return workloads.VerifyAll(seed, harness.ROOT, harness.SCRATCH)
    return workloads.WORKLOADS[name](seed)


def untraced_run(wl, args, setup, meter):
    wl.prime()
    passes = harness.run_passes(wl, args.seconds, meter=meter)
    summary = harness.cross_pass_checks(wl, args.seed, passes)
    metrics, info = harness.end_to_end(wl, passes, setup)
    return passes, summary, metrics, info


def traced_run(wl, args, setup, meter):
    from tracer import Tracer
    from workloads import Recorder

    wl.prime()
    # Untraced passes for a quarter of the time (at least one) give the
    # baseline of the tracing overhead; their median damps first-pass effects.
    untraced = harness.run_passes(wl, args.seconds / 4, meter=meter)
    if wl.name == "verify-all":
        return _traced_verify(wl, args, setup, untraced, meter)
    tr = Tracer()
    tr.install()
    try:
        traced = harness.run_passes(wl, args.seconds, tracer=tr, meter=meter)
    finally:
        tr.uninstall()
    harness.SCRATCH.mkdir(exist_ok=True)
    tr.dump(harness.SCRATCH / f"trace-{wl.name}-seed{args.seed}.json")
    metrics = harness.layer_metrics(untraced, traced, tr, setup, meter)
    passes = untraced + traced
    step = Recorder(meter=meter)
    meter.sample()
    extra = wl.traced_step(step)
    if extra is not None:
        meter.sample()
        metrics.update(extra)
        metrics["denom.w5.build_s"] = sum(step.scaled_latencies())
        passes.append(harness.PassResult(0.0, 0.0, step, 0.0, 0.0))
    summary = harness.cross_pass_checks(wl, args.seed, untraced + traced,
                                        more_digests=step.digests)
    return passes, summary, metrics, {"traced_passes": len(traced)}


def _traced_verify(wl, args, setup, untraced, meter):
    """verify-all: suite times from one --jobs 1 and one --jobs 2 pass, as
    measured (see VerifyAll.scaled)."""
    from workloads import Recorder

    rec = Recorder()
    jobs1 = wl.timed_pass(rec, "1")
    jobs2 = wl.timed_pass(rec, "2")
    extra = [{"ndjson": rec.digests.get(f"ndjson-jobs{j}")} for j in ("1", "2")]
    summary = harness.cross_pass_checks(wl, args.seed, untraced, extra=extra)
    m = dict.fromkeys(harness.PER_LAYER, 0.0)
    m.update(harness.run_layer_metrics(setup, meter))
    m["check.reference_s"] = statistics.median(p.rec.reference_s for p in untraced)
    if jobs1 and jobs2:
        for suite in harness.SUITES:
            m[f"campaign.{suite}.elapsed_s"] = jobs2["suites"].get(suite, 0.0)
        m["campaign.jobs2_speedup"] = jobs1["main_s"] / jobs2["main_s"]
        m["cli.overhead_s"] = jobs2["main_s"] - sum(jobs2["suites"].values())
        m["trace.overhead_s"] = rec.latencies[1] - statistics.median(p.scaled_s for p in untraced)
    total = sum(rec.latencies)
    passes = untraced + [harness.PassResult(total, total, rec, 0.0, total)]
    return passes, summary, m, {"jobs1": jobs1, "jobs2": jobs2}


def tally(passes, summary) -> dict:
    recs = [p.rec for p in passes] + [summary]
    groups: dict[str, list[int]] = {}
    for r in recs:
        for g, (att, bad) in r.checks.items():
            acc = groups.setdefault(g, [0, 0])
            acc[0] += att
            acc[1] += bad
    op_errors = [e for r in recs for e in r.op_errors]
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    known = sum(r.known_failed for r in recs)
    # Every pass sees the same inputs, so the first pass lists each failure once.
    listed = passes[0].rec.failures + summary.failures
    return {"attempted": attempted, "failed": failed, "known_defect_misses": known,
            "correct": failed == 0,
            "fail_share": (failed + known) / attempted if attempted else 0.0, "checks": groups,
            "op_errors": op_errors[:MAX_LISTED_FAILURES],
            "failures": listed[:MAX_LISTED_FAILURES], "failures_listed": len(listed)}


def run(args) -> int:
    root = harness.ROOT
    if not harness.program_present(root):
        print(f"error: no chebsum sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark(root)
    harness.import_program(root)
    from speed import SpeedMeter

    env = harness.environment()
    load_start = os.getloadavg()
    t_start = time.perf_counter()
    setup = harness.setup_probes(args.workload)
    wl = make_workload(args.workload, args.seed)
    meter = SpeedMeter()
    meter.sample()
    runner = traced_run if args.trace else untraced_run
    passes, summary, metrics, info = runner(wl, args, setup, meter)
    counts = tally(passes, summary)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **env, "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), "run_s": time.perf_counter() - t_start,
        "speed_kernel_ms": meter.median_kernel_ms(), "speed_samples": len(meter.samples),
        "metrics": {k: v["value"] for k, v in out_metrics.items()}, "info": info, **counts,
    }
    out = Path(args.out) if args.out else harness.SCRATCH / "results.ndjson"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"failed {counts['failed']}/{counts['attempted']}, checks {counts['checks']}, "
          f"reference kernel {meter.median_kernel_ms():.3f} ms, results in {out}")
    if counts["known_defect_misses"]:
        print(f"known float defect: {counts['known_defect_misses']} float closed-form checks "
              f"missed their tolerance (fail_share {counts['fail_share']:.4f} with them); "
              f"listed by spec and point in the results file")
    for name, m in out_metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": counts["correct"], "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": out_metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="results file to append to")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two results files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(harness.ROOT / "BENCHMARK.json", *args.compare)
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
