"""Self-test of the benchmark's tracer, run from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each in-process workload (default: closed-forms, float-eval, q-exact)
it runs one untraced and one traced pass on the default seed and checks:

1. the spans of build_w, w_rho_coeff_polys, cheb_poly and numerator_l equal
   their lru cache hit + miss deltas, so no binding of those names (such as
   one made by ``from .denom import build_w``) escaped the tracer;
2. the per-layer self times sum to the traced pass's wall time within 5%;
3. the traced and untraced passes give identical digests;
4. it reports the tracing overhead, traced minus untraced wall time.

It also checks that BENCHMARK.json lists exactly the metrics run.py computes.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import sys

import harness

CACHED = {"build_w": "denom.build_w", "w_rho_coeff_polys": "denom.w_rho_coeff_polys",
          "cheb_poly": "cheb.cheb_poly", "numerator_l": "genfun.numerator_l"}
DEFAULT = ("closed-forms", "float-eval", "q-exact")


def check_one(name: str) -> list[str]:
    import run
    from tracer import Tracer

    problems = []
    wl = run.make_workload(name, harness.DEFAULT_SEED)
    wl.prime()
    (plain,) = harness.run_passes(wl, 0, max_passes=1)
    tr = Tracer()
    tr.install()
    try:
        (traced,) = harness.run_passes(wl, 0, tracer=tr, max_passes=1)
    finally:
        tr.uninstall()
    for key, layer in CACHED.items():
        spans = tr.calls(layer) + tr.paused_calls[layer]
        hits, misses = traced.rec.cache_delta.get(key, (0, 0))
        status = "ok" if spans == hits + misses else "MISMATCH"
        print(f"  {layer}: {spans} spans, {hits} hits + {misses} misses: {status}")
        if status != "ok":
            problems.append(f"{name}: {layer} spans {spans} != cache calls {hits + misses}")
    self_sum = sum(st[1] for st in tr.stats.values())
    share = abs(self_sum - traced.total_s) / traced.total_s
    print(f"  self times sum {self_sum:.4f} s vs traced pass {traced.total_s:.4f} s "
          f"({share:.2%} apart)")
    if share > 0.05:
        problems.append(f"{name}: self times miss the pass wall time by {share:.2%}")
    same = plain.rec.digests == traced.rec.digests
    print(f"  digests: {len(plain.rec.digests)}, traced == untraced: {same}")
    if not same:
        problems.append(f"{name}: traced and untraced digests differ")
    for label, p in (("untraced", plain), ("traced", traced)):
        if p.rec.failed:
            problems.append(f"{name}: {label} pass had {p.rec.failed} failures")
    print(f"  tracing overhead: {traced.wall_s - plain.wall_s:.4f} s "
          f"({plain.wall_s:.4f} s untraced, {traced.wall_s:.4f} s traced)")
    return problems


def check_benchmark_json() -> list[str]:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in bench["end_to_end"]] != list(harness.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from harness.END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != list(harness.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from harness.PER_LAYER")
    return problems


def main(argv: list[str]) -> int:
    harness.import_program()
    problems = check_benchmark_json()
    for name in argv or DEFAULT:
        print(name)
        problems += check_one(name)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
