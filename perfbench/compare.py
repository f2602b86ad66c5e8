"""Compare two results files written by run.py (--trace 0 records only).

For every workload found in both files and every end-to-end metric of
BENCHMARK.json, prints, over the correct runs, the median and quartiles of each side, the change of
the median, and a status:

* REGRESSION: the new median is worse than the old by more than the bound;
* unresolved: the run-to-run spread (quartile distance over median) of
  either side exceeds the bound, and not every new run beats every old run;
* better / ok: otherwise, by whether the change exceeds the bound.

Exit status is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: str) -> dict:
    """workload -> metric -> list of values, plus fail shares under "fail_share"
    and the number of incorrect runs, whose times are left out, under "incorrect"."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        w = out.setdefault(rec["workload"], {"incorrect": []})
        if not rec["correct"]:
            w["incorrect"].append(rec["seed"])
            continue
        for name, value in rec["metrics"].items():
            w.setdefault(name, []).append(value)
        w.setdefault("fail_share", []).append(rec["fail_share"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def judge(old: list[float], new: list[float], bound: float, lower: bool) -> tuple[float, str]:
    (om, oq1, oq3), (nm, nq1, nq3) = summary(old), summary(new)
    change = (nm - om) / om if om else 0.0
    worse = change > bound if lower else change < -bound
    better = change < -bound if lower else change > bound
    spread = max((oq3 - oq1) / om if om else 0.0, (nq3 - nq1) / nm if nm else 0.0)
    if spread > bound:
        beats = max(new) < min(old) if lower else min(new) > max(old)
        return change, "better" if beats else "unresolved"
    if worse:
        return change, "REGRESSION"
    return change, "better" if better else "ok"


def main(benchmark_path: Path, old_path: str, new_path: str) -> int:
    spec = json.loads(Path(benchmark_path).read_text())["end_to_end"]
    old, new = load(old_path), load(new_path)
    regressed = False
    for workload in sorted(set(old) & set(new)):
        o, n = old[workload], new[workload]
        runs = f"{len(o.get('fail_share', []))} vs {len(n.get('fail_share', []))} runs"
        for side, d in (("old", o), ("new", n)):
            if d["incorrect"]:
                print(f"{workload}: {side} file has incorrect runs, left out (seeds "
                      f"{d['incorrect']})")
        if "fail_share" not in o or "fail_share" not in n:
            continue
        print(f"{workload} ({runs}; median fail_share "
              f"{statistics.median(o['fail_share']):.4f} -> "
              f"{statistics.median(n['fail_share']):.4f})")
        for m in spec:
            name = m["name"]
            if name not in o or name not in n:
                continue
            change, status = judge(o[name], n[name], m["bound"], m["better"] == "lower")
            regressed |= status == "REGRESSION"
            om, oq1, oq3 = summary(o[name])
            nm, nq1, nq3 = summary(n[name])
            print(f"  {name:12s} {om:10.4g} [{oq1:.4g}, {oq3:.4g}] -> "
                  f"{nm:10.4g} [{nq1:.4g}, {nq3:.4g}] {m['unit']:3s} "
                  f"{change:+7.1%} (bound {m['bound']:.0%}) {status}")
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload}: only in {'old' if workload in old else 'new'} file")
    return 1 if regressed else 0
