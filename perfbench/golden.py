"""Record the golden digests that runs on the default seed are checked against.

Usage, from the repository root:

    python3 perfbench/golden.py

Runs one pass of closed-forms, q-exact and verify-all on the default seed,
and the build_w(5) step of a traced closed-forms run, and writes the sha256 of every exact polynomial they build (canonical
``to_json_dict`` bytes), of every probe report, and of the verify-all
NDJSON to perfbench/golden.json.  Re-record only in a change that says why
exact outputs or NDJSON bytes change.
"""

import json
import sys

import harness

RECORDED = ("closed-forms", "q-exact", "verify-all")


def main() -> int:
    harness.import_program()
    import run
    from workloads import Recorder

    digests = {}
    for name in RECORDED:
        wl = run.make_workload(name, harness.DEFAULT_SEED)
        wl.prime()
        (p,) = harness.run_passes(wl, 0, max_passes=1)
        step = Recorder()
        wl.traced_step(step)
        failed = p.rec.failed + step.failed
        if failed:
            print(f"{name}: {failed} failures, not recording", file=sys.stderr)
            return 1
        digests[name] = dict(sorted({**p.rec.digests, **step.digests}.items()))
        print(f"{name}: {len(digests[name])} digests")
    data = {"seed": harness.DEFAULT_SEED, "git_sha": harness.git_sha(), "workloads": digests}
    harness.GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
