"""Set-up probe: one fresh process that imports and primes one workload.

Usage: python3 perfbench/probe.py WORKLOAD   (from the repository root, with
``src`` on PYTHONPATH).  Prints one JSON line with the import and priming
times measured inside the process.  The parent times the span from spawning
this process to reading that line, which is the workload's set-up time from
process start to ready.  A second line gives the process's reference-kernel
time (speed.py), then it exits.
"""

import importlib
import json
import sys
import time

# What a process running the workload imports before its first operation.
SETUP_IMPORTS = {
    "closed-forms": ("chebsum",),
    "float-eval": ("numpy", "chebsum"),
    "q-exact": ("chebsum",),
    "verify-all": ("chebsum.cli",),
}


def main() -> None:
    name = sys.argv[1]
    t0 = time.perf_counter()
    for module in SETUP_IMPORTS[name]:
        importlib.import_module(module)
    t1 = time.perf_counter()
    import workloads  # perfbench/ is sys.path[0]

    workloads.WORKLOADS[name].prime()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "prime_s": t2 - t1}), flush=True)
    # After the ready line, so outside the set-up time the parent measures:
    # this process's own reference-kernel time, to scale that set-up time.
    import speed

    print(json.dumps({"kernel_s": speed.kernel_time()}), flush=True)


if __name__ == "__main__":
    main()
