"""Run the chebsum CLI in this process and record where its time went.

Usage: python3 perfbench/cli_child.py TIMINGS.json CLI-ARGS...   (from the
repository root, with ``src`` on PYTHONPATH).  Runs ``chebsum.cli.main`` on
the arguments exactly as ``python -m chebsum.cli`` would, wrapping
``campaign.run_campaign`` to keep each suite's ``Report.elapsed``.  Writes
the exit status, the time inside ``main`` and the per-suite times to
TIMINGS.json and exits with the CLI's status.
"""

import json
import sys
import time


def main() -> int:
    timings_path, argv = sys.argv[1], sys.argv[2:]
    from chebsum import campaign, cli

    suites = {}
    run_campaign = campaign.run_campaign

    def recorded(c):
        rep = run_campaign(c)
        suites[rep.suite] = rep.elapsed
        return rep

    campaign.run_campaign = recorded
    t0 = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - t0
    with open(timings_path, "w") as fh:
        json.dump({"exit": code, "main_s": main_s, "suites": suites}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
