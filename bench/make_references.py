"""Record the reference result documents the benchmark compares against.

Run from the repository root at the commit whose results are the reference:

    python3 bench/make_references.py

For every job with fixed inputs (each workload's full job and its n = 2 smoke
analogue, plus the set-up job) this runs the CLI once, requires exit code 0
and the job's invariants, and writes the result document without
``elapsed_seconds`` to ``bench/references/``.  First it runs the slow
cross-route check once: ``ggl -n 3 --verify`` must assemble the same p(d) from
the Laurent-coefficient tables as the residue engine gives.  It is not a
reference: a failure stops the script and nothing is written.
"""

from __future__ import annotations

import json
import sys
import time

from run import FIXED, REFERENCES, SETUP_JOB, Job, _verified, run_job

ONCE = Job(("ggl", "-n", "3", "--verify"), _verified, pinned=False)


def main() -> int:
    once = run_job(ONCE, time.monotonic() + 600, REFERENCES)
    print(f"{' '.join(ONCE.argv)}: {once.error or 'routes agree'} ({once.wall_s:.2f} s)")
    if once.error:
        return 1
    REFERENCES.mkdir(exist_ok=True)
    jobs = [Job(SETUP_JOB.argv, SETUP_JOB.invariant, pinned=False)]
    for full, small, invariant in FIXED.values():
        jobs += [Job(full, invariant, pinned=False), Job(small, invariant, pinned=False)]
    for job in jobs:
        outcome = run_job(job, time.monotonic() + 600, REFERENCES)
        if outcome.error:
            print(f"{' '.join(job.argv)}: {outcome.error}", file=sys.stderr)
            return 1
        doc = dict(outcome.doc)
        doc.pop("elapsed_seconds", None)
        path = REFERENCES / job.reference
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: {outcome.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
