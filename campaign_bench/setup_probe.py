"""Set-up probe of the campaign benchmark.

Started as a fresh interpreter by ``run.py``: imports entropygap from the
checkout and runs one 1-sample job per campaign of a workload, each with its
report written and read back.  ``run.py`` times the whole process, so the
measured set-up covers interpreter start, imports and every first call.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS, setup_jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)
    harness.pin_blas_threads()
    program = harness.load_program()
    for spec in setup_jobs(WORKLOADS[args.workload]):
        job = harness.run_job(program, spec, args.workdir / f"setup-{spec.campaign}.json")
        if job.failure:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
