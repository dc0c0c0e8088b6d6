#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs with
the span tracer and prints every per-layer metric.  The line before the
last holds the run record (commit, nproc, versions, BLAS, seed, sample
counts); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 2, with no result line, when the checkout lacks the program
or the fixtures.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

import env
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (env.SetupError, OSError) as err:
        print(f"perfbench: setup failed: {err}", file=sys.stderr)
        return 2
    record = env.run_record(args.workload, args.seed)
    record.update(trace=args.trace, seconds=args.seconds, **result.pop("info"))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
