#!/usr/bin/env python3
"""Replay Monte Carlo benchmark requests through perfbench's per-request gate.

Usage (from the root of a source checkout):

    python3 tools/mc_gate_replay.py --workload mc_sparse --seeds 1-10 --requests 3000

For each seed, the first --requests requests of the workload are generated
exactly as `perfbench/run.py` generates them, answered in-process by
`tfkeyrate.cli.main`, and judged by the workload's own check
(`perfbench.workloads.make(...).check`).  Nothing is timed.

The gate fails a request when one of its report's rows has an exact
two-sided Poisson tail below Z4_TAIL / rows, so a correct simulator fails
some requests by chance.  For every answered request the script adds up,
over the rows, the Poisson mass of the row's expected count whose tail falls
below that threshold: the number of chance failures the gate expects.  It
prints each failing request (seed, index, reason), then one JSON line with
the failure count, the expected chance count and its 99.9 % Poisson
quantile.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import tempfile

from scipy.stats import poisson

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402
from perfbench.run import Client  # noqa: E402
from tfkeyrate import cli  # noqa: E402


def _seeds(text: str) -> list[int]:
    """'1-10' or '1,4,10' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


@functools.cache
def chance_failure_mass(expected: float, threshold: float) -> float:
    """Chance that a Poisson(expected) count gets a gate tail below threshold."""
    if expected <= 0.0:
        return 0.0

    def fails(k: int) -> bool:
        return workloads._poisson_two_sided(k, expected) < threshold

    # the failing counts are k <= low and k >= high; the gate's tail falls
    # monotonically away from the expectation on either side
    high = max(int(poisson.isf(threshold / 2.0, expected)), 0)
    while high > expected and fails(high - 1):
        high -= 1
    while high < expected or not fails(high):
        high += 1
    mass = float(poisson.sf(high - 1, expected))
    low = int(poisson.ppf(threshold / 2.0, expected))
    while low >= 0 and (low >= expected or not fails(low)):
        low -= 1
    while low + 1 < expected and fails(low + 1):
        low += 1
    if low >= 0:
        mass += float(poisson.cdf(low, expected))
    return mass


def expected_chance_failures(stdout: str) -> float:
    """The gate's chance failure mass over the rows of one report."""
    rows = json.loads(stdout)["results"]["comparison"]
    threshold = workloads.Z4_TAIL / max(len(rows), 1)
    total = 0.0
    for row in rows:
        scale = 2.0 if row["name"] == "m_x" else 1.0
        total += chance_failure_mass(row["expected"] / scale, threshold)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc_dense", "mc_sparse"))
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,10")
    parser.add_argument("--requests", type=int, required=True, help="requests per seed")
    args = parser.parse_args(argv)

    client = Client(cli.main)
    replayed = failed = 0
    expected = 0.0
    with tempfile.TemporaryDirectory() as inputs_dir:
        for seed in _seeds(args.seeds):
            workload = workloads.make(args.workload, seed, inputs_dir)
            for index, request in enumerate(itertools.islice(workload.requests(), args.requests)):
                answer = client.invoke(request.argv)
                replayed += 1
                before = len(workload.failures)
                if not workload.check(request, answer):
                    failed += 1
                    for line in workload.failures[before:]:
                        print(f"FAILED seed {seed} request {index}: {line.split(': ', 1)[1]}", flush=True)
                if answer.code == 0:
                    expected += expected_chance_failures(answer.stdout)
    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "replayed": replayed,
        "failed": failed,
        "expected_chance_failures": expected,
        "poisson_q999": int(poisson.ppf(0.999, expected)),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
