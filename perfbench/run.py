#!/usr/bin/env python3
"""tfkeyrate benchmark: one closed-loop run of one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload keyrate_links --seed 1 --seconds 15 --trace 0

The run drives the real `tfkeyrate` command line in-process through
`tfkeyrate.cli.main`, one request at a time, on scenario files generated
from the seed.  --trace 0 measures the end-to-end metrics with no tracing
installed.  --trace 1 runs half the time untraced, replays the same requests
with every layer wrapped, and reports per-layer metrics (per request) plus
the tracing overhead between the two halves.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Run records
and spans go to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

if not __package__:  # run as a script
    sys.path.insert(0, ROOT)

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "finite_stats.quadrature.calls": "count/req",
    "finite_stats.quadrature.s": "s/req",
    "finite_stats.integrand_evals": "count/req",
    "finite_stats.integrand_evals_per_link": "count",
    "finite_stats.chernoff.calls": "count/req",
    "channel_model.observed_statistics.calls": "count/req",
    "channel_model.observed_statistics.s": "s/req",
    "channel_model.expected_pair_counts.s": "s/req",
    "channel_model.x_basis_counts.s": "s/req",
    "keyrate_engine.evaluate_link.calls": "count/req",
    "keyrate_engine.evaluate_link.s": "s/req",
    "keyrate_engine.evaluate_link.self_s": "s/req",
    "keyrate_engine.infeasible_share": "ratio",
    "keyrate_engine.decoy_chain.s": "s/req",
    "planner.zero_rate_share": "ratio",
    "planner.self_s": "s/req",
    "planner.polish_delta.calls": "count/req",
    "planner.polish_delta.s": "s/req",
    "planner.polish_delta.evals": "count/req",
    "event_simulator.simulate_rounds.s": "s/req",
    "event_simulator.post_match_z.s": "s/req",
    "event_simulator.post_match_x.s": "s/req",
    "event_simulator.compare_with_analytics.s": "s/req",
    "event_simulator.rounds": "count/req",
    "event_simulator.shards": "count/req",
    "event_simulator.z_pool_events": "count/req",
    "event_simulator.x_slice_events": "count/req",
    "event_simulator.event_share": "ratio",
    "event_simulator.threads": "count",
    "cli.load_scenario.s": "s/req",
    "cli.request_self_s": "s/req",
    "finite_stats.import_s": "s",
    "channel_model.import_s": "s",
    "keyrate_engine.import_s": "s",
    "event_simulator.import_s": "s",
    "diagnostics.import_s": "s",
    "planner.import_s": "s",
    "cli.import_s": "s",
    "trace.overhead_share": "ratio",
    "input.zero_rate_share": "ratio",
    "input.infeasible_share": "ratio",
    "input.click_share": "ratio",
}

# Workload-specific figures printed beside the gated metrics.
EXTRA_UNITS = {
    "requests": "count",
    "latency_p99_ms": "ms",
    "latency_p99_samples_beyond": "count",
    "rounds_per_s": "1/s",
    "failed_frac": "ratio",
}

# Metrics already per call or per run rather than per request.
NOT_PER_REQUEST = {name for name, unit in PER_LAYER.items() if "/req" not in unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(scenario: str, samples: int = SETUP_SAMPLES) -> list[dict]:
    """Fresh-interpreter set-up samples, after one untimed run that fills
    the bytecode and file caches."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, scenario]
    results = []
    for i in range(samples + 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        if i:
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def environment() -> dict:
    import numpy
    import scipy

    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
    }


@dataclass
class Outcome:
    """A judged request; the report is kept only as a digest, so the run's
    memory does not grow with the number of requests."""

    request: workloads.Request
    code: int
    seconds: float
    digest: str
    passed: bool


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Client:
    """Closed-loop client: one in-process CLI call at a time."""

    def __init__(self, cli_main) -> None:
        self.cli_main = cli_main

    def invoke(self, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli_main(argv)
                else:
                    code = tracer.call("cli.request", self.cli_main, (argv,), {})
            except SystemExit as exc:  # argparse rejects a command line
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed request, not a dead run
                code = -1
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - start
        return workloads.Answer(code, out.getvalue(), err.getvalue(), seconds)

    def drive(self, workload, seconds: float) -> list[Outcome]:
        """Issue the workload's requests until `seconds` of wall time pass."""
        done = []
        start = time.perf_counter()
        for request in workload.requests():
            answer = self.invoke(request.argv)
            passed = workload.check(request, answer)
            done.append(Outcome(request, answer.code, answer.seconds, digest(answer.stdout), passed))
            if time.perf_counter() - start >= seconds:
                return done
        return done


def nearest_rank(sorted_values, q: float):
    """q-quantile by nearest rank and the number of samples above it."""
    rank = min(max(math.ceil(len(sorted_values) * q), 1), len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(done, setup) -> tuple[dict, dict]:
    latencies = sorted(o.seconds for o in done)
    busy = sum(latencies)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "requests_per_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p99, beyond = nearest_rank(latencies, 0.99)
    extra = {
        "requests": len(latencies),
        "latency_p99_ms": p99 * 1e3 if beyond >= 10 else None,
        "latency_p99_samples_beyond": beyond,
    }
    rounds = sum(o.request.info.get("rounds", 0) for o in done)
    if rounds:
        extra["rounds_per_s"] = rounds / busy
    return metrics, extra


def per_layer(tracer, workload, requests: int, untraced_s, traced_s, setup) -> dict:
    summary = tracing.summarize(tracer)
    n = max(requests, 1)
    metrics = {
        name: value if name in NOT_PER_REQUEST else value / n
        for name, value in summary.items()
    }
    for module in tracing.MODULES:
        metrics[f"{module}.import_s"] = statistics.median(s["import_s"][module] for s in setup)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    props = workload.properties()
    metrics["input.zero_rate_share"] = props.get("zero_rate_share", 0.0)
    metrics["input.infeasible_share"] = props.get("infeasible_share", 0.0)
    metrics["input.click_share"] = props.get("click_share", 0.0)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tfkeyrate", "cli.py")):
        print(f"perfbench: no tfkeyrate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tfkeyrate import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    inputs_dir = os.path.join(RUNS_DIR, f"{tag}-inputs")
    shutil.rmtree(inputs_dir, ignore_errors=True)
    os.makedirs(inputs_dir)

    workload = workloads.make(args.workload, args.seed, inputs_dir)
    client = Client(cli.main)
    first = next(workload.requests())
    setup = probe_setup(first.argv[first.argv.index("--config") + 1])

    network = client.invoke(workloads.network_request(ROOT).argv)
    failures = workloads.check_network(network)
    attempted, failed = 1, int(bool(failures))

    if args.trace == 0:
        done = client.drive(workload, args.seconds)
        metrics, extra = end_to_end(done, setup)
        units = END_TO_END
    else:
        done = client.drive(workload, args.seconds / 2.0)
        traced_s = 0.0
        with tracing.Tracer() as tracer:
            for plain in done:
                traced = client.invoke(plain.request.argv, tracer)
                traced_s += traced.seconds
                if (traced.code, digest(traced.stdout)) != (plain.code, plain.digest):
                    failed += 1
                    failures.append(f"{' '.join(plain.request.argv)}: traced output differs")
        attempted += len(done)
        metrics = per_layer(
            tracer, workload, len(done), sum(o.seconds for o in done), traced_s, setup
        )
        extra = {"requests": len(done)}
        units = PER_LAYER
        tracer.write(os.path.join(RUNS_DIR, f"{tag}-spans.json.gz"))

    attempted += len(done)
    failed += sum(1 for o in done if not o.passed)
    failures += workload.failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": workload.properties(),
        "extra": {**extra, "failed_frac": failed / attempted},
        "metrics": metrics,
        "setup_samples": setup,
        "latencies_s": [o.seconds for o in done],
        "failures": failures,
    }
    with open(os.path.join(RUNS_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for line in failures[:20]:
        print(f"perfbench: FAILED {line}")
    print(f"perfbench: {args.workload} seed {args.seed}: {json.dumps(record['environment'])}")
    print(f"perfbench: inputs {json.dumps(record['inputs'])}")
    for name, value in record["extra"].items():
        shown = "not reported" if value is None else f"{value} {EXTRA_UNITS[name]}"
        print(f"perfbench: {name} = {shown}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
