"""Tests of the benchmark itself: inputs, tracing, metric names, gates."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import run, scenarios, workloads
from perfbench import tracer as tracing
from tfkeyrate import cli, keyrate_engine, planner
from tfkeyrate.channel_model import LinkGeometry, SourceSetting, SystemParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

A = SourceSetting(mu=0.166, nu=0.005, p_mu=0.069, p_nu=0.161, p_o=0.762, p_ohat=0.008)
B = SourceSetting(mu=0.725, nu=0.100, p_mu=0.388, p_nu=0.159, p_o=0.449, p_ohat=0.004)
PARAMS = SystemParams(eta_d=0.7, p_d=1e-8, alpha=0.165, e_d_z=0.0, f=1.1, N=1e11,
                      sigma=math.radians(5.0), delta=math.radians(7.0), eps=1.5e-10)


def _first_files(name, seed, directory, count):
    directory.mkdir()
    workload = workloads.make(name, seed, str(directory))
    stream = workload.requests()
    paths = {next(stream).argv[2] for _ in range(count)}
    return {os.path.basename(p): open(p, "rb").read() for p in sorted(paths)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_files_and_other_seed_other_files(name, tmp_path):
    first = _first_files(name, 7, tmp_path / "a", 4)
    again = _first_files(name, 7, tmp_path / "b", 4)
    other = _first_files(name, 8, tmp_path / "c", 4)
    assert first == again
    assert first != other


def test_generated_links_load_and_span_the_input_space():
    docs = [scenarios.keyrate_link(3, i)[0] for i in range(200)]
    assert {d["system"]["sigma_deg"] for d in docs} == set(scenarios.LINK_SIGMA_DEG)
    assert {d["system"]["n_pulses"] for d in docs} == set(scenarios.LINK_N_PULSES)
    arms = [n["distance_km"] for d in docs for n in d["nodes"]]
    assert 0.0 <= min(arms) and max(arms) <= 250.0
    asymptotic = sum(scenarios.keyrate_link(3, i)[1] for i in range(200))
    assert 25 <= asymptotic <= 75


def test_wrappers_are_transparent_and_removed_on_exit():
    originals = (keyrate_engine.evaluate_link, planner.evaluate_link, cli.polish_delta)
    geom = LinkGeometry(120.0, 200.0)
    plain = keyrate_engine.evaluate_link(A, B, geom, PARAMS)
    short_block, far = replace(PARAMS, N=1e9), LinkGeometry(200.0, 200.0)
    with pytest.raises(keyrate_engine.InfeasibleDecoyError) as plain_error:
        keyrate_engine.evaluate_link(A, B, far, short_block)

    with tracing.Tracer() as tracer:
        assert planner.evaluate_link is keyrate_engine.evaluate_link is not originals[0]
        assert keyrate_engine.evaluate_link.__wrapped__ is originals[0]
        assert keyrate_engine.evaluate_link(A, B, geom, PARAMS) == plain
        with pytest.raises(keyrate_engine.InfeasibleDecoyError) as traced_error:
            keyrate_engine.evaluate_link(A, B, far, short_block)
        assert cli.polish_delta(A, B, geom, PARAMS) == originals[2](A, B, geom, PARAMS)

    assert str(traced_error.value) == str(plain_error.value)
    assert (keyrate_engine.evaluate_link, planner.evaluate_link, cli.polish_delta) == originals
    names = {span[1] for span in tracer.spans}
    assert {"keyrate_engine.evaluate_link", "planner.polish_delta", "finite_stats.quadrature"} <= names
    outcomes = [s[5]["outcome"] for s in tracer.spans if s[1] == "keyrate_engine.evaluate_link"]
    assert "infeasible" in outcomes and "positive" in outcomes


def test_self_time_excludes_children():
    with tracing.Tracer() as tracer:
        planner.polish_delta(A, B, LinkGeometry(120.0, 200.0), PARAMS)
    summary = tracing.summarize(tracer)
    assert 0.0 < summary["keyrate_engine.evaluate_link.self_s"] < summary["keyrate_engine.evaluate_link.s"]
    assert 0.0 < summary["planner.self_s"] < summary["planner.polish_delta.s"]


def _invoke(argv, tracer=None):
    return run.Client(cli.main).invoke(argv, tracer)


@pytest.mark.parametrize("extra", [[], ["--asymptotic"]])
def test_traced_keyrate_report_is_byte_identical(extra):
    argv = ["keyrate", "--config", os.path.join(ROOT, "configs", "link_a_c.json")] + extra
    plain = _invoke(argv)
    with tracing.Tracer() as tracer:
        traced = _invoke(argv, tracer)
    assert plain.code == traced.code == 0
    assert plain.stdout == traced.stdout
    assert tracer.spans[-1][1] == "cli.request"


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(run.EXTRA_UNITS)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)


# Per-layer metrics each workload is meant to move.
EXPECTED_LAYERS = {
    "keyrate_links": (
        "finite_stats.quadrature.calls", "finite_stats.quadrature.s", "finite_stats.integrand_evals",
        "finite_stats.integrand_evals_per_link", "finite_stats.chernoff.calls",
        "channel_model.observed_statistics.calls", "channel_model.observed_statistics.s",
        "channel_model.expected_pair_counts.s", "channel_model.x_basis_counts.s",
        "keyrate_engine.evaluate_link.calls", "keyrate_engine.evaluate_link.s",
        "keyrate_engine.evaluate_link.self_s", "planner.polish_delta.calls",
        "planner.polish_delta.s", "planner.polish_delta.evals", "planner.self_s",
        "planner.zero_rate_share", "cli.load_scenario.s", "cli.request_self_s",
    ),
    "mc_dense": (
        "keyrate_engine.decoy_chain.s", "event_simulator.simulate_rounds.s",
        "event_simulator.post_match_z.s", "event_simulator.post_match_x.s",
        "event_simulator.compare_with_analytics.s", "event_simulator.rounds",
        "event_simulator.shards", "event_simulator.z_pool_events",
        "event_simulator.x_slice_events", "event_simulator.event_share", "event_simulator.threads",
    ),
}
# about one X-slice event per 1e7 rounds on the sparse link
EXPECTED_LAYERS["mc_sparse"] = tuple(
    m for m in EXPECTED_LAYERS["mc_dense"] if m != "event_simulator.x_slice_events"
)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_metrics_move_on_their_workload(name, tmp_path):
    workload = workloads.make(name, 11, str(tmp_path))
    stream = workload.requests()
    with tracing.Tracer() as tracer:
        for _ in range(20 if name == "keyrate_links" else 1):  # links vary; mc takes 2 s
            request = next(stream)
            assert workload.check(request, _invoke(request.argv, tracer)), workload.failures
    summary = tracing.summarize(tracer)
    assert set(summary) <= set(run.PER_LAYER)
    empty = [m for m in EXPECTED_LAYERS[name] if not summary[m] > 0]
    assert not empty


def test_setup_probe_reports_every_module():
    sample = run.probe_setup(os.path.join(ROOT, "configs", "link_a_c.json"), samples=1)[0]
    assert set(sample["import_s"]) == set(tracing.MODULES)
    assert all(v > 0 for v in sample["import_s"].values())
    assert sample["setup_s"] >= sum(sample["import_s"].values())


def test_poisson_gate_accepts_small_counts_and_rejects_real_deviation():
    threshold = workloads.Z4_TAIL / 20
    assert workloads._poisson_two_sided(1, 0.03) > threshold  # z = 5.6, tail 0.06
    assert workloads._poisson_two_sided(1, 0.001) > threshold  # z = 31
    assert workloads._poisson_two_sided(248035, 248387.8) > 0.1
    assert workloads._poisson_two_sided(250500, 248387.8) > threshold  # z = 4.2, one row of 20
    assert workloads._poisson_two_sided(251000, 248387.8) < threshold  # z = 5.2
    assert workloads._poisson_two_sided(0, 40.0) < threshold


def test_network_reference_table_holds():
    answer = _invoke(workloads.network_request(ROOT).argv)
    assert workloads.check_network(answer) == []
    moved = answer.stdout.replace("1.64790699086e-05", "1.65e-05")
    assert workloads.check_network(workloads.Answer(0, moved, "", 0.0))


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyrate_links", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
