"""End-to-end tests for the tfkeyrate command-line interface."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from conftest import RATES_SIGMA5
from tfkeyrate import cli, planner
from tfkeyrate.cli import (
    CSV_NETWORK_HEADER,
    CSV_SCAN_HEADER,
    ConfigError,
    load_scenario,
    main,
)
from tfkeyrate.diagnostics import plob_bound
from tfkeyrate.event_simulator import ComparisonRow, poisson_two_sided_tail

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

_SYSTEM = {
    "eta_d": 0.7,
    "p_d": 1e-8,
    "alpha_db_per_km": 0.165,
    "e_d_z": 0.0,
    "f_ec": 1.1,
    "n_pulses": 1e9,
    "sigma_deg": 5.0,
    "delta_deg": 7.0,
    "eps": 1.5e-10,
}
_SOURCE = {"mu": 0.4, "nu": 0.07, "p_mu": 0.35, "p_nu": 0.18, "p_o": 0.46, "p_ohat": 0.01}


def _two_node_doc(km, n_pulses=1e9, source=None):
    src = dict(source or _SOURCE)
    return {
        "schema_version": 1,
        "system": {**_SYSTEM, "n_pulses": n_pulses},
        "nodes": [
            {"name": "near", "distance_km": km, "source": dict(src)},
            {"name": "far", "distance_km": km, "source": dict(src)},
        ],
        "keyrate": {"optimize_delta": False},
    }


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _shipped(name):
    return os.path.join(CONFIG_DIR, name)


def test_load_scenario_rejects_malformed_documents(tmp_path):
    good = _two_node_doc(100.0)

    def expect_error(mutate, match):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ConfigError, match=match):
            load_scenario(_write(tmp_path, doc))

    expect_error(lambda d: d.update(plot=True), "unknown fields")
    expect_error(lambda d: d["system"].update(wavelength_nm=1550), "unknown fields")
    expect_error(lambda d: d["nodes"][0].update(color="red"), "unknown fields")
    expect_error(lambda d: d.update(schema_version=2), "schema_version")
    expect_error(lambda d: d["system"].pop("eps"), "missing fields")
    expect_error(lambda d: d["system"].update(eta_d="high"), "expected a number")
    expect_error(lambda d: d["nodes"].clear(), "non-empty list")
    expect_error(lambda d: d["nodes"][0].update(name=""), "non-empty string")
    expect_error(
        lambda d: d["nodes"].__setitem__(1, dict(d["nodes"][0])), "names must be unique"
    )
    # physical validation surfaces through the same error type
    doc = json.loads(json.dumps(good))
    doc["nodes"][0]["source"]["nu"] = 0.5
    with pytest.raises(ConfigError):
        load_scenario(_write(tmp_path, doc))

    with pytest.raises(ConfigError, match="not valid JSON"):
        bad = tmp_path / "broken.json"
        bad.write_text("{", encoding="utf-8")
        load_scenario(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))


def test_bad_config_exits_2_without_touching_output(tmp_path, capsys):
    doc = _two_node_doc(100.0)
    doc["plot"] = True
    out = tmp_path / "report.json"
    rc = main(["keyrate", "--config", _write(tmp_path, doc), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "unknown fields" in capsys.readouterr().err


def test_keyrate_requires_exactly_two_nodes(tmp_path, capsys):
    rc = main(["keyrate", "--config", _shipped("network_four_users.json"), "--out",
               str(tmp_path / "r.json")])
    assert rc == 2
    assert "exactly two nodes" in capsys.readouterr().err


def test_keyrate_reference_link_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["keyrate", "--config", _shipped("link_a_c.json"), "--out", str(out)])
    assert rc == 0

    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["tool"] == "tfkeyrate"
    assert report["command"] == "keyrate"
    assert report["config"]["system"]["n_pulses"] == 1e11

    res = report["results"]
    published = RATES_SIGMA5[("A", "C")]
    assert abs(res["rate"] - published) / published < 0.10
    assert res["mode"] == "finite"
    assert res["node_order"] == ["C", "A"]  # nearer node takes the first role
    assert res["total_km"] == 320.0
    assert res["chernoff_applications"] == 13
    assert res["epsilon"]["per_use"] == 1.5e-10
    assert res["epsilon"]["total"] == 3.6e-9
    assert res["plob"] == pytest.approx(plob_bound(320.0, 0.7, 0.165), rel=1e-11)
    assert 0.0 < res["decoy"]["phi11_z_upper"] <= 0.5
    assert res["counts"]["n_z"] > 0.0
    assert res["key_length"] == pytest.approx(res["rate"] * 1e11, rel=1e-11)
    # the polished slice width lands away from the configured 7 degrees
    assert res["delta_deg"] != 7.0


def test_keyrate_asymptotic_flag(tmp_path):
    out_f = tmp_path / "finite.json"
    out_a = tmp_path / "asym.json"
    assert main(["keyrate", "--config", _shipped("link_a_c.json"), "--out", str(out_f)]) == 0
    assert main(["keyrate", "--config", _shipped("link_a_c.json"), "--out", str(out_a),
                 "--asymptotic"]) == 0
    finite = json.loads(out_f.read_text())["results"]
    asym = json.loads(out_a.read_text())["results"]
    assert asym["mode"] == "asymptotic"
    assert asym["rate"] > finite["rate"]
    penalties = ("correctness_penalty", "secrecy_penalty", "privacy_amplification_penalty")
    assert all(asym["terms"][k] == 0.0 for k in penalties)
    assert all(finite["terms"][k] > 0.0 for k in penalties)


def test_keyrate_zero_rate_is_a_valid_answer(tmp_path):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, _two_node_doc(180.0, n_pulses=1e9))
    assert main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["rate"] == 0.0
    assert res["key_length"] == 0.0
    assert res["key_length_unclamped"] < 0.0


def test_keyrate_infeasible_link_exits_3(tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, _two_node_doc(170.0, n_pulses=1e8))
    assert main(["keyrate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    assert "infeasible" in capsys.readouterr().err


def test_keyrate_writes_to_stdout_by_default(tmp_path, capsys):
    assert main(["keyrate", "--config", _shipped("link_a_c.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "keyrate"
    assert report["results"]["rate"] > 0.0


def test_montecarlo_report_is_reproducible(tmp_path):
    doc = json.loads(open(_shipped("montecarlo_toy.json"), encoding="utf-8").read())
    doc["montecarlo"] = {"rounds": 200000, "seed": 11}
    cfg = _write(tmp_path, doc)
    out1, out2, out3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))

    assert main(["montecarlo", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["montecarlo", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["montecarlo", "--config", cfg, "--out", str(out3), "--seed", "12"]) == 0
    assert out1.read_bytes() != out3.read_bytes()

    res = json.loads(out1.read_text())["results"]
    assert res["rounds"] == 200000
    assert res["node_order"] == ["near", "far"]
    assert len(res["comparison"]) == 20
    names = {row["name"] for row in res["comparison"]}
    assert {"n_z", "m_z", "n_x", "m_x"} <= names
    assert all(math.isfinite(row["z"]) for row in res["comparison"])
    assert len(res["flagged"]) <= 1  # at most one 3-sigma outlier among 20 rows
    bounds = res["decoy_bounds"]
    assert bounds["feasible"] is True
    assert bounds["ordering_ok"] is True
    assert bounds["s11_z_lower"] <= bounds["s11_z_true"]


def test_montecarlo_at_block_length_on_the_reference_link(tmp_path):
    # 1e9 rounds of the paper's A-C link: the decoy chain is feasible with
    # every bound below its tagged truth, and 1 and 2 threads agree.
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["montecarlo"] = {"rounds": 1_000_000_000, "seed": 20260814}
    cfg = _write(tmp_path, doc)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"mc_{threads}.json"
        assert main(["montecarlo", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    bounds = json.loads(reports[0])["results"]["decoy_bounds"]
    assert bounds["feasible"] is True
    assert bounds["ordering_ok"] is True


def test_montecarlo_at_ten_times_block_length_runs_in_seconds(tmp_path):
    # 1e10 A-C rounds fill 79 shards sized by their expected candidates
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["montecarlo"] = {"rounds": 10_000_000_000, "seed": 20260814}
    cfg = _write(tmp_path, doc)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"mc_{threads}.json"
        start = time.perf_counter()
        assert main(["montecarlo", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        assert time.perf_counter() - start <= 3.0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    bounds = json.loads(reports[0])["results"]["decoy_bounds"]
    assert bounds["feasible"] is True
    assert bounds["ordering_ok"] is True


@pytest.mark.parametrize(
    "command, field, literal",
    [
        ("keyrate", ("nodes", 0, "distance_km"), "NaN"),
        ("keyrate", ("system", "eta_d"), "-Infinity"),
        ("montecarlo", ("montecarlo", "rounds"), "Infinity"),
        ("montecarlo", ("montecarlo", "rounds"), "NaN"),
        ("montecarlo", ("montecarlo", "rounds"), "1e400"),
    ],
)
def test_non_finite_numbers_exit_2_quickly(tmp_path, command, field, literal):
    doc = _two_node_doc(100.0)
    doc["montecarlo"] = {"rounds": 1000, "seed": 1}
    *parents, key = field
    target = doc
    for p in parents:
        target = target[p]
    target[key] = "__placeholder__"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"__placeholder__"', literal), encoding="utf-8")
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


def _exits_2_quickly(tmp_path, capsys, command, doc, needle):
    out = tmp_path / "report.out"
    start = time.perf_counter()
    assert main([command, "--config", _write(tmp_path, doc), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "command, config", [("keyrate", "link_a_c.json"), ("network", "network_four_users.json")]
)
def test_never_sent_undeclared_vacuum_exits_2(tmp_path, capsys, command, config):
    # node C never sends the undeclared vacuum class, so the yield bounds
    # have nothing to rescale by; this is not a zero-rate answer
    doc = json.loads(open(_shipped(config), encoding="utf-8").read())
    (source,) = [n["source"] for n in doc["nodes"] if n["name"] == "C"]
    source["p_o"] += source["p_ohat"]
    source["p_ohat"] = 0.0
    _exits_2_quickly(tmp_path, capsys, command, doc, "undeclared-vacuum")


@pytest.mark.parametrize(
    "command, config", [("keyrate", "link_a_c.json"), ("network", "network_four_users.json")]
)
def test_never_sent_declared_vacuum_exits_2(tmp_path, capsys, command, config):
    # node C, the nearer node of its links, never sends the declared vacuum,
    # so its Z-basis matching row is empty because of the settings
    doc = json.loads(open(_shipped(config), encoding="utf-8").read())
    (source,) = [n["source"] for n in doc["nodes"] if n["name"] == "C"]
    source["p_mu"] += source["p_o"]
    source["p_o"] = 0.0
    _exits_2_quickly(tmp_path, capsys, command, doc, "nonzero declared-vacuum")


def test_link_where_nothing_clicks_is_infeasible(tmp_path, capsys):
    # no dark counts and 20000 km arms: every Z-basis matching pool is empty
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["system"]["p_d"] = 0.0
    for node in doc["nodes"]:
        node["distance_km"] = 20000.0
    cfg = _write(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["keyrate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    assert "empty Z-basis" in capsys.readouterr().err

    csv_out = tmp_path / "network.csv"
    assert main(["network", "--config", cfg, "--out", str(csv_out)]) == 0
    header, row = csv_out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_NETWORK_HEADER
    assert float(row.split(",")[4]) == 0.0


@pytest.mark.parametrize("command", ["keyrate", "montecarlo"])
def test_second_user_who_never_sends_mu_is_infeasible(tmp_path, capsys, command):
    # node A, the farther node, never sends mu: every matched Z pair has
    # equal intensities and is discarded; the parent divided by n_z = 0
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["montecarlo"] = {"rounds": 1_000_000, "seed": 1}
    (source,) = [n["source"] for n in doc["nodes"] if n["name"] == "A"]
    source["p_o"] += source["p_mu"]
    source["p_mu"] = 0.0
    out = tmp_path / "report.json"
    assert main([command, "--config", _write(tmp_path, doc), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no Z-basis pair can form" in err


def test_keyrate_evaluates_no_link_beyond_the_polish(tmp_path, monkeypatch):
    calls = []
    polish_evals = []
    evaluate_link, polish_delta = cli.evaluate_link, cli.polish_delta

    def counted_link(*args, **kwargs):
        calls.append(args)
        return evaluate_link(*args, **kwargs)

    def recorded_polish(*args, **kwargs):
        result = polish_delta(*args, **kwargs)
        polish_evals.append(result[3])
        return result

    monkeypatch.setattr(cli, "evaluate_link", counted_link)
    monkeypatch.setattr(planner, "evaluate_link", counted_link)
    monkeypatch.setattr(cli, "polish_delta", recorded_polish)
    out = tmp_path / "report.json"
    assert main(["keyrate", "--config", _shipped("link_a_c.json"), "--out", str(out)]) == 0
    assert len(polish_evals) == 1
    assert len(calls) == polish_evals[0]


def _a_c_rate(tmp_path, system, extra=()):
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["system"].update(system)
    out = tmp_path / "report.json"
    assert main(["keyrate", "--config", _write(tmp_path, doc), "--out", str(out), *extra]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["results"]["rate"]


@pytest.mark.parametrize("system", [{"eps": 0.025}, {"n_pulses": 1e30}])
def test_keyrate_where_gamma_needs_no_correction(tmp_path, system):
    # the random-sampling log argument falls below 1 here, where gamma is 0;
    # the parent exited 1 with a math domain error
    rate = _a_c_rate(tmp_path, system)
    asymptotic = _a_c_rate(tmp_path, system, ["--asymptotic"])
    assert math.isfinite(rate) and 0.0 < rate <= asymptotic


def test_keyrate_rate_rises_with_eps_up_to_asymptotic(tmp_path):
    rates = [_a_c_rate(tmp_path, {"eps": eps}) for eps in (0.02, 0.1, 0.9)]
    assert rates[0] < rates[1] < rates[2] <= _a_c_rate(tmp_path, {}, ["--asymptotic"])
    assert _a_c_rate(tmp_path, {"n_pulses": 1e100}) == _a_c_rate(tmp_path, {}, ["--asymptotic"])


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("eps", 1e-160, "eps must be at least"),
        ("eps", 1e-200, "eps must be at least"),
        ("n_pulses", 1e160, "round count N must be at most"),
    ],
)
def test_system_values_the_arithmetic_cannot_hold_exit_2(tmp_path, capsys, field, value, needle):
    # before, a NaN entropy, a division by zero and an infinite count
    # ended these runs with a traceback
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["system"][field] = value
    _exits_2_quickly(tmp_path, capsys, "keyrate", doc, needle)


@pytest.mark.parametrize(
    "intensities, needle",
    [
        ({"nu": 5e-324}, "nu must be at least sqrt(float min)"),
        ({"mu": math.nextafter(0.1, 1.0), "nu": 0.1}, "mu must exceed nu by more than rounding"),
    ],
    ids=["subnormal-nu", "mu-within-rounding-of-nu"],
)
def test_decoy_intensities_the_yield_bounds_cannot_divide_by_exit_2(tmp_path, capsys, intensities, needle):
    # mu nu - nu^2 rounded to 0 here, and the yield step ended the run with
    # a ZeroDivisionError traceback
    doc = json.loads(open(_shipped("link_a_c.json"), encoding="utf-8").read())
    doc["nodes"][0]["source"].update(intensities)
    _exits_2_quickly(tmp_path, capsys, "keyrate", doc, needle)


def test_two_runs_in_one_process_give_identical_reports(capsys):
    # the argument parser is built once per process and shared by every
    # run; a flag given to one run must not carry over to the next
    argv = ["keyrate", "--config", _shipped("link_a_c.json")]
    reports = []
    for extra in ([], ["--asymptotic"], []):
        assert main(argv + extra) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[2]
    modes = [json.loads(r)["results"]["mode"] for r in reports]
    assert modes == ["finite", "asymptotic", "finite"]


@pytest.mark.parametrize("mu", [800.0, 2500.0])
def test_overflowing_intensity_exits_2(tmp_path, capsys, mu):
    doc = _two_node_doc(0.0, source={**_SOURCE, "mu": mu})
    _exits_2_quickly(tmp_path, capsys, "keyrate", doc, "cannot evaluate")


@pytest.mark.parametrize("command", ["keyrate", "montecarlo"])
def test_intensity_beyond_the_float_range_names_its_field(tmp_path, capsys, command):
    doc = _two_node_doc(0.0)
    doc["montecarlo"] = {"rounds": 1000, "seed": 1}
    doc["nodes"][1]["source"]["mu"] = 2500.0
    _exits_2_quickly(tmp_path, capsys, command, doc, "nodes[1].source: mu = 2500.0 exceeds 700")


def test_scan_csv_and_meta_sidecar(tmp_path):
    doc = _two_node_doc(100.0, n_pulses=1e11)
    del doc["keyrate"]
    doc["scan"] = {
        "channel": "symmetric",
        "grid_km": [240.0, 280.0],
        "n_starts": 2,
        "warm_random_starts": 1,
        "seed": 2,
    }
    cfg = _write(tmp_path, doc)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_SCAN_HEADER
    assert len(lines) == 3
    rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
    assert [r["total_km"] for r in rows] == [240.0, 280.0]
    for r in rows:
        assert 0.0 < r["rate_finite"] <= r["rate_asymptotic"]
        assert r["plob"] == pytest.approx(plob_bound(r["total_km"], 0.7, 0.165), rel=1e-11)
    assert rows[0]["rate_finite"] > rows[1]["rate_finite"]

    meta = json.loads((tmp_path / "scan.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "scan"
    assert meta["seed"] == 2
    assert meta["config"]["scan"]["grid_km"] == [240.0, 280.0]
    assert [s["total_km"] for s in meta["settings"]] == [240.0, 280.0]
    assert all("a" in s and "b" in s and s["delta_deg"] > 0.0 for s in meta["settings"])


def test_network_csv_matches_reference(tmp_path):
    out = tmp_path / "network.csv"
    rc = main(["network", "--config", _shipped("network_four_users.json"), "--out", str(out)])
    assert rc == 0

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_NETWORK_HEADER
    assert len(lines) == 7

    above_plob = 0
    for ln in lines[1:]:
        parts = ln.split(",")
        pair = (parts[0], parts[1])
        if pair not in RATES_SIGMA5:
            pair = (parts[1], parts[0])
        total_km, delta_deg, rate, plob, ratio = map(float, parts[2:])
        published = RATES_SIGMA5[pair]
        assert abs(rate - published) / published < 0.10
        assert ratio == pytest.approx(rate / plob, rel=1e-9)
        above_plob += rate > plob
    assert above_plob == 5

    meta = json.loads((tmp_path / "network.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "network"
    assert set(meta["frozen_settings"]) == {"A", "B", "C", "D"}


def test_sns_check_report(tmp_path):
    out = tmp_path / "sns.json"
    assert main(["sns-check", "--config", _shipped("sns_symmetric.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "sns-check"
    assert "seed" not in report

    res = report["results"]
    # a symmetric source satisfies the intensity constraint exactly, so the
    # quantum coin is perfect and the phase error passes through unchanged
    assert res["residual"] == 0.0
    assert res["delta"] == 0.0
    assert res["coin_usable"] is True
    assert res["e1x_upper"] == 0.05
    assert res["phase_error_upper"] == 0.05
    assert 0.0 < res["y10"] == res["y01"] < 1.0


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # the optimizer is imported where it runs, so commands that never
    # optimize skip its import cost
    probe = "import sys, tfkeyrate.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "False"


def test_commands_reject_missing_blocks(tmp_path, capsys):
    doc = _two_node_doc(100.0)
    cfg = _write(tmp_path, doc)
    for command, needle in (
        ("scan", "scan"),
        ("montecarlo", "montecarlo"),
        ("sns-check", "sns_check"),
    ):
        assert main([command, "--config", cfg]) == 2
        assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, block, fields, extra, needle",
    [
        ("montecarlo", "montecarlo_toy.json", "montecarlo", {"seed": -1}, [], "montecarlo.seed"),
        ("montecarlo", "montecarlo_toy.json", "montecarlo", {"seed": 2e19}, [], "montecarlo.seed"),
        ("montecarlo", "montecarlo_toy.json", "montecarlo", {}, ["--seed", "-1"], "--seed"),
        ("scan", "scan_symmetric.json", "scan", {"seed": -1}, [], "scan.seed"),
        ("network", "network_four_users.json", "network",
         {"anchors": [["A", "C"]], "optimize_anchors": True, "seed": -1}, [], "network.seed"),
    ],
    ids=["montecarlo-seed-negative", "montecarlo-seed-2e19", "seed-flag-negative", "scan-seed", "network-seed"],
)
def test_seed_outside_the_philox_key_range_exits_2(tmp_path, capsys, command, config, block, fields, extra, needle):
    # the Philox key is seed << 64 and must stay below 2**128; the parent
    # ended these runs with a ValueError traceback
    doc = json.loads(open(_shipped(config), encoding="utf-8").read())
    doc[block].update(fields)
    out = tmp_path / "report.out"
    start = time.perf_counter()
    assert main([command, "--config", _write(tmp_path, doc), "--out", str(out), *extra]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("rounds", [1e300, 2e19, 2**63])
def test_round_count_beyond_int64_exits_2_quickly(tmp_path, capsys, rounds):
    # numpy draws int64 counts; the parent built one job per shard (2e13 for
    # the toy link) and ran on with no output
    doc = json.loads(open(_shipped("montecarlo_toy.json"), encoding="utf-8").read())
    doc["montecarlo"]["rounds"] = rounds
    _exits_2_quickly(tmp_path, capsys, "montecarlo", doc, "montecarlo.rounds")


def test_non_integer_thread_variable_exits_2(tmp_path, capsys, monkeypatch):
    # the parent ended this run with a ValueError traceback (exit 1)
    monkeypatch.setenv("TFKEYRATE_THREADS", "abc")
    doc = json.loads(open(_shipped("montecarlo_toy.json"), encoding="utf-8").read())
    doc["montecarlo"]["rounds"] = 3_000_000
    _exits_2_quickly(tmp_path, capsys, "montecarlo", doc, "TFKEYRATE_THREADS")


def test_montecarlo_flags_rows_by_their_exact_tail(tmp_path, monkeypatch):
    # A tiny expectation observed once has z = 5.2 but a tail of 0.07; the
    # |z| > 3 rule flagged about 18 % of correct A-C reports that way.
    def row(name, observed, expected):
        z = (observed - expected) / math.sqrt(expected)
        return ComparisonRow(name, observed, expected, z, poisson_two_sided_tail(observed, expected))

    rows = [row("gain[o,o]", 1.0, 0.035), row("n_z", 230.0, 200.0), row("n_x", 250.0, 200.0)]
    monkeypatch.setattr(cli, "compare_with_analytics", lambda *args: rows)
    doc = json.loads(open(_shipped("montecarlo_toy.json"), encoding="utf-8").read())
    doc["montecarlo"]["rounds"] = 100_000
    out = tmp_path / "report.json"
    assert main(["montecarlo", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert [r["tail"] for r in results["comparison"]] == [float(f"{r.tail:.12g}") for r in rows]
    assert rows[0].z_score > 3.0 and rows[1].tail > cli.FLAG_TAIL > rows[2].tail
    assert results["flagged"] == ["n_x"]


def test_largest_int64_round_count_is_accepted(tmp_path):
    doc = json.loads(open(_shipped("montecarlo_toy.json"), encoding="utf-8").read())
    doc["montecarlo"]["rounds"] = 2**63 - 1
    assert load_scenario(_write(tmp_path, doc)).montecarlo["rounds"] == 2**63 - 1


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"e1x_upper": 1.5}, "e1x must lie in [0, 0.5]"),
        ({"y10": 2.0, "y01": 0.5}, "yields must lie in (0, 1]"),
        ({"source": {"mu_a": 0.4, "mu_b": 1e300, "nu_a": 0.1, "nu_b": 0.1, "t_a": 0.3, "t_b": 0.3}},
         "Z-window weights"),
    ],
    ids=["e1x-upper", "yields", "underflowing-weight"],
)
def test_sns_check_values_outside_their_range_exit_2(tmp_path, capsys, fields, needle):
    # the parent ended these runs with a ValueError or ZeroDivisionError traceback
    doc = json.loads(open(_shipped("sns_symmetric.json"), encoding="utf-8").read())
    doc["sns_check"].update(fields)
    _exits_2_quickly(tmp_path, capsys, "sns-check", doc, needle)


@pytest.mark.parametrize(
    "command, config, block, field, value",
    [
        ("scan", "scan_symmetric.json", "scan", "n_starts", 1e300),
        ("scan", "scan_symmetric.json", "scan", "warm_random_starts", 1001),
        ("scan", "scan_symmetric.json", "scan", "n_starts", -1),
        ("network", "network_four_users.json", "network", "n_starts", 10**6),
    ],
)
def test_optimizer_starts_out_of_range_exit_2(tmp_path, capsys, command, config, block, field, value):
    # a scan asking for 1e300 starts ran past 20 s with no output
    doc = json.loads(open(_shipped(config), encoding="utf-8").read())
    doc[block][field] = value
    _exits_2_quickly(tmp_path, capsys, command, doc, f"{block}.{field}: must be in [0, 1000]")
