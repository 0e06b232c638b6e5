"""Golden-report regression: the CLI reports on the shipped configs.

Each command runs in-process on a file under configs/ and its report is
compared with the copy under tests/golden/: the `results` and `config`
blocks of JSON reports, and the rows plus the sidecar's `config` and
`frozen_settings` for the network CSV.  Strings, ints and booleans must
match exactly, floats to a relative 1e-9 (reports carry 12 significant
digits).  To refresh a golden file after an intended change, rerun the
command with `--out tests/golden/<name>` and review the diff.

tests/golden/keyrate_links.json holds its own inputs: 24 `keyrate`
requests (arms 0-250 km, sigma 0/5/18/40 deg, N 1e9/1e11/1e13, slice
polish on, four asymptotic) with each config inline, the exit code and the
report's `results` (absent for exit 3).  `python tests/test_golden_reports.py`
(with src/ on PYTHONPATH) reruns them and rewrites that file.
"""

import csv
import json
import math
import os

import pytest

from tfkeyrate.cli import main

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, os.pardir, "configs")
GOLDEN_DIR = os.path.join(HERE, "golden")

REL_TOL = 1e-9

KEYRATE_LINKS = os.path.join(GOLDEN_DIR, "keyrate_links.json")

JSON_CASES = {
    "keyrate_link_a_c.json": ["keyrate", "--config", "link_a_c.json"],
    "keyrate_link_a_c_asymptotic.json": ["keyrate", "--config", "link_a_c.json", "--asymptotic"],
    "sns_check_sns_symmetric.json": ["sns-check", "--config", "sns_symmetric.json"],
    "montecarlo_toy.json": ["montecarlo", "--config", "montecarlo_toy.json"],
}


def _assert_same(actual, expected, where="report"):
    assert type(actual) is type(expected), f"{where}: {actual!r} vs golden {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (x, y) in enumerate(zip(actual, expected)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {actual!r} vs golden {expected!r}"
        )
    else:
        assert actual == expected, f"{where}: {actual!r} vs golden {expected!r}"


def _run(argv, out):
    argv = list(argv)
    argv[2] = os.path.join(CONFIG_DIR, argv[2])
    assert main(argv + ["--out", str(out)]) == 0


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[cell(c) for c in row] for row in rows[1:]]


def _assert_json_matches_golden(tmp_path, name, argv):
    out = tmp_path / name
    _run(argv, out)
    actual, golden = _load_json(out), _load_json(os.path.join(GOLDEN_DIR, name))
    _assert_same(actual["config"], golden["config"], "config")
    _assert_same(actual["results"], golden["results"], "results")


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_report_matches_golden(tmp_path, name):
    _assert_json_matches_golden(tmp_path, name, JSON_CASES[name])


def test_threaded_montecarlo_report_matches_golden(tmp_path):
    # --threads is accepted and changes nothing: the shards run one after
    # another, so the report must be the one without it
    name = "montecarlo_toy.json"
    _assert_json_matches_golden(tmp_path, name, JSON_CASES[name] + ["--threads", "2"])


def test_network_report_matches_golden(tmp_path):
    out = tmp_path / "network.csv"
    _run(["network", "--config", "network_four_users.json"], out)
    golden = os.path.join(GOLDEN_DIR, "network_four_users.csv")
    header, rows = _csv_rows(out)
    golden_header, golden_rows = _csv_rows(golden)
    assert header == golden_header
    _assert_same(rows, golden_rows, "rows")
    meta, golden_meta = _load_json(str(out) + ".meta.json"), _load_json(golden + ".meta.json")
    _assert_same(meta["config"], golden_meta["config"], "config")
    _assert_same(meta["frozen_settings"], golden_meta["frozen_settings"], "frozen_settings")


def _run_keyrate_case(tmp_path, case):
    config = tmp_path / f"{case['name']}.json"
    config.write_text(json.dumps(case["config"]), encoding="utf-8")
    out = tmp_path / f"{case['name']}.report.json"
    argv = ["keyrate", "--config", str(config), "--out", str(out)]
    code = main(argv + (["--asymptotic"] if case["asymptotic"] else []))
    return code, (_load_json(out)["results"] if code == 0 else None)


@pytest.mark.parametrize("case", _load_json(KEYRATE_LINKS), ids=lambda case: case["name"])
def test_keyrate_link_matches_golden(tmp_path, case):
    code, results = _run_keyrate_case(tmp_path, case)
    assert code == case["exit"]
    if code == 0:
        _assert_same(results, case["results"], "results")


if __name__ == "__main__":
    import pathlib
    import tempfile

    cases = _load_json(KEYRATE_LINKS)
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case["exit"], results = _run_keyrate_case(pathlib.Path(tmp), case)
            case.pop("results", None)
            if results is not None:
                case["results"] = results
    with open(KEYRATE_LINKS, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
