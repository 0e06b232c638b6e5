"""Config fuzzing: every single-fault mutation of the shipped configs.

Each file under configs/ is read as shipped, then mutated at every dict
key and list index: the entry is dropped or replaced by one of HOSTILE.
Each config also gets an unknown top-level key, a truncated copy, and
NaN/Infinity literals in place of a number.  tests/golden/config_fuzz.json records what `load_scenario`
makes of each document: the ConfigError text verbatim, or the sha256 of the
rounded resolved echo.  `python tests/test_config_fuzz.py` (with src/ on
PYTHONPATH) rewrites that file.

The same mutations then run through `cli.main` for the three commands that
answer in milliseconds; every document must exit 0, 2 or 3 within 5 s.
`scan` and `network` are checked at the `load_scenario` level only: their
optimizer runs for 10-35 s even on the unmutated configs.
"""

import copy
import hashlib
import json
import os
import time

import pytest

from tfkeyrate.cli import ConfigError, _round_floats, load_scenario, main

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, os.pardir, "configs")
GOLDEN = os.path.join(HERE, "golden", "config_fuzz.json")

CONFIGS = sorted(os.listdir(CONFIG_DIR))
HOSTILE = ("x", True, None, [], {}, -1, 0, 1e300, 5e-324, -0.0, 1.5, [1, 2])
_DROP = object()


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _paths(node, prefix=()):
    """Every dict key and list index under node, each parent before its children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _label(path):
    text = ""
    for p in path:
        text += f"[{p}]" if isinstance(p, int) else (f".{p}" if text else p)
    return text


def mutations(base):
    """(label, document text) for base itself and every single-fault mutation of it."""
    yield "unmutated", json.dumps(base)
    for path in _paths(base):
        for value in (_DROP, *HOSTILE):
            doc = copy.deepcopy(base)
            parent = doc
            for p in path[:-1]:
                parent = parent[p]
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield f"{_label(path)} {'drop' if value is _DROP else json.dumps(value)}", json.dumps(doc)
    yield "+fuzz", json.dumps({**base, "fuzz": 1})
    text = json.dumps(base, indent=2)
    yield "truncated", text[: len(text) // 2]
    for literal in ("NaN", "Infinity", "-Infinity"):
        doc = copy.deepcopy(base)
        doc["system"]["eta_d"] = "__literal__"
        yield f"system.eta_d {literal}", json.dumps(doc).replace('"__literal__"', literal)


def _outcome(path):
    try:
        doc = load_scenario(path)
    except ConfigError as exc:
        return "error: " + str(exc).replace(path, "<config>")
    echo = json.dumps(_round_floats(doc.resolved), sort_keys=True)
    return "sha256:" + hashlib.sha256(echo.encode("utf-8")).hexdigest()


def outcomes(tmp_dir, name):
    path = os.path.join(tmp_dir, "scenario.json")
    table = {}
    for label, text in mutations(_shipped(name)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        table[label] = _outcome(path)
    return table


@pytest.mark.parametrize("name", CONFIGS)
def test_load_scenario_outcomes_match_golden(tmp_path, name):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    actual = outcomes(str(tmp_path), name)
    changed = sorted(k for k in golden.keys() | actual.keys() if golden.get(k) != actual.get(k))
    shown = "\n".join(f"{k}: {actual.get(k)!r} vs golden {golden.get(k)!r}" for k in changed[:5])
    assert not changed, f"{len(changed)} outcomes differ, e.g.\n{shown}"


# the 'keyrate.optimize_sources true' mutation runs the source optimizer
# (ROADMAP item 3), which takes as long as a scan; it is checked at the
# load_scenario level only, like the scan and network configs
CLI_RUNS = [
    ("link_a_c.json", "keyrate", {"keyrate.optimize_sources true"}),
    ("sns_symmetric.json", "sns-check", set()),
    ("montecarlo_toy.json", "montecarlo", set()),
]


@pytest.mark.parametrize("name, command, skipped", CLI_RUNS, ids=[c for _, c, _ in CLI_RUNS])
def test_every_mutation_exits_0_2_or_3_in_time(tmp_path, capsys, name, command, skipped):
    base = _shipped(name)
    if command == "montecarlo":
        base["montecarlo"]["rounds"] = 100_000
    config, out = tmp_path / "scenario.json", tmp_path / "report.out"
    for label, text in mutations(base):
        if label in skipped:
            continue
        config.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code = main([command, "--config", str(config), "--out", str(out)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2, 3), label
        assert elapsed < 5.0, (label, elapsed)
        assert out.exists() == (code == 0), label
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1, (label, err)
        if out.exists():
            out.unlink()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: outcomes(tmp, name) for name in CONFIGS}
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
