"""Command-line front end: scenario files in, machine-readable results out.

Configs are JSON with units spelled out in the field names (distance_km,
alpha_db_per_km, sigma_deg); angles are converted to radians exactly once,
at ingestion.  Validation is strict: unknown fields anywhere in the
document are rejected before any computation or output-file access.  One
field table per block, (reader, default) per field, drives both the
validation and the resolved echo.  Seeds, in the config or from --seed,
must lie in [0, 2**63), montecarlo.rounds in [1, 2**63), and the optimizer
starts (scan.n_starts, scan.warm_random_starts, network.n_starts) in
[0, MAX_STARTS].

Exit codes: 0 success (a zero rate is a valid answer), 2 configuration or
validation error, or settings the model cannot evaluate (a declared or
undeclared vacuum class that is never sent, intensities so large that the
model overflows), 3 decoy estimation infeasible for the requested link.

Every JSON output embeds the resolved configuration (the validated
document with every default filled in), the seed and the package version,
so a run can be replayed from its own report.  CSV outputs carry the
same metadata in a sidecar file (<out>.meta.json).
Floats are rounded to 12 significant digits for cross-platform stability;
all files are UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Any

from . import __version__
from .channel_model import (
    LinkGeometry,
    SourceSetting,
    SystemParams,
    single_photon_yields,
)
from .diagnostics import (
    SnsSourceSetting,
    UnusableCoinError,
    plob_bound,
    sns_constraint_residual,
    sns_phase_error_bound,
    sns_quantum_coin_delta,
)
from .event_simulator import compare_with_analytics, oracle_tally, resolve_threads
from .keyrate_engine import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    InfeasibleDecoyError,
    MissingDeclareVacuumError,
    evaluate_counts,
    evaluate_link,
)
from .planner import (
    ORIENTATION_POLICIES,
    ChannelShape,
    NetworkNode,
    NetworkScenario,
    distance_scan,
    evaluate_network,
    optimize_link,
    polish_delta,
)

SCHEMA_VERSION = 1
DEG = math.pi / 180.0

CSV_SCAN_HEADER = "total_km,rate_finite,rate_asymptotic,plob"
CSV_NETWORK_HEADER = "node_a,node_b,total_km,delta_deg,rate,plob,ratio"

# A montecarlo row is flagged when its exact Poisson tail is below the
# two-sided tail of a normal variable beyond 3 standard deviations.
FLAG_TAIL = math.erfc(3.0 / math.sqrt(2.0))


class ConfigError(ValueError):
    """Scenario document failed validation."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


# A field table maps each field of a block to (reader, default).  A reader
# takes the field's path and value and returns the value to echo, or raises
# ConfigError.  Defaults go through the same reader; a default of None
# leaves an absent field out of the echo.
REQUIRED = object()


def _number(where: str, v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise ConfigError(f"{where}: expected a finite number, got {v}")
    return float(v)


def _integer(where: str, v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or int(v) != v:
        raise ConfigError(f"{where}: expected an integer")
    return int(v)


def _integer_from(low: int):
    """Reader of an integer in [low, 2**63): numpy draws int64 counts, and a
    Philox key, seed << 64 plus a stream id, must stay below 2**128 when scan
    or network add a grid or anchor index to the seed."""

    def read(where: str, v: Any) -> int:
        n = _integer(where, v)
        if n < low:
            raise ConfigError(f"{where}: must be >= {low}")
        if n >= 2**63:
            raise ConfigError(f"{where}: must be < 2**63")
        return n

    return read


_seed = _integer_from(0)

# Random optimizer starts a scan or network may ask for per link: each costs
# a local optimization, so 1,000 already runs for hours.
MAX_STARTS = 1_000


def _starts(where: str, v: Any) -> int:
    n = _integer(where, v)
    if not 0 <= n <= MAX_STARTS:
        raise ConfigError(f"{where}: must be in [0, {MAX_STARTS}]")
    return n


def _boolean(where: str, v: Any) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected a boolean")
    return v


def _name(where: str, v: Any) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where}: expected a non-empty string")
    return v


def _choice(choices: tuple[str, ...]):
    def read(where: str, v: Any) -> str:
        if v not in choices:
            raise ConfigError(f"{where}: expected one of {', '.join(choices)}")
        return v

    return read


def _schema_version(where: str, v: Any) -> int:
    if isinstance(v, bool) or v != SCHEMA_VERSION:
        raise ConfigError(f"{where} {v!r} not supported (expected {SCHEMA_VERSION})")
    return SCHEMA_VERSION


def _grid(where: str, v: Any) -> list[float]:
    if not isinstance(v, list) or not v or not all(
        isinstance(g, (int, float)) and not isinstance(g, bool) and math.isfinite(g) for g in v
    ):
        raise ConfigError(f"{where}: expected a non-empty list of numbers")
    return [float(g) for g in v]


def _anchors(where: str, v: Any) -> list[list[str]]:
    if not isinstance(v, list):
        raise ConfigError(f"{where}: expected a list of node-name pairs")
    for i, pair in enumerate(v):
        if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(p, str) for p in pair):
            raise ConfigError(f"{where}[{i}]: expected a pair of node names")
    return [list(pair) for pair in v]


def _block(table: dict):
    """Reader of a block: it checks the object type, unknown fields, missing
    fields, then each field by its reader in table order, and returns the
    block's echo.  The document itself is the block at path ""."""

    def read(where: str, obj: Any) -> dict:
        if not isinstance(obj, dict):
            raise ConfigError(f"{where or 'document'}: expected an object")
        unknown = set(obj) - set(table)
        if unknown:
            raise ConfigError(f"{where or 'document'}: unknown fields {sorted(unknown)}")
        missing = {key for key, (_, default) in table.items() if default is REQUIRED} - set(obj)
        if missing:
            raise ConfigError(f"{where or 'document'}: missing fields {sorted(missing)}")
        return {
            key: reader(f"{where}.{key}" if where else key, obj.get(key, default))
            for key, (reader, default) in table.items()
            if key in obj or default is not None
        }

    return read


def _nodes(where: str, v: Any) -> list[dict]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a non-empty list")
    return [_block(NODE)(f"{where}[{i}]", node) for i, node in enumerate(v)]


SYSTEM = {
    "eta_d": (_number, REQUIRED),
    "p_d": (_number, REQUIRED),
    "alpha_db_per_km": (_number, REQUIRED),
    "e_d_z": (_number, 0.0),
    "f_ec": (_number, 1.1),
    "n_pulses": (_number, REQUIRED),
    "sigma_deg": (_number, 0.0),
    "delta_deg": (_number, 7.0),
    "eps": (_number, REQUIRED),
}
SOURCE = {key: (_number, REQUIRED) for key in ("mu", "nu", "p_mu", "p_nu", "p_o", "p_ohat")}
NODE = {
    "name": (_name, REQUIRED),
    "distance_km": (_number, REQUIRED),
    "source": (_block(SOURCE), REQUIRED),
}
KEYRATE = {
    "optimize_delta": (_boolean, True),
    "optimize_sources": (_boolean, False),
}
SCAN = {
    "grid_km": (_grid, REQUIRED),
    "channel": (_choice(("symmetric", "asymmetric")), "symmetric"),
    "offset_km": (_number, 0.0),
    "n_starts": (_starts, 8),
    "warm_random_starts": (_starts, 4),
    "seed": (_seed, 0),
}
NETWORK = {
    "anchors": (_anchors, []),
    "optimize_anchors": (_boolean, True),
    "orientation": (_choice(ORIENTATION_POLICIES), "nearer_alice"),
    "n_starts": (_starts, 16),
    "seed": (_seed, 0),
}
MONTECARLO = {
    "rounds": (_integer_from(1), REQUIRED),
    "seed": (_seed, 0),
}
SNS_SOURCE = {key: (_number, REQUIRED) for key in ("mu_a", "mu_b", "nu_a", "nu_b", "t_a", "t_b")}
SNS_CHECK = {
    "source": (_block(SNS_SOURCE), REQUIRED),
    "e1x_upper": (_number, None),
    "y10": (_number, None),
    "y01": (_number, None),
}
DOCUMENT = {
    "schema_version": (_schema_version, REQUIRED),
    "system": (_block(SYSTEM), REQUIRED),
    "nodes": (_nodes, REQUIRED),
    "keyrate": (_block(KEYRATE), {}),
    "scan": (_block(SCAN), None),
    "network": (_block(NETWORK), {}),
    "montecarlo": (_block(MONTECARLO), None),
    "sns_check": (_block(SNS_CHECK), None),
}


def _build(where: str, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated configuration with defaults applied; `resolved` is the
    validated document itself, which every report echoes."""

    params: SystemParams
    nodes: tuple[NetworkNode, ...]
    keyrate: dict
    scan: dict | None
    network: dict
    montecarlo: dict | None
    sns_check: dict | None
    resolved: dict


def _reject_constant(name: str) -> None:
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_scenario(path: str) -> ScenarioDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc

    resolved = _block(DOCUMENT)("", raw)
    s = resolved["system"]
    params = _build(
        "system", SystemParams, eta_d=s["eta_d"], p_d=s["p_d"], alpha=s["alpha_db_per_km"],
        e_d_z=s["e_d_z"], f=s["f_ec"], N=s["n_pulses"], sigma=s["sigma_deg"] * DEG,
        delta=s["delta_deg"] * DEG, eps=s["eps"],
    )
    nodes = tuple(
        _build(f"nodes[{i}]", NetworkNode, node["name"], node["distance_km"],
               _build(f"nodes[{i}].source", SourceSetting, **node["source"]))
        for i, node in enumerate(resolved["nodes"])
    )
    names = {n.name for n in nodes}
    if len(names) != len(nodes):
        raise ConfigError("nodes: names must be unique")
    network = resolved["network"]
    for i, pair in enumerate(network["anchors"]):
        for name in pair:
            if name not in names:
                raise ConfigError(f"network.anchors[{i}]: unknown node {name!r}")

    scan = resolved.get("scan")
    if scan is not None:
        scan = {**scan, "channel": _build("scan", ChannelShape, scan["channel"], scan["offset_km"])}
    sns_check = resolved.get("sns_check")
    if sns_check is not None:
        sns_check = {
            "source": _build("sns_check.source", SnsSourceSetting, **sns_check["source"]),
            **{key: sns_check.get(key) for key in ("e1x_upper", "y10", "y01")},
        }
    return ScenarioDocument(
        params=params,
        nodes=nodes,
        keyrate=resolved["keyrate"],
        scan=scan,
        network={**network, "anchors": tuple(tuple(pair) for pair in network["anchors"])},
        montecarlo=resolved.get("montecarlo"),
        sns_check=sns_check,
        resolved=resolved,
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_report(command: str, doc: ScenarioDocument, seed: int | None, **fields: Any) -> str:
    """A JSON report or CSV sidecar: the resolved config, seed and version, plus fields."""
    report = {"tool": "tfkeyrate", "version": __version__, "command": command, "config": doc.resolved, **fields}
    if seed is not None:
        report["seed"] = seed
    return json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"


def _write_meta(out: str | None, command: str, doc: ScenarioDocument, seed: int | None, **fields: Any) -> None:
    if out is not None:
        _write_text(out + ".meta.json", _json_report(command, doc, seed, **fields))


def _orient_two(doc: ScenarioDocument, command: str) -> tuple[NetworkNode, NetworkNode]:
    """Nearer node first; on a distance tie, document order."""
    if len(doc.nodes) != 2:
        raise ConfigError(f"{command} requires exactly two nodes, got {len(doc.nodes)}")
    first, second = doc.nodes
    if second.distance_km < first.distance_km:
        return second, first
    return first, second


def cmd_keyrate(doc: ScenarioDocument, args: argparse.Namespace) -> int:
    near, far = _orient_two(doc, "keyrate")
    geom = LinkGeometry(near.distance_km, far.distance_km)
    params = doc.params
    mode = MODE_ASYMPTOTIC if args.asymptotic else MODE_FINITE
    seed = args.seed if args.seed is not None else 0

    a, b = near.setting, far.setting
    evaluation = None
    if doc.keyrate["optimize_sources"]:
        plan = optimize_link(geom, params, initial=(a, b), seed=seed, mode=mode)
        a, b, params, evaluation = plan.a, plan.b, plan.params, plan.evaluation
    elif doc.keyrate["optimize_delta"]:
        params, _, evaluation, _ = polish_delta(a, b, geom, params, mode)
    if evaluation is None:
        # nothing was optimized, or the optimized point is infeasible, where
        # this call raises InfeasibleDecoyError (exit 3)
        evaluation = evaluate_link(a, b, geom, params, mode=mode)
    res = evaluation.result
    dec = evaluation.decoy
    counts = evaluation.counts
    total = geom.l_a + geom.l_b
    results = {
        "mode": mode,
        "node_order": [near.name, far.name],
        "delta_deg": params.delta / DEG,
        "total_km": total,
        "rate": res.rate,
        "key_length": res.ell,
        "key_length_unclamped": res.ell_unclamped,
        "terms": {
            "vacuum": res.vacuum_term,
            "single_photon": res.single_photon_term,
            "error_correction": res.error_correction_term,
            "correctness_penalty": res.correctness_penalty,
            "secrecy_penalty": res.secrecy_penalty,
            "privacy_amplification_penalty": res.privacy_amplification_penalty,
        },
        "decoy": {
            "y01_lower": dec.y01_lower,
            "y10_lower": dec.y10_lower,
            "s0mub_z_lower": dec.s0mub_z_lower,
            "s11_z_lower": dec.s11_z_lower,
            "s11_x_lower": dec.s11_x_lower,
            "t11_x_upper": dec.t11_x_upper,
            "e11_x_upper": dec.e11_x_upper,
            "phi11_z_upper": dec.phi11_z_upper,
        },
        "counts": {
            "n_z": counts.n_z,
            "m_z": counts.m_z,
            "error_rate_z": counts.E_z,
            "n_x": counts.n_x,
            "m_x": counts.m_x,
        },
        "epsilon": {
            "per_use": evaluation.budget.eps_per_use,
            "secrecy": evaluation.budget.eps_sec,
            "total": evaluation.budget.eps_tp,
        },
        "chernoff_applications": len(evaluation.chernoff_applications),
        "plob": plob_bound(total, params.eta_d, params.alpha),
        "sources": {"a": asdict(a), "b": asdict(b)},
    }
    _write_text(args.out, _json_report("keyrate", doc, seed, results=results))
    return 0


def cmd_scan(doc: ScenarioDocument, args: argparse.Namespace) -> int:
    if doc.scan is None:
        raise ConfigError("scan command requires a 'scan' block")
    seed = args.seed if args.seed is not None else doc.scan["seed"]
    rows = distance_scan(
        doc.params,
        doc.scan["channel"],
        doc.scan["grid_km"],
        seed=seed,
        n_starts=doc.scan["n_starts"],
        warm_random_starts=doc.scan["warm_random_starts"],
    )
    lines = [CSV_SCAN_HEADER]
    lines.extend(
        ",".join(_fmt(v) for v in (r.total_km, r.rate_finite, r.rate_asymptotic, r.plob))
        for r in rows
    )
    _write_text(args.out, "\n".join(lines) + "\n")
    settings = [
        {"total_km": r.total_km, "delta_deg": r.plan.delta / DEG, "a": asdict(r.plan.a), "b": asdict(r.plan.b)}
        for r in rows
    ]
    _write_meta(args.out, "scan", doc, seed, settings=settings)
    return 0


def cmd_network(doc: ScenarioDocument, args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else doc.network["seed"]
    scn = NetworkScenario(nodes=doc.nodes, anchors=doc.network["anchors"], params=doc.params)
    result = evaluate_network(
        scn,
        seed=seed,
        optimize_anchors=doc.network["optimize_anchors"],
        orientation=doc.network["orientation"],
        n_starts=doc.network["n_starts"],
        mode=MODE_ASYMPTOTIC if args.asymptotic else MODE_FINITE,
    )
    lines = [CSV_NETWORK_HEADER]
    for p in result.pairs:
        lines.append(
            f"{p.node_a},{p.node_b},"
            + ",".join(_fmt(v) for v in (p.total_km, p.delta / DEG, p.rate, p.plob, p.ratio))
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    frozen = {n: asdict(s) for n, s in result.settings.items()}
    _write_meta(args.out, "network", doc, seed, frozen_settings=frozen)
    return 0


def cmd_montecarlo(doc: ScenarioDocument, args: argparse.Namespace) -> int:
    if doc.montecarlo is None:
        raise ConfigError("montecarlo command requires a 'montecarlo' block")
    near, far = _orient_two(doc, "montecarlo")
    geom = LinkGeometry(near.distance_km, far.distance_km)
    a, b = near.setting, far.setting
    seed = args.seed if args.seed is not None else doc.montecarlo["seed"]
    rounds = doc.montecarlo["rounds"]
    # --threads and TFKEYRATE_THREADS are still accepted and checked, though
    # the shards run one after another
    try:
        resolve_threads(args.threads)
    except ValueError as exc:  # a TFKEYRATE_THREADS that is not an integer
        raise ConfigError(str(exc)) from exc

    tally = oracle_tally(a, b, geom, doc.params, rounds, seed)
    rows = compare_with_analytics(tally, a, b, geom, doc.params)
    flagged = [r.name for r in rows if r.tail < FLAG_TAIL]

    params = replace(doc.params, N=float(rounds))
    bounds: dict[str, Any]
    try:
        dec = evaluate_counts(tally.observed_counts(), a, b, geom, params).decoy
    except InfeasibleDecoyError as exc:
        bounds = {"feasible": False, "reason": str(exc)}
    else:
        y10_true, y01_true = single_photon_yields(geom, params)
        bounds = {
            "feasible": True,
            "y01_lower": dec.y01_lower,
            "y01_true": y01_true,
            "y10_lower": dec.y10_lower,
            "y10_true": y10_true,
            "s11_z_lower": dec.s11_z_lower,
            "s11_z_true": tally.s11_z_true,
            "s11_x_lower": dec.s11_x_lower,
            "s11_x_true_events": 2 * tally.s11_x_true_pairs,
            "s0mub_lower": dec.s0mub_z_lower,
            "s0mub_true": tally.s0mub_true,
        }
        bounds["ordering_ok"] = bool(
            dec.y01_lower <= y01_true
            and dec.y10_lower <= y10_true
            and dec.s11_z_lower <= tally.s11_z_true
            and dec.s11_x_lower <= 2 * tally.s11_x_true_pairs
            and dec.s0mub_z_lower <= tally.s0mub_true
        )

    results = {
        "rounds": rounds,
        "node_order": [near.name, far.name],
        "comparison": [
            {"name": r.name, "observed": r.observed, "expected": r.expected, "z": r.z_score,
             "tail": r.tail}
            for r in rows
        ],
        "flagged": flagged,
        "tally": tally.summary(),
        "decoy_bounds": bounds,
    }
    _write_text(args.out, _json_report("montecarlo", doc, seed, results=results))
    return 0


def cmd_sns_check(doc: ScenarioDocument, args: argparse.Namespace) -> int:
    if doc.sns_check is None:
        raise ConfigError("sns-check command requires a 'sns_check' block")
    source: SnsSourceSetting = doc.sns_check["source"]
    y10 = doc.sns_check["y10"]
    y01 = doc.sns_check["y01"]
    if y10 is None or y01 is None:
        near, far = _orient_two(doc, "sns-check")
        geom = LinkGeometry(near.distance_km, far.distance_km)
        y10_derived, y01_derived = single_photon_yields(geom, doc.params)
        y10 = y10 if y10 is not None else y10_derived
        y01 = y01 if y01 is not None else y01_derived

    results: dict[str, Any] = {
        "residual": sns_constraint_residual(source),
        "y10": y10,
        "y01": y01,
    }
    try:
        delta = sns_quantum_coin_delta(source, y10, y01)
        results["delta"] = delta
        results["coin_usable"] = True
        if doc.sns_check["e1x_upper"] is not None:
            results["e1x_upper"] = doc.sns_check["e1x_upper"]
            results["phase_error_upper"] = sns_phase_error_bound(delta, doc.sns_check["e1x_upper"])
    except UnusableCoinError as exc:
        results["delta"] = exc.delta
        results["coin_usable"] = False
    except ValueError as exc:  # configured yields or e1x_upper out of range
        raise ConfigError(f"sns_check: {exc}") from exc
    _write_text(args.out, _json_report("sns-check", doc, None, results=results))
    return 0


_COMMANDS = {
    "keyrate": cmd_keyrate,
    "scan": cmd_scan,
    "network": cmd_network,
    "montecarlo": cmd_montecarlo,
    "sns-check": cmd_sns_check,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfkeyrate",
        description="Finite-key rates, optimization and event-level checks for "
        "post-matched two-photon twin-field QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("keyrate", "finite-key rate breakdown for a two-node link"),
        ("scan", "optimized rate-versus-distance curve (CSV)"),
        ("network", "pairwise rates for a multi-node scenario (CSV)"),
        ("montecarlo", "event-level simulation compared against analytics"),
        ("sns-check", "sending-or-not-sending comparison-mode diagnostics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and changes nothing: montecarlo shards "
                       "run one after another (TFKEYRATE_THREADS, if set, must be an integer)")
        p.add_argument("--asymptotic", action="store_true",
                       help="asymptotic mode (keyrate and network)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            _seed("--seed", args.seed)
        doc = load_scenario(args.config)
        return _COMMANDS[args.command](doc, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MissingDeclareVacuumError, OverflowError) as exc:
        print(f"error: the model cannot evaluate these settings: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDecoyError as exc:
        print(f"error: decoy estimation infeasible: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
