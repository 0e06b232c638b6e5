"""Command-line front end: scenario files in, machine-readable results out.

Configs are JSON with units spelled out in the field names (distance_km,
alpha_db_per_km, sigma_deg); angles are converted to radians exactly once,
at ingestion.  Validation is strict: unknown fields anywhere in the
document are rejected before any computation or output-file access.

Exit codes: 0 success (a zero rate is a valid answer), 2 configuration or
validation error, or settings the model cannot evaluate (a declared or
undeclared vacuum class that is never sent, intensities so large that the
model overflows), 3 decoy estimation infeasible for the requested link.

Every JSON output embeds the resolved configuration, the seed and the
package version, so a run can be replayed from its own report.  CSV
outputs carry the same metadata in a sidecar file (<out>.meta.json).
Floats are rounded to 12 significant digits for cross-platform stability;
all files are UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
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
from .event_simulator import compare_with_analytics, oracle_tally
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


def _check_keys(obj: Any, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing fields {sorted(missing)}")
    return obj


def _number(obj: dict, where: str, key: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing field {key!r}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v}")
    return float(v)


def _integer(obj: dict, where: str, key: str, default: int | None = None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing field {key!r}")
        return default
    v = obj[key]
    if (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or not math.isfinite(v)
        or int(v) != v
    ):
        raise ConfigError(f"{where}.{key}: expected an integer")
    return int(v)


def _boolean(obj: dict, where: str, key: str, default: bool) -> bool:
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected a boolean")
    return v


def _parse_system(obj: Any) -> SystemParams:
    _check_keys(
        obj,
        "system",
        required=("eta_d", "p_d", "alpha_db_per_km", "n_pulses", "eps"),
        optional=("e_d_z", "f_ec", "sigma_deg", "delta_deg"),
    )
    try:
        return SystemParams(
            eta_d=_number(obj, "system", "eta_d"),
            p_d=_number(obj, "system", "p_d"),
            alpha=_number(obj, "system", "alpha_db_per_km"),
            e_d_z=_number(obj, "system", "e_d_z", 0.0),
            f=_number(obj, "system", "f_ec", 1.1),
            N=_number(obj, "system", "n_pulses"),
            sigma=_number(obj, "system", "sigma_deg", 0.0) * DEG,
            delta=_number(obj, "system", "delta_deg", 7.0) * DEG,
            eps=_number(obj, "system", "eps"),
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def _parse_source(obj: Any, where: str) -> SourceSetting:
    _check_keys(obj, where, required=("mu", "nu", "p_mu", "p_nu", "p_o", "p_ohat"))
    try:
        return SourceSetting(
            mu=_number(obj, where, "mu"),
            nu=_number(obj, where, "nu"),
            p_mu=_number(obj, where, "p_mu"),
            p_nu=_number(obj, where, "p_nu"),
            p_o=_number(obj, where, "p_o"),
            p_ohat=_number(obj, where, "p_ohat"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_node(obj: Any, index: int) -> NetworkNode:
    where = f"nodes[{index}]"
    _check_keys(obj, where, required=("name", "distance_km", "source"))
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name: expected a non-empty string")
    distance_km = _number(obj, where, "distance_km")
    setting = _parse_source(obj["source"], f"{where}.source")
    try:
        return NetworkNode(name=name, distance_km=distance_km, setting=setting)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated configuration with defaults applied."""

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

    _check_keys(
        raw,
        "document",
        required=("schema_version", "system", "nodes"),
        optional=("keyrate", "scan", "network", "montecarlo", "sns_check"),
    )
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {raw['schema_version']!r} not supported (expected {SCHEMA_VERSION})"
        )
    params = _parse_system(raw["system"])
    if not isinstance(raw["nodes"], list) or not raw["nodes"]:
        raise ConfigError("nodes: expected a non-empty list")
    nodes = tuple(_parse_node(n, i) for i, n in enumerate(raw["nodes"]))
    if len({n.name for n in nodes}) != len(nodes):
        raise ConfigError("nodes: names must be unique")

    keyrate = _check_keys(
        raw.get("keyrate", {}), "keyrate", required=(), optional=("optimize_delta", "optimize_sources")
    )
    keyrate = {
        "optimize_delta": _boolean(keyrate, "keyrate", "optimize_delta", True),
        "optimize_sources": _boolean(keyrate, "keyrate", "optimize_sources", False),
    }

    scan = None
    if "scan" in raw:
        blk = _check_keys(
            raw["scan"],
            "scan",
            required=("grid_km",),
            optional=("channel", "offset_km", "n_starts", "warm_random_starts", "seed"),
        )
        grid = blk["grid_km"]
        if not isinstance(grid, list) or not grid or not all(
            isinstance(g, (int, float)) and not isinstance(g, bool) and math.isfinite(g)
            for g in grid
        ):
            raise ConfigError("scan.grid_km: expected a non-empty list of numbers")
        channel = blk.get("channel", "symmetric")
        if channel not in ("symmetric", "asymmetric"):
            raise ConfigError("scan.channel: expected 'symmetric' or 'asymmetric'")
        try:
            shape = ChannelShape(channel, _number(blk, "scan", "offset_km", 0.0))
        except ValueError as exc:
            raise ConfigError(f"scan: {exc}") from exc
        scan = {
            "channel": shape,
            "grid_km": [float(g) for g in grid],
            "n_starts": _integer(blk, "scan", "n_starts", 8),
            "warm_random_starts": _integer(blk, "scan", "warm_random_starts", 4),
            "seed": _integer(blk, "scan", "seed", 0),
        }

    network_blk = _check_keys(
        raw.get("network", {}),
        "network",
        required=(),
        optional=("anchors", "optimize_anchors", "orientation", "n_starts", "seed"),
    )
    anchors = network_blk.get("anchors", [])
    if not isinstance(anchors, list):
        raise ConfigError("network.anchors: expected a list of node-name pairs")
    parsed_anchors = []
    names = {n.name for n in nodes}
    for i, pair in enumerate(anchors):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, str) for p in pair)
        ):
            raise ConfigError(f"network.anchors[{i}]: expected a pair of node names")
        for p in pair:
            if p not in names:
                raise ConfigError(f"network.anchors[{i}]: unknown node {p!r}")
        parsed_anchors.append((pair[0], pair[1]))
    orientation = network_blk.get("orientation", "nearer_alice")
    if orientation not in ORIENTATION_POLICIES:
        raise ConfigError(f"network.orientation: expected one of {', '.join(ORIENTATION_POLICIES)}")
    network = {
        "anchors": tuple(parsed_anchors),
        "optimize_anchors": _boolean(network_blk, "network", "optimize_anchors", True),
        "orientation": orientation,
        "n_starts": _integer(network_blk, "network", "n_starts", 16),
        "seed": _integer(network_blk, "network", "seed", 0),
    }

    montecarlo = None
    if "montecarlo" in raw:
        blk = _check_keys(raw["montecarlo"], "montecarlo", required=("rounds",), optional=("seed",))
        rounds = _integer(blk, "montecarlo", "rounds")
        if rounds < 1:
            raise ConfigError("montecarlo.rounds: must be >= 1")
        montecarlo = {"rounds": rounds, "seed": _integer(blk, "montecarlo", "seed", 0)}

    sns_check = None
    if "sns_check" in raw:
        blk = _check_keys(
            raw["sns_check"],
            "sns_check",
            required=("source",),
            optional=("e1x_upper", "y10", "y01"),
        )
        src = _check_keys(
            blk["source"], "sns_check.source", required=("mu_a", "mu_b", "nu_a", "nu_b", "t_a", "t_b")
        )
        try:
            source = SnsSourceSetting(
                mu_a=_number(src, "sns_check.source", "mu_a"),
                mu_b=_number(src, "sns_check.source", "mu_b"),
                nu_a=_number(src, "sns_check.source", "nu_a"),
                nu_b=_number(src, "sns_check.source", "nu_b"),
                t_a=_number(src, "sns_check.source", "t_a"),
                t_b=_number(src, "sns_check.source", "t_b"),
            )
        except ValueError as exc:
            raise ConfigError(f"sns_check.source: {exc}") from exc
        sns_check = {
            "source": source,
            "e1x_upper": _number(blk, "sns_check", "e1x_upper", 0.0) if "e1x_upper" in blk else None,
            "y10": _number(blk, "sns_check", "y10", 0.0) if "y10" in blk else None,
            "y01": _number(blk, "sns_check", "y01", 0.0) if "y01" in blk else None,
        }

    return ScenarioDocument(
        params=params,
        nodes=nodes,
        keyrate=keyrate,
        scan=scan,
        network=network,
        montecarlo=montecarlo,
        sns_check=sns_check,
        resolved=_render_resolved(params, nodes, keyrate, scan, network, montecarlo, sns_check),
    )


def _render_source(s: SourceSetting) -> dict:
    return {"mu": s.mu, "nu": s.nu, "p_mu": s.p_mu, "p_nu": s.p_nu, "p_o": s.p_o, "p_ohat": s.p_ohat}


def _render_resolved(params, nodes, keyrate, scan, network, montecarlo, sns_check) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": {
            "eta_d": params.eta_d,
            "p_d": params.p_d,
            "alpha_db_per_km": params.alpha,
            "e_d_z": params.e_d_z,
            "f_ec": params.f,
            "n_pulses": params.N,
            "sigma_deg": params.sigma / DEG,
            "delta_deg": params.delta / DEG,
            "eps": params.eps,
        },
        "nodes": [
            {"name": n.name, "distance_km": n.distance_km, "source": _render_source(n.setting)}
            for n in nodes
        ],
        "keyrate": dict(keyrate),
        "network": {
            "anchors": [list(p) for p in network["anchors"]],
            "optimize_anchors": network["optimize_anchors"],
            "orientation": network["orientation"],
            "n_starts": network["n_starts"],
            "seed": network["seed"],
        },
    }
    if scan is not None:
        doc["scan"] = {
            "channel": scan["channel"].kind,
            "offset_km": scan["channel"].offset_km,
            "grid_km": list(scan["grid_km"]),
            "n_starts": scan["n_starts"],
            "warm_random_starts": scan["warm_random_starts"],
            "seed": scan["seed"],
        }
    if montecarlo is not None:
        doc["montecarlo"] = dict(montecarlo)
    if sns_check is not None:
        s = sns_check["source"]
        doc["sns_check"] = {
            "source": {
                "mu_a": s.mu_a, "mu_b": s.mu_b, "nu_a": s.nu_a,
                "nu_b": s.nu_b, "t_a": s.t_a, "t_b": s.t_b,
            },
            **{k: v for k, v in sns_check.items() if k != "source" and v is not None},
        }
    return doc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_report(command: str, doc: ScenarioDocument, seed: int | None, results: dict) -> str:
    report = {
        "tool": "tfkeyrate",
        "version": __version__,
        "command": command,
        "config": doc.resolved,
        "results": results,
    }
    if seed is not None:
        report["seed"] = seed
    return json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"


def _write_meta(out: str | None, command: str, doc: ScenarioDocument, seed: int | None, extra: dict | None = None) -> None:
    if out is None:
        return
    meta = {
        "tool": "tfkeyrate",
        "version": __version__,
        "command": command,
        "config": doc.resolved,
    }
    if seed is not None:
        meta["seed"] = seed
    if extra:
        meta.update(extra)
    _write_text(out + ".meta.json", json.dumps(_round_floats(meta), indent=2, sort_keys=True) + "\n")


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
        "sources": {"a": _render_source(a), "b": _render_source(b)},
    }
    _write_text(args.out, _json_report("keyrate", doc, seed, results))
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
    _write_meta(
        args.out,
        "scan",
        doc,
        seed,
        {
            "settings": [
                {
                    "total_km": r.total_km,
                    "delta_deg": r.plan.delta / DEG,
                    "a": _render_source(r.plan.a),
                    "b": _render_source(r.plan.b),
                }
                for r in rows
            ]
        },
    )
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
    _write_meta(
        args.out,
        "network",
        doc,
        seed,
        {"frozen_settings": {n: _render_source(s) for n, s in result.settings.items()}},
    )
    return 0


def cmd_montecarlo(doc: ScenarioDocument, args: argparse.Namespace) -> int:
    if doc.montecarlo is None:
        raise ConfigError("montecarlo command requires a 'montecarlo' block")
    near, far = _orient_two(doc, "montecarlo")
    geom = LinkGeometry(near.distance_km, far.distance_km)
    a, b = near.setting, far.setting
    seed = args.seed if args.seed is not None else doc.montecarlo["seed"]
    rounds = doc.montecarlo["rounds"]

    tally = oracle_tally(a, b, geom, doc.params, rounds, seed, threads=args.threads)
    rows = compare_with_analytics(tally, a, b, geom, doc.params)
    flagged = [r.name for r in rows if abs(r.z_score) > 3.0]

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
            {"name": r.name, "observed": r.observed, "expected": r.expected, "z": r.z_score}
            for r in rows
        ],
        "flagged": flagged,
        "tally": tally.summary(),
        "decoy_bounds": bounds,
    }
    _write_text(args.out, _json_report("montecarlo", doc, seed, results))
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
    _write_text(args.out, _json_report("sns-check", doc, None, results))
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
                       help="upper bound on the worker threads for the montecarlo shards only; "
                       "shards are sized by their expected candidate rounds, and threads pay from "
                       "the second shard on (default: TFKEYRATE_THREADS or 1)")
        p.add_argument("--asymptotic", action="store_true",
                       help="asymptotic mode (keyrate and network)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
