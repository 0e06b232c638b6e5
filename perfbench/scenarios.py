"""Seeded scenario generator: every input the benchmark feeds the CLI.

Each function is a pure function of the workload seed (and a request index)
and returns a scenario document in the CLI's config schema.  Documents are
serialized with sorted keys and Python's shortest float repr, so the same
seed gives byte-identical files on every platform.
"""

from __future__ import annotations

import json
import random

SCHEMA_VERSION = 1

# Detector and fiber constants of the paper's reference network.
REFERENCE_SYSTEM = {
    "eta_d": 0.7,
    "p_d": 1e-8,
    "alpha_db_per_km": 0.165,
    "e_d_z": 0.0,
    "f_ec": 1.1,
    "eps": 1.5e-10,
    "delta_deg": 7.0,
}

# keyrate_links: the link space the workload samples.
LINK_ARM_KM = (0.0, 250.0)
LINK_SIGMA_DEG = (0.0, 5.0, 18.0, 40.0)
LINK_N_PULSES = (1e9, 1e11, 1e13)
LINK_ASYMPTOTIC_SHARE = 0.25

# mc_dense: the desk-scale link of configs/montecarlo_toy.json.
MC_DENSE = {
    "system": {
        "eta_d": 0.85,
        "p_d": 1e-6,
        "alpha_db_per_km": 0.165,
        "e_d_z": 0.01,
        "f_ec": 1.1,
        "n_pulses": 1e7,
        "sigma_deg": 5.0,
        "delta_deg": 10.0,
        "eps": 1.5e-10,
    },
    "nodes": [
        ("near", 0.5, (0.2, 0.04, 0.30, 0.25, 0.40, 0.05)),
        ("far", 1.0, (0.25, 0.08, 0.28, 0.22, 0.44, 0.06)),
    ],
}

# mc_sparse: the paper's A-C link (configs/link_a_c.json).
MC_SPARSE = {
    "system": dict(REFERENCE_SYSTEM, n_pulses=1e11, sigma_deg=5.0),
    "nodes": [
        ("C", 120.0, (0.166, 0.005, 0.069, 0.161, 0.762, 0.008)),
        ("A", 200.0, (0.725, 0.100, 0.388, 0.159, 0.449, 0.004)),
    ],
}
MC_ROUNDS = 10_000_000


def dumps(doc: dict) -> str:
    """Canonical serialization shared by every generated file."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds are hashed with SHA-512, stable across Python versions
    return random.Random(f"{workload}/{seed}/{index}")


def _source(mu: float, nu: float, p_mu: float, p_nu: float, p_ohat: float) -> dict:
    p_mu, p_nu, p_ohat = round(p_mu, 6), round(p_nu, 6), round(p_ohat, 6)
    return {
        "mu": round(mu, 6),
        "nu": round(nu, 6),
        "p_mu": p_mu,
        "p_nu": p_nu,
        "p_o": round(1.0 - p_mu - p_nu - p_ohat, 6),
        "p_ohat": p_ohat,
    }


def _node(name: str, km: float, source) -> dict:
    if not isinstance(source, dict):
        mu, nu, p_mu, p_nu, p_o, p_ohat = source
        source = {"mu": mu, "nu": nu, "p_mu": p_mu, "p_nu": p_nu, "p_o": p_o, "p_ohat": p_ohat}
    return {"name": name, "distance_km": km, "source": source}


def keyrate_link(seed: int, index: int) -> tuple[dict, bool]:
    """The index-th random two-node link of a seed, and whether it also gets
    an asymptotic request.

    Sources follow the loss-compensating pattern of good optima: the lossier
    arm sends the larger signal intensity more often, and the decoy
    intensities are scaled so both arms deliver comparable decoy photon flux
    to the relay, which keeps most links at a positive rate.
    """
    rng = _rng("keyrate_links", seed, index)
    l_near, l_far = sorted(round(rng.uniform(*LINK_ARM_KM), 3) for _ in range(2))
    sigma = rng.choice(LINK_SIGMA_DEG)
    n_pulses = rng.choice(LINK_N_PULSES)
    asymptotic = rng.random() < LINK_ASYMPTOTIC_SHARE

    alpha = REFERENCE_SYSTEM["alpha_db_per_km"]
    eta_ratio = 10.0 ** (alpha * (l_far - l_near) / 10.0)  # near over far, >= 1
    mu_far = rng.uniform(0.3, 0.8)
    nu_far = mu_far * rng.uniform(0.08, 0.2)
    mu_near = mu_far * eta_ratio ** (-rng.uniform(0.4, 1.0))
    nu_near = min(nu_far / eta_ratio, 0.5 * mu_near)
    p_nu = rng.uniform(0.12, 0.25)
    p_ohat = 10.0 ** rng.uniform(-2.5, -1.8)
    far = _source(mu_far, nu_far, rng.uniform(0.3, 0.45), p_nu, p_ohat)
    near = _source(mu_near, nu_near, rng.uniform(0.06, 0.15), p_nu, p_ohat)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": dict(REFERENCE_SYSTEM, sigma_deg=sigma, n_pulses=n_pulses),
        "nodes": [_node("near", l_near, near), _node("far", l_far, far)],
        "keyrate": {"optimize_delta": True, "optimize_sources": False},
    }
    return doc, asymptotic


def montecarlo_request(workload: str, seed: int, index: int) -> dict:
    """The index-th Monte Carlo request of a seed on the workload's fixed link."""
    link = {"mc_dense": MC_DENSE, "mc_sparse": MC_SPARSE}[workload]
    rng = _rng(workload, seed, index)
    return {
        "schema_version": SCHEMA_VERSION,
        "system": dict(link["system"]),
        "nodes": [_node(name, km, src) for name, km, src in link["nodes"]],
        "montecarlo": {"rounds": MC_ROUNDS, "seed": rng.randrange(1 << 31)},
    }
