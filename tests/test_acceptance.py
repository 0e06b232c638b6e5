"""Acceptance suite: seven headline checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import (
    NODE_KM,
    PLOB_RATES,
    RATES_SIGMA5,
    RATES_SIGMA18,
    TP_SETTINGS_SIGMA5,
    TP_SETTINGS_SIGMA18,
    mc_asymmetric_config,
    mc_symmetric_config,
    mc_toy_config,
    oriented_pair,
    reference_params,
    sig4,
    within_three_se,
)
from tfkeyrate.channel_model import ObservedCounts, single_photon_yields
from tfkeyrate.diagnostics import (
    SnsSourceSetting,
    UnusableCoinError,
    plob_bound,
    sns_constraint_residual,
    sns_phase_error_bound,
    sns_quantum_coin_delta,
)
from tfkeyrate.event_simulator import compare_with_analytics, oracle_tally
from tfkeyrate.finite_stats import (
    CHERNOFF_APPLICATIONS,
    binary_entropy,
    chernoff_expected_bounds,
    chernoff_observed_bounds,
    compose_epsilons,
    random_sampling_gamma,
)
from tfkeyrate.keyrate_engine import (
    MODE_FINITE,
    ChernoffLedger,
    DecoyEstimates,
    InfeasibleDecoyError,
    estimate_phi11_z,
    estimate_s0mub_z,
    estimate_s11_x,
    estimate_s11_z,
    estimate_singles_yields,
    evaluate_link,
    key_length,
)
from tfkeyrate.planner import (
    ChannelShape,
    NetworkNode,
    NetworkScenario,
    distance_scan,
    evaluate_network,
)

MC_SEED = 20260814
MC_ROUNDS = 10_000_000


def _verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance criterion {number} ({label}): {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _network_rates(settings, sigma_deg):
    """Pairwise rates with frozen published settings and per-pair slice polish."""
    params = reference_params(1e11, sigma_deg=sigma_deg)
    scn = NetworkScenario(
        tuple(NetworkNode(n, NODE_KM[n], settings[n]) for n in "ABCD"), (), params
    )
    result = evaluate_network(scn, seed=0, optimize_anchors=False, orientation="nearer_alice")
    rates = {}
    for pair in result.pairs:
        key = (pair.node_a, pair.node_b)
        if key not in RATES_SIGMA5:
            key = (pair.node_b, pair.node_a)
        rates[key] = pair
    return rates


def test_criterion_1_plob_reference_values():
    t0 = time.time()
    ok = all(
        sig4(plob_bound(NODE_KM[x] + NODE_KM[y], 0.7, 0.165)) == expected
        for (x, y), expected in PLOB_RATES.items()
    )
    elapsed = time.time() - t0
    _verdict(1, "repeaterless benchmark, six links to 4 significant figures", ok,
             f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_reference_rates_sigma_5():
    t0 = time.time()
    pairs = _network_rates(TP_SETTINGS_SIGMA5, sigma_deg=5.0)
    elapsed = time.time() - t0
    deviations = {
        key: abs(pair.rate - RATES_SIGMA5[key]) / RATES_SIGMA5[key]
        for key, pair in pairs.items()
    }
    worst = max(deviations.values())
    ok = len(pairs) == 6 and worst < 0.10 and elapsed < 60.0
    _verdict(2, "six finite-key rates at 5 degree drift, within 10%", ok,
             f"worst deviation {worst * 100:.1f}%, {elapsed:.1f} s")


def test_criterion_3_reference_rates_sigma_18():
    pairs = _network_rates(TP_SETTINGS_SIGMA18, sigma_deg=18.0)
    deviations = {
        key: abs(pair.rate - RATES_SIGMA18[key]) / RATES_SIGMA18[key]
        for key, pair in pairs.items()
    }
    worst = max(deviations.values())
    ab = pairs[("A", "B")]
    bd = pairs[("B", "D")]
    ok = (
        len(pairs) == 6
        and worst < 0.10
        and ab.rate > ab.plob
        and bd.rate > bd.plob
    )
    _verdict(3, "six rates at 18 degree drift; A-B and B-D beat the benchmark", ok,
             f"worst deviation {worst * 100:.1f}%")


def test_criterion_4_epsilon_composition():
    budget = compose_epsilons(1.5e-10)
    evaluation = None
    near, far, near_set, far_set, geom = oriented_pair("A", "C", TP_SETTINGS_SIGMA5)
    evaluation = evaluate_link(near_set, far_set, geom, reference_params(1e11))
    ok = (
        budget.eps_tp == 3.6e-9
        and CHERNOFF_APPLICATIONS == 13
        and len(evaluation.chernoff_applications) == 13
        and evaluation.budget.eps_tp == 3.6e-9
    )
    _verdict(4, "total failure probability 3.6e-9 from 13 concentration bounds", ok,
             f"eps_tp={budget.eps_tp:.3g}, applications={len(evaluation.chernoff_applications)}")


def test_criterion_5_event_simulation_agreement():
    t0 = time.time()
    failures = []
    for name, (a, b, geom, params) in (
        ("symmetric", mc_symmetric_config()),
        ("asymmetric", mc_asymmetric_config()),
        ("toy", mc_toy_config()),
    ):
        tally = oracle_tally(a, b, geom, params, MC_ROUNDS, MC_SEED, threads=4)

        for row in compare_with_analytics(tally, a, b, geom, params):
            units = 2.0 if row.name == "m_x" else 1.0
            if not within_three_se(row.observed, row.expected, event_units=units):
                failures.append(f"{name}:{row.name} z={row.z_score:.2f}")

        counts = ObservedCounts(
            x={k: float(v) for k, v in tally.clicks.items()},
            x_oo_d=float(
                tally.clicks[("ohat", "ohat")]
                + tally.clicks[("ohat", "o")]
                + tally.clicks[("o", "ohat")]
            ),
            n_z=float(tally.n_z),
            m_z=float(tally.m_z),
            n_x=float(tally.n_x),
            m_x=float(tally.m_x),
        )
        p = replace(params, N=float(MC_ROUNDS))
        ledger = ChernoffLedger()
        try:
            y01, y10 = estimate_singles_yields(counts, a, b, p, MODE_FINITE, ledger)
            s11_z = estimate_s11_z(counts, a, b, p, MODE_FINITE, ledger, yields=(y01, y10))
            s11_x = estimate_s11_x(counts, a, b, geom, p, MODE_FINITE, ledger, yields=(y01, y10))
            s0mub = estimate_s0mub_z(counts, a, b, p, MODE_FINITE, ledger)
        except InfeasibleDecoyError as exc:
            failures.append(f"{name}:decoy infeasible ({exc})")
            continue
        y10_true, y01_true = single_photon_yields(geom, p)
        for label, lower, truth in (
            ("y01", y01, y01_true),
            ("y10", y10, y10_true),
            ("s11_z", s11_z, tally.s11_z_true),
            ("s11_x", s11_x, 2.0 * tally.s11_x_true_pairs),
            ("s0mub", s0mub, tally.s0mub_true),
        ):
            if lower > truth:
                failures.append(f"{name}:{label} lower {lower:.4g} > truth {truth:.4g}")
    elapsed = time.time() - t0
    _verdict(5, "1e7-round event simulation matches analytics and decoy bounds",
             not failures, f"{elapsed:.0f} s" + (f"; {failures}" if failures else ""))


def test_criterion_6_property_suites():
    rng = np.random.default_rng(20260814)
    checked = {}

    # concentration-bound nesting: expected-value bounds bracket the draw and
    # survive the round trip through observed-value bounds
    ok = True
    for _ in range(1000):
        x = float(rng.uniform(1.0, 1e8))
        eps = float(10.0 ** rng.uniform(-12.0, -4.0))
        lo, hi = chernoff_expected_bounds(x, eps)
        obs_lo, _ = chernoff_observed_bounds(lo, eps)
        _, obs_hi = chernoff_observed_bounds(hi, eps)
        ok &= 0.0 <= lo <= x <= hi and obs_lo <= x <= obs_hi
    checked["bound nesting"] = ok

    # sampling correction: nonnegative, and vanishing as both samples grow
    ok = True
    for _ in range(1000):
        n = float(10.0 ** rng.uniform(3.0, 9.0))
        k = float(10.0 ** rng.uniform(3.0, 9.0))
        lam = float(rng.uniform(0.005, 0.3))
        eps = float(10.0 ** rng.uniform(-12.0, -6.0))
        ok &= random_sampling_gamma(n, k, lam, eps) >= 0.0
    seq = [random_sampling_gamma(10.0**p, 10.0**p, 0.02, 1.5e-10) for p in range(4, 13)]
    ok &= all(a > b for a, b in zip(seq, seq[1:])) and seq[-1] < 1e-4
    checked["sampling correction"] = ok

    # phase-error bound never sits below the bit-error bound it is built from
    params = reference_params(1e11)
    ok = True
    for _ in range(1000):
        e11 = float(rng.uniform(1e-4, 0.499))
        dec = DecoyEstimates(
            y01_lower=0.0, y10_lower=0.0, s0mub_z_lower=0.0,
            s11_z_lower=float(10.0 ** rng.uniform(3.0, 7.0)),
            s11_x_lower=float(10.0 ** rng.uniform(2.0, 6.0)),
            t11_x_upper=0.0, e11_x_upper=e11, phi11_z_upper=0.5,
        )
        phi = estimate_phi11_z(dec, params)
        ok &= e11 <= phi <= 0.5
    checked["phase error >= bit error"] = ok

    # key length is the positive part of the raw expression
    ok = True
    saw_positive = saw_clamped = False
    for _ in range(1000):
        n_z = float(10.0 ** rng.uniform(3.0, 9.0))
        e_z = float(rng.uniform(0.001, 0.3))
        counts = ObservedCounts(x={}, x_oo_d=0.0, n_z=n_z, m_z=e_z * n_z, E_z=e_z)
        dec = DecoyEstimates(
            y01_lower=0.0, y10_lower=0.0,
            s0mub_z_lower=float(rng.uniform(0.0, 1e4)),
            s11_z_lower=float(rng.uniform(0.0, n_z)),
            s11_x_lower=0.0, t11_x_upper=0.0, e11_x_upper=0.0,
            phi11_z_upper=float(rng.uniform(0.001, 0.5)),
        )
        budget = compose_epsilons(float(10.0 ** rng.uniform(-12.0, -8.0)))
        res = key_length(counts, dec, budget, params)
        ok &= res.ell == max(res.ell_unclamped, 0.0) and res.rate == res.ell / params.N
        saw_positive |= res.ell > 0.0
        saw_clamped |= res.ell_unclamped < 0.0
    ok &= saw_positive and saw_clamped
    checked["key-length clamp"] = ok

    # binary entropy identities
    ok = binary_entropy(0.0) == binary_entropy(1.0) == 0.0 and binary_entropy(0.5) == 1.0
    for _ in range(1000):
        p = float(rng.uniform(0.0, 1.0))
        h = binary_entropy(p)
        ok &= 0.0 <= h <= 1.0 and abs(h - binary_entropy(1.0 - p)) < 1e-14
    checked["entropy identities"] = ok

    # quantum coin: zero imbalance exactly when the intensity constraint
    # holds.  Symmetric settings satisfy it with identical floating-point
    # operations on both sides, so both the residual and the imbalance are
    # exact zeros; any intensity mismatch makes both strictly nonzero.
    ok = True
    for _ in range(1000):
        mu = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 0.9))
        nu = float(rng.uniform(0.01, min(0.2, 0.9 * mu)))
        y10, y01 = float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99))
        exact = SnsSourceSetting(mu, mu, nu, nu, t, t)
        ok &= sns_constraint_residual(exact) == 0.0
        ok &= sns_quantum_coin_delta(exact, y10, y01) == 0.0
        bump = 1.0 + float(rng.uniform(0.02, 0.5))
        if nu * bump < mu:
            off = SnsSourceSetting(mu, mu, nu * bump, nu, t, t)
            ok &= sns_constraint_residual(off) != 0.0
            try:
                ok &= sns_quantum_coin_delta(off, y10, y01) > 0.0
            except UnusableCoinError as exc:
                ok &= exc.delta >= 0.5
    checked["coin imbalance iff residual"] = ok

    # phase-error estimate is the minimum of the exact and relaxed forms
    ok = True
    for _ in range(1000):
        delta = float(rng.uniform(0.0, 0.499))
        e1x = float(rng.uniform(0.0, 0.5))
        exact = (
            (1.0 - 2.0 * delta) * math.sqrt(e1x)
            + 2.0 * math.sqrt(delta * (1.0 - delta) * (1.0 - e1x))
        ) ** 2
        relaxed = e1x + 4.0 * delta + 4.0 * math.sqrt(delta * e1x)
        got = sns_phase_error_bound(delta, e1x)
        ok &= exact <= relaxed + 1e-12
        ok &= got == min(exact, relaxed, 0.5)
    checked["exact <= relaxed phase bound"] = ok

    bad = [name for name, good in checked.items() if not good]
    _verdict(6, "randomized property grids, 1000 samples each", not bad,
             f"{len(checked)} suites" + (f"; failing: {bad}" if bad else ""))


def test_criterion_7_distance_scan_shape():
    t0 = time.time()
    params = reference_params(1e13)
    grid = tuple(float(km) for km in range(100, 501, 50))
    rows = distance_scan(
        params, ChannelShape("symmetric"), grid,
        seed=3, n_starts=6, warm_random_starts=2,
    )
    elapsed = time.time() - t0

    rates = [row.rate_finite for row in rows]
    above = [row.rate_finite > row.plob for row in rows]
    first = above.index(True) if any(above) else None
    contiguous_window = (
        first is not None
        and all(above[first:])  # once the curve crosses the benchmark it stays above
    )
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    window_km = f"{rows[first].total_km:.0f}-{rows[-1].total_km:.0f} km" if contiguous_window else "none"

    # Scope note: rival-protocol curves (AOPP, PM-QKD, NPP, four-phase) are
    # out of scope and not reproduced; this check covers only the shape of
    # this protocol's own rate curve against the repeaterless benchmark.
    print(
        "acceptance criterion 7 scope: rival-protocol curves "
        "(AOPP, PM-QKD, NPP, four-phase) are out of scope and not reproduced"
    )
    _verdict(7, "contiguous benchmark-beating window, monotone rate curve",
             contiguous_window and monotone,
             f"window {window_km}, {elapsed:.0f} s")
