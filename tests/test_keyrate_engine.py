"""Tests for decoy estimation, phase-error bounding, and key-length assembly."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEG, TP_SETTINGS_SIGMA5, reference_params
from tfkeyrate import channel_model, finite_stats, keyrate_engine
from tfkeyrate.channel_model import (
    LinkGeometry,
    SourceSetting,
    SystemParams,
    expected_pair_counts,
    observed_statistics,
    single_photon_yields,
)
from tfkeyrate.finite_stats import binary_entropy, compose_epsilons
from tfkeyrate.keyrate_engine import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    DecoyEstimates,
    InfeasibleDecoyError,
    MissingDeclareVacuumError,
    estimate_e11_x,
    estimate_phi11_z,
    estimate_s0mub_z,
    estimate_s11_x,
    estimate_s11_z,
    estimate_singles_yields,
    evaluate_counts,
    evaluate_link,
    key_length,
)
from tfkeyrate.planner import _DELTA_GRID

_SOURCE_A = SourceSetting(0.45, 0.10, 0.30, 0.25, 0.40, 0.05)
_SOURCE_B = SourceSetting(0.40, 0.08, 0.28, 0.22, 0.44, 0.06)


def _params(p_d=1e-8, e_d_z=0.0, n_pulses=1e11, sigma_deg=5.0, delta_deg=7.0, eps=1.5e-10):
    return SystemParams(
        eta_d=0.7, p_d=p_d, alpha=0.165, e_d_z=e_d_z, f=1.1,
        N=n_pulses, sigma=sigma_deg * DEG, delta=delta_deg * DEG, eps=eps,
    )


def test_yield_estimation_requires_declared_vacuum():
    params = _params()
    geom = LinkGeometry(100.0, 100.0)
    no_hat = SourceSetting(0.45, 0.10, 0.30, 0.25, 0.45, 0.0)
    counts = expected_pair_counts(no_hat, _SOURCE_B, geom, params)
    with pytest.raises(MissingDeclareVacuumError):
        estimate_singles_yields(counts, no_hat, _SOURCE_B, params)
    no_o = SourceSetting(0.45, 0.10, 0.50, 0.30, 0.0, 0.20)
    counts = expected_pair_counts(_SOURCE_A, no_o, geom, params)
    with pytest.raises(MissingDeclareVacuumError):
        estimate_singles_yields(counts, _SOURCE_A, no_o, params)


def test_collapsed_yield_bounds_raise_instead_of_clamping():
    # A starved test-intensity row gives a negative lower bound; the engine
    # reports that as infeasible rather than clamping it to zero.
    starved = SourceSetting(0.40, 0.001, 0.28, 0.02, 0.64, 0.06)
    params = _params(n_pulses=1e9)
    geom = LinkGeometry(150.0, 150.0)
    counts = observed_statistics(_SOURCE_A, starved, geom, params)
    with pytest.raises(InfeasibleDecoyError) as err:
        estimate_singles_yields(counts, _SOURCE_A, starved, params, mode=MODE_FINITE)
    assert "y01" in str(err.value)
    with pytest.raises(InfeasibleDecoyError):
        evaluate_link(_SOURCE_A, starved, geom, params)


def test_yield_bounds_sit_below_true_yields():
    geom = LinkGeometry(50.0, 150.0)
    params = _params()
    counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    true_a_arm, true_b_arm = single_photon_yields(geom, params)
    for mode in (MODE_ASYMPTOTIC, MODE_FINITE):
        y01, y10 = estimate_singles_yields(counts, _SOURCE_A, _SOURCE_B, params, mode=mode)
        assert 0.0 < y01 <= true_b_arm
        assert 0.0 < y10 <= true_a_arm
    # The asymptotic bound should also be tight at this operating point.
    y01, y10 = estimate_singles_yields(counts, _SOURCE_A, _SOURCE_B, params, mode=MODE_ASYMPTOTIC)
    assert y01 > 0.95 * true_b_arm
    assert y10 > 0.95 * true_a_arm


def test_s11_z_accepts_precomputed_yields():
    geom = LinkGeometry(120.0, 120.0)
    params = _params()
    counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    for mode in (MODE_ASYMPTOTIC, MODE_FINITE):
        yields = estimate_singles_yields(counts, _SOURCE_A, _SOURCE_B, params, mode=mode)
        direct = estimate_s11_z(counts, _SOURCE_A, _SOURCE_B, params, mode=mode)
        seeded = estimate_s11_z(counts, _SOURCE_A, _SOURCE_B, params, mode=mode, yields=yields)
        assert direct == seeded
        assert 0.0 < direct <= counts.n_z


def test_vacuum_pair_count_scales_with_dark_rate():
    geom = LinkGeometry(150.0, 150.0)
    values = []
    for p_d in (1e-8, 2e-8, 4e-8):
        params = _params(p_d=p_d)
        counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
        values.append(estimate_s0mub_z(counts, _SOURCE_A, _SOURCE_B, params, mode=MODE_ASYMPTOTIC))
    assert values[0] > 0.0
    assert math.isclose(values[1] / values[0], 2.0, rel_tol=1e-3)
    assert math.isclose(values[2] / values[1], 2.0, rel_tol=1e-3)


def test_s11_x_scales_with_slice_width():
    geom = LinkGeometry(100.0, 100.0)
    values = {}
    for delta_deg in (0.5, 1.0):
        params = _params(delta_deg=delta_deg)
        counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
        s11_x = estimate_s11_x(counts, _SOURCE_A, _SOURCE_B, geom, params, mode=MODE_ASYMPTOTIC)
        assert 0.0 < s11_x <= counts.n_x
        values[delta_deg] = s11_x
    assert math.isclose(values[1.0] / values[0.5], 2.0, rel_tol=1e-2)


def test_phase_errors_without_darks_come_only_from_clicks():
    params = _params(p_d=0.0)
    geom = LinkGeometry(150.0, 150.0)
    counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    s11_x = estimate_s11_x(counts, _SOURCE_A, _SOURCE_B, geom, params, mode=MODE_ASYMPTOTIC)
    t11, e11 = estimate_e11_x(counts, _SOURCE_A, _SOURCE_B, geom, params, mode=MODE_ASYMPTOTIC)
    assert t11 == counts.m_x
    assert math.isclose(e11, counts.m_x / s11_x, rel_tol=1e-12)


def test_e11_with_pinned_vacuum_bounds_reduces_to_raw_errors():
    params = _params()
    geom = LinkGeometry(150.0, 150.0)
    counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    t11, _ = estimate_e11_x(
        counts, _SOURCE_A, _SOURCE_B, geom, params,
        mode=MODE_ASYMPTOTIC, x_ood_expected_bounds=(0.0, 0.0),
    )
    assert t11 == counts.m_x
    # Finitely, a pinned zero expectation still permits an upward count
    # fluctuation of ln(1/eps) before it is subtracted.
    t11_finite, _ = estimate_e11_x(
        counts, _SOURCE_A, _SOURCE_B, geom, params,
        mode=MODE_FINITE, x_ood_expected_bounds=(0.0, 0.0),
    )
    beta = math.log(1.0 / params.eps)
    assert math.isclose(t11_finite, counts.m_x + beta, rel_tol=1e-12)


def test_e11_accepts_precomputed_s11():
    params = _params()
    geom = LinkGeometry(120.0, 120.0)
    counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    for mode in (MODE_ASYMPTOTIC, MODE_FINITE):
        s11_x = estimate_s11_x(counts, _SOURCE_A, _SOURCE_B, geom, params, mode=mode)
        direct = estimate_e11_x(counts, _SOURCE_A, _SOURCE_B, geom, params, mode=mode)
        seeded = estimate_e11_x(
            counts, _SOURCE_A, _SOURCE_B, geom, params, mode=mode, s11_x_lower=s11_x
        )
        assert direct == seeded


def test_x_steps_accept_a_precomputed_inverse_gain_integral():
    params = _params()
    geom = LinkGeometry(120.0, 120.0)
    counts = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    integral = keyrate_engine._inverse_gain_integral(_SOURCE_A, _SOURCE_B, geom, params)
    assert integral > 0.0
    for mode in (MODE_ASYMPTOTIC, MODE_FINITE):
        args = (counts, _SOURCE_A, _SOURCE_B, geom, params)
        s11_x = estimate_s11_x(*args, mode=mode)
        assert estimate_s11_x(*args, mode=mode, inverse_gain_integral=integral) == s11_x
        direct = estimate_e11_x(*args, mode=mode, s11_x_lower=s11_x)
        seeded = estimate_e11_x(*args, mode=mode, s11_x_lower=s11_x, inverse_gain_integral=integral)
        assert direct == seeded


def test_one_link_evaluation_runs_three_slice_integrals(monkeypatch):
    # n_x, m_x and the integral of 1/q, which both X-basis steps share
    spans = []
    original = finite_stats.integrate_adaptive_simpson

    def counted(f, a, b, *args, **kwargs):
        spans.append((a, b))
        return original(f, a, b, *args, **kwargs)

    for module in (finite_stats, channel_model, keyrate_engine):
        monkeypatch.setattr(module, "integrate_adaptive_simpson", counted)
    params = _params()
    for mode in (MODE_FINITE, MODE_ASYMPTOTIC):
        spans.clear()
        evaluate_link(_SOURCE_A, _SOURCE_B, LinkGeometry(120.0, 200.0), params, mode=mode)
        assert spans == [(params.sigma, params.sigma + params.delta)] * 3


def test_one_evaluation_forms_the_slice_terms_once(monkeypatch):
    # the X-basis totals and the integral of 1/q share one set of slice terms
    calls = []
    original = channel_model._slice_terms

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (channel_model, keyrate_engine):
        monkeypatch.setattr(module, "_slice_terms", counted)
    params = _params()
    geom = LinkGeometry(120.0, 200.0)
    for mode in (MODE_FINITE, MODE_ASYMPTOTIC):
        calls.clear()
        full = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params, mode=mode)
        assert len(calls) == 1
        calls.clear()
        wider = dataclasses.replace(params, delta=9.0 * DEG)
        evaluate_link(_SOURCE_A, _SOURCE_B, geom, wider, mode=mode, reuse=full)
        assert len(calls) == 1
        calls.clear()
        evaluate_counts(full.counts, _SOURCE_A, _SOURCE_B, geom, params, mode=mode)
        assert len(calls) == 1


def test_only_failures_that_read_no_slice_are_slice_free():
    starved = SourceSetting(0.40, 0.001, 0.28, 0.02, 0.64, 0.06)
    with pytest.raises(InfeasibleDecoyError) as collapsed:
        evaluate_link(_SOURCE_A, starved, LinkGeometry(150.0, 150.0), _params(n_pulses=1e9))
    assert collapsed.value.slice_free
    no_signal = SourceSetting(0.45, 0.10, 0.0, 0.55, 0.40, 0.05)  # never sends mu
    with pytest.raises(InfeasibleDecoyError, match="empty Z-basis") as empty:
        evaluate_link(no_signal, _SOURCE_B, LinkGeometry(150.0, 150.0), _params())
    assert empty.value.slice_free
    assert not InfeasibleDecoyError("X-basis per-phase gain vanished").slice_free


def test_phi_upper_bound_behavior():
    params = _params()
    base = DecoyEstimates(
        y01_lower=1e-3, y10_lower=1e-3, s0mub_z_lower=0.0,
        s11_z_lower=1e6, s11_x_lower=1e4, t11_x_upper=200.0,
        e11_x_upper=0.02, phi11_z_upper=0.0,
    )
    # Asymptotically there is no sampling correction.
    assert estimate_phi11_z(base, params, mode=MODE_ASYMPTOTIC) == 0.02
    phi = estimate_phi11_z(base, params, mode=MODE_FINITE)
    assert 0.02 < phi <= 0.5
    # Degenerate inputs pin the bound at one half.
    assert estimate_phi11_z(dataclasses.replace(base, s11_z_lower=0.0), params) == 0.5
    assert estimate_phi11_z(dataclasses.replace(base, e11_x_upper=0.5), params) == 0.5
    assert estimate_phi11_z(dataclasses.replace(base, e11_x_upper=0.0), params) == 0.5


def test_phi_dominates_e11_across_operating_points():
    params = _params()
    for span in (50.0, 100.0, 150.0, 200.0):
        geom = LinkGeometry(span, span)
        dec = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params).decoy
        assert dec.e11_x_upper < 0.5
        assert dec.phi11_z_upper >= dec.e11_x_upper
        assert dec.phi11_z_upper <= 0.5


def test_key_length_terms_and_identity():
    params = _params()
    geom = LinkGeometry(150.0, 150.0)
    ev = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
    res, dec, counts, budget = ev.result, ev.decoy, ev.counts, ev.budget
    assert budget == compose_epsilons(params.eps)
    assert res.vacuum_term == dec.s0mub_z_lower
    assert math.isclose(
        res.single_photon_term,
        dec.s11_z_lower * (1.0 - binary_entropy(dec.phi11_z_upper)),
        rel_tol=1e-12,
    )
    assert math.isclose(
        res.error_correction_term,
        params.f * counts.n_z * binary_entropy(counts.E_z),
        rel_tol=1e-12,
    )
    assert math.isclose(
        res.correctness_penalty, math.log2(2.0 / budget.eps_cor), rel_tol=1e-12
    )
    assert math.isclose(
        res.secrecy_penalty,
        2.0 * math.log2(2.0 / (budget.eps_prime * budget.eps_hat)),
        rel_tol=1e-12,
    )
    assert math.isclose(
        res.privacy_amplification_penalty,
        2.0 * math.log2(1.0 / (2.0 * budget.eps_pa)),
        rel_tol=1e-12,
    )
    reassembled = (
        res.vacuum_term + res.single_photon_term - res.error_correction_term
        - res.correctness_penalty - res.secrecy_penalty
        - res.privacy_amplification_penalty
    )
    assert math.isclose(res.ell_unclamped, reassembled, rel_tol=1e-12)
    assert res.ell == max(res.ell_unclamped, 0.0)
    assert math.isclose(res.rate, res.ell / params.N, rel_tol=1e-15)


def test_key_length_clamps_at_zero():
    params = _params()
    geom = LinkGeometry(150.0, 150.0)
    ev = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
    hopeless = dataclasses.replace(ev.decoy, phi11_z_upper=0.5, s0mub_z_lower=0.0)
    res = key_length(ev.counts, hopeless, ev.budget, params)
    assert res.ell_unclamped < 0.0
    assert res.ell == 0.0
    assert res.rate == 0.0
    # no Z-basis pair is no key, not a key of length zero
    with pytest.raises(InfeasibleDecoyError, match="without Z-basis pairs"):
        key_length(dataclasses.replace(ev.counts, n_z=0.0), ev.decoy, ev.budget, params)


def test_key_length_monotone_in_epsilon():
    geom = LinkGeometry(150.0, 150.0)
    rates = []
    for eps in (1e-14, 1e-12, 1e-10, 1e-8):
        params = _params(eps=eps)
        rates.append(evaluate_link(_SOURCE_A, _SOURCE_B, geom, params).result.rate)
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0] > 0.0


def test_evaluate_link_charges_every_bound_once():
    params = _params()
    ev = evaluate_link(_SOURCE_A, _SOURCE_B, LinkGeometry(120.0, 120.0), params)
    assert ev.mode == MODE_FINITE
    assert len(ev.chernoff_applications) == 13
    assert len(set(ev.chernoff_applications)) == 13
    lazy = evaluate_link(
        _SOURCE_A, _SOURCE_B, LinkGeometry(120.0, 120.0), params, mode=MODE_ASYMPTOTIC
    )
    assert lazy.mode == MODE_ASYMPTOTIC
    assert lazy.chernoff_applications == ()
    assert lazy.result.correctness_penalty == 0.0
    assert lazy.result.secrecy_penalty == 0.0
    assert lazy.result.privacy_amplification_penalty == 0.0


def test_finite_rate_never_beats_asymptotic():
    params = _params()
    for span in (50.0, 100.0, 150.0):
        geom = LinkGeometry(span, span)
        finite = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
        loose = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params, mode=MODE_ASYMPTOTIC)
        assert finite.result.rate <= loose.result.rate
        assert math.isclose(
            loose.result.rate,
            key_length(loose.counts, loose.decoy, loose.budget, params, MODE_ASYMPTOTIC).rate,
            rel_tol=1e-12,
        )


def test_asymptotic_zero_rate_link_reports_its_raw_length():
    # misalignment makes error correction cost more than the single-photon
    # term yields, so the key length clamps to zero in asymptotic mode too
    params = _params(e_d_z=0.1)
    ev = evaluate_link(
        _SOURCE_A, _SOURCE_B, LinkGeometry(100.0, 100.0), params, mode=MODE_ASYMPTOTIC
    )
    assert ev.result.ell_unclamped < 0 == ev.result.ell
    assert ev.result.rate == 0.0


def test_evaluate_link_decoy_invariants():
    params = _params()
    for span in (60.0, 120.0, 180.0):
        geom = LinkGeometry(span, span)
        ev = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
        dec, counts = ev.decoy, ev.counts
        assert 0.0 < dec.s11_z_lower <= counts.n_z
        assert 0.0 < dec.s11_x_lower <= counts.n_x
        assert dec.t11_x_upper >= 0.0
        assert 0.0 <= dec.e11_x_upper <= 0.5
        assert dec.phi11_z_upper >= dec.e11_x_upper


def test_role_swap_changes_the_rate():
    # The matching and vacuum-tagging roles are deliberately asymmetric, so
    # relabeling the two senders on an asymmetric link moves the key length.
    params = _params()
    c, d = TP_SETTINGS_SIGMA5["C"], TP_SETTINGS_SIGMA5["D"]
    geom = LinkGeometry(120.0, 150.0)
    forward = evaluate_link(c, d, geom, params).result.rate
    backward = evaluate_link(d, c, LinkGeometry(geom.l_b, geom.l_a), params).result.rate
    assert forward > 0.0 and backward > 0.0
    assert abs(forward - backward) / forward > 0.01


# The ledger's 13 charges in the order the chain makes them.
_CHARGES = (
    "x[o,nu] lower (y01)",
    "x[ohat,mu] upper (y01)",
    "x_oo_d upper (y01)",
    "x[nu,o] lower (y10)",
    "x[mu,ohat] upper (y10)",
    "x_oo_d upper (y10)",
    "s11_z observed lower",
    "x_oo_d lower (s0mub)",
    "x[ohat,mu] lower (s0mub)",
    "s0mub_z observed lower",
    "s11_x observed lower",
    "m_vac observed lower",
    "m00 observed upper",
)


def _count_conversions(monkeypatch):
    calls = {"expected": 0, "observed": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(
        keyrate_engine, "chernoff_expected_bounds", counted("expected", finite_stats.chernoff_expected_bounds)
    )
    monkeypatch.setattr(
        keyrate_engine, "chernoff_observed_bounds", counted("observed", finite_stats.chernoff_observed_bounds)
    )
    return calls


def test_evaluate_link_converts_each_count_once(monkeypatch):
    # x_oo_d backs four charges and x[ohat,mu] two, yet each of the five
    # expected-side counts is converted once; the charges stay as they were
    params = _params()
    geom = LinkGeometry(120.0, 200.0)
    plain = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
    calls = _count_conversions(monkeypatch)
    ev = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
    assert calls == {"expected": 5, "observed": 5}
    assert ev == plain
    assert ev.chernoff_applications == _CHARGES
    # a reused evaluation converts only the slice half's three counts
    calls.update(expected=0, observed=0)
    wider = evaluate_link(_SOURCE_A, _SOURCE_B, geom, dataclasses.replace(params, delta=9.0 * DEG), reuse=ev)
    assert calls == {"expected": 0, "observed": 3}
    assert wider.chernoff_applications == _CHARGES


def _setting(draw):
    mu = draw(st.floats(0.05, 1.0))
    nu = mu * draw(st.floats(0.02, 0.6))
    weights = [draw(st.floats(0.002, 1.0)) for _ in range(4)]
    p_mu, p_nu, p_ohat = (w / sum(weights) for w in weights[:3])
    return SourceSetting(mu, nu, p_mu, p_nu, 1.0 - p_mu - p_nu - p_ohat, p_ohat)


@st.composite
def _links(draw):
    a, b = _setting(draw), _setting(draw)
    geom = LinkGeometry(draw(st.floats(0.0, 150.0)), draw(st.floats(0.0, 150.0)))
    params = SystemParams(
        eta_d=draw(st.floats(0.3, 1.0)),
        p_d=10.0 ** draw(st.floats(-10.0, -5.0)),
        alpha=0.165,
        e_d_z=draw(st.floats(0.0, 0.05)),
        f=1.1,
        N=10.0 ** draw(st.floats(8.0, 14.0)),
        sigma=draw(st.floats(0.0, 40.0)) * DEG,
        delta=draw(st.floats(0.1, 25.0)) * DEG,
        eps=10.0 ** draw(st.floats(-15.0, -3.0)),
    )
    return a, b, geom, params, draw(st.sampled_from((MODE_FINITE, MODE_ASYMPTOTIC)))


def _outcome(*args, **kwargs):
    try:
        return evaluate_link(*args, **kwargs)
    except (InfeasibleDecoyError, MissingDeclareVacuumError, ValueError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=100)
@given(_links())
def test_reused_evaluation_equals_the_plain_one(link):
    a, b, geom, params, mode = link
    first = _outcome(a, b, geom, params, mode)
    if isinstance(first, type):
        return  # nothing to reuse: every width is evaluated in full
    for delta in _DELTA_GRID:
        at = dataclasses.replace(params, delta=delta)
        assert _outcome(a, b, geom, at, mode, reuse=first) == _outcome(a, b, geom, at, mode)


def test_reuse_of_other_inputs_raises():
    params = _params()
    geom = LinkGeometry(120.0, 200.0)
    ev = evaluate_link(_SOURCE_A, _SOURCE_B, geom, params)
    wider = dataclasses.replace(params, delta=9.0 * DEG)
    assert evaluate_link(_SOURCE_A, _SOURCE_B, geom, wider, reuse=ev) == evaluate_link(
        _SOURCE_A, _SOURCE_B, geom, wider
    )
    assert evaluate_link(_SOURCE_A, _SOURCE_B, geom, params, reuse=ev) == ev
    others = [
        (_SOURCE_B, _SOURCE_B, geom, wider, MODE_FINITE),
        (_SOURCE_A, _SOURCE_A, geom, wider, MODE_FINITE),
        (_SOURCE_A, _SOURCE_B, LinkGeometry(geom.l_b, geom.l_a), wider, MODE_FINITE),
        (_SOURCE_A, _SOURCE_B, geom, wider, MODE_ASYMPTOTIC),
        (_SOURCE_A, _SOURCE_B, geom, _params(n_pulses=1e12, delta_deg=9.0), MODE_FINITE),
        (_SOURCE_A, _SOURCE_B, geom, _params(sigma_deg=6.0, delta_deg=9.0), MODE_FINITE),
        (_SOURCE_A, _SOURCE_B, geom, dataclasses.replace(wider, eps=1e-9), MODE_FINITE),
    ]
    for a, b, g, p, mode in others:
        with pytest.raises(ValueError, match="reuse"):
            evaluate_link(a, b, g, p, mode, reuse=ev)
    # counts given to evaluate_counts, say a simulated tally, are not a link's
    counted = evaluate_counts(ev.counts, _SOURCE_A, _SOURCE_B, geom, params)
    with pytest.raises(ValueError, match="reuse"):
        evaluate_link(_SOURCE_A, _SOURCE_B, geom, wider, reuse=counted)
