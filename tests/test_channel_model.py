"""Tests for interference gains, pair statistics, and basis tallies."""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from conftest import DEG
from tfkeyrate.channel_model import (
    InfeasibleDecoyError,
    LinkGeometry,
    MissingDeclareVacuumError,
    SourceSetting,
    SystemParams,
    declare_vacuum_probability,
    expected_pair_counts,
    observed_statistics,
    overall_gain,
    per_phase_gains,
    single_photon_yields,
    x_basis_counts,
    z_basis_counts,
    z_pool_sizes,
)


def _params(p_d=1e-8, e_d_z=0.0, n_pulses=1e9, sigma_deg=5.0, delta_deg=7.0):
    return SystemParams(
        eta_d=0.7, p_d=p_d, alpha=0.165, e_d_z=e_d_z, f=1.1,
        N=n_pulses, sigma=sigma_deg * DEG, delta=delta_deg * DEG, eps=1.5e-10,
    )


_SOURCE_A = SourceSetting(0.45, 0.10, 0.30, 0.25, 0.40, 0.05)
_SOURCE_B = SourceSetting(0.40, 0.08, 0.28, 0.22, 0.44, 0.06)


def test_source_setting_validation():
    with pytest.raises(ValueError):
        SourceSetting(0.1, 0.2, 0.3, 0.2, 0.4, 0.1)  # mu below nu
    with pytest.raises(ValueError):
        SourceSetting(0.4, 0.0, 0.3, 0.2, 0.4, 0.1)  # nu must be positive
    with pytest.raises(ValueError):
        SourceSetting(0.4, 0.1, 0.5, 0.2, 0.4, 0.1)  # probabilities above one
    with pytest.raises(ValueError):
        SourceSetting(0.4, 0.1, -0.1, 0.3, 0.7, 0.1)
    s = _SOURCE_A
    assert s.intensity("mu") == s.mu
    assert s.intensity("o") == 0.0
    assert s.intensity("ohat") == 0.0
    assert s.probability("nu") == s.p_nu
    assert s.probability("ohat") == s.p_ohat


def test_system_params_validation():
    with pytest.raises(ValueError):
        _params(delta_deg=0.0)
    with pytest.raises(ValueError):
        _params(delta_deg=91.0)


def test_system_params_reject_values_the_arithmetic_cannot_hold():
    # eps^2 and N^2 must stay normal floats: below/above these a finite-key
    # run met a NaN entropy, a division by zero or an infinite count
    tiny, huge = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
    for eps in (1e-160, 1e-200, tiny * 0.5):
        with pytest.raises(ValueError, match="eps must be at least"):
            dataclasses.replace(_params(), eps=eps)
    for n_pulses in (1e160, huge * 1.5):
        with pytest.raises(ValueError, match="round count N must be at most"):
            _params(n_pulses=n_pulses)
    assert dataclasses.replace(_params(), eps=tiny).eps == tiny
    assert _params(n_pulses=huge).N == huge


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: SourceSetting(0.45, 0.10, _NAN, 0.25, 0.40, 0.05),
        lambda: SourceSetting(_INF, 0.10, 0.30, 0.25, 0.40, 0.05),
        lambda: dataclasses.replace(_params(), alpha=_NAN),
        lambda: dataclasses.replace(_params(), f=_NAN),
        lambda: _params(n_pulses=_INF),
        lambda: LinkGeometry(_NAN, 200.0),
        lambda: LinkGeometry(100.0, _INF),
    ],
    ids=["p_mu-nan", "mu-inf", "alpha-nan", "f-nan", "N-inf", "l_a-nan", "l_b-inf"],
)
def test_non_finite_parameters_fail_at_construction(build):
    # A NaN length or attenuation would make the slice quadrature's
    # tolerance NaN, which no recursion depth can meet.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="finite"):
        build()
    assert time.perf_counter() - start < 1.0


def test_link_geometry_transmittances_and_swap():
    geom = LinkGeometry(60.0, 140.0)
    params = _params()
    eta_a, eta_b = geom.transmittances(params)
    assert math.isclose(eta_a, 0.7 * 10.0 ** (-0.165 * 60.0 / 10.0), rel_tol=1e-14)
    assert math.isclose(eta_b, 0.7 * 10.0 ** (-0.165 * 140.0 / 10.0), rel_tol=1e-14)
    assert geom.swapped().transmittances(params) == (eta_b, eta_a)


def test_vacuum_with_no_darks_never_clicks():
    params = _params(p_d=0.0)
    geom = LinkGeometry(50.0, 80.0)
    for theta in (0.0, 1.0, math.pi):
        g = per_phase_gains(0.0, 0.0, theta, geom, params)
        assert g.q_L_theta == 0.0
        assert g.q_R_theta == 0.0
    assert overall_gain(0.0, 0.0, geom, params) == 0.0


def test_vacuum_click_rate_is_dark_coincidence():
    geom = LinkGeometry(50.0, 80.0)
    for p_d in (1e-8, 1e-6, 1e-3):
        params = _params(p_d=p_d)
        g = per_phase_gains(0.0, 0.0, 1.3, geom, params)
        assert math.isclose(g.q_L_theta + g.q_R_theta, 2.0 * p_d * (1.0 - p_d), rel_tol=1e-12)
        assert math.isclose(
            overall_gain(0.0, 0.0, geom, params), 2.0 * p_d * (1.0 - p_d), rel_tol=1e-12
        )


def test_overall_gain_is_phase_average():
    rng = np.random.default_rng(23)
    for _ in range(12):
        k_a = float(10.0 ** rng.uniform(-2.0, 0.0))
        k_b = float(10.0 ** rng.uniform(-2.0, 0.0))
        geom = LinkGeometry(float(rng.uniform(5.0, 150.0)), float(rng.uniform(5.0, 150.0)))
        params = _params(p_d=1e-8)

        def both_arms(theta):
            g = per_phase_gains(k_a, k_b, theta, geom, params)
            return g.q_L_theta + g.q_R_theta

        avg, _ = integrate.quad(both_arms, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-12)
        avg /= 2.0 * math.pi
        assert math.isclose(overall_gain(k_a, k_b, geom, params), avg, rel_tol=1e-9)


def test_gain_components_well_bounded():
    rng = np.random.default_rng(29)
    for _ in range(500):
        k_a = float(rng.uniform(0.0, 1.5))
        k_b = float(rng.uniform(0.0, 1.5))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        geom = LinkGeometry(float(rng.uniform(0.5, 200.0)), float(rng.uniform(0.5, 200.0)))
        params = _params(p_d=float(rng.choice([0.0, 1e-8, 1e-6, 1e-3])))
        g = per_phase_gains(k_a, k_b, theta, geom, params)
        assert 0.0 < g.y_kk <= 1.0
        assert g.omega >= 0.0
        assert 0.0 <= g.q_L_theta <= 1.0
        assert 0.0 <= g.q_R_theta <= 1.0
        assert 0.0 <= g.q_total <= 1.0


def test_overall_gain_monotone_in_intensity():
    geom = LinkGeometry(100.0, 100.0)
    params = _params()
    gains = [overall_gain(k, 0.4, geom, params) for k in np.linspace(0.0, 1.2, 13)]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_declare_vacuum_probability_formula():
    got = declare_vacuum_probability(_SOURCE_A, _SOURCE_B)
    a, b = _SOURCE_A, _SOURCE_B
    expected = a.p_ohat * b.p_o + a.p_o * b.p_ohat + a.p_ohat * b.p_ohat
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_expected_pair_counts_structure():
    params = _params()
    geom = LinkGeometry(100.0, 100.0)
    counts = expected_pair_counts(_SOURCE_A, _SOURCE_B, geom, params)
    labels = ("mu", "nu", "o", "ohat")
    assert sorted(counts.x.keys()) == sorted((i, j) for i in labels for j in labels)
    assert all(v >= 0.0 for v in counts.x.values())
    assert sum(counts.x.values()) <= params.N
    vac_gain = overall_gain(0.0, 0.0, geom, params)
    assert math.isclose(
        counts.x[("o", "o")], params.N * _SOURCE_A.p_o * _SOURCE_B.p_o * vac_gain,
        rel_tol=1e-12,
    )
    assert math.isclose(
        counts.x_oo_d,
        params.N * declare_vacuum_probability(_SOURCE_A, _SOURCE_B) * vac_gain,
        rel_tol=1e-12,
    )


def test_z_counts_error_free_without_darks():
    params = _params(p_d=0.0, e_d_z=0.0)
    geom = LinkGeometry(80.0, 80.0)
    counts = expected_pair_counts(_SOURCE_A, _SOURCE_A, geom, params)
    n_z, m_z, n_c, n_e, e_z = z_basis_counts(counts, params)
    assert n_z > 0.0
    assert m_z == 0.0
    assert n_e == 0.0
    assert e_z == 0.0
    assert math.isclose(n_c, n_z, rel_tol=1e-14)


def test_z_counts_bounded_by_matching_pool():
    rng = np.random.default_rng(31)
    params = _params(p_d=1e-7, e_d_z=0.02)
    for _ in range(50):
        geom = LinkGeometry(float(rng.uniform(5.0, 150.0)), float(rng.uniform(5.0, 150.0)))
        counts = expected_pair_counts(_SOURCE_A, _SOURCE_B, geom, params)
        n_z, m_z, n_c, n_e, e_z = z_basis_counts(counts, params)
        pool_o, pool_mu = z_pool_sizes(counts)
        assert math.isclose(n_z, n_c + n_e, rel_tol=1e-12)
        assert n_z <= min(pool_o, pool_mu) * (1.0 + 1e-12)
        assert 0.0 <= e_z <= 1.0
        assert 0.0 <= m_z <= n_z


def test_z_counts_leave_their_argument_unchanged():
    params = _params(p_d=1e-8, e_d_z=0.02)
    counts = expected_pair_counts(_SOURCE_A, _SOURCE_B, LinkGeometry(60.0, 90.0), params)
    before = dataclasses.replace(counts, x=dict(counts.x))
    z_basis_counts(counts, params)
    assert counts == before
    assert counts.n_z is None and counts.E_z is None


def test_z_counts_require_vacuum_rows():
    no_vacuum = SourceSetting(0.45, 0.10, 0.50, 0.30, 0.0, 0.20)
    params = _params()
    geom = LinkGeometry(100.0, 100.0)
    counts = expected_pair_counts(no_vacuum, _SOURCE_B, geom, params)
    with pytest.raises(InfeasibleDecoyError):
        z_basis_counts(counts, params)


def test_observed_statistics_checks_vacuum_classes_before_z_counts():
    # a declared vacuum that is never sent is a settings error, not an
    # empty matching pool
    no_vacuum = SourceSetting(0.45, 0.10, 0.50, 0.30, 0.0, 0.20)
    with pytest.raises(MissingDeclareVacuumError, match="nonzero declared-vacuum"):
        observed_statistics(no_vacuum, _SOURCE_B, LinkGeometry(100.0, 100.0), _params())


def test_z_counts_without_any_click_are_infeasible():
    # without dark counts, 20000 km arms transmit nothing: every pool is empty
    geom = LinkGeometry(20000.0, 20000.0)
    params = _params(p_d=0.0)
    counts = expected_pair_counts(_SOURCE_A, _SOURCE_B, geom, params)
    assert z_pool_sizes(counts) == (0.0, 0.0)
    with pytest.raises(InfeasibleDecoyError, match="empty Z-basis"):
        observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)


def test_z_error_mixing_under_misalignment():
    geom = LinkGeometry(100.0, 100.0)
    clean = _params(p_d=1e-8, e_d_z=0.0)
    tilted = _params(p_d=1e-8, e_d_z=0.03)
    counts = expected_pair_counts(_SOURCE_A, _SOURCE_B, geom, clean)
    _, m0, n_c0, n_e0, _ = z_basis_counts(counts, clean)
    _, m1, n_c1, n_e1, _ = z_basis_counts(counts, tilted)
    assert n_c1 == n_c0
    assert n_e1 == n_e0
    assert math.isclose(m1, 0.97 * n_e0 + 0.03 * n_c0, rel_tol=1e-12)
    assert m0 == n_e0


def test_z_error_rate_tracks_dark_counts():
    geom = LinkGeometry(100.0, 100.0)
    rates = []
    for p_d in (4e-8, 2e-8, 1e-8, 1e-10, 1e-12):
        params = _params(p_d=p_d)
        counts = expected_pair_counts(_SOURCE_A, _SOURCE_A, geom, params)
        rates.append(z_basis_counts(counts, params)[4])
    assert math.isclose(rates[0] / rates[1], 2.0, rel_tol=0.05)
    assert math.isclose(rates[1] / rates[2], 2.0, rel_tol=0.05)
    assert rates[-1] < 1e-9


def test_x_counts_scale_linearly_with_slice_width():
    geom = LinkGeometry(100.0, 100.0)
    wide = x_basis_counts(_SOURCE_A, _SOURCE_B, geom, _params(delta_deg=1.0))
    narrow = x_basis_counts(_SOURCE_A, _SOURCE_B, geom, _params(delta_deg=0.5))
    assert math.isclose(wide[0] / narrow[0], 2.0, rel_tol=1e-2)
    # The error integrand is steep near theta = sigma (the interference term
    # nearly cancels the total loss there), so only monotone growth holds.
    assert wide[1] > narrow[1] > 0.0


def test_x_error_forms_agree_on_click_totals():
    rng = np.random.default_rng(37)
    for _ in range(25):
        geom = LinkGeometry(float(rng.uniform(5.0, 150.0)), float(rng.uniform(5.0, 150.0)))
        params = _params(p_d=1e-8, sigma_deg=float(rng.uniform(0.0, 18.0)))
        n_x, m_x = x_basis_counts(_SOURCE_A, _SOURCE_B, geom, params)
        assert 0.0 < m_x <= n_x


def test_x_counts_match_independent_quadrature():
    geom = LinkGeometry(60.0, 140.0)
    params = _params()
    n_x, m_x = x_basis_counts(_SOURCE_A, _SOURCE_B, geom, params)
    pref = params.N * _SOURCE_A.p_nu * _SOURCE_B.p_nu / math.pi
    lo, hi = params.sigma, params.sigma + params.delta

    def arms(theta):
        g = per_phase_gains(_SOURCE_A.nu, _SOURCE_B.nu, theta, geom, params)
        return g.q_L_theta, g.q_R_theta

    click_int, _ = integrate.quad(lambda t: sum(arms(t)), lo, hi, epsabs=0.0, epsrel=1e-12)
    err_int, _ = integrate.quad(
        lambda t: 2.0 * arms(t)[0] * arms(t)[1] / sum(arms(t)), lo, hi,
        epsabs=0.0, epsrel=1e-12,
    )
    assert math.isclose(n_x, pref * click_int, rel_tol=1e-9)
    assert math.isclose(m_x, pref * err_int, rel_tol=1e-9)


def test_single_photon_yields_reduce_to_arm_transmittance():
    geom = LinkGeometry(50.0, 150.0)
    clean = _params(p_d=0.0)
    eta_a, eta_b = geom.transmittances(clean)
    y10, y01 = single_photon_yields(geom, clean)
    assert math.isclose(y10, eta_a, rel_tol=1e-14)
    assert math.isclose(y01, eta_b, rel_tol=1e-14)
    dark = _params(p_d=1e-6)
    y10_d, y01_d = single_photon_yields(geom, dark)
    assert y10_d > y10 and y01_d > y01
    assert math.isclose(y10_d, (1.0 - 1e-6) * (eta_a + 2e-6 * (1.0 - eta_a)), rel_tol=1e-12)


def test_observed_statistics_fills_all_tallies():
    geom = LinkGeometry(100.0, 100.0)
    params = _params(p_d=1e-8, e_d_z=0.02)
    obs = observed_statistics(_SOURCE_A, _SOURCE_B, geom, params)
    counts = expected_pair_counts(_SOURCE_A, _SOURCE_B, geom, params)
    n_z, m_z, n_c, n_e, e_z = z_basis_counts(counts, params)
    n_x, m_x = x_basis_counts(_SOURCE_A, _SOURCE_B, geom, params)
    assert obs.x == counts.x
    assert (obs.n_z, obs.m_z, obs.n_C_z, obs.n_E_z, obs.E_z) == (n_z, m_z, n_c, n_e, e_z)
    assert (obs.n_x, obs.m_x) == (n_x, m_x)
