"""Tests for the repeaterless benchmark and the sibling-protocol checker."""

import math

import numpy as np
import pytest

from conftest import NODE_KM, PAIRS, PLOB_RATES, reference_params, sig4
from tfkeyrate.channel_model import LinkGeometry, single_photon_yields
from tfkeyrate.diagnostics import (
    SnsSourceSetting,
    UnusableCoinError,
    plob_bound,
    sns_constraint_residual,
    sns_phase_error_bound,
    sns_quantum_coin_delta,
)

# Published per-node settings of the sibling send-or-not-send protocol; the
# send probability column maps onto the t field.
_SNS_NODES = {
    "A": dict(mu=0.789, nu=0.1262, t=0.388),
    "B": dict(mu=0.765, nu=0.0714, t=0.336),
    "C": dict(mu=0.164, nu=0.006, t=0.077),
    "D": dict(mu=0.253, nu=0.010, t=0.119),
}


def _sns_pair(x, y):
    a, b = _SNS_NODES[x], _SNS_NODES[y]
    return SnsSourceSetting(a["mu"], b["mu"], a["nu"], b["nu"], a["t"], b["t"])


def _residual_rhs(s):
    num = s.t_a * (1.0 - s.t_b) * s.mu_a * math.exp(-s.mu_a)
    den = (1.0 - s.t_a) * s.t_b * s.mu_b * math.exp(-s.mu_b)
    return num / den


def test_plob_matches_reference_values():
    for x, y in PAIRS:
        total = NODE_KM[x] + NODE_KM[y]
        assert sig4(plob_bound(total, 0.7, 0.165)) == PLOB_RATES[(x, y)]


def test_plob_zero_distance_and_small_eta_limits():
    assert math.isclose(plob_bound(0.0, 0.7, 0.165), -math.log2(0.3), rel_tol=1e-14)
    # Far out the bound decays to eta / ln 2 without cancellation loss.
    eta = 0.7 * 10.0 ** (-0.165 * 500.0 / 10.0)
    assert math.isclose(plob_bound(500.0, 0.7, 0.165), eta / math.log(2.0), rel_tol=1e-8)
    assert 0.0 < plob_bound(2000.0, 0.7, 0.165) < 1e-30


def test_plob_strictly_decreasing_in_distance():
    grid = np.linspace(0.0, 500.0, 21)
    values = [plob_bound(float(km), 0.7, 0.165) for km in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_sns_setting_validation_and_weights():
    with pytest.raises(ValueError):
        SnsSourceSetting(0.0, 0.4, 0.1, 0.1, 0.3, 0.3)
    with pytest.raises(ValueError):
        SnsSourceSetting(0.4, 0.4, 0.1, -0.1, 0.3, 0.3)
    with pytest.raises(ValueError):
        SnsSourceSetting(0.4, 0.4, 0.1, 0.1, 0.0, 0.3)
    with pytest.raises(ValueError):
        SnsSourceSetting(0.4, 0.4, 0.1, 0.1, 0.3, 1.0)
    s = SnsSourceSetting(0.5, 0.3, 0.08, 0.1, 0.25, 0.35)
    w_a, w_b = s.z_weights()
    assert math.isclose(w_a + w_b, 1.0, rel_tol=1e-14)
    expected_ratio = (
        s.t_a * (1.0 - s.t_b) * s.mu_a * math.exp(-s.mu_a)
    ) / (s.t_b * (1.0 - s.t_a) * s.mu_b * math.exp(-s.mu_b))
    assert math.isclose(w_a / w_b, expected_ratio, rel_tol=1e-12)
    x_a, x_b = s.x_weights()
    assert math.isclose(x_a, s.nu_a / (s.nu_a + s.nu_b), rel_tol=1e-14)
    assert math.isclose(x_b, s.nu_b / (s.nu_a + s.nu_b), rel_tol=1e-14)


def test_residual_vanishes_when_built_from_the_constraint():
    rng = np.random.default_rng(41)
    for _ in range(200):
        mu_a = float(rng.uniform(0.1, 0.9))
        mu_b = float(rng.uniform(0.1, 0.9))
        t_a = float(rng.uniform(0.05, 0.6))
        t_b = float(rng.uniform(0.05, 0.6))
        nu_b = float(rng.uniform(0.01, 0.2))
        probe = SnsSourceSetting(mu_a, mu_b, 1.0, nu_b, t_a, t_b)
        nu_a = nu_b * _residual_rhs(probe)
        s = SnsSourceSetting(mu_a, mu_b, nu_a, nu_b, t_a, t_b)
        assert abs(sns_constraint_residual(s)) < 1e-12


def test_residual_zero_for_symmetric_settings():
    s = SnsSourceSetting(0.4, 0.4, 0.1, 0.1, 0.3, 0.3)
    assert sns_constraint_residual(s) == 0.0


def test_residual_nonzero_for_cross_paired_reference_nodes():
    # The residual is orientation dependent, and one orientation can sit
    # near zero by coincidence (C with B does), but every cross pairing of
    # the reference nodes is clearly violated in at least one orientation.
    for x, y in PAIRS:
        forward = sns_constraint_residual(_sns_pair(x, y))
        backward = sns_constraint_residual(_sns_pair(y, x))
        assert forward != 0.0 and backward != 0.0
        assert max(abs(forward), abs(backward)) > 0.1
    assert math.isclose(
        sns_constraint_residual(_sns_pair("A", "D")), 4.055857396852463, rel_tol=1e-12
    )


def test_coin_delta_zero_iff_residual_zero():
    symmetric = SnsSourceSetting(0.4, 0.4, 0.1, 0.1, 0.3, 0.3)
    assert sns_quantum_coin_delta(symmetric, 0.05, 0.05) == 0.0
    lopsided = SnsSourceSetting(0.42, 0.40, 0.105, 0.100, 0.31, 0.30)
    assert sns_constraint_residual(lopsided) != 0.0
    assert sns_quantum_coin_delta(lopsided, 0.05, 0.05) > 0.0


def test_coin_delta_scales_inversely_with_singles_gain():
    s = SnsSourceSetting(0.42, 0.40, 0.105, 0.100, 0.31, 0.30)
    d1 = sns_quantum_coin_delta(s, 0.04, 0.06)
    d2 = sns_quantum_coin_delta(s, 0.08, 0.12)
    assert d1 > 0.0
    assert math.isclose(d1, 2.0 * d2, rel_tol=1e-12)


def test_coin_delta_worst_at_symmetric_split():
    s = SnsSourceSetting(0.4, 0.4, 0.1001, 0.100, 0.3, 0.3)
    params = reference_params(1e11)
    total = 350.0
    deltas = {}
    for l_a in (115.0, 145.0, 175.0, 205.0, 235.0):
        geom = LinkGeometry(l_a, total - l_a)
        y10, y01 = single_photon_yields(geom, params)
        deltas[l_a] = sns_quantum_coin_delta(s, y10, y01)
    assert all(deltas[175.0] > v for k, v in deltas.items() if k != 175.0)


def test_coin_delta_rejects_bad_yields():
    s = SnsSourceSetting(0.4, 0.4, 0.1, 0.1, 0.3, 0.3)
    with pytest.raises(ValueError):
        sns_quantum_coin_delta(s, 0.0, 0.1)
    with pytest.raises(ValueError):
        sns_quantum_coin_delta(s, 0.1, 1.2)


def test_cross_paired_far_nodes_make_the_coin_unusable():
    params = reference_params(1e11)
    geom = LinkGeometry(NODE_KM["A"], NODE_KM["D"])
    y10, y01 = single_photon_yields(geom, params)
    with pytest.raises(UnusableCoinError) as err:
        sns_quantum_coin_delta(_sns_pair("A", "D"), y10, y01)
    assert err.value.delta >= 0.5
    assert math.isclose(err.value.delta, 1.3456606497013675, rel_tol=1e-9)


def test_phase_error_bound_limits():
    rng = np.random.default_rng(43)
    for _ in range(300):
        e = float(rng.uniform(0.0, 0.5))
        assert math.isclose(sns_phase_error_bound(0.0, e), e, rel_tol=1e-13, abs_tol=1e-15)
        d = float(rng.uniform(0.0, 0.12))
        expected = min(4.0 * d * (1.0 - d), 0.5)
        assert math.isclose(
            sns_phase_error_bound(d, 0.0), expected, rel_tol=1e-13, abs_tol=1e-15
        )


def test_phase_error_bound_is_min_of_exact_and_relaxed():
    rng = np.random.default_rng(47)
    for _ in range(1500):
        d = float(rng.uniform(0.0, 0.499))
        e = float(rng.uniform(0.0, 0.5))
        exact = (
            (1.0 - 2.0 * d) * math.sqrt(e)
            + 2.0 * math.sqrt(d * (1.0 - d) * (1.0 - e))
        ) ** 2
        relaxed = e + 4.0 * d + 4.0 * math.sqrt(d * e)
        assert exact <= relaxed + 1e-12
        got = sns_phase_error_bound(d, e)
        assert got == min(exact, relaxed, 0.5)
        assert got <= 0.5


def test_phase_error_bound_monotone_in_delta():
    for e in (0.0, 0.01, 0.1, 0.3):
        grid = np.linspace(0.0, 0.499, 200)
        values = [sns_phase_error_bound(float(d), e) for d in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_phase_error_bound_clamps_and_validates():
    assert sns_phase_error_bound(0.45, 0.3) == 0.5
    with pytest.raises(ValueError):
        sns_phase_error_bound(-0.01, 0.1)
    with pytest.raises(ValueError):
        sns_phase_error_bound(0.5, 0.1)
    with pytest.raises(ValueError):
        sns_phase_error_bound(0.1, -0.01)
    with pytest.raises(ValueError):
        sns_phase_error_bound(0.1, 0.6)


@pytest.mark.parametrize(
    "mu_a, mu_b, t_a, t_b",
    [(1e300, 0.4, 0.3, 0.3), (0.4, 5e-324, 0.3, 0.3), (0.4, 0.4, 0.3, 5e-324)],
)
def test_sns_setting_rejects_z_weights_that_underflow(mu_a, mu_b, t_a, t_b):
    # a Z-window weight of 0 divides the constraint residual by zero
    with pytest.raises(ValueError, match="Z-window weights"):
        SnsSourceSetting(mu_a, mu_b, 0.1, 0.1, t_a, t_b)
