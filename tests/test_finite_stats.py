"""Tests for concentration bounds, epsilon accounting, and numeric helpers."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, special

from tfkeyrate.channel_model import _i0_minus_one
from tfkeyrate.finite_stats import (
    CHERNOFF_APPLICATIONS,
    binary_entropy,
    chernoff_expected_bounds,
    chernoff_observed_bounds,
    compose_epsilons,
    integrate_adaptive_simpson,
    random_sampling_gamma,
)


def _gamma_reference(n, k, lam, eps):
    """Independent transcription of the random-sampling correction bound."""
    total = n + k
    big = max(n, k)
    g = total / (n * k) * math.log(
        total / (2.0 * math.pi * n * k * lam * (1.0 - lam) * eps * eps)
    )
    term = big * g / total
    num = (1.0 - 2.0 * lam) * term + math.sqrt(term * term + 4.0 * lam * (1.0 - lam) * g)
    return num / (2.0 + 2.0 * term * big / total)


def test_binary_entropy_reference_value():
    # 40-digit evaluation of -p log2(p) - (1-p) log2(1-p) at p = 1/4.
    assert math.isclose(binary_entropy(0.25), 0.81127812445913286, rel_tol=1e-14)


def test_binary_entropy_edges_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_rejects_out_of_range():
    for bad in (-0.1, -1e-12, 1.0 + 1e-9, 2.0):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_binary_entropy_symmetry_and_concavity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(0.0, 1.0))
        assert math.isclose(
            binary_entropy(p), binary_entropy(1.0 - p), rel_tol=0.0, abs_tol=1e-12
        )
        mid = 0.5 * (p + q)
        midpoint_avg = 0.5 * (binary_entropy(p) + binary_entropy(q))
        assert binary_entropy(mid) >= midpoint_avg - 1e-12


def test_expected_bounds_reference_point():
    # Frozen from a 40-digit evaluation at observed x = 1e6, eps = 1.5e-10.
    lo, hi = chernoff_expected_bounds(1e6, 1.5e-10)
    assert math.isclose(lo, 993262.55424763682, rel_tol=1e-12)
    assert math.isclose(hi, 1006748.784472842, rel_tol=1e-12)


def test_expected_bounds_zero_count():
    # With x = 0 and eps = e^-10 the upper bound collapses to 2 ln(1/eps).
    lo, hi = chernoff_expected_bounds(0.0, math.exp(-10.0))
    assert lo == 0.0
    assert math.isclose(hi, 20.0, rel_tol=1e-12)


def test_observed_bounds_reference_point():
    lo, hi = chernoff_observed_bounds(1e6, 1.5e-10)
    assert math.isclose(lo, 993273.87394976391, rel_tol=1e-12)
    assert math.isclose(hi, 1006737.4457523632, rel_tol=1e-12)


def test_observed_bounds_zero_mean():
    # With x* = 0 and eps = e^-10 the upper bound collapses to ln(1/eps).
    lo, hi = chernoff_observed_bounds(0.0, math.exp(-10.0))
    assert lo == 0.0
    assert math.isclose(hi, 10.0, rel_tol=1e-12)


def test_bounds_bracket_their_input():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        x = float(10.0 ** rng.uniform(0.0, 9.0))
        eps = float(10.0 ** rng.uniform(-12.0, -2.0))
        lo, hi = chernoff_expected_bounds(x, eps)
        assert 0.0 <= lo <= x <= hi
        lo_star, hi_star = chernoff_observed_bounds(x, eps)
        assert 0.0 <= lo_star <= x <= hi_star


def test_round_trip_nesting():
    """Observed -> expected -> observed can only widen the bracket."""
    rng = np.random.default_rng(13)
    for _ in range(2000):
        x = float(10.0 ** rng.uniform(0.0, 9.0))
        eps = float(10.0 ** rng.uniform(-12.0, -2.0))
        exp_lo, exp_hi = chernoff_expected_bounds(x, eps)
        obs_lo, _ = chernoff_observed_bounds(exp_lo, eps)
        _, obs_hi = chernoff_observed_bounds(exp_hi, eps)
        assert obs_lo <= x <= obs_hi


def test_relative_width_shrinks_with_counts():
    eps = 1e-10
    widths = []
    for x in (1e3, 1e4, 1e5, 1e6, 1e8, 1e10):
        lo, hi = chernoff_expected_bounds(x, eps)
        widths.append((hi - lo) / x)
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_gamma_reference_point():
    got = random_sampling_gamma(1e6, 1e6, 0.02, 1.5e-10)
    assert math.isclose(got, 0.0011746043868306899, rel_tol=1e-12)


def test_gamma_matches_independent_transcription():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = float(10.0 ** rng.uniform(3.0, 9.0))
        k = float(10.0 ** rng.uniform(3.0, 9.0))
        lam = float(rng.uniform(0.005, 0.3))
        eps = float(10.0 ** rng.uniform(-12.0, -6.0))
        got = random_sampling_gamma(n, k, lam, eps)
        assert got > 0.0
        assert math.isclose(got, _gamma_reference(n, k, lam, eps), rel_tol=1e-12)


def test_gamma_vanishes_with_sample_size():
    values = [random_sampling_gamma(10.0**g, 10.0**g, 0.02, 1.5e-10) for g in range(4, 13)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4


def test_gamma_monotone_in_counts():
    for k in (1e4, 1e6, 1e8):
        values = [random_sampling_gamma(n, k, 0.02, 1.5e-10) for n in (1e4, 1e5, 1e6, 1e7, 1e8)]
        assert all(b <= a for a, b in zip(values, values[1:]))
    for n in (1e4, 1e6, 1e8):
        values = [random_sampling_gamma(n, k, 0.02, 1.5e-10) for k in (1e4, 1e5, 1e6, 1e7, 1e8)]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_gamma_is_zero_where_the_prefactor_already_meets_eps():
    # log argument total / (2 pi n k lam (1-lam) eps^2) <= 1: the closed form
    # would take the log or the square root of a negative number
    assert random_sampling_gamma(1e6, 1e6, 0.02, 0.5) == 0.0  # large eps
    assert random_sampling_gamma(1e30, 1e30, 0.02, 1.5e-10) == 0.0  # huge populations
    n, k, lam = 1e6, 2e6, 0.05
    threshold = math.sqrt((n + k) / (2.0 * math.pi * n * k * lam * (1.0 - lam)))
    assert random_sampling_gamma(n, k, lam, threshold * 1.001) == 0.0
    # continuous at the boundary: just inside it gamma is small and positive
    inside = random_sampling_gamma(n, k, lam, threshold * 0.999)
    assert 0.0 < inside < 1e-3
    assert inside == pytest.approx(_gamma_reference(n, k, lam, threshold * 0.999), rel=1e-12)


def test_gamma_rejects_bad_domains():
    with pytest.raises(ValueError):
        random_sampling_gamma(0.0, 1e6, 0.02, 1e-10)
    with pytest.raises(ValueError):
        random_sampling_gamma(1e6, -1.0, 0.02, 1e-10)
    with pytest.raises(ValueError):
        random_sampling_gamma(1e6, 1e6, 0.0, 1e-10)
    with pytest.raises(ValueError):
        random_sampling_gamma(1e6, 1e6, 1.0, 1e-10)
    with pytest.raises(ValueError):
        random_sampling_gamma(1e6, 1e6, 0.02, 0.0)
    with pytest.raises(ValueError):
        random_sampling_gamma(1e6, 1e6, 0.02, 1.0)


def _i0(x):
    """I0 through the series the channel model evaluates."""
    return 1.0 + _i0_minus_one(x)


def test_bessel_matches_scipy_on_dense_grid():
    xs = np.linspace(0.0, 40.0, 2001)
    ref = special.i0(xs)
    got = np.array([_i0(float(x)) for x in xs])
    assert float(np.max(np.abs(got - ref) / ref)) < 1e-12


def test_bessel_matches_integral_definition():
    for x in (0.5, 3.0, 12.0, 25.0):
        ref, _ = integrate.quad(
            lambda t: math.exp(x * math.cos(t)) / math.pi, 0.0, math.pi,
            epsabs=0.0, epsrel=1e-12,
        )
        assert math.isclose(_i0(x), ref, rel_tol=1e-10)


def test_bessel_reference_points_span_both_branches():
    # Frozen from 40-digit evaluations; the series takes 10 terms at 1.0
    # and 35 at 20.
    assert _i0(0.0) == 1.0
    assert math.isclose(_i0(1.0), 1.2660658777520083, rel_tol=1e-12)
    assert math.isclose(_i0(7.3), 222.6587998730119, rel_tol=1e-12)
    assert math.isclose(_i0(20.0), 43558282.559553533, rel_tol=1e-12)


def test_bessel_beyond_the_float_range_raises():
    with pytest.raises(OverflowError):
        _i0(1000.0)


def test_bessel_strictly_increasing():
    xs = np.linspace(0.0, 30.0, 301)
    values = [_i0(float(x)) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_compose_epsilons_reference_budget():
    budget = compose_epsilons(1.5e-10)
    assert CHERNOFF_APPLICATIONS == 13
    assert budget.eps_tp == 3.6e-9
    assert budget.eps_sec == 23 * 1.5e-10
    assert budget.eps_zero_one == CHERNOFF_APPLICATIONS * 1.5e-10


def test_compose_epsilons_scales_exactly():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        e = float(10.0 ** rng.uniform(-12.0, -6.0))
        budget = compose_epsilons(e)
        assert budget.eps_cor == e
        assert budget.eps_pa == e
        assert budget.eps_sec == (10 + CHERNOFF_APPLICATIONS) * e
        assert budget.eps_tp == (11 + CHERNOFF_APPLICATIONS) * e


def test_epsilon_budget_rejects_out_of_range_entries():
    for bad in (0.0, -1e-10, 1.0):
        with pytest.raises(ValueError):
            compose_epsilons(bad)
    budget = compose_epsilons(1e-10)
    with pytest.raises(ValueError):
        dataclasses.replace(budget, eps_cor=0.0)


def test_adaptive_simpson_matches_quad():
    cases = [
        (lambda t: math.sin(3.0 * t) + 1.2, 0.1, 2.0),
        (lambda t: math.exp(0.8 * math.cos(t)), 0.0872, 0.2094),
        (lambda t: math.exp(-t) * (1.0 - math.cos(t)) ** 2, 0.0, 3.0),
    ]
    for f, a, b in cases:
        ref, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13)
        assert math.isclose(integrate_adaptive_simpson(f, a, b), ref, rel_tol=1e-9)


def test_adaptive_simpson_degenerate_interval():
    assert integrate_adaptive_simpson(math.sin, 1.0, 1.0) == 0.0
    assert integrate_adaptive_simpson(math.sin, 2.0, 1.0) == 0.0
