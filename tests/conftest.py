"""Shared tables and helpers for the test suite.

The reference operating points (fiber distances, detector parameters, and
per-node source settings) live here so the unit, integration, and
acceptance tests all pin against the same numbers.
"""

import math
import os

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.stats import poisson

from tfkeyrate.channel_model import LinkGeometry, SourceSetting, SystemParams

# property tests draw the same examples on every run, keep no example
# database on disk and are not timed per example; the constants Hypothesis
# caches from the source files go to pytest's own (ignored) cache directory
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
set_hypothesis_home_dir(os.path.join(os.path.dirname(__file__), os.pardir, ".pytest_cache", "hypothesis"))

DEG = math.pi / 180.0

# Fiber distance from each node to the central measurement site, in km.
NODE_KM = {"A": 200.0, "B": 200.0, "C": 120.0, "D": 150.0}

# The six node pairs of the reference network, in reporting order.
PAIRS = [("A", "C"), ("B", "D"), ("A", "D"), ("A", "B"), ("C", "D"), ("C", "B")]

# Per-node source settings optimized for a 5 degree slice width at N = 1e11.
TP_SETTINGS_SIGMA5 = {
    "A": SourceSetting(0.725, 0.100, 0.388, 0.159, 0.449, 0.004),
    "B": SourceSetting(0.681, 0.098, 0.362, 0.163, 0.471, 0.004),
    "C": SourceSetting(0.166, 0.005, 0.069, 0.161, 0.762, 0.008),
    "D": SourceSetting(0.250, 0.015, 0.108, 0.165, 0.716, 0.011),
}

# The same nodes re-optimized for an 18 degree slice width.
TP_SETTINGS_SIGMA18 = {
    "A": SourceSetting(0.720, 0.084, 0.343, 0.243, 0.409, 0.005),
    "B": SourceSetting(0.666, 0.084, 0.320, 0.245, 0.430, 0.005),
    "C": SourceSetting(0.168, 0.004, 0.058, 0.251, 0.677, 0.014),
    "D": SourceSetting(0.266, 0.013, 0.088, 0.262, 0.638, 0.012),
}

# Reference finite-key rates per pair (bits per pulse) at N = 1e11.
RATES_SIGMA5 = {
    ("A", "C"): 8.631e-6,
    ("B", "D"): 6.701e-6,
    ("A", "D"): 6.063e-6,
    ("A", "B"): 1.743e-6,
    ("C", "D"): 1.754e-5,
    ("C", "B"): 8.456e-6,
}

RATES_SIGMA18 = {
    ("A", "C"): 2.572e-6,
    ("B", "D"): 1.945e-6,
    ("A", "D"): 1.730e-6,
    ("A", "B"): 3.573e-7,
    ("C", "D"): 6.192e-6,
    ("C", "B"): 2.530e-6,
}

# Repeaterless benchmark for each pair's total fiber length.
PLOB_RATES = {
    ("A", "C"): 5.300e-6,
    ("B", "D"): 1.695e-6,
    ("A", "D"): 1.695e-6,
    ("A", "B"): 2.537e-7,
    ("C", "D"): 3.542e-5,
    ("C", "B"): 5.300e-6,
}


def reference_params(n_pulses, sigma_deg=5.0, delta_deg=7.0, e_d_z=0.0):
    """Detector and fiber parameters shared by the reference network."""
    return SystemParams(
        eta_d=0.7,
        p_d=1e-8,
        alpha=0.165,
        e_d_z=e_d_z,
        f=1.1,
        N=n_pulses,
        sigma=sigma_deg * DEG,
        delta=delta_deg * DEG,
        eps=1.5e-10,
    )


def oriented_pair(x, y, settings):
    """Order a node pair so the node nearer the measurement site goes first.

    Returns ``(near_name, far_name, near_setting, far_setting, geometry)``.
    Ties keep the argument order.
    """
    near, far = (x, y) if NODE_KM[x] <= NODE_KM[y] else (y, x)
    geom = LinkGeometry(NODE_KM[near], NODE_KM[far])
    return near, far, settings[near], settings[far], geom


def sig4(x):
    """Round to four significant figures."""
    return float(f"{x:.4g}")


def three_se_band(expected, event_units=1.0):
    """Central acceptance band for a counting observable.

    ``event_units`` is how many counts one independent event contributes
    (two for pair-based error tallies), which widens the band accordingly.
    For small means the Poisson quantiles take over from the normal
    three-sigma band, whichever is wider on each side.
    """
    mean = expected / event_units
    half = 3.0 * math.sqrt(max(mean, 0.0))
    lo, hi = mean - half, mean + half
    if mean < 1e6:
        lo = min(lo, float(poisson.ppf(0.00135, mean)) if mean > 0.0 else 0.0)
        hi = max(hi, float(poisson.ppf(0.99865, mean)) if mean > 0.0 else 0.0)
    return event_units * lo, event_units * hi


def within_three_se(observed, expected, event_units=1.0):
    lo, hi = three_se_band(expected, event_units)
    return lo <= observed <= hi


def mc_symmetric_config():
    """Symmetric 200 km link for Monte Carlo cross-checks."""
    a = SourceSetting(0.45, 0.10, 0.30, 0.25, 0.40, 0.05)
    params = SystemParams(
        eta_d=0.7, p_d=1e-8, alpha=0.165, e_d_z=0.03, f=1.1,
        N=1e7, sigma=5.0 * DEG, delta=10.0 * DEG, eps=1.5e-10,
    )
    return a, a, LinkGeometry(100.0, 100.0), params


def mc_asymmetric_config():
    """Strongly asymmetric 120 km link (100 km offset between arms)."""
    a = SourceSetting(0.5, 0.12, 0.30, 0.25, 0.40, 0.05)
    b = SourceSetting(0.42, 0.09, 0.32, 0.24, 0.39, 0.05)
    params = SystemParams(
        eta_d=0.7, p_d=1e-8, alpha=0.165, e_d_z=0.015, f=1.1,
        N=1e7, sigma=5.0 * DEG, delta=10.0 * DEG, eps=1.5e-10,
    )
    return a, b, LinkGeometry(10.0, 110.0), params


def mc_toy_config():
    """Near-zero-loss desk-scale link with exaggerated dark counts."""
    a = SourceSetting(0.2, 0.04, 0.30, 0.25, 0.40, 0.05)
    b = SourceSetting(0.25, 0.08, 0.28, 0.22, 0.44, 0.06)
    params = SystemParams(
        eta_d=0.85, p_d=1e-6, alpha=0.165, e_d_z=0.01, f=1.1,
        N=1e7, sigma=5.0 * DEG, delta=10.0 * DEG, eps=1.5e-10,
    )
    return a, b, LinkGeometry(0.5, 1.0), params
