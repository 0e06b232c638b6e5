"""The closed-form decoy yield bounds against a linear-programming reference.

estimate_singles_yields bounds y01 and y10 with the two-decoy vacuum-plus-weak
closed form (Ma, Qi, Zhao & Lo, PRA 72, 012326 (2005)).  A linear program
gives the tightest bound the same three gains allow, without that algebra:
over the photon-number yields Y_m (m < 40), minimize Y_1 subject to the
nu-gain >= its lower bound, the mu-gain <= its upper bound and Y_0 <= the
declared-vacuum upper bound.  The gains are the ones the chain reads: the
Chernoff-converted counts in finite mode, the expected counts in asymptotic
mode.

With Y_m >= 0 alone, the program is the one the closed form solves, so the
two agree to rounding.  The physical cap Y_m <= 1 can only raise the optimum:
the closed form stays below it, and it stays below the true yield.
"""

import functools
import itertools
import math
import os

import numpy as np
import pytest
from scipy.optimize import linprog

from tfkeyrate.channel_model import (
    InfeasibleDecoyError,
    LinkGeometry,
    SystemParams,
    declare_vacuum_probability,
    expected_pair_counts,
    single_photon_yields,
)
from tfkeyrate.cli import load_scenario
from tfkeyrate.keyrate_engine import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    X_OO_D,
    expected_count_bounds,
    estimate_singles_yields,
)
from tfkeyrate.planner import _patterned_pair

PHOTONS = np.arange(40)
_FACTORIALS = np.array([math.factorial(m) for m in PHOTONS], dtype=float)
N_RANDOM_LINKS = 50
REL = 1e-9

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "network_four_users.json")


def lp_single_photon_yield(mu, nu, gain_nu_lower, gain_mu_upper, gain_00_upper, cap=math.inf):
    """Least Y_1 that the three gain bounds allow, with 0 <= Y_m <= cap.

    The program is solved for Z = Y / s, with s about Y_1, and each row is
    divided by its bound, so every number HiGHS compares is of order one
    whatever the loss of the link.
    """
    poisson_nu = np.exp(-nu) * nu**PHOTONS / _FACTORIALS
    poisson_mu = np.exp(-mu) * mu**PHOTONS / _FACTORIALS
    s = (math.exp(nu) * gain_nu_lower - gain_00_upper) / nu
    rows = np.vstack([-poisson_nu * s / gain_nu_lower, poisson_mu * s / gain_mu_upper])
    bounds = [(0.0, min(gain_00_upper, cap) / s)] + [(0.0, cap / s)] * (len(PHOTONS) - 1)
    objective = np.zeros(len(PHOTONS))
    objective[1] = 1.0
    res = linprog(objective, A_ub=rows, b_ub=[-1.0, 1.0], bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun * s


def lp_yields(a, b, geom, params, mode, cap=math.inf):
    """LP optima (y01, y10) from the gains the decoy chain reads."""
    counts = expected_pair_counts(a, b, geom, params)
    bounds = expected_count_bounds(counts, params.eps, mode)
    n = params.N
    gain_00 = bounds[X_OO_D][1] / (n * declare_vacuum_probability(a, b))
    y01 = lp_single_photon_yield(
        b.mu, b.nu,
        bounds[("o", "nu")][0] / (n * a.p_o * b.p_nu),
        bounds[("ohat", "mu")][1] / (n * a.p_ohat * b.p_mu),
        gain_00, cap,
    )
    y10 = lp_single_photon_yield(
        a.mu, a.nu,
        bounds[("nu", "o")][0] / (n * a.p_nu * b.p_o),
        bounds[("mu", "ohat")][1] / (n * a.p_mu * b.p_ohat),
        gain_00, cap,
    )
    return y01, y10


def closed_form_yields(a, b, geom, params, mode):
    return estimate_singles_yields(expected_pair_counts(a, b, geom, params), a, b, params, mode)


def network_links():
    doc = load_scenario(CONFIG)
    for first, second in itertools.combinations(doc.nodes, 2):
        near, far = sorted((first, second), key=lambda node: node.distance_km)
        yield near.setting, far.setting, LinkGeometry(near.distance_km, far.distance_km), doc.params


def random_links():
    """N_RANDOM_LINKS links, feasible in both modes, from a fixed-seed
    generator: the optimizer's randomized start pattern on random hardware."""
    rng = np.random.Generator(np.random.Philox(key=15))
    links = []
    for _ in range(20 * N_RANDOM_LINKS):
        geom = LinkGeometry(float(rng.uniform(0.0, 200.0)), float(rng.uniform(0.0, 200.0)))
        params = SystemParams(
            eta_d=float(rng.uniform(0.3, 1.0)), p_d=10.0 ** float(rng.uniform(-10.0, -5.0)),
            alpha=0.165, e_d_z=0.0, f=1.1, N=10.0 ** float(rng.uniform(8.0, 14.0)),
            sigma=0.0, delta=0.1, eps=10.0 ** float(rng.uniform(-15.0, -3.0)),
        )
        eta_a, eta_b = geom.transmittances(params)
        a, b = _patterned_pair(
            eta_a / eta_b,
            mu_far=rng.uniform(0.1, 0.9),
            mu_exp=rng.uniform(0.2, 1.2),
            nu_frac=rng.uniform(0.06, 0.3),
            p_mu_far=rng.uniform(0.15, 0.5),
            p_mu_near=rng.uniform(0.03, 0.25),
            p_nu=rng.uniform(0.08, 0.3),
            p_ohat=10.0 ** rng.uniform(-2.7, -1.0),
        )
        try:
            for mode in (MODE_FINITE, MODE_ASYMPTOTIC):
                closed_form_yields(a, b, geom, params, mode)
        except InfeasibleDecoyError:
            continue
        links.append((a, b, geom, params))
        if len(links) == N_RANDOM_LINKS:
            return links
    raise AssertionError(f"fewer than {N_RANDOM_LINKS} feasible links drawn")


@functools.cache
def links(kind):
    return list(network_links()) if kind == "network" else random_links()


@pytest.mark.parametrize("mode", [MODE_FINITE, MODE_ASYMPTOTIC])
@pytest.mark.parametrize("kind", ["network", "random"])
def test_closed_form_yields_are_the_lp_optimum(kind, mode):
    for a, b, geom, params in links(kind):
        closed = closed_form_yields(a, b, geom, params, mode)
        optimum = lp_yields(a, b, geom, params, mode)
        capped = lp_yields(a, b, geom, params, mode, cap=1.0)
        truth = single_photon_yields(geom, params)[::-1]  # as (y01, y10)
        for name, y, lp, lp_capped, true in zip(("y01", "y10"), closed, optimum, capped, truth):
            where = f"{name} {mode} {geom} {a} {b}"
            # valid: below every yield the gains allow
            assert y <= lp * (1.0 + REL), where
            # tight: no higher bound follows from Y_m >= 0
            assert y >= lp * (1.0 - REL), where
            # the tightest bound of physical yields is still below the truth
            assert lp_capped <= true, where
