"""Analytic detection statistics of the untrusted-relay interferometer.

Two users send phase-randomized pulses toward a middle beam splitter with
single-photon detectors L and R behind it; a round succeeds when exactly one
detector clicks.  This module evaluates the phase-averaged click rates
for every intensity pair, the post-matched Z-basis pair counts and error
rate, and the phase-sliced X-basis totals and error counts.

Intensity classes per user: "mu" (signal), "nu" (decoy, used in the phase
slice), "o" (declared vacuum) and "ohat" (undeclared vacuum).  The o/ohat
distinction is purely classical announcement; both are zero intensity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .finite_stats import integrate_adaptive_simpson

INTENSITY_LABELS = ("mu", "nu", "o", "ohat")

_PROB_SUM_TOL = 1e-9

# eps, nu and N squared must stay normal floats: the random-sampling
# correction divides by eps^2, the yield bounds divide by mu nu - nu^2, and
# s11_z multiplies two counts of order N
_SQRT_FLOAT_MIN = math.sqrt(sys.float_info.min)
_N_MAX = math.sqrt(sys.float_info.max)
# exp(x) leaves the float range near x = 709.8 and I0(x) near 714.  The gain
# series takes omega <= sqrt(k_a k_b) and the yield bounds exp(mu), so x and mu <= 700.
_X_MAX = 700.0

# Index of each intensity label into (mu, nu, 0): both vacuum classes send
# intensity 0, so 9 distinct gains fill the 16 intensity pairs.
_INTENSITY_INDEX = (0, 1, 2, 2)


class InfeasibleDecoyError(RuntimeError):
    """A decoy bound collapsed to zero or below, or no Z-basis pair was
    formed; the link yields no key.

    slice_free is True when the failing step reads nothing of the phase
    slice, so the link fails alike at every slice width.
    """

    def __init__(self, message: str, *, slice_free: bool = False) -> None:
        super().__init__(message)
        self.slice_free = slice_free


class MissingDeclareVacuumError(ValueError):
    """A rescaling step divides by a vacuum send probability that is zero."""


@dataclass(frozen=True)
class SourceSetting:
    """One user's intensities and per-round send probabilities."""

    mu: float
    nu: float
    p_mu: float
    p_nu: float
    p_o: float
    p_ohat: float

    def __post_init__(self) -> None:
        values = (self.mu, self.nu, self.p_mu, self.p_nu, self.p_o, self.p_ohat)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"source settings must be finite, got {values}")
        if not self.mu > self.nu > 0.0:
            raise ValueError(f"intensities must satisfy mu > nu > 0, got mu={self.mu}, nu={self.nu}")
        if self.mu > _X_MAX:
            raise ValueError(f"mu = {self.mu} exceeds {_X_MAX:g}; the model cannot evaluate larger intensities")
        if self.nu < _SQRT_FLOAT_MIN:
            raise ValueError(f"nu must be at least sqrt(float min) = {_SQRT_FLOAT_MIN:.4g}, got {self.nu}")
        if not self.mu * self.nu > self.nu * self.nu:
            raise ValueError(f"mu must exceed nu by more than rounding, got mu={self.mu}, nu={self.nu}")
        probs = (self.p_mu, self.p_nu, self.p_o, self.p_ohat)
        if any(p < 0.0 for p in probs):
            raise ValueError(f"send probabilities must be nonnegative, got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"send probabilities must sum to 1, got {total}")


@dataclass(frozen=True)
class SystemParams:
    """Detector, channel and protocol constants shared by both users.

    Angles are radians; sigma is the phase-reference misalignment and delta
    the half-width of the accepted phase slice.  eps is the per-use failure
    probability fed to every concentration bound.
    """

    eta_d: float
    p_d: float
    alpha: float
    e_d_z: float
    f: float
    N: float
    sigma: float
    delta: float
    eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"eta_d must be in (0, 1], got {self.eta_d}")
        if not 0.0 <= self.p_d < 1.0:
            raise ValueError(f"p_d must be in [0, 1), got {self.p_d}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0 dB/km, got {self.alpha}")
        if not 0.0 <= self.e_d_z <= 1.0:
            raise ValueError(f"e_d_z must be in [0, 1], got {self.e_d_z}")
        if not (math.isfinite(self.f) and self.f >= 1.0):
            raise ValueError(f"error-correction efficiency f must be finite and >= 1, got {self.f}")
        if not (math.isfinite(self.N) and self.N > 0.0):
            raise ValueError(f"round count N must be finite and positive, got {self.N}")
        if self.N > _N_MAX:
            raise ValueError(f"round count N must be at most sqrt(float max) = {_N_MAX:.4g}, got {self.N}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if not 0.0 < self.delta <= math.pi / 2.0:
            raise ValueError(f"delta must be in (0, pi/2], got {self.delta}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if self.eps < _SQRT_FLOAT_MIN:
            raise ValueError(f"eps must be at least sqrt(float min) = {_SQRT_FLOAT_MIN:.4g}, got {self.eps}")


@dataclass(frozen=True)
class LinkGeometry:
    """Fiber lengths from each user to the middle node, in km."""

    l_a: float
    l_b: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x >= 0.0 for x in (self.l_a, self.l_b)):
            raise ValueError(f"fiber lengths must be finite and >= 0 km, got {self.l_a}, {self.l_b}")

    def transmittances(self, params: SystemParams) -> tuple[float, float]:
        """End-to-detector transmittances (eta_a, eta_b) including eta_d."""
        eta_a = params.eta_d * 10.0 ** (-params.alpha * self.l_a / 10.0)
        eta_b = params.eta_d * 10.0 ** (-params.alpha * self.l_b / 10.0)
        return eta_a, eta_b


@dataclass(frozen=True)
class ObservedCounts:
    """Event counts per intensity pair plus post-matched totals, expected
    (observed_statistics) or simulated (MonteCarloTally.observed_counts).

    x is keyed by (alice_label, bob_label); x_oo_d aggregates the three
    declared-vacuum combinations.  The Z/X fields hold the totals of
    z_basis_counts / x_basis_counts.
    """

    x: dict[tuple[str, str], float]
    x_oo_d: float
    n_z: float | None = None
    m_z: float | None = None
    n_C_z: float | None = None
    n_E_z: float | None = None
    E_z: float | None = None
    n_x: float | None = None
    m_x: float | None = None


def _amplitudes(k_a: float, k_b: float, eta_a: float, eta_b: float, p_d: float) -> tuple[float, float, float]:
    """No-click amplitude y, interference amplitude omega, and the half-sum
    (eta_a k_a + eta_b k_b)/2 used for cancellation-safe exponentials."""
    half_sum = 0.5 * (eta_a * k_a + eta_b * k_b)
    y = (1.0 - p_d) * math.exp(-half_sum)
    omega = math.sqrt(eta_a * k_a * eta_b * k_b)
    return y, omega, half_sum


def _average_gain(y: float, omega: float, half_sum: float, p_d: float) -> float:
    """Phase-averaged success rate 2y (I0(omega) - y) from the amplitudes."""
    one_minus_y = -math.expm1(-half_sum) + p_d * math.exp(-half_sum)
    return 2.0 * y * (_i0_minus_one(omega) + one_minus_y)


def _slice_terms(
    a: SourceSetting, b: SourceSetting, geom: LinkGeometry, params: SystemParams
) -> tuple[float, float, float, float]:
    """(y, omega, gap, dark) of the decoy pair, where gap = expm1(-half_sum)
    and dark = p_d e^{-half_sum} are the theta-free terms of the per-phase
    gains.

    A slice integrand then evaluates the per-phase gain q_L = y (e^c - y)
    as y * (expm1(c) - gap + dark), and q_R with -c, for c = omega cos
    theta: one cosine and two expm1 per node, which keep their precision
    where e^c and y are both near 1.
    """
    eta_a, eta_b = geom.transmittances(params)
    y, omega, half_sum = _amplitudes(a.nu, b.nu, eta_a, eta_b, params.p_d)
    return y, omega, math.expm1(-half_sum), params.p_d * math.exp(-half_sum)


def _i0_minus_one(x: float) -> float:
    """I0(x) - 1 for x >= 0 by the power series sum_k>=1 (x^2/4)^k / (k!)^2.

    Every term is positive, so there is no cancellation at small x, and the
    sum stays within 1e-12 relative of I0(x) - 1 up to x = 700.  Past the
    float range the sum is inf, and once a term overflows the loop never
    stops, so x > _X_MAX raises.
    """
    if not x <= _X_MAX:
        raise OverflowError(f"I0(x) - 1 is evaluated for x <= {_X_MAX:g}, got {x}")
    term = 1.0
    total = 0.0
    quarter_sq = 0.25 * x * x
    k = 1
    while True:
        term *= quarter_sq / (k * k)
        total += term
        if term < (total + 1.0) * 1e-17:
            return total
        k += 1


def declare_vacuum_probability(a: SourceSetting, b: SourceSetting) -> float:
    """Probability of the aggregated declared-vacuum event class."""
    return a.p_ohat * b.p_ohat + a.p_ohat * b.p_o + a.p_o * b.p_ohat


def check_vacuum_classes(a: SourceSetting, b: SourceSetting) -> None:
    """Raise MissingDeclareVacuumError unless both users send both vacuum
    classes: the yield bounds rescale by each of these probabilities, and
    the Z basis matches against the first user's "o" row."""
    if a.p_ohat <= 0.0 or b.p_ohat <= 0.0 or declare_vacuum_probability(a, b) <= 0.0:
        raise MissingDeclareVacuumError("yield bounds need nonzero undeclared-vacuum probabilities")
    if a.p_o <= 0.0 or b.p_o <= 0.0:
        raise MissingDeclareVacuumError("yield bounds need nonzero declared-vacuum probabilities")


def expected_pair_counts(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
) -> ObservedCounts:
    """Expected successful-event counts x[k_a][k_b] = N p_{k_a} p_{k_b} q for
    all sixteen intensity pairs, plus the aggregated declared-vacuum total.

    q is the phase-averaged gain 2y (I0(omega) - y) of the pair, with the
    transmittances evaluated once.
    """
    eta_a, eta_b = geom.transmittances(params)
    p_d = params.p_d
    gains = [
        [_average_gain(*_amplitudes(k_a, k_b, eta_a, eta_b, p_d), p_d) for k_b in (b.mu, b.nu, 0.0)]
        for k_a in (a.mu, a.nu, 0.0)
    ]
    probs_a = (a.p_mu, a.p_nu, a.p_o, a.p_ohat)
    probs_b = (b.p_mu, b.p_nu, b.p_o, b.p_ohat)
    x: dict[tuple[str, str], float] = {}
    for la, p_a, i in zip(INTENSITY_LABELS, probs_a, _INTENSITY_INDEX):
        for lb, p_b, j in zip(INTENSITY_LABELS, probs_b, _INTENSITY_INDEX):
            x[(la, lb)] = params.N * p_a * p_b * gains[i][j]
    x_oo_d = x[("ohat", "ohat")] + x[("ohat", "o")] + x[("o", "ohat")]
    return ObservedCounts(x=x, x_oo_d=x_oo_d)


def z_basis_counts(counts: ObservedCounts, params: SystemParams) -> tuple[float, float, float, float, float]:
    """Post-matched Z-basis totals (n_z, m_z, n_C_z, n_E_z, E_z).

    Events with the first user silent ("o" row) are matched against events
    where she sent mu; a matched pair is correct when the second user's mu
    lands in the opposite bin and an error when it lands in the same bin.
    The smaller pool limits the number of pairs; an empty pool (nothing
    can click, or a row never sent) forms none and raises
    InfeasibleDecoyError, as does a second user who never sends mu.
    """
    row_o = counts.x[("o", "o")] + counts.x[("o", "mu")]
    row_mu = counts.x[("mu", "o")] + counts.x[("mu", "mu")]
    x_min = min(row_o, row_mu)
    if x_min <= 0.0:
        raise InfeasibleDecoyError("empty Z-basis matching pool; no post-matched pairs", slice_free=True)
    n_c = x_min * (counts.x[("o", "mu")] / row_o) * (counts.x[("mu", "o")] / row_mu)
    n_e = x_min * (counts.x[("o", "o")] / row_o) * (counts.x[("mu", "mu")] / row_mu)
    n_z = n_c + n_e
    if n_z <= 0.0:
        raise InfeasibleDecoyError("no Z-basis pair can form; every matched pair is discarded", slice_free=True)
    m_z = (1.0 - params.e_d_z) * n_e + params.e_d_z * n_c
    return n_z, m_z, n_c, n_e, m_z / n_z


def z_pool_sizes(counts: ObservedCounts) -> tuple[float, float]:
    """(x_min, x_max) of the two Z-basis matching pools."""
    row_o = counts.x[("o", "o")] + counts.x[("o", "mu")]
    row_mu = counts.x[("mu", "o")] + counts.x[("mu", "mu")]
    return min(row_o, row_mu), max(row_o, row_mu)


def _x_window_integral(integrand, params: SystemParams) -> float:
    return integrate_adaptive_simpson(integrand, params.sigma, params.sigma + params.delta)


def x_basis_counts(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    slice_terms: tuple[float, float, float, float] | None = None,
) -> tuple[float, float]:
    """Phase-sliced X-basis totals (n_x, m_x) in event units.

    n_x integrates the per-phase gain q^theta = q_L + q_R over the slice
    [sigma, sigma+delta] with the 1/pi prefactor of the published count.
    m_x integrates 2 q_L q_R / q, from the per-pair error probability
    p_E = 2 q_L q_R / q^2: the matched clicks landed in detectors that
    disagree with the phase bookkeeping.  It is nonnegative by construction
    and the form validated by the Monte Carlo oracle.  The published
    closed-form integrand 2y [(1-y)^2/(e^{w c}+e^{-w c}-2y) - 1] is this one
    with the numerator (1 - y e^{w c})(1 - y e^{-w c}) replaced by (1-y)^2,
    which makes it negative over the whole slice: clamped at zero, it gives
    m_x = 0 for every geometry.

    slice_terms lets a caller pass the _slice_terms of these settings that
    it computed for its own slice integral; a standalone call computes them.
    """
    if slice_terms is None:
        slice_terms = _slice_terms(a, b, geom, params)
    y, omega, gap, dark = slice_terms
    prefactor = params.N * a.p_nu * b.p_nu / math.pi

    def total_integrand(theta: float) -> float:
        c = omega * math.cos(theta)
        return y * (math.expm1(c) - gap + dark) + y * (math.expm1(-c) - gap + dark)

    n_x = prefactor * _x_window_integral(total_integrand, params)

    def error_integrand(theta: float) -> float:
        c = omega * math.cos(theta)
        q_l = y * (math.expm1(c) - gap + dark)
        q_r = y * (math.expm1(-c) - gap + dark)
        q = q_l + q_r
        if q <= 0.0:
            return 0.0
        return 2.0 * q_l * q_r / q

    m_x = prefactor * _x_window_integral(error_integrand, params)
    return n_x, m_x


def single_photon_yields(geom: LinkGeometry, params: SystemParams) -> tuple[float, float]:
    """Exact yields (y10, y01) of one-photon-vs-vacuum rounds.

    y10: the first user's single photon survives with probability eta_a and
    falls on one detector; the silent detector may still dark-count.  Exactly
    one click happens with probability (1-p_d)[eta + 2 p_d (1-eta)].
    """
    eta_a, eta_b = geom.transmittances(params)
    y10 = (1.0 - params.p_d) * (eta_a + 2.0 * params.p_d * (1.0 - eta_a))
    y01 = (1.0 - params.p_d) * (eta_b + 2.0 * params.p_d * (1.0 - eta_b))
    return y10, y01


def observed_statistics(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    slice_terms: tuple[float, float, float, float] | None = None,
) -> ObservedCounts:
    """Fully populated ObservedCounts: pair counts plus Z and X totals.

    Settings without both vacuum classes raise MissingDeclareVacuumError
    before any count is formed.  slice_terms is passed on to
    x_basis_counts.
    """
    check_vacuum_classes(a, b)
    counts = expected_pair_counts(a, b, geom, params)
    n_z, m_z, n_c, n_e, e_z = z_basis_counts(counts, params)
    n_x, m_x = x_basis_counts(a, b, geom, params, slice_terms=slice_terms)
    return replace(counts, n_z=n_z, m_z=m_z, n_C_z=n_c, n_E_z=n_e, E_z=e_z, n_x=n_x, m_x=m_x)
