"""Benchmark bounds and rival-protocol source diagnostics.

plob_bound gives the repeaterless secret-key capacity of the lossy channel
(detector efficiency folded into the transmittance, which is how the
published comparison values are computed).  The sns_* functions quantify how
far a sending-or-not-sending source configuration strays from the intensity
constraint that makes its Z and X single-photon states identical, and what
that mismatch costs in phase-error estimation: the quantum-coin imbalance
grows as 1/Q1 with distance, which is the effect the two-photon variant
avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class UnusableCoinError(RuntimeError):
    """The quantum-coin imbalance reached 1/2; the phase-error bound is void."""

    def __init__(self, delta: float):
        super().__init__(f"quantum-coin imbalance {delta} >= 0.5")
        self.delta = delta


def plob_bound(total_km: float, eta_d: float, alpha: float) -> float:
    """Repeaterless capacity -log2(1 - eta) with eta = eta_d 10^(-alpha L/10)."""
    if total_km < 0.0:
        raise ValueError(f"distance must be >= 0 km, got {total_km}")
    eta = eta_d * 10.0 ** (-alpha * total_km / 10.0)
    # -log2(1-eta) via log1p for the small-eta regime that dominates here
    return -math.log1p(-eta) / math.log(2.0)


@dataclass(frozen=True)
class SnsSourceSetting:
    """Intensities and Z-window send probabilities of an SNS-style link."""

    mu_a: float
    mu_b: float
    nu_a: float
    nu_b: float
    t_a: float
    t_b: float

    def __post_init__(self) -> None:
        for name in ("mu_a", "mu_b", "nu_a", "nu_b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("t_a", "t_b"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not min(self.z_terms()) > 0.0:
            raise ValueError(f"Z-window weights t (1 - t') mu e^-mu must be positive floats, got {self.z_terms()}")

    def z_terms(self) -> tuple[float, float]:
        """Unnormalized single-photon weights of the Z-window joint state."""
        return (
            self.t_a * (1.0 - self.t_b) * self.mu_a * math.exp(-self.mu_a),
            self.t_b * (1.0 - self.t_a) * self.mu_b * math.exp(-self.mu_b),
        )

    def z_weights(self) -> tuple[float, float]:
        """Normalized single-photon weights of the Z-window joint state."""
        w_a, w_b = self.z_terms()
        total = w_a + w_b
        return w_a / total, w_b / total

    def x_weights(self) -> tuple[float, float]:
        total = self.nu_a + self.nu_b
        return self.nu_a / total, self.nu_b / total


def sns_constraint_residual(s: SnsSourceSetting) -> float:
    """nu_a/nu_b minus the intensity ratio that equalizes the Z and X
    single-photon states; zero exactly when the source constraint holds."""
    w_a, w_b = s.z_terms()
    return s.nu_a / s.nu_b - w_a / w_b


def sns_quantum_coin_delta(s: SnsSourceSetting, y10: float, y01: float) -> float:
    """Quantum-coin imbalance Delta = (1 - F)/(2 Q1).

    F is the fidelity of the two diagonal single-photon states (sum of
    square roots of paired weights) and Q1 the Z-window single-photon yield,
    the z-weighted average of the one-photon-vs-vacuum yields.
    """
    if not 0.0 < y10 <= 1.0 or not 0.0 < y01 <= 1.0:
        raise ValueError(f"yields must lie in (0, 1], got y10={y10}, y01={y01}")
    wz_a, wz_b = s.z_weights()
    wx_a, wx_b = s.x_weights()
    fidelity = math.sqrt(wz_a * wx_a) + math.sqrt(wz_b * wx_b)
    q1 = wz_a * y10 + wz_b * y01
    delta = (1.0 - fidelity) / (2.0 * q1)
    if delta >= 0.5:
        raise UnusableCoinError(delta)
    return delta


def sns_phase_error_bound(delta: float, e1x: float) -> float:
    """Phase-error upper bound under coin imbalance delta.

    Minimum of the exact form [(1-2D)sqrt(e) + 2 sqrt(D(1-D)(1-e))]^2 and
    its algebraic relaxation e + 4D + 4 sqrt(D e), clamped to 1/2.
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"delta must lie in [0, 0.5), got {delta}")
    if not 0.0 <= e1x <= 0.5:
        raise ValueError(f"e1x must lie in [0, 0.5], got {e1x}")
    exact = ((1.0 - 2.0 * delta) * math.sqrt(e1x) + 2.0 * math.sqrt(delta * (1.0 - delta) * (1.0 - e1x))) ** 2
    relaxed = e1x + 4.0 * delta + 4.0 * math.sqrt(delta * e1x)
    return min(exact, relaxed, 0.5)
