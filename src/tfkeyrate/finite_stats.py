"""Concentration bounds, entropy, quadrature and failure-probability budgets.

Everything here is a pure scalar function used by the estimators: the two
Chernoff-style conversions between expected and observed counts, the random
sampling correction gamma^U, binary entropy, an adaptive Simpson integrator,
and the composition rule that turns one per-use failure probability into
the overall security budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Number of expected<->observed count conversions charged to the shared
# yield/error estimation budget in one standard finite-key evaluation.
CHERNOFF_APPLICATIONS = 13


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) in bits, with 0*log2(0) taken as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_count_and_eps(value: float, eps: float, name: str) -> None:
    if value < 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite nonnegative count, got {value}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {eps}")


def chernoff_expected_bounds(x: float, eps: float) -> tuple[float, float]:
    """Envelope for the expected value behind an observed count x.

    Returns (lower, upper) such that the unknown expectation lies inside
    except with probability eps per side.  beta = ln(1/eps).
    """
    _check_count_and_eps(x, eps, "observed count")
    beta = math.log(1.0 / eps)
    upper = x + beta + math.sqrt(2.0 * beta * x + beta * beta)
    lower = max(x - beta / 2.0 - math.sqrt(2.0 * beta * x + beta * beta / 4.0), 0.0)
    return lower, upper


def chernoff_observed_bounds(x_star: float, eps: float) -> tuple[float, float]:
    """Envelope for the observed count given its expected value x_star.

    Returns (lower, upper); the lower branch is not clamped by the defining
    formula but cannot go negative for x_star >= 2*beta, and we clamp at 0
    for the small-count corner so callers always get a valid count.
    """
    _check_count_and_eps(x_star, eps, "expected count")
    beta = math.log(1.0 / eps)
    upper = x_star + beta / 2.0 + math.sqrt(2.0 * beta * x_star + beta * beta / 4.0)
    lower = max(x_star - math.sqrt(2.0 * beta * x_star), 0.0)
    return lower, upper


def random_sampling_gamma(n: float, k: float, lam: float, eps: float) -> float:
    """Finite-sample penalty gamma^U(n, k, lambda, eps) for sampling without replacement.

    n and k are the sizes of the target and test populations, lam is the
    observed test-side rate.  Undefined at lam in {0, 1} because the log term
    diverges there; callers handle those corners before calling.

    The tail bound behind gamma^U is a prefactor
    sqrt((n+k) / (2 pi n k lam (1-lam))) times a factor that falls from 1 as
    gamma grows, and G is (n+k)/(n k) times the log of prefactor^2 / eps^2.
    When that log argument is <= 1 (G <= 0, as with a large eps or huge
    populations) the prefactor is already <= eps, so gamma = 0 meets the
    failure bound and 0.0 is returned; the closed form would take the log
    or the square root of a negative number there.
    """
    if n <= 0.0 or k <= 0.0:
        raise ValueError(f"population sizes must be positive, got n={n}, k={k}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"rate must lie strictly inside (0, 1), got {lam}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {eps}")
    a_big = max(n, k)
    total = n + k
    log_arg = total / (2.0 * math.pi * n * k * lam * (1.0 - lam) * eps * eps)
    if log_arg <= 1.0:
        return 0.0
    g = (total / (n * k)) * math.log(log_arg)
    ag_over_total = a_big * g / total
    numerator = (1.0 - 2.0 * lam) * ag_over_total + math.sqrt(ag_over_total * ag_over_total + 4.0 * lam * (1.0 - lam) * g)
    return numerator / (2.0 + 2.0 * ag_over_total * a_big / total)


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability bookkeeping for one finite-key evaluation.

    The base entries are per-use probabilities; eps_zero_one carries the
    shared budget for the CHERNOFF_APPLICATIONS count conversions, and
    eps_sec / eps_tp are the composed security bounds.
    """

    eps_cor: float
    eps_prime: float
    eps_hat: float
    eps_e: float
    eps_beta: float
    eps_pa: float
    eps_per_use: float
    eps_zero_one: float
    eps_sec: float
    eps_tp: float

    def __post_init__(self) -> None:
        for name in ("eps_cor", "eps_prime", "eps_hat", "eps_e", "eps_beta", "eps_pa", "eps_per_use"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")


def compose_epsilons(eps_per_use: float) -> EpsilonBudget:
    """Build the security budget with every base failure probability equal.

    The composition charges the count-conversion budget as
    CHERNOFF_APPLICATIONS * eps_per_use, which collapses to
    eps_sec = 23 * eps and eps_tp = 24 * eps when all entries coincide.
    """
    if not 0.0 < eps_per_use < 1.0:
        raise ValueError(f"eps_per_use must be in (0, 1), got {eps_per_use}")
    e = eps_per_use
    eps_zero_one = CHERNOFF_APPLICATIONS * e
    # 2(e' + e_hat + 2 e_e) + e_beta + (e_0 + e_1) + e_pa with all entries
    # equal collapses to 23 e; the single product avoids accumulation error
    eps_sec = (10 + CHERNOFF_APPLICATIONS) * e
    return EpsilonBudget(
        eps_cor=e,
        eps_prime=e,
        eps_hat=e,
        eps_e=e,
        eps_beta=e,
        eps_pa=e,
        eps_per_use=e,
        eps_zero_one=eps_zero_one,
        eps_sec=eps_sec,
        eps_tp=(11 + CHERNOFF_APPLICATIONS) * e,
    )


def integrate_adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-30,
) -> float:
    """Adaptive Simpson quadrature of f on [a, b].

    The error target is rel_tol relative to a coarse composite estimate of
    the integral, with abs_floor as the absolute fallback so integrals that
    are genuinely zero terminate.  Integrands here are smooth, so the
    classic halving recursion converges quickly.
    """
    if b <= a:
        return 0.0
    # coarse scale pass (composite Simpson on 16 panels) to anchor the tolerance
    n_panels = 16
    h = (b - a) / n_panels
    values = [f(a + i * h) for i in range(n_panels + 1)]
    scale = h / 3.0 * (
        values[0]
        + values[-1]
        + 4.0 * sum(values[1:-1:2])
        + 2.0 * sum(values[2:-1:2])
    )
    tol = max(abs(scale) * rel_tol, abs_floor)

    fa = values[0]
    fb = values[-1]
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_branch(f, a, b, fa, fm, fb, whole, tol, depth=0)


def _simpson_branch(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= 60:
        raise RuntimeError("adaptive Simpson recursion exceeded maximum depth")
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half_tol = tol / 2.0
    return _simpson_branch(f, a, m, fa, flm, fm, left, half_tol, depth + 1) + _simpson_branch(
        f, m, b, fm, frm, fb, right, half_tol, depth + 1
    )
