"""Decoy-state estimation of single-photon-pair quantities and the secret-key
length, in both finite-key and asymptotic modes.

The estimation chain mirrors the published five-step recipe: bound the
single-photon yields from the vacuum/decoy rows, convert them into the
effective single-photon Z and X pair counts, bound the X-basis error count by
subtracting/compensating vacuum contributions, then lift the X error rate to
a Z phase-error rate with the random-sampling correction.

The chain runs in two halves, for both modes and for any counts:
evaluate_link runs it on the expected counts of a link, evaluate_counts on
counts it is given (the montecarlo command passes a simulated tally).
Asymptotic mode is the same path with every conversion the identity and no
finite-size penalties.

* The slice-free half reads only the pair counts and the Z-basis totals:
  the two yield bounds, s11_z, s0mub_z, both bounds on the declared-vacuum
  total, the first 10 ledger charges and the budget.  No slice width
  changes any of them.
* The slice half reads the phase slice [sigma, sigma + delta]: the X-basis
  totals (x_basis_counts), the integral of 1/q, s11_x, e11_x, phi11_z and
  the key length.

So a slice-width search evaluates its first width in full and, given that
evaluation, evaluate_link runs only the slice half for every other width,
with every number identical to a full evaluation there.

Every expected<->observed conversion is charged to a ChernoffLedger.  The
standard finite-key pipeline performs exactly 13 of them (the count the
overall failure probability is budgeted for):

* yield y01: x[o,nu] lower, x[ohat,mu] upper, declared-vacuum total upper;
* yield y10: x[nu,o] lower, x[mu,ohat] upper, declared-vacuum total upper
  (the aggregate is charged once per appearance in the printed bounds);
* s11_z: one expected->observed conversion;
* s0mub_z: declared-vacuum total lower, x[ohat,mu] lower, plus its own
  expected->observed conversion;
* s11_x: one expected->observed conversion;
* e11_x: expected->observed conversions of the two vacuum error terms (their
  ingredients reuse the declared-vacuum bounds already charged above).

The ledger counts charges, not arithmetic: the five counts behind the
first nine charges are each converted once (expected_count_bounds) and the
charges read the side they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .channel_model import (
    InfeasibleDecoyError,
    LinkGeometry,
    MissingDeclareVacuumError,
    ObservedCounts,
    SourceSetting,
    SystemParams,
    _slice_terms,
    check_vacuum_classes,
    declare_vacuum_probability,
    observed_statistics,
    x_basis_counts,
    z_pool_sizes,
)
from .finite_stats import (
    EpsilonBudget,
    binary_entropy,
    chernoff_expected_bounds,
    chernoff_observed_bounds,
    compose_epsilons,
    integrate_adaptive_simpson,
    random_sampling_gamma,
)

MODE_FINITE = "finite"
MODE_ASYMPTOTIC = "asymptotic"


@dataclass
class ChernoffLedger:
    """Log of expected<->observed conversions charged to the shared budget."""

    entries: list[str] = field(default_factory=list)

    def charge(self, label: str) -> None:
        self.entries.append(label)


@dataclass(frozen=True)
class DecoyEstimates:
    """Bounded single-photon-pair quantities feeding the key-length formula."""

    y01_lower: float
    y10_lower: float
    s0mub_z_lower: float
    s11_z_lower: float
    s11_x_lower: float
    t11_x_upper: float
    e11_x_upper: float
    phi11_z_upper: float


@dataclass(frozen=True)
class KeyRateResult:
    """Final key length with the breakdown of every term."""

    ell: float
    rate: float
    vacuum_term: float
    single_photon_term: float
    error_correction_term: float
    correctness_penalty: float
    secrecy_penalty: float
    privacy_amplification_penalty: float
    ell_unclamped: float


@dataclass(frozen=True)
class SliceFreeEstimates:
    """The slice-free half of one evaluation: the bounds no slice width
    changes, the ledger charges made for them, and the budget."""

    y01_lower: float
    y10_lower: float
    s11_z_lower: float
    s0mub_z_lower: float
    x_oo_d_bounds: tuple[float, float]
    charges: tuple[str, ...]
    budget: EpsilonBudget


@dataclass(frozen=True)
class LinkEvaluation:
    """One full pipeline run: counts, estimates, result, and the budget.

    slice_free is the run's slice-free half; link holds the (a, b, geom,
    params) whose expected counts evaluate_link evaluated, and is None for
    counts given to evaluate_counts.
    """

    result: KeyRateResult
    decoy: DecoyEstimates
    counts: ObservedCounts
    budget: EpsilonBudget
    chernoff_applications: tuple[str, ...]
    mode: str
    slice_free: SliceFreeEstimates
    link: tuple[SourceSetting, SourceSetting, LinkGeometry, SystemParams] | None


def _check_mode(mode: str) -> None:
    if mode not in (MODE_FINITE, MODE_ASYMPTOTIC):
        raise ValueError(f"unknown mode: {mode!r}")


# the counts the decoy chain bounds from their expected side: all five feed
# the yield step, and s0mub_z and e11_x reuse two of them
X_OO_D = "x_oo_d"
_EXPECTED_COUNTS = (("o", "nu"), ("ohat", "mu"), X_OO_D, ("nu", "o"), ("mu", "ohat"))


def expected_count_bounds(
    counts: ObservedCounts,
    eps: float,
    mode: str = MODE_FINITE,
    keys: tuple = _EXPECTED_COUNTS,
) -> dict:
    """(lower, upper) bounds on the expectation behind each count in keys,
    one Chernoff conversion per count; x_oo_d is keyed X_OO_D, the pair
    counts by their labels.  Asymptotic mode bounds a count by itself."""
    _check_mode(mode)
    bounds = {}
    for key in keys:
        x = counts.x_oo_d if key == X_OO_D else counts.x[key]
        bounds[key] = (x, x) if mode == MODE_ASYMPTOTIC else chernoff_expected_bounds(x, eps)
    return bounds


def _expected(
    bounds: dict, key, mode: str, ledger: ChernoffLedger | None, label: str, *, upper: bool = False
) -> float:
    """One side of a count's expected-value bounds, charged to the ledger;
    asymptotic mode charges nothing."""
    if mode != MODE_ASYMPTOTIC and ledger is not None:
        ledger.charge(label)
    return bounds[key][1 if upper else 0]


def _observed(
    x_star: float,
    eps: float,
    mode: str,
    ledger: ChernoffLedger | None,
    label: str,
    *,
    upper: bool = False,
) -> float:
    """One side of the bounds on a count given its expectation x_star,
    charged to the ledger.  Asymptotic mode takes x_star itself and charges
    nothing."""
    if mode == MODE_ASYMPTOTIC:
        return x_star
    if ledger is not None:
        ledger.charge(label)
    return chernoff_observed_bounds(x_star, eps)[1 if upper else 0]


def estimate_singles_yields(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    params: SystemParams,
    mode: str = MODE_FINITE,
    ledger: ChernoffLedger | None = None,
    expected_bounds: dict | None = None,
) -> tuple[float, float]:
    """Expected lower bounds (y01_lower, y10_lower) on the single-photon
    yields, from the vacuum/decoy linear combinations.

    y01 is the yield of rounds where the first user is silent and the second
    user's pulse collapsed to one photon; y10 is the mirror image.
    expected_bounds lets a pipeline pass the expected_count_bounds of counts
    it computed once; a standalone call computes them.
    """
    _check_mode(mode)
    check_vacuum_classes(a, b)
    p_ood = declare_vacuum_probability(a, b)
    n_rounds = params.N
    bounds = expected_bounds
    if bounds is None:
        bounds = expected_count_bounds(counts, params.eps, mode)

    x_o_nu = _expected(bounds, ("o", "nu"), mode, ledger, "x[o,nu] lower (y01)")
    x_ohat_mu = _expected(bounds, ("ohat", "mu"), mode, ledger, "x[ohat,mu] upper (y01)", upper=True)
    x_ood_up_b = _expected(bounds, X_OO_D, mode, ledger, "x_oo_d upper (y01)", upper=True)
    mu_b, nu_b = b.mu, b.nu
    y01 = (
        mu_b
        / (n_rounds * (mu_b * nu_b - nu_b * nu_b))
        * (
            math.exp(nu_b) * x_o_nu / (a.p_o * b.p_nu)
            - (nu_b * nu_b / (mu_b * mu_b)) * math.exp(mu_b) * x_ohat_mu / (a.p_ohat * b.p_mu)
            - ((mu_b * mu_b - nu_b * nu_b) / (mu_b * mu_b)) * x_ood_up_b / p_ood
        )
    )

    x_nu_o = _expected(bounds, ("nu", "o"), mode, ledger, "x[nu,o] lower (y10)")
    x_mu_ohat = _expected(bounds, ("mu", "ohat"), mode, ledger, "x[mu,ohat] upper (y10)", upper=True)
    x_ood_up_a = _expected(bounds, X_OO_D, mode, ledger, "x_oo_d upper (y10)", upper=True)
    mu_a, nu_a = a.mu, a.nu
    y10 = (
        mu_a
        / (n_rounds * (mu_a * nu_a - nu_a * nu_a))
        * (
            math.exp(nu_a) * x_nu_o / (a.p_nu * b.p_o)
            - (nu_a * nu_a / (mu_a * mu_a)) * math.exp(mu_a) * x_mu_ohat / (a.p_mu * b.p_ohat)
            - ((mu_a * mu_a - nu_a * nu_a) / (mu_a * mu_a)) * x_ood_up_a / p_ood
        )
    )

    if y01 <= 0.0 or y10 <= 0.0:
        raise InfeasibleDecoyError(
            f"single-photon yield bounds collapsed (y01={y01:.3e}, y10={y10:.3e}); "
            "vacuum and dark counts dominate the decoy rows",
            slice_free=True,
        )
    return y01, y10


def estimate_s11_z(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    params: SystemParams,
    mode: str = MODE_FINITE,
    ledger: ChernoffLedger | None = None,
    yields: tuple[float, float] | None = None,
) -> float:
    """Observed lower bound on the effective single-photon Z-basis pairs."""
    _check_mode(mode)
    if yields is None:
        yields = estimate_singles_yields(counts, a, b, params, mode=mode, ledger=ledger)
    y01_lower, y10_lower = yields
    z10 = params.N * a.p_mu * b.p_o * a.mu * math.exp(-a.mu) * y10_lower
    z01 = params.N * a.p_o * b.p_mu * b.mu * math.exp(-b.mu) * y01_lower
    _, x_max = z_pool_sizes(counts)
    if x_max <= 0.0:
        raise InfeasibleDecoyError("empty Z-basis matching pools", slice_free=True)
    s11_z_star = z01 * z10 / x_max
    return _observed(s11_z_star, params.eps, mode, ledger, "s11_z observed lower")


def estimate_s0mub_z(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    params: SystemParams,
    mode: str = MODE_FINITE,
    ledger: ChernoffLedger | None = None,
    expected_bounds: dict | None = None,
) -> float:
    """Observed lower bound on Z-basis pairs where the first user's two bins
    both collapsed to vacuum while the second user's pair intensity is mu.

    All ingredients are rescalings of the declared-vacuum rows; a zero bound
    is a legitimate outcome (it only removes an additive credit).
    expected_bounds reuses a pipeline's expected_count_bounds; a standalone
    call converts the two counts it reads.
    """
    _check_mode(mode)
    p_ood = declare_vacuum_probability(a, b)
    if a.p_ohat <= 0.0 or p_ood <= 0.0:
        raise MissingDeclareVacuumError("s0mub rescaling needs nonzero undeclared-vacuum probability")
    if a.p_o <= 0.0:
        raise MissingDeclareVacuumError("s0mub rescaling needs nonzero declared-vacuum probability")
    eps = params.eps
    bounds = expected_bounds
    if bounds is None:
        bounds = expected_count_bounds(counts, eps, mode, (X_OO_D, ("ohat", "mu")))

    x_ood_low = _expected(bounds, X_OO_D, mode, ledger, "x_oo_d lower (s0mub)")
    x_ohat_mu_low = _expected(bounds, ("ohat", "mu"), mode, ledger, "x[ohat,mu] lower (s0mub)")

    x_o_mu = a.p_o * x_ohat_mu_low / a.p_ohat
    x_o_o = a.p_o * b.p_o * x_ood_low / p_ood
    z00 = a.p_mu * b.p_o * math.exp(-a.mu) * x_ood_low / p_ood
    z0mub = a.p_mu * math.exp(-a.mu) * x_o_mu / a.p_o
    _, x_max = z_pool_sizes(counts)
    if x_max <= 0.0:
        raise InfeasibleDecoyError("empty Z-basis matching pools", slice_free=True)
    s0mub_star = (x_o_mu * z00 + x_o_o * z0mub) / x_max
    return _observed(s0mub_star, eps, mode, ledger, "s0mub_z observed lower")


def _inverse_gain_integral(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    slice_terms: tuple[float, float, float, float] | None = None,
) -> float:
    """Integral of 1/q^theta over the slice for the decoy-intensity pair;
    slice_terms passes the pair's _slice_terms if the caller has them."""
    if slice_terms is None:
        slice_terms = _slice_terms(a, b, geom, params)
    y, omega, gap, dark = slice_terms

    def integrand(theta: float) -> float:
        c = omega * math.cos(theta)
        q = y * ((math.expm1(c) - gap + dark) + (math.expm1(-c) - gap + dark))
        if q <= 0.0 or not math.isfinite(q):
            raise InfeasibleDecoyError("X-basis per-phase gain vanished; slice integral diverges")
        return 1.0 / q

    return integrate_adaptive_simpson(integrand, params.sigma, params.sigma + params.delta)


def estimate_s11_x(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str = MODE_FINITE,
    ledger: ChernoffLedger | None = None,
    yields: tuple[float, float] | None = None,
    inverse_gain_integral: float | None = None,
) -> float:
    """Observed lower bound on effective single-photon X-basis events.

    Uses the identity that the effective single-photon pair yield is the
    same in both bases, so the Z-side yield product y01*y10 feeds the
    phase-sliced X count through the inverse-gain integral.

    inverse_gain_integral lets the caller pass the integral of 1/q^theta
    over the slice, which estimate_e11_x needs too, so a pipeline computes
    it once; a standalone call computes it itself.
    """
    _check_mode(mode)
    if yields is None:
        yields = estimate_singles_yields(counts, a, b, params, mode=mode, ledger=ledger)
    y01_lower, y10_lower = yields
    if inverse_gain_integral is None:
        inverse_gain_integral = _inverse_gain_integral(a, b, geom, params)
    s11_x_star = (
        2.0
        * params.N
        * a.p_nu
        * b.p_nu
        * a.nu
        * b.nu
        * math.exp(-2.0 * (a.nu + b.nu))
        * y01_lower
        * y10_lower
        / math.pi
        * inverse_gain_integral
    )
    return _observed(s11_x_star, params.eps, mode, ledger, "s11_x observed lower")


def estimate_e11_x(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str = MODE_FINITE,
    ledger: ChernoffLedger | None = None,
    s11_x_lower: float | None = None,
    x_ood_expected_bounds: tuple[float, float] | None = None,
    inverse_gain_integral: float | None = None,
) -> tuple[float, float]:
    """Upper bounds (t11_x_upper, e11_x_upper) on the single-photon X errors.

    Starts from the raw X error count, removes a lower bound on the errors
    contributed by rounds where one side's pair collapsed to vacuum, and adds
    back an upper bound on the doubly-vacuum rounds subtracted twice.  Both
    vacuum error counts are half the corresponding event counts since vacuum
    detections are uncorrelated with the phase bookkeeping.

    x_ood_expected_bounds lets the caller reuse declared-vacuum conversions
    already charged earlier in the pipeline; a standalone call computes and
    charges them itself.  Likewise inverse_gain_integral reuses the integral
    of 1/q^theta over the slice that estimate_s11_x was given, and a
    standalone call computes it.
    """
    _check_mode(mode)
    if counts.m_x is None or counts.n_x is None:
        raise ValueError("X-basis totals missing; populate counts via x_basis_counts first")
    p_ood = declare_vacuum_probability(a, b)
    if p_ood <= 0.0:
        raise MissingDeclareVacuumError("vacuum error compensation needs declared-vacuum events")
    eps = params.eps
    if x_ood_expected_bounds is None:
        bounds = expected_count_bounds(counts, eps, mode, (X_OO_D,))
        x_ood_low = _expected(bounds, X_OO_D, mode, ledger, "x_oo_d lower (e11)")
        x_ood_up = _expected(bounds, X_OO_D, mode, ledger, "x_oo_d upper (e11)", upper=True)
    else:
        x_ood_low, x_ood_up = x_ood_expected_bounds
    q00_low = x_ood_low / (params.N * p_ood)
    q00_up = x_ood_up / (params.N * p_ood)

    pref = params.N * a.p_nu * b.p_nu / math.pi
    n_vac_star = 2.0 * params.delta * pref * math.exp(-(a.nu + b.nu)) * q00_low
    if inverse_gain_integral is None:
        inverse_gain_integral = _inverse_gain_integral(a, b, geom, params)
    n00_star = pref * math.exp(-2.0 * (a.nu + b.nu)) * q00_up * q00_up * inverse_gain_integral

    m_vac = _observed(n_vac_star / 2.0, eps, mode, ledger, "m_vac observed lower")
    m00 = _observed(n00_star / 2.0, eps, mode, ledger, "m00 observed upper", upper=True)

    t11 = max(counts.m_x - m_vac + m00, 0.0)
    if s11_x_lower is None:
        s11_x_lower = estimate_s11_x(counts, a, b, geom, params, mode=mode, ledger=ledger)
    if s11_x_lower <= 0.0:
        return t11, 0.5
    e11 = min(max(t11 / s11_x_lower, 0.0), 0.5)
    return t11, e11


def estimate_phi11_z(dec: DecoyEstimates, params: SystemParams, mode: str = MODE_FINITE) -> float:
    """Upper bound on the Z-basis phase-error rate.

    Finite mode adds the random-sampling correction; asymptotic mode equates
    the phase-error rate with the X-basis bit-error rate.
    """
    return _phi11_z_upper(dec.s11_z_lower, dec.s11_x_lower, dec.e11_x_upper, params.eps, mode)


def _phi11_z_upper(s11_z_lower: float, s11_x_lower: float, lam: float, eps: float, mode: str) -> float:
    _check_mode(mode)
    if mode == MODE_ASYMPTOTIC:
        return min(lam, 0.5)
    if s11_z_lower <= 0.0 or s11_x_lower <= 0.0:
        return 0.5
    if lam >= 0.5:
        return 0.5
    if lam <= 0.0:
        # gamma^U tends to a limit >= 1 as the observed rate vanishes, so the
        # bound saturates; unreachable in finite mode where the compensation
        # term keeps the rate positive
        return 0.5
    return min(lam + random_sampling_gamma(s11_z_lower, s11_x_lower, lam, eps), 0.5)


def key_length(
    counts: ObservedCounts,
    dec: DecoyEstimates,
    budget: EpsilonBudget,
    params: SystemParams,
    mode: str = MODE_FINITE,
) -> KeyRateResult:
    """Secret key length and its term-by-term breakdown; asymptotic mode
    has the same terms without the finite-size penalties."""
    _check_mode(mode)
    if counts.n_z is None or counts.E_z is None:
        raise ValueError("Z-basis totals missing; populate counts via z_basis_counts first")
    if counts.n_z <= 0.0:
        raise InfeasibleDecoyError("key length undefined without Z-basis pairs", slice_free=True)
    vacuum_term = dec.s0mub_z_lower
    single_term = dec.s11_z_lower * (1.0 - binary_entropy(dec.phi11_z_upper))
    ec_term = counts.n_z * params.f * binary_entropy(counts.E_z)
    if mode == MODE_ASYMPTOTIC:
        pen_cor = pen_sec = pen_pa = 0.0
    else:
        pen_cor = math.log2(2.0 / budget.eps_cor)
        pen_sec = 2.0 * math.log2(2.0 / (budget.eps_prime * budget.eps_hat))
        pen_pa = 2.0 * math.log2(1.0 / (2.0 * budget.eps_pa))
    ell_raw = vacuum_term + single_term - ec_term - pen_cor - pen_sec - pen_pa
    ell = max(ell_raw, 0.0)
    return KeyRateResult(
        ell=ell,
        rate=ell / params.N,
        vacuum_term=vacuum_term,
        single_photon_term=single_term,
        error_correction_term=ec_term,
        correctness_penalty=pen_cor,
        secrecy_penalty=pen_sec,
        privacy_amplification_penalty=pen_pa,
        ell_unclamped=ell_raw,
    )


def _slice_free_half(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    params: SystemParams,
    mode: str,
) -> SliceFreeEstimates:
    """The estimates that read only the pair counts, the Z-basis pools and
    the delta-free params, with each of the five expected-side counts
    converted once."""
    ledger = ChernoffLedger()
    bounds = expected_count_bounds(counts, params.eps, mode)
    yields = estimate_singles_yields(counts, a, b, params, mode=mode, ledger=ledger, expected_bounds=bounds)
    s11_z = estimate_s11_z(counts, a, b, params, mode=mode, ledger=ledger, yields=yields)
    s0mub = estimate_s0mub_z(counts, a, b, params, mode=mode, ledger=ledger, expected_bounds=bounds)
    return SliceFreeEstimates(
        y01_lower=yields[0],
        y10_lower=yields[1],
        s11_z_lower=s11_z,
        s0mub_z_lower=s0mub,
        x_oo_d_bounds=bounds[X_OO_D],
        charges=tuple(ledger.entries),
        budget=compose_epsilons(params.eps),
    )


def _slice_half(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str,
    free: SliceFreeEstimates,
    link: tuple[SourceSetting, SourceSetting, LinkGeometry, SystemParams] | None,
    slice_terms: tuple[float, float, float, float] | None = None,
) -> LinkEvaluation:
    """The X-basis steps and the key length, given free, the slice-free
    half of these counts; counts carries the X-basis totals of params'
    slice, and slice_terms the _slice_terms they were computed from, if
    the caller computed any."""
    ledger = ChernoffLedger(list(free.charges))
    yields = (free.y01_lower, free.y10_lower)
    # one integral of 1/q^theta serves both X-basis steps
    inverse_gain = _inverse_gain_integral(a, b, geom, params, slice_terms)
    s11_x = estimate_s11_x(
        counts, a, b, geom, params, mode=mode, ledger=ledger, yields=yields,
        inverse_gain_integral=inverse_gain,
    )
    # the declared-vacuum bounds charged during the yield and s0mub steps,
    # reused without new budget charges
    t11, e11 = estimate_e11_x(
        counts,
        a,
        b,
        geom,
        params,
        mode=mode,
        ledger=ledger,
        s11_x_lower=s11_x,
        x_ood_expected_bounds=free.x_oo_d_bounds,
        inverse_gain_integral=inverse_gain,
    )
    dec = DecoyEstimates(
        y01_lower=free.y01_lower,
        y10_lower=free.y10_lower,
        s0mub_z_lower=free.s0mub_z_lower,
        s11_z_lower=free.s11_z_lower,
        s11_x_lower=s11_x,
        t11_x_upper=t11,
        e11_x_upper=e11,
        phi11_z_upper=_phi11_z_upper(free.s11_z_lower, s11_x, e11, params.eps, mode),
    )
    return LinkEvaluation(
        result=key_length(counts, dec, free.budget, params, mode),
        decoy=dec,
        counts=counts,
        budget=free.budget,
        chernoff_applications=tuple(ledger.entries),
        mode=mode,
        slice_free=free,
        link=link,
    )


def evaluate_counts(
    counts: ObservedCounts,
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str = MODE_FINITE,
) -> LinkEvaluation:
    """Run the decoy chain, both halves, and the key length on one set of
    counts.

    counts may be expected (observed_statistics) or simulated
    (MonteCarloTally.observed_counts, with params.N the simulated rounds).
    Raises InfeasibleDecoyError when the yield bounds collapse; callers that
    scan or optimize treat that as a zero-rate point.
    """
    _check_mode(mode)
    free = _slice_free_half(counts, a, b, params, mode)
    return _slice_half(counts, a, b, geom, params, mode, free, None)


def evaluate_link(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str = MODE_FINITE,
    reuse: LinkEvaluation | None = None,
) -> LinkEvaluation:
    """The expected counts of one link orientation through the decoy chain.

    reuse is an earlier evaluation of the same a, b, geom and mode whose
    params differ at most in delta.  Its pair counts, Z-basis totals and
    slice-free half then stand in for this call's, and only x_basis_counts
    and the slice half run: the result equals the plain call's, field by
    field.  Any other reuse raises ValueError.
    """
    link = (a, b, geom, params)
    # the slice terms serve both the X-basis totals and the integral of 1/q
    terms = _slice_terms(a, b, geom, params)
    if reuse is None:
        counts = observed_statistics(a, b, geom, params, slice_terms=terms)
        free = _slice_free_half(counts, a, b, params, mode)
        return _slice_half(counts, a, b, geom, params, mode, free, link, terms)
    if reuse.link is None or reuse.mode != mode:
        raise ValueError(f"reuse must be an evaluate_link result in {mode} mode")
    ra, rb, rgeom, rparams = reuse.link
    # the earlier params with this delta, compared field by field
    if (ra, rb, rgeom) != (a, b, geom) or vars(rparams) | {"delta": params.delta} != vars(params):
        raise ValueError("reuse was evaluated for other settings, geometry or params than delta")
    n_x, m_x = x_basis_counts(a, b, geom, params, slice_terms=terms)
    counts = replace(reuse.counts, n_x=n_x, m_x=m_x)
    return _slice_half(counts, a, b, geom, params, mode, reuse.slice_free, link, terms)
