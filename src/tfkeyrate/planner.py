"""Per-link parameter optimization and multi-user network evaluation.

A node keeps one source setting on every link it joins, so the planner
frees or freezes a user's setting as a whole.  optimize_link searches the
intensities and send probabilities of a link's free sides ("a", "b", both
or neither) and the phase-slice width with multi-start downhill simplex
over transformed coordinates (log intensities, logit probabilities), then
refines the slice width with a deterministic grid-plus-scalar polish.
evaluate_network optimizes the anchor links of a scenario in order,
freezes each node's settings on first assignment so later anchors free
only their unfrozen side, and evaluates every node pair with the frozen
hardware.  distance_scan produces rate-versus-distance curves with
warm-started optimization and a monotonicity repair pass.

Link evaluation is not symmetric under exchanging the two users (the key
map treats the first user's pools as rows), so pair evaluation follows an
orientation policy.  The default places the node nearer the relay first,
which reproduces the published network tables; policies depend only on
distances and settings, never on node names, keeping network results
invariant under relabeling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel_model import LinkGeometry, SourceSetting, SystemParams
from .diagnostics import plob_bound
from .keyrate_engine import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    InfeasibleDecoyError,
    LinkEvaluation,
    evaluate_link,
)

DEG = math.pi / 180.0

SIDES = ("a", "b")

ORIENTATION_POLICIES = ("nearer_alice", "best", "as_given")

_DELTA_LO = 0.1 * DEG
_DELTA_HI = 25.0 * DEG
_DELTA_GRID = tuple(d * DEG for d in range(1, 16))
_MU_CAP = 3.0
_MAX_EVALS_PER_START = 900


def _sigmoid(t: float) -> float:
    t = min(max(t, -30.0), 30.0)
    return 1.0 / (1.0 + math.exp(-t))


def _logit(p: float) -> float:
    p = min(max(p, 1e-13), 1.0 - 1e-13)
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class LinkPlan:
    """Result of a link optimization: settings, slice width, achieved rate."""

    a: SourceSetting
    b: SourceSetting
    geom: LinkGeometry
    params: SystemParams
    rate: float
    mode: str
    seed: int
    feasible: bool
    n_evaluations: int
    evaluation: LinkEvaluation | None

    @property
    def delta(self) -> float:
        return self.params.delta


def _safe_rate(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str,
    reuse: LinkEvaluation | None = None,
) -> tuple[float, LinkEvaluation | None]:
    """Rate with decoy-infeasible points mapped to zero.

    Only InfeasibleDecoyError means "no key here"; any other error (invalid
    settings, a missing vacuum class, a bug) propagates to the caller.
    """
    try:
        ev = evaluate_link(a, b, geom, params, mode=mode, reuse=reuse)
    except InfeasibleDecoyError:
        return 0.0, None
    return ev.result.rate, ev


def _unpack_side(coords: np.ndarray) -> SourceSetting:
    """One side's setting from its five search coordinates (see _pack_side)."""
    t_mu, t_nu, *logits = (float(t) for t in coords)
    mu = min(max(math.exp(min(max(t_mu, -30.0), 2.0)), 1e-5), _MU_CAP)
    nu = max(mu * min(_sigmoid(t_nu), 1.0 - 1e-9), 1e-12)
    weights = [math.exp(min(max(t, -30.0), 30.0)) for t in logits]
    denom = 1.0 + sum(weights)
    p_mu, p_nu, p_ohat = (w / denom for w in weights)
    return SourceSetting(
        mu=mu, nu=nu, p_mu=p_mu, p_nu=p_nu, p_o=1.0 - p_mu - p_nu - p_ohat, p_ohat=p_ohat
    )


def _pack_side(s: SourceSetting) -> list[float]:
    """Search coordinates of one side: log mu, logit nu/mu, and the log-odds
    of p_mu, p_nu and p_ohat against p_o.  Every coordinate vector maps back
    to intensities ordered mu > nu > 0 and probabilities summing to 1.
    """
    p_o = max(s.p_o, 1e-13)
    return [
        math.log(s.mu),
        _logit(s.nu / s.mu),
        *(math.log(max(p, 1e-13) / p_o) for p in (s.p_mu, s.p_nu, s.p_ohat)),
    ]


class _Transform:
    """Maps the search vector to a (SourceSetting, SourceSetting, delta) triple.

    Each free side contributes its five _pack_side coordinates, in side
    order, and the slice width comes last; a frozen side keeps its base
    setting exactly.
    """

    def __init__(self, sides: tuple[str, ...], base_a: SourceSetting, base_b: SourceSetting):
        self.sides = sides
        self.base = {"a": base_a, "b": base_b}

    def unpack(self, vec: np.ndarray) -> tuple[SourceSetting, SourceSetting, float]:
        settings = dict(self.base)
        for i, side in enumerate(self.sides):
            settings[side] = _unpack_side(vec[5 * i : 5 * i + 5])
        delta = _DELTA_LO + (_DELTA_HI - _DELTA_LO) * _sigmoid(float(vec[-1]))
        return settings["a"], settings["b"], delta

    def pack(self, a: SourceSetting, b: SourceSetting, delta: float) -> np.ndarray:
        settings = {"a": a, "b": b}
        coords = [t for side in self.sides for t in _pack_side(settings[side])]
        coords.append(_logit((delta - _DELTA_LO) / (_DELTA_HI - _DELTA_LO)))
        return np.array(coords)


def _make_setting(mu: float, nu: float, p_mu: float, p_nu: float, p_ohat: float) -> SourceSetting:
    mu = min(max(mu, 1e-4), _MU_CAP)
    nu = min(max(nu, 1e-6), 0.6 * mu)
    total = p_mu + p_nu + p_ohat
    if total > 0.95:
        scale = 0.95 / total
        p_mu, p_nu, p_ohat = p_mu * scale, p_nu * scale, p_ohat * scale
    return SourceSetting(
        mu=mu, nu=nu, p_mu=p_mu, p_nu=p_nu, p_o=1.0 - p_mu - p_nu - p_ohat, p_ohat=p_ohat
    )


def _patterned_pair(
    eta_ratio: float,
    mu_far: float,
    mu_exp: float,
    nu_frac: float,
    p_mu_far: float,
    p_mu_near: float,
    p_nu: float,
    p_ohat: float,
) -> tuple[SourceSetting, SourceSetting]:
    """Source pair with the loss-compensating structure good optima share.

    The lossier arm runs the larger signal intensity and sends it more
    often; decoy intensities are scaled so that eta_a nu_a is comparable to
    eta_b nu_b, which keeps the X-basis interference balanced.  eta_ratio
    is the first arm's transmittance over the second's.
    """
    nu_far = mu_far * nu_frac
    ratio = eta_ratio if eta_ratio >= 1.0 else 1.0 / eta_ratio
    near = _make_setting(mu_far * ratio ** (-mu_exp), nu_far / ratio, p_mu_near, p_nu, p_ohat)
    far = _make_setting(mu_far, nu_far, p_mu_far, p_nu, p_ohat)
    # the less lossy arm plays the "near" role
    return (near, far) if eta_ratio >= 1.0 else (far, near)


def _structured_starts(
    transform: _Transform, geom: LinkGeometry, params: SystemParams
) -> list[np.ndarray]:
    eta_a, eta_b = geom.transmittances(params)
    ratio = eta_a / eta_b
    starts = []
    for mu_far in (0.25, 0.4, 0.55, 0.7):
        for mu_exp in (0.4, 1.0):
            a, b = _patterned_pair(ratio, mu_far, mu_exp, 0.14, 0.38, 0.09, 0.16, 0.006)
            starts.append(transform.pack(a, b, 7.0 * DEG))
    return starts


def _random_start(
    rng: np.random.Generator, transform: _Transform, geom: LinkGeometry, params: SystemParams
) -> np.ndarray:
    """Randomized variant of the structured pattern."""
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
    delta = rng.uniform(2.0, 12.0) * DEG
    return transform.pack(a, b, delta)


_DEFAULT_BASE = SourceSetting(mu=0.4, nu=0.07, p_mu=0.35, p_nu=0.18, p_o=0.46, p_ohat=0.01)


def polish_delta(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    mode: str = MODE_FINITE,
) -> tuple[SystemParams, float, LinkEvaluation | None, int]:
    """Deterministic slice-width refinement at fixed source settings.

    Evaluates an integer-degree grid, then a bounded scalar minimization
    around the grid optimum, and returns the best point seen with the
    evaluation made there and the number of evaluations.  Only the slice
    width changes, so the first feasible evaluation is reused by every
    later one, which then runs only the slice half of the chain; and once
    a step that reads no slice has failed, every later width is rate 0
    without an evaluation.  Pure function of its arguments, so
    re-polishing frozen settings reproduces the optimization result
    exactly.
    """
    # imported where it runs, so commands that never optimize skip its import cost
    from scipy.optimize import minimize_scalar

    evals = 0
    tried: dict[float, tuple[float, LinkEvaluation | None]] = {}
    reuse: LinkEvaluation | None = None
    every_width_fails = False

    def rate_at(delta: float) -> float:
        nonlocal evals, reuse, every_width_fails
        # the scalar search passes numpy floats; the same value as a float
        # keeps every returned number a plain float
        delta = float(delta)
        rate, ev = 0.0, None
        if not every_width_fails:
            evals += 1
            try:
                ev = evaluate_link(a, b, geom, replace(params, delta=delta), mode=mode, reuse=reuse)
            except InfeasibleDecoyError as exc:
                every_width_fails = exc.slice_free
            else:
                rate = ev.result.rate
                if reuse is None:
                    reuse = ev
        tried[delta] = (rate, ev)
        return rate

    candidates = [(rate_at(d), d) for d in _DELTA_GRID]
    best_rate, best_delta = max(candidates, key=lambda c: (c[0], -c[1]))
    lo = max(best_delta - 1.5 * DEG, _DELTA_LO)
    hi = min(best_delta + 1.5 * DEG, _DELTA_HI)
    res = minimize_scalar(
        lambda d: -rate_at(d), bounds=(lo, hi), method="bounded", options={"xatol": 1e-6}
    )
    # res.fun is the rate evaluated at res.x, so its evaluation is in tried
    if -res.fun > best_rate:
        best_delta = float(res.x)
    rate, ev = tried[best_delta]
    return replace(params, delta=best_delta), rate, ev, evals


def optimize_link(
    geom: LinkGeometry,
    params: SystemParams,
    sides: tuple[str, ...] = SIDES,
    *,
    initial: tuple[SourceSetting, SourceSetting] | None = None,
    warm_starts: tuple[tuple[SourceSetting, SourceSetting, float], ...] = (),
    seed: int = 0,
    n_starts: int = 16,
    structured: bool = True,
    mode: str = MODE_FINITE,
) -> LinkPlan:
    """Multi-start simplex search over the whole settings of the free sides.

    sides names the users whose source settings are searched: "a", "b",
    both (the default) or neither; a side left out keeps its initial
    setting exactly, as a node frozen by an earlier link does.  The slice
    width is searched along with the free sides and always polished; with
    no free side the result is polish_delta of the initial pair and the
    warm starts.  Every start's source candidate gets the same slice-width
    polish and the best candidate wins (ties broken by lexicographic
    parameter order), so the reported rate is at least the rate at every
    tested grid point and the whole procedure is deterministic given the
    seed.  Returns a zero-rate plan if no start reaches a positive rate.
    """
    from scipy.optimize import minimize

    unknown = set(sides) - set(SIDES)
    if unknown:
        raise ValueError(f"unknown sides: {sorted(unknown)}")
    sides = tuple(side for side in SIDES if side in sides)
    base_a, base_b = initial if initial is not None else (_DEFAULT_BASE, _DEFAULT_BASE)
    transform = _Transform(sides, base_a, base_b)
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) | 0x706C616E))
    eval_count = 0

    candidates: list[tuple[SourceSetting, SourceSetting]] = [(base_a, base_b)]
    for wa, wb, _ in warm_starts:
        candidates.append((wa, wb))

    if sides:
        starts = [transform.pack(base_a, base_b, params.delta)]
        for wa, wb, wd in warm_starts:
            starts.append(transform.pack(wa, wb, wd))
        if structured:
            starts.extend(_structured_starts(transform, geom, params))
        starts.extend(_random_start(rng, transform, geom, params) for _ in range(n_starts))

        def objective(vec: np.ndarray) -> float:
            nonlocal eval_count
            eval_count += 1
            a, b, delta = transform.unpack(vec)
            rate, _ = _safe_rate(a, b, geom, replace(params, delta=delta), mode)
            return -rate

        for x0 in starts:
            # one simplex pass plus a restart with a fresh simplex at the
            # incumbent, which recovers most stalls of high-dimensional NM
            x, f_ref = x0, objective(x0)
            for _ in range(2):
                res = minimize(
                    objective,
                    x,
                    method="Nelder-Mead",
                    options={
                        "maxfev": _MAX_EVALS_PER_START,
                        "xatol": 1e-3,
                        # stop when the rate improves by < 1e-4 relative
                        "fatol": 1e-4 * max(abs(f_ref), 1e-10),
                    },
                )
                x, f_ref = res.x, res.fun
            a, b, _ = transform.unpack(x)
            candidates.append((a, b))

    best: tuple[float, tuple, SystemParams, SourceSetting, SourceSetting, LinkEvaluation | None] | None = None
    for a, b in candidates:
        final_params, rate, ev, used = polish_delta(a, b, geom, params, mode)
        eval_count += used
        order_key = (a.mu, a.nu, a.p_mu, a.p_nu, a.p_ohat, b.mu, b.nu, b.p_mu, b.p_nu, b.p_ohat, final_params.delta)
        if best is None or (rate, tuple(-v for v in order_key)) > (best[0], tuple(-v for v in best[1])):
            best = (rate, order_key, final_params, a, b, ev)

    rate, _, final_params, a, b, ev = best
    return LinkPlan(
        a=a,
        b=b,
        geom=geom,
        params=final_params,
        rate=rate,
        mode=mode,
        seed=int(seed),
        feasible=rate > 0.0,
        n_evaluations=eval_count,
        evaluation=ev,
    )


# ---------------------------------------------------------------------------
# network scenarios


@dataclass(frozen=True)
class NetworkNode:
    name: str
    distance_km: float
    setting: SourceSetting

    def __post_init__(self) -> None:
        if not (math.isfinite(self.distance_km) and self.distance_km >= 0.0):
            raise ValueError(f"node {self.name}: distance_km must be finite and >= 0")


@dataclass(frozen=True)
class NetworkScenario:
    nodes: tuple[NetworkNode, ...]
    anchors: tuple[tuple[str, str], ...]
    params: SystemParams

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        for pair in self.anchors:
            for name in pair:
                if name not in names:
                    raise ValueError(f"anchor references unknown node {name!r}")


@dataclass(frozen=True)
class PairRate:
    node_a: str
    node_b: str
    total_km: float
    delta: float
    rate: float
    plob: float

    @property
    def ratio(self) -> float:
        return self.rate / self.plob if self.plob > 0.0 else math.inf


@dataclass(frozen=True)
class NetworkEvaluation:
    pairs: tuple[PairRate, ...]
    settings: dict[str, SourceSetting]
    params: SystemParams
    seed: int
    orientation: str


def _setting_key(s: SourceSetting) -> tuple:
    return (s.mu, s.nu, s.p_mu, s.p_nu, s.p_o, s.p_ohat)


def _orientations(
    first: tuple[float, SourceSetting],
    second: tuple[float, SourceSetting],
    policy: str,
) -> list[bool]:
    """Which orderings to evaluate; True means keep (first, second).

    Decisions use only distances and settings, so results are invariant
    under node relabeling.
    """
    if policy == "as_given":
        return [True]
    if policy == "best":
        return [True, False]
    if policy != "nearer_alice":
        raise ValueError(f"unknown orientation policy {policy!r}")
    d1, s1 = first
    d2, s2 = second
    if d1 < d2:
        return [True]
    if d2 < d1:
        return [False]
    if _setting_key(s1) == _setting_key(s2):
        return [True]
    return [True, False]


def _evaluate_pair(
    first: tuple[float, SourceSetting],
    second: tuple[float, SourceSetting],
    params: SystemParams,
    orientation: str,
    mode: str,
) -> tuple[float, float]:
    """Best polished (rate, delta) over the policy's orderings."""
    best: tuple[float, float] | None = None
    for keep in _orientations(first, second, orientation):
        (da, sa), (db, sb) = (first, second) if keep else (second, first)
        geom = LinkGeometry(da, db)
        final_params, rate, _, _ = polish_delta(sa, sb, geom, params, mode)
        key = (rate, -final_params.delta)
        if best is None or key > (best[0], -best[1]):
            best = (rate, final_params.delta)
    return best


def evaluate_network(
    scn: NetworkScenario,
    *,
    seed: int = 0,
    optimize_anchors: bool = True,
    orientation: str = "nearer_alice",
    n_starts: int = 16,
    mode: str = MODE_FINITE,
) -> NetworkEvaluation:
    """Anchor-then-freeze network evaluation.

    Anchor links are optimized in the order given; a node's settings are
    frozen the first time an anchor assigns them, and later anchors only
    optimize their still-unfrozen side.  Every unordered node pair is then
    evaluated with frozen hardware and a per-pair slice-width polish, and
    the pair's repeaterless benchmark is attached.
    """
    settings = {n.name: n.setting for n in scn.nodes}
    distance = {n.name: n.distance_km for n in scn.nodes}
    frozen: set[str] = set()

    if optimize_anchors:
        for idx, (name_1, name_2) in enumerate(scn.anchors):
            keep = _orientations(
                (distance[name_1], settings[name_1]),
                (distance[name_2], settings[name_2]),
                orientation if orientation != "best" else "nearer_alice",
            )[0]
            na, nb = (name_1, name_2) if keep else (name_2, name_1)
            sides = tuple(side for side, name in zip(SIDES, (na, nb)) if name not in frozen)
            if sides:
                plan = optimize_link(
                    LinkGeometry(distance[na], distance[nb]),
                    scn.params,
                    sides,
                    initial=(settings[na], settings[nb]),
                    seed=seed + idx,
                    n_starts=n_starts,
                    mode=mode,
                )
                settings[na] = plan.a
                settings[nb] = plan.b
            frozen.add(na)
            frozen.add(nb)

    pairs = []
    for node_i, node_j in itertools.combinations(scn.nodes, 2):
        rate, delta = _evaluate_pair(
            (distance[node_i.name], settings[node_i.name]),
            (distance[node_j.name], settings[node_j.name]),
            scn.params,
            orientation,
            mode,
        )
        total = distance[node_i.name] + distance[node_j.name]
        pairs.append(
            PairRate(
                node_a=node_i.name,
                node_b=node_j.name,
                total_km=total,
                delta=delta,
                rate=rate,
                plob=plob_bound(total, scn.params.eta_d, scn.params.alpha),
            )
        )
    return NetworkEvaluation(
        pairs=tuple(pairs),
        settings=settings,
        params=scn.params,
        seed=int(seed),
        orientation=orientation,
    )


# ---------------------------------------------------------------------------
# distance scans


@dataclass(frozen=True)
class ChannelShape:
    """Symmetric channel or one with a fixed arm-length offset in km."""

    kind: str
    offset_km: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("symmetric", "asymmetric"):
            raise ValueError(f"channel kind must be symmetric or asymmetric, got {self.kind!r}")
        if self.kind == "symmetric" and self.offset_km != 0.0:
            raise ValueError("symmetric channel cannot carry an offset")
        if self.offset_km < 0.0:
            raise ValueError("offset_km must be >= 0")

    def geometry(self, total_km: float) -> LinkGeometry:
        if total_km <= self.offset_km:
            raise ValueError(
                f"total distance {total_km} km does not admit an offset of {self.offset_km} km"
            )
        near = (total_km - self.offset_km) / 2.0
        return LinkGeometry(near, near + self.offset_km)


@dataclass(frozen=True)
class ScanRow:
    total_km: float
    rate_finite: float
    rate_asymptotic: float
    plob: float
    plan: LinkPlan


def distance_scan(
    params: SystemParams,
    channel: ChannelShape,
    grid: tuple[float, ...] | list[float],
    *,
    seed: int = 0,
    n_starts: int = 16,
    warm_random_starts: int = 4,
    mode: str = MODE_FINITE,
) -> list[ScanRow]:
    """Optimized rate curve over ascending total distances.

    The first grid point runs the full multi-start search; later points
    warm-start from their predecessor's optimum plus a few fresh random
    starts.  A final backward pass re-evaluates each point with its
    successor's settings and keeps whichever is better, repairing the rare
    warm-start misses that would otherwise break monotonicity.

    The asymptotic column reports the rate the finite-key-optimal settings
    achieve in the asymptotic limit, at the same slice width.
    """
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("distance grid must be strictly ascending")

    plans: list[LinkPlan] = []
    warm: tuple[tuple[SourceSetting, SourceSetting, float], ...] = ()
    for i, total in enumerate(grid):
        plan = optimize_link(
            channel.geometry(total),
            params,
            warm_starts=warm,
            seed=seed + i,
            n_starts=n_starts if i == 0 else warm_random_starts,
            structured=(i == 0),
            mode=mode,
        )
        plans.append(plan)
        warm = ((plan.a, plan.b, plan.delta),)

    for i in range(len(grid) - 2, -1, -1):
        nxt = plans[i + 1]
        geom = channel.geometry(grid[i])
        rate, ev = _safe_rate(nxt.a, nxt.b, geom, nxt.params, mode)
        if rate > plans[i].rate:
            plans[i] = replace(
                plans[i], a=nxt.a, b=nxt.b, geom=geom, params=nxt.params, rate=rate,
                feasible=rate > 0.0, evaluation=ev,
            )

    rows = []
    for total, plan in zip(grid, plans):
        asym, _ = _safe_rate(plan.a, plan.b, plan.geom, plan.params, MODE_ASYMPTOTIC)
        rows.append(
            ScanRow(
                total_km=total,
                rate_finite=plan.rate,
                rate_asymptotic=asym,
                plob=plob_bound(total, params.eta_d, params.alpha),
                plan=plan,
            )
        )
    return rows
