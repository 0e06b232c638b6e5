"""Event-level Monte Carlo oracle for the analytic channel and matching model.

The simulator realizes the exact click statistics of interfering
phase-randomized coherent pulses: arrivals at the two detectors are
independent Poisson variables with means M/2 +- w cos(Theta), realized by
splitting the arrived photons binomially.  Emitted photon numbers are kept
as tags so the decoy-state lower bounds can be compared against ground
truth.

It is event-sparse: per shard it draws the 16 intensity-class round counts,
then per class how many rounds have at least one arriving photon (chance
1 - e^-M whatever the phase), a left dark count or a right dark count.  Only
those candidate rounds, the only ones that can click, get arrival numbers,
photon tags (Poisson splitting of arrived and lost photons), a phase, bits
and a detector split; they are kept in random order, independent of their
outcomes.  The tallies have the same joint distribution as drawing every
round, at a cost of O(events) plus O(classes x shards).

Every result is one frozen MonteCarloTally: each shard returns the tally of
its own rounds, simulate_rounds merges them, and the Z and X matching passes
return a new tally with their fields set, leaving their argument unchanged.

Determinism: rounds are partitioned into shards, each driven by a
counter-based Philox stream keyed by (seed, shard index); the two matching
passes use dedicated streams.  Shard sizes depend on the configuration and
the round count alone, so tallies are bit-exact functions of (seed,
configuration, rounds) regardless of thread count.

Threads: a shard costs its candidate rounds plus ~40 fixed numpy calls that
hold the interpreter lock, so shards double from SHARD_ROUNDS rounds until
one expects TARGET_CANDIDATES candidates or covers the run.  The thread
count is an upper bound: one shard runs serially, and from the second shard
on the shards, which share the per-class constants, go to a thread pool.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel_model import (
    INTENSITY_LABELS,
    LinkGeometry,
    ObservedCounts,
    SourceSetting,
    SystemParams,
    observed_statistics,
)

SHARD_ROUNDS = 1_000_000

# Expected candidate rounds from which a shard stops doubling.  simulate_rounds
# of 1e7 rounds in 10 shards at threads=2 on lengthened toy links (2 vCPU): the
# thread pool beats serial shards from 6.2k candidates per shard up (28k: 140 ms
# serial against 88 ms pooled), so at 20k every run of two shards or more uses it.
TARGET_CANDIDATES = 20_000

# Philox stream ids: shard index for round generation, plus two reserved
# streams for the Z and X matching passes
_Z_MATCH_STREAM = 1 << 62
_X_MATCH_STREAM = (1 << 62) + 1

# intensity codes in INTENSITY_LABELS order; class 4 i + j is the label
# pair _CLASS_LABELS[4 i + j]
_MU, _NU, _O, _OHAT = 0, 1, 2, 3
_CLASS_LABELS = tuple(itertools.product(INTENSITY_LABELS, repeat=2))
# the classes of the single-photon ground truth
_O_MU, _MU_O = 4 * _O + _MU, 4 * _MU + _O

# Flag patterns of a round that can click: bit 0 at least one photon
# arrives, bit 1 a left dark count, bit 2 a right dark count.
_PATTERNS = np.arange(1, 8)
_N_PATTERNS = _PATTERNS.shape[0]
_ARRIVAL = (_PATTERNS & 1) != 0
_DARK_L = (_PATTERNS & 2) != 0
_DARK_R = (_PATTERNS & 4) != 0


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(stream_id)))


@dataclass(frozen=True, eq=False)
class MonteCarloTally:
    """Event data of a run of rounds plus post-matching results.

    Event pools keep one row per successful click so that the matching
    passes can run globally (pairing within shards would bias the pair
    count through per-shard pool-size fluctuations).
    """

    n_rounds: int
    seed: int
    e_d_z: float
    clicks: dict[tuple[str, str], int]
    # Z pools, shard by shard in random order within a shard: events where
    # the first user sent o / mu
    z_o_bob_mu: np.ndarray
    z_o_nb: np.ndarray
    z_mu_bob_mu: np.ndarray
    z_mu_na: np.ndarray
    z_mu_nb: np.ndarray
    # X events inside the phase slice, in the same order
    x_u: np.ndarray
    x_tag10: np.ndarray
    x_tag01: np.ndarray
    # ground-truth yield counters
    o_mu_single_rounds: int
    o_mu_single_clicks: int
    mu_o_single_rounds: int
    mu_o_single_clicks: int
    # set by the matching passes
    n_z: int | None = None
    m_z: int | None = None
    z_discarded: int | None = None
    s11_z_true: int | None = None
    s0mub_true: int | None = None
    n_x: int | None = None
    x_pairs: int | None = None
    m_x: int | None = None
    s11_x_true_pairs: int | None = None

    def summary(self) -> dict:
        """JSON-ready post-matching summary (event pools omitted)."""
        return {
            "n_rounds": self.n_rounds,
            "seed": self.seed,
            "clicks": {f"{ka},{kb}": int(v) for (ka, kb), v in sorted(self.clicks.items())},
            "n_z": self.n_z,
            "m_z": self.m_z,
            "z_discarded": self.z_discarded,
            "s11_z_true": self.s11_z_true,
            "s0mub_true": self.s0mub_true,
            "n_x": self.n_x,
            "x_pairs": self.x_pairs,
            "m_x": self.m_x,
            "s11_x_true_pairs": self.s11_x_true_pairs,
            "o_mu_single_rounds": self.o_mu_single_rounds,
            "o_mu_single_clicks": self.o_mu_single_clicks,
            "mu_o_single_rounds": self.mu_o_single_rounds,
            "mu_o_single_clicks": self.mu_o_single_clicks,
        }

    def observed_counts(self) -> ObservedCounts:
        """The tally as decoy-estimation input; needs both matching passes.
        A tally without Z pairs gets the error rate 0."""
        c = self.clicks
        return ObservedCounts(
            x={k: float(v) for k, v in c.items()},
            x_oo_d=float(c[("ohat", "ohat")] + c[("ohat", "o")] + c[("o", "ohat")]),
            n_z=float(self.n_z),
            m_z=float(self.m_z),
            E_z=self.m_z / self.n_z if self.n_z else 0.0,
            n_x=float(self.n_x),
            m_x=float(self.m_x),
        )


# Tally fields simulate_rounds merges: event pools are concatenated shard by
# shard, counters summed.
_POOL_FIELDS = ("z_o_bob_mu", "z_o_nb", "z_mu_bob_mu", "z_mu_na", "z_mu_nb", "x_u", "x_tag10", "x_tag01")
_COUNT_FIELDS = (
    "o_mu_single_rounds", "o_mu_single_clicks", "mu_o_single_rounds", "mu_o_single_clicks"
)


@dataclass(frozen=True, eq=False)
class _RunConstants:
    """The settings of one run and the per-class constants every shard
    reads; class 4 i + j has intensity codes (i, j).

    Built once per run and shared read-only by the shards.  The expected
    candidate rounds per SHARD_ROUNDS rounds decide the shard size.
    """

    a: SourceSetting
    b: SourceSetting
    geom: LinkGeometry
    params: SystemParams
    # send probabilities of the 16 classes, normalized: they may miss 1 by
    # the validation tolerance
    class_probs: np.ndarray
    # per class, the chances of the 7 flag patterns of a candidate round
    # and, last column, of a silent round
    pattern_probs: np.ndarray
    mean_total: np.ndarray
    lost_a: np.ndarray
    lost_b: np.ndarray
    share_a: np.ndarray
    visibility: np.ndarray
    # chance that a silent (o, mu) round held one photon of the second
    # user, and a silent (mu, o) round one of the first
    silent_single_probs: np.ndarray
    candidates_per_shard: float


def _run_constants(
    a: SourceSetting, b: SourceSetting, geom: LinkGeometry, params: SystemParams
) -> _RunConstants:
    eta_a, eta_b = geom.transmittances(params)
    p_d = params.p_d

    probs_a = np.array([a.p_mu, a.p_nu, a.p_o, a.p_ohat])
    probs_b = np.array([b.p_mu, b.p_nu, b.p_o, b.p_ohat])
    k_a = np.repeat([a.mu, a.nu, 0.0, 0.0], 4)
    k_b = np.tile([b.mu, b.nu, 0.0, 0.0], 4)
    arrive_a = eta_a * k_a
    arrive_b = eta_b * k_b
    mean_total = arrive_a + arrive_b
    lit = mean_total > 0.0
    class_probs = np.outer(probs_a, probs_b).ravel()
    class_probs = class_probs / class_probs.sum()

    # Each round independently has an arrival (prob 1 - e^-M, whatever the
    # phase), a left dark count and a right dark count (prob p_d each).  The
    # counts of the 8 flag patterns per class are therefore multinomial;
    # silent rounds (none of the three) never click.
    none = np.exp(-mean_total)[:, None]
    pattern_probs = (
        np.where(_ARRIVAL, -np.expm1(-mean_total)[:, None], none)
        * np.where(_DARK_L, p_d, 1.0 - p_d)
        * np.where(_DARK_R, p_d, 1.0 - p_d)
    )
    silent_probs = none * (1.0 - p_d) ** 2
    lost_a = (1.0 - eta_a) * k_a
    lost_b = (1.0 - eta_b) * k_b
    lam = np.array([lost_b[_O_MU], lost_a[_MU_O]])
    return _RunConstants(
        a=a,
        b=b,
        geom=geom,
        params=params,
        class_probs=class_probs,
        pattern_probs=np.hstack([pattern_probs, silent_probs]),
        mean_total=mean_total,
        lost_a=lost_a,
        lost_b=lost_b,
        share_a=np.divide(arrive_a, mean_total, out=np.zeros(16), where=lit),
        visibility=np.divide(np.sqrt(arrive_a * arrive_b), mean_total, out=np.zeros(16), where=lit),
        silent_single_probs=lam * np.exp(-lam),
        candidates_per_shard=SHARD_ROUNDS * float(class_probs @ pattern_probs.sum(axis=1)),
    )


def _simulate_shard(run: _RunConstants, n: int, seed: int, shard_index: int) -> MonteCarloTally:
    rng = _stream(seed, shard_index)
    params = run.params
    two_pi = 2.0 * math.pi

    # fixed draw order: class counts, flag patterns, candidate order,
    # arrivals, photon tags, phases, bits, detector split, silent singles
    class_counts = rng.multinomial(n, run.class_probs)
    pattern_counts = rng.multinomial(class_counts, run.pattern_probs)
    silent = pattern_counts[:, -1]

    # Candidates in random order: X matching pairs retained events in
    # arrival order, so the order must not depend on their outcomes.
    code = np.repeat(np.arange(16 * _N_PATTERNS), pattern_counts[:, :-1].ravel())
    rng.shuffle(code)
    cls, pat = np.divmod(code, _N_PATTERNS)
    ia, ib = np.divmod(cls, 4)
    arrival, dark_l, dark_r = _ARRIVAL[pat], _DARK_L[pat], _DARK_R[pat]
    c = code.shape[0]

    # Zero-truncated Poisson(M) arrivals: the first arrival time T of a
    # rate-M Poisson process on [0, 1] conditioned on T < 1, by inverting its
    # distribution function, then Poisson(M (1 - T)) more.  M (1 - T) is
    # clamped at 0 against rounding.
    m = run.mean_total[cls[arrival]]
    remaining = np.maximum(m + np.log1p(rng.random(m.shape[0]) * np.expm1(-m)), 0.0)
    arrived = np.zeros(c, dtype=np.int64)
    arrived[arrival] = 1 + rng.poisson(remaining)

    # Poisson splitting: arrivals per arm, plus photons lost on the way
    surv_a = rng.binomial(arrived, run.share_a[cls])
    n_a = surv_a + rng.poisson(run.lost_a[cls])
    n_b = arrived - surv_a + rng.poisson(run.lost_b[cls])

    # theta_a - theta_b + phi_ab is uniform on [0, 2 pi): one draw suffices
    theta = rng.random(c) * two_pi
    r_a = rng.integers(0, 2, size=c, dtype=np.int8)
    r_b = rng.integers(0, 2, size=c, dtype=np.int8)
    # encoded bits shift the relative phase by pi each
    sign = 1.0 - 2.0 * np.logical_xor(r_a, r_b)
    p_left = np.clip(0.5 + sign * run.visibility[cls] * np.cos(theta), 0.0, 1.0)
    arr_left = rng.binomial(arrived, p_left)

    click_left = (arr_left > 0) | dark_l
    click_right = (arrived - arr_left > 0) | dark_r
    success = np.logical_xor(click_left, click_right)
    det_right = success & click_right

    clicks = np.bincount(cls[success], minlength=16)

    bob_z = (ib == _O) | (ib == _MU)
    pool_o = success & (ia == _O) & bob_z
    pool_mu = success & (ia == _MU) & bob_z

    x_mask = success & (ia == _NU) & (ib == _NU)
    folded = np.mod(theta - params.sigma, two_pi)
    kept = x_mask & (np.mod(folded, math.pi) < params.delta)
    arm = folded[kept] >= math.pi
    u = np.logical_xor(
        np.logical_xor(r_a[kept].astype(bool), r_b[kept].astype(bool)),
        np.logical_xor(arm, det_right[kept]),
    )

    # Single-photon ground truth counts every round of the class.  A silent
    # round's photons were all lost, so its tag is Poisson((1 - eta) k).
    o_mu_single = (cls == _O_MU) & (n_b == 1)
    mu_o_single = (cls == _MU_O) & (n_a == 1)
    silent_single = rng.binomial(silent[[_O_MU, _MU_O]], run.silent_single_probs)

    cap = np.iinfo(np.uint8).max
    return MonteCarloTally(
        n_rounds=n,
        seed=int(seed),
        e_d_z=params.e_d_z,
        clicks=dict(zip(_CLASS_LABELS, clicks.tolist())),
        z_o_bob_mu=(ib[pool_o] == _MU),
        z_o_nb=np.minimum(n_b[pool_o], cap).astype(np.uint8),
        z_mu_bob_mu=(ib[pool_mu] == _MU),
        z_mu_na=np.minimum(n_a[pool_mu], cap).astype(np.uint8),
        z_mu_nb=np.minimum(n_b[pool_mu], cap).astype(np.uint8),
        x_u=u,
        x_tag10=(n_a[kept] == 1) & (n_b[kept] == 0),
        x_tag01=(n_a[kept] == 0) & (n_b[kept] == 1),
        o_mu_single_rounds=int(o_mu_single.sum() + silent_single[0]),
        o_mu_single_clicks=int((o_mu_single & success).sum()),
        mu_o_single_rounds=int(mu_o_single.sum() + silent_single[1]),
        mu_o_single_clicks=int((mu_o_single & success).sum()),
    )


def resolve_threads(threads: int | None) -> int:
    """Thread count from the argument, the TFKEYRATE_THREADS variable, or 1."""
    if threads is not None:
        return max(int(threads), 1)
    env = os.environ.get("TFKEYRATE_THREADS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError as exc:
            raise ValueError(f"TFKEYRATE_THREADS must be an integer, got {env!r}") from exc
    return 1


def simulate_rounds(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    n_rounds: int,
    seed: int,
    threads: int | None = None,
) -> MonteCarloTally:
    """Simulate n_rounds protocol rounds and collect the event pools.

    Shards hold SHARD_ROUNDS x 2^k rounds for the smallest k >= 0 at which
    one expects TARGET_CANDIDATES candidates or covers all n_rounds; two or
    more run on up to resolve_threads(threads) threads.  The returned tally
    has not been matched yet; run post_match_z and post_match_x (or use
    oracle_tally) for the pair-level numbers.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    n_rounds = int(n_rounds)
    run = _run_constants(a, b, geom, params)
    shard_rounds, candidates = SHARD_ROUNDS, run.candidates_per_shard
    while shard_rounds < n_rounds and candidates < TARGET_CANDIDATES:
        shard_rounds, candidates = 2 * shard_rounds, 2.0 * candidates
    jobs = list(enumerate(min(shard_rounds, n_rounds - s) for s in range(0, n_rounds, shard_rounds)))
    workers = min(resolve_threads(threads), len(jobs))
    if workers == 1:
        shards = [_simulate_shard(run, size, seed, idx) for idx, size in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(lambda job: _simulate_shard(run, job[1], seed, job[0]), jobs))

    pools = {name: np.concatenate([getattr(s, name) for s in shards]) for name in _POOL_FIELDS}
    counts = {name: sum(getattr(s, name) for s in shards) for name in _COUNT_FIELDS}
    clicks = {label: sum(s.clicks[label] for s in shards) for label in _CLASS_LABELS}
    return replace(shards[0], n_rounds=n_rounds, clicks=clicks, **pools, **counts)


def post_match_z(tally: MonteCarloTally) -> MonteCarloTally:
    """Randomly pair the first user's silent-events pool against her signal
    pool, apply the second user's equal-intensity discard rule, and classify
    errors (his signal bin equals hers; misalignment flips a pair's class).

    Returns a copy of the tally with n_z, m_z, z_discarded and the tagged
    single-photon-pair truths set.
    """
    rng = _stream(tally.seed, _Z_MATCH_STREAM)
    len_o = tally.z_o_bob_mu.shape[0]
    len_mu = tally.z_mu_bob_mu.shape[0]
    k = min(len_o, len_mu)
    sel_o = rng.permutation(len_o)[:k]
    sel_mu = rng.permutation(len_mu)[:k]
    flip_draws = rng.random(k)

    bob_mu_i = tally.z_o_bob_mu[sel_o]
    bob_mu_j = tally.z_mu_bob_mu[sel_mu]
    formed = np.logical_xor(bob_mu_i, bob_mu_j)
    error_raw = (~bob_mu_i) & bob_mu_j
    flips = flip_draws < tally.e_d_z
    errors = formed & np.logical_xor(error_raw, flips)

    nb_i = tally.z_o_nb[sel_o]
    na_j = tally.z_mu_na[sel_mu]
    correct_raw = bob_mu_i & (~bob_mu_j)
    s11_true = correct_raw & (nb_i == 1) & (na_j == 1)
    s0mub_true = formed & (na_j == 0)

    n_z = int(formed.sum())
    return replace(
        tally,
        n_z=n_z,
        m_z=int(errors.sum()),
        z_discarded=k - n_z,
        s11_z_true=int(s11_true.sum()),
        s0mub_true=int(s0mub_true.sum()),
    )


def post_match_x(tally: MonteCarloTally) -> MonteCarloTally:
    """Pair retained X events greedily in arrival order and count errors.

    Every retained event lies in the slice [sigma, sigma+delta] on one of
    the two opposite arms, so consecutive events always satisfy the
    matching condition |theta_i - theta_j| close to 0 or pi; the arm bit is
    already folded into each event's parity bit u, and a pair is an error
    exactly when u_i differs from u_j.  m_x is reported in event units
    (two per error pair) to match the analytic bookkeeping.  The slice
    window was applied at simulation time.

    Returns a copy of the tally with n_x, x_pairs, m_x and the tagged
    single-photon pair count set.
    """
    u = tally.x_u
    n_kept = u.shape[0]
    n_pairs = n_kept // 2
    u_i = u[0 : 2 * n_pairs : 2]
    u_j = u[1 : 2 * n_pairs : 2]
    errors = np.logical_xor(u_i, u_j)

    tag10_i = tally.x_tag10[0 : 2 * n_pairs : 2]
    tag01_i = tally.x_tag01[0 : 2 * n_pairs : 2]
    tag10_j = tally.x_tag10[1 : 2 * n_pairs : 2]
    tag01_j = tally.x_tag01[1 : 2 * n_pairs : 2]
    s11_pairs = (tag10_i & tag01_j) | (tag01_i & tag10_j)

    return replace(
        tally,
        n_x=n_kept,
        x_pairs=n_pairs,
        m_x=int(2 * errors.sum()),
        s11_x_true_pairs=int(s11_pairs.sum()),
    )


def oracle_tally(
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
    n_rounds: int,
    seed: int,
    threads: int | None = None,
) -> MonteCarloTally:
    """simulate_rounds plus both matching passes."""
    tally = simulate_rounds(a, b, geom, params, n_rounds, seed, threads=threads)
    return post_match_x(post_match_z(tally))


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    observed: float
    expected: float
    z_score: float


def compare_with_analytics(
    tally: MonteCarloTally,
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
) -> list[ComparisonRow]:
    """Observed-vs-expected rows with z = (obs - exp)/sqrt(exp).

    Expectations are the analytic formulas evaluated at N = n_rounds; the
    X error expectation uses the first-principles form, the one the click
    model actually realizes.  m_x counts two events per error pair, so its
    variance is about 2 exp and its row uses z = (obs - exp)/sqrt(2 exp).
    """
    scaled = replace(params, N=float(tally.n_rounds))
    counts = observed_statistics(a, b, geom, scaled)
    rows: list[ComparisonRow] = []

    def add(name: str, observed: float, expected: float, units: float = 1.0) -> None:
        se = math.sqrt(units * expected) if expected > 0.0 else 1.0
        rows.append(ComparisonRow(name, observed, expected, (observed - expected) / se))

    for la in INTENSITY_LABELS:
        for lb in INTENSITY_LABELS:
            add(f"gain[{la},{lb}]", tally.clicks[(la, lb)], counts.x[(la, lb)])
    add("n_z", tally.n_z, counts.n_z)
    add("m_z", tally.m_z, counts.m_z)
    add("n_x", tally.n_x, counts.n_x)
    add("m_x", tally.m_x, counts.m_x, units=2.0)
    return rows
