"""Event-level Monte Carlo oracle for the analytic channel and matching model.

The simulator realizes the exact click statistics of interfering
phase-randomized coherent pulses: arrivals at the two detectors are
independent Poisson variables with means M/2 +- w cos(Theta).  Emitted
photon numbers are kept as tags so the decoy-state lower bounds can be
compared against ground truth.

It works with counts: per shard it draws the 16 intensity-class round
counts, then per class the counts of the 8 flag patterns (an arriving
photon, chance 1 - e^-M whatever the phase; a left and a right dark count).
Only rounds with two or more arrived photons, a dark count beside a photon,
or (nu, nu) rounds inside the X phase slice (chance delta/pi) get per-round
draws.  A lone photon without a dark count clicks exactly one detector
whatever the phase and the bits, and dark counts alone click by their
pattern, so those rounds stay counts, with photon tags multinomial over
(n_a, n_b) in {0, 1, >= 2}^2.  The tallies have the joint distribution of
drawing every round, at a cost of O(per-round rows + pool events) per shard.

Every result is one frozen MonteCarloTally: each shard returns the tally of
its own rounds, simulate_rounds merges them in shard order, and the Z and X
matching passes return a new tally with their fields set.

Determinism: each shard draws from a counter-based Philox stream keyed by
(seed, shard index), the Z matching pass from a dedicated one.  Shard sizes
depend on the configuration and the round count alone, so tallies are
bit-exact functions of (seed, configuration, rounds).
"""

from __future__ import annotations

import itertools
import math
import os
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

# Expected per-round rows from which a shard stops doubling.  1e7 toy rounds
# (2 vCPU, median of 30): 25.5 ms in 1e6-round shards (12.7k rows), 23.9 ms
# at 20k, 26.5 ms at 50k, 30.5 ms in one shard; two threads were slower.
TARGET_ROWS = 20_000

# Shards whose pools simulate_rounds concatenates into one chunk, so that
# later shards reuse the memory of the small pools copied out
_MERGE_SHARDS = 32

# Pairs post_match_z classifies per step
_Z_MATCH_CHUNK = 1 << 18

# Philox stream id of the Z matching pass; shards use their index
_Z_MATCH_STREAM = 1 << 62

# intensity codes in INTENSITY_LABELS order; class 4 i + j is the label
# pair _CLASS_LABELS[4 i + j]
_MU, _NU, _O, _OHAT = 0, 1, 2, 3
_CLASS_LABELS = tuple(itertools.product(INTENSITY_LABELS, repeat=2))
_MU_MU, _NU_NU = 4 * _MU + _MU, 4 * _NU + _NU
_O_O, _O_MU, _MU_O = 4 * _O + _O, 4 * _O + _MU, 4 * _MU + _O
# The classes whose clicks join the Z pools (first user o, then mu; second
# user o, then mu); (o, mu) and (mu, o) also carry the single-photon truth.
_POOL_CLASSES = [_O_O, _O_MU, _MU_O, _MU_MU]
# second-user flag and photon category (0, 1, >= 2) of a pool's 6 categories
_POOL_BOB_MU = np.repeat([False, True], 3)
_POOL_PHOTONS = np.tile(np.arange(3, dtype=np.uint8), 2)

# Flag patterns of a round: bit 0 at least one photon arrives, bit 1 a left
# dark count, bit 2 a right dark count; the silent pattern 0 comes last.
_PATTERNS = np.array([1, 2, 3, 4, 5, 6, 7, 0])
_N_PATTERNS = _PATTERNS.shape[0]
_ARRIVAL = (_PATTERNS & 1) != 0
_DARK_L = (_PATTERNS & 2) != 0
_DARK_R = (_PATTERNS & 4) != 0
_DARK_BESIDE_PHOTON = _ARRIVAL & (_DARK_L | _DARK_R)
_DARK_CLICK = ~_ARRIVAL & (_DARK_L ^ _DARK_R)
_NO_CLICK = ~_ARRIVAL & (_DARK_L == _DARK_R)
# photon categories (0, 1, >= 2) of a count, times this: those of one more
_ONE_MORE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
# Per-round rows come in 17 groups, those with photon tags first: 0 is the
# (nu, nu) rounds in the slice, 1-4 the pool classes, then the other classes.
_GROUP_CLASS = np.array([_NU_NU, *_POOL_CLASSES, *(c for c in range(16) if c not in _POOL_CLASSES)])
_TAGGED_GROUPS = 5


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(stream_id)))


@dataclass(frozen=True, eq=False)
class MonteCarloTally:
    """Event data of a run of rounds plus post-matching results.

    Event pools keep one row per successful click so that the matching
    passes can run globally (pairing within shards would bias the pair
    count through per-shard pool-size fluctuations).  A pool row holds the
    photon count its pair reads, capped at 2: 0, 1, or 2 and more.
    """

    n_rounds: int
    seed: int
    e_d_z: float
    clicks: dict[tuple[str, str], int]
    # Z pools, shard by shard, grouped by category within a shard (the Z
    # matching shuffles them): events where the first user sent o / mu
    z_o_bob_mu: np.ndarray
    z_o_nb: np.ndarray
    z_mu_bob_mu: np.ndarray
    z_mu_na: np.ndarray
    # X events inside the phase slice, in random order within each shard
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
_POOL_FIELDS = ("z_o_bob_mu", "z_o_nb", "z_mu_bob_mu", "z_mu_na", "x_u", "x_tag10", "x_tag01")
_COUNT_FIELDS = (
    "o_mu_single_rounds", "o_mu_single_clicks", "mu_o_single_rounds", "mu_o_single_clicks"
)


@dataclass(frozen=True, eq=False)
class _RunConstants:
    """The settings of one run and the per-class constants every shard
    reads; class 4 i + j has intensity codes (i, j).

    Built once per run and shared read-only by the shards.  The expected
    per-round rows per SHARD_ROUNDS rounds decide the shard size.
    """

    a: SourceSetting
    b: SourceSetting
    geom: LinkGeometry
    params: SystemParams
    # send probabilities of the 16 classes, normalized: they may miss 1 by
    # the validation tolerance
    class_probs: np.ndarray
    # per class, the chances of the 8 flag patterns in _PATTERNS order
    pattern_probs: np.ndarray
    # class c's entry for k = 1 .. arrival_len is c + P(arrived <= k | >= 1)
    arrival_cdf: np.ndarray
    arrival_len: int
    # per class, P(one photon | >= 1)
    lone_probs: np.ndarray
    # per row group, the phase range [lo, lo + width) on each arm
    phase_lo: np.ndarray
    phase_width: np.ndarray
    lost_a: np.ndarray
    lost_b: np.ndarray
    share_a: np.ndarray
    visibility: np.ndarray
    # per pool class, chances of the tags (min(n_a, 2), min(n_b, 2)) of a
    # lone-photon, a dark-only and a no-arrival no-click round: (4, 3, 9)
    tag_probs: np.ndarray
    rows_per_shard: float


def _photon_categories(mean: np.ndarray) -> np.ndarray:
    """Chances that a Poisson(mean) count is 0, 1, or 2 and more."""
    p0 = np.exp(-mean)
    p1 = mean * p0
    return np.stack([p0, p1, np.maximum(-np.expm1(-mean) - p1, 0.0)], axis=-1)


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
    # counts of the 8 flag patterns per class are therefore multinomial.
    pattern_probs = (
        np.where(_ARRIVAL, -np.expm1(-mean_total)[:, None], np.exp(-mean_total)[:, None])
        * np.where(_DARK_L, p_d, 1.0 - p_d)
        * np.where(_DARK_R, p_d, 1.0 - p_d)
    )

    # Poisson(M) given >= 1, tabulated far enough into the tail (12 standard
    # deviations and 30 more) that the rest is below rounding: relative to
    # k = 1, the chance of k is prod_{j=2..k} M / j.
    m_max = float(mean_total.max())
    k = np.arange(1, math.ceil(m_max + 12.0 * math.sqrt(m_max)) + 31)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(mean_total)[:, None] - np.log(k)
    log_ratio[:, 0] = 0.0
    log_q = np.cumsum(log_ratio, axis=1)
    cdf = np.cumsum(np.exp(log_q - log_q.max(axis=1, keepdims=True)), axis=1)
    cdf /= cdf[:, -1:]
    lone_probs = cdf[:, 0]

    slice_prob = params.delta / math.pi
    outside = (_GROUP_CLASS == _NU_NU) & (np.arange(17) > 0)
    phase_lo = params.sigma % (2.0 * math.pi) + params.delta * outside
    phase_width = np.where(outside, math.pi - params.delta, math.pi)
    phase_width[0] = params.delta

    # A lone photon came from the first user with chance share_a; lost
    # photons are Poisson((1 - eta) k) on each side, whatever arrived.
    lost_a = (1.0 - eta_a) * k_a
    lost_b = (1.0 - eta_b) * k_b
    share_a = np.divide(arrive_a, mean_total, out=np.zeros(16), where=lit)
    cats_a = _photon_categories(lost_a[_POOL_CLASSES])[:, :, None]
    cats_b = _photon_categories(lost_b[_POOL_CLASSES])[:, None, :]
    share = share_a[_POOL_CLASSES, None, None]
    lone_tags = share * (_ONE_MORE.T @ cats_a) * cats_b + (1.0 - share) * cats_a * (cats_b @ _ONE_MORE)
    tag_probs = np.stack([lone_tags, cats_a * cats_b, cats_a * cats_b], axis=1).reshape(4, 3, 9)

    # expected per-round rows: multi-photon and dark-beside-photon rounds,
    # and for (nu, nu) every candidate round inside the slice
    per_round = pattern_probs[:, 0] * (1.0 - lone_probs) + pattern_probs @ _DARK_BESIDE_PHOTON
    per_round[_NU_NU] += slice_prob * (pattern_probs[_NU_NU] @ (_PATTERNS != 0) - per_round[_NU_NU])
    return _RunConstants(
        a=a, b=b, geom=geom, params=params,
        class_probs=class_probs,
        pattern_probs=pattern_probs,
        arrival_cdf=(np.arange(16)[:, None] + cdf).ravel(),
        arrival_len=k.shape[0],
        lone_probs=lone_probs,
        phase_lo=phase_lo,
        phase_width=phase_width,
        lost_a=lost_a,
        lost_b=lost_b,
        share_a=share_a,
        visibility=np.divide(np.sqrt(arrive_a * arrive_b), mean_total, out=np.zeros(16), where=lit),
        tag_probs=tag_probs,
        rows_per_shard=SHARD_ROUNDS * float(class_probs @ per_round),
    )


def _simulate_shard(run: _RunConstants, n: int, seed: int, shard_index: int) -> MonteCarloTally:
    rng = _stream(seed, shard_index)

    # fixed draw order: class counts, flag patterns, slice rounds, lone
    # photons; per row arrivals, phase bits, phases, detector outcomes, arm
    # split and lost photons; the X event order; the other rounds' tags
    class_counts = rng.multinomial(n, run.class_probs)
    counts = rng.multinomial(class_counts, run.pattern_probs)
    slice_counts = rng.binomial(counts[_NU_NU] * (_PATTERNS != 0), run.params.delta / math.pi)
    counts[_NU_NU] -= slice_counts
    lone = rng.binomial(counts[:, 0], run.lone_probs)

    # One row per round with two photons or more, a dark count beside a
    # photon, or a (nu, nu) candidate in the slice, in group order
    per_round = counts * _DARK_BESIDE_PHOTON
    per_round[:, 0] = counts[:, 0] - lone
    row_counts = np.concatenate([slice_counts, per_round[_GROUP_CLASS[1:]].ravel()])
    code = np.repeat(np.arange(17 * _N_PATTERNS), row_counts)
    group, pat = np.divmod(code, _N_PATTERNS)
    cls = _GROUP_CLASS[group]
    r = code.shape[0]

    # Arrivals by inverting the tabulated distribution function at a uniform,
    # drawn above the lone-photon chance for the multi-photon rows; the clip
    # keeps a u that rounds to 1 inside the row's class
    floor = np.where((pat == 0) & (group > 0), run.lone_probs[cls], 0.0)
    u = floor + rng.random(r) * (1.0 - floor)
    k = np.searchsorted(run.arrival_cdf, cls + u, side="right") - cls * run.arrival_len
    arrived = np.where(_ARRIVAL[pat], 1 + np.minimum(k, run.arrival_len - 1), 0)

    # theta_a - theta_b + phi_ab lies on one of two opposite arms of the
    # row's phase range; differing bits shift it by pi, so one bit (the bits'
    # parity xor the arm) picks it.  One uniform v decides the detector: all
    # photons go left below p^k, right from 1 - (1 - p)^k.
    bit = rng.integers(0, 2, size=r, dtype=bool)
    theta = run.phase_lo[group] + bit * math.pi + rng.random(r) * run.phase_width[group]
    p_left = 0.5 + run.visibility[cls] * np.cos(theta)
    v = rng.random(r)
    click_left = (v < 1.0 - (1.0 - p_left) ** arrived) | _DARK_L[pat]
    click_right = (v >= p_left**arrived) | _DARK_R[pat]
    success = click_left ^ click_right

    # Photon tags of the tagged groups' rows, a prefix of the rows: each
    # arrived photon came from the first user with chance share_a (one
    # uniform per photon), and lost photons are Poisson
    tagged = row_counts[: _TAGGED_GROUPS * _N_PATTERNS].sum()
    owner = np.repeat(np.arange(tagged), arrived[:tagged])
    surv_a = np.bincount(owner[rng.random(owner.shape[0]) < run.share_a[cls[owner]]], minlength=tagged)
    n_a = surv_a + rng.poisson(run.lost_a[cls[:tagged]])
    n_b = arrived[:tagged] - surv_a + rng.poisson(run.lost_b[cls[:tagged]])

    # X events, the clicked rows of group 0, in random order: X matching
    # pairs them in arrival order, which must not depend on their outcomes
    x = np.flatnonzero(success[: slice_counts.sum()])
    x = x[rng.permutation(x.shape[0])]

    # The pool classes' tag categories by (class, clicked, n_a, n_b): counts
    # for lone-photon and dark-only rounds, per row for the others.
    unsplit = np.stack([lone, counts @ _DARK_CLICK, counts @ _NO_CLICK], axis=1)[_POOL_CLASSES]
    tags = rng.multinomial(unsplit, run.tag_probs).reshape(4, 3, 3, 3)
    slot = np.where(success[:tagged], 0, _TAGGED_GROUPS) + group[:tagged]
    row_cat = slot * 9 + 3 * np.minimum(n_a, 2) + np.minimum(n_b, 2)
    row_tags = np.bincount(row_cat, minlength=2 * _TAGGED_GROUPS * 9).reshape(2, _TAGGED_GROUPS, 3, 3)[:, 1:]
    clicked = tags[:, 0] + tags[:, 1] + row_tags[0]
    rounds = clicked + tags[:, 2] + row_tags[1]
    # by second-user photons in the o pool, first-user photons in the mu pool;
    # the single-photon truths read (o, mu), pool class 1, and (mu, o), 2
    pool_o = clicked[:2].sum(axis=1).ravel()
    pool_mu = clicked[2:].sum(axis=2).ravel()

    clicks = lone + counts @ _DARK_CLICK + np.bincount(cls[success], minlength=16)
    return MonteCarloTally(
        n_rounds=n,
        seed=int(seed),
        e_d_z=run.params.e_d_z,
        clicks=dict(zip(_CLASS_LABELS, clicks.tolist())),
        z_o_bob_mu=np.repeat(_POOL_BOB_MU, pool_o),
        z_o_nb=np.repeat(_POOL_PHOTONS, pool_o),
        z_mu_bob_mu=np.repeat(_POOL_BOB_MU, pool_mu),
        z_mu_na=np.repeat(_POOL_PHOTONS, pool_mu),
        x_u=bit[x] ^ click_right[x],
        x_tag10=(n_a[x] == 1) & (n_b[x] == 0),
        x_tag01=(n_a[x] == 0) & (n_b[x] == 1),
        o_mu_single_rounds=int(rounds[1, :, 1].sum()),
        o_mu_single_clicks=int(clicked[1, :, 1].sum()),
        mu_o_single_rounds=int(rounds[2, 1].sum()),
        mu_o_single_clicks=int(clicked[2, 1].sum()),
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
) -> MonteCarloTally:
    """Simulate n_rounds protocol rounds and collect the event pools.

    Shards hold SHARD_ROUNDS x 2^k rounds for the smallest k >= 0 at which
    one expects TARGET_ROWS per-round rows or covers all n_rounds, and run
    one after another.  The tally is not matched yet: run post_match_z and
    post_match_x, or oracle_tally.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    n_rounds = int(n_rounds)
    run = _run_constants(a, b, geom, params)
    shard_rounds, rows = SHARD_ROUNDS, run.rows_per_shard
    while shard_rounds < n_rounds and rows < TARGET_ROWS:
        shard_rounds, rows = 2 * shard_rounds, 2.0 * rows
    shards = (
        _simulate_shard(run, min(shard_rounds, n_rounds - start), seed, index)
        for index, start in enumerate(range(0, n_rounds, shard_rounds))
    )
    return _merge_shards(shards, n_rounds, seed, params.e_d_z)


def _merge_shards(shards, n_rounds: int, seed: int, e_d_z: float) -> MonteCarloTally:
    """Merge shard tallies as they arrive, in shard order: counters are
    summed, and the pools of every _MERGE_SHARDS shards are concatenated
    into one chunk, so no shard tally outlives its merge."""
    chunks: dict[str, list[np.ndarray]] = {name: [] for name in _POOL_FIELDS}
    pending: dict[str, list[np.ndarray]] = {name: [] for name in _POOL_FIELDS}
    counts = dict.fromkeys(_COUNT_FIELDS, 0)
    clicks = dict.fromkeys(_CLASS_LABELS, 0)
    for shard in shards:
        for name in _POOL_FIELDS:
            pending[name].append(getattr(shard, name))
        for name in _COUNT_FIELDS:
            counts[name] += getattr(shard, name)
        for label in _CLASS_LABELS:
            clicks[label] += shard.clicks[label]
        if len(pending["x_u"]) == _MERGE_SHARDS:
            for name in _POOL_FIELDS:
                chunks[name].append(np.concatenate(pending[name]))
                pending[name].clear()
    del shard  # so that each pending pool is freed once concatenated
    pools = {name: np.concatenate(chunks.pop(name) + pending.pop(name)) for name in _POOL_FIELDS}
    return MonteCarloTally(n_rounds=n_rounds, seed=int(seed), e_d_z=e_d_z, clicks=clicks, **pools, **counts)


def _shuffled(rng: np.random.Generator, **columns: np.ndarray) -> np.ndarray:
    """A pool's columns as one record array in random order: the order of
    indexing them by rng.permutation(n), whose draws depend on n alone,
    without the index array."""
    events = np.empty(
        next(iter(columns.values())).shape[0], dtype=[(name, col.dtype) for name, col in columns.items()]
    )
    for name, col in columns.items():
        events[name] = col
    rng.shuffle(events)
    return events


def post_match_z(tally: MonteCarloTally) -> MonteCarloTally:
    """Randomly pair the first user's silent-events pool against her signal
    pool, apply the second user's equal-intensity discard rule, and classify
    errors (his signal bin equals hers; misalignment flips a pair's class).

    Pairs are classified _Z_MATCH_CHUNK at a time, so the pass holds the two
    shuffled pools and one chunk's temporaries; the misalignment draws
    follow the pair order whatever the chunk size.

    Returns a copy of the tally with n_z, m_z, z_discarded and the tagged
    single-photon-pair truths set.
    """
    rng = _stream(tally.seed, _Z_MATCH_STREAM)
    pool_o = _shuffled(rng, bob_mu=tally.z_o_bob_mu, nb=tally.z_o_nb)
    pool_mu = _shuffled(rng, bob_mu=tally.z_mu_bob_mu, na=tally.z_mu_na)
    k = min(pool_o.shape[0], pool_mu.shape[0])
    pool_o, pool_mu = pool_o[:k], pool_mu[:k]

    n_z = m_z = s11_z_true = s0mub_true = 0
    for start in range(0, k, _Z_MATCH_CHUNK):
        i = pool_o[start : start + _Z_MATCH_CHUNK]
        j = pool_mu[start : start + _Z_MATCH_CHUNK]
        flips = rng.random(i.shape[0]) < tally.e_d_z
        bob_mu_i, bob_mu_j = i["bob_mu"], j["bob_mu"]
        formed = np.logical_xor(bob_mu_i, bob_mu_j)
        error_raw = (~bob_mu_i) & bob_mu_j
        correct_raw = bob_mu_i & (~bob_mu_j)
        n_z += int(formed.sum())
        m_z += int((formed & np.logical_xor(error_raw, flips)).sum())
        s11_z_true += int((correct_raw & (i["nb"] == 1) & (j["na"] == 1)).sum())
        s0mub_true += int((formed & (j["na"] == 0)).sum())

    return replace(
        tally,
        n_z=n_z,
        m_z=m_z,
        z_discarded=k - n_z,
        s11_z_true=s11_z_true,
        s0mub_true=s0mub_true,
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
    """simulate_rounds plus both matching passes; threads is accepted and
    ignored, since the shards run one after another."""
    tally = simulate_rounds(a, b, geom, params, n_rounds, seed)
    return post_match_x(post_match_z(tally))


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    observed: float
    expected: float
    z_score: float
    # exact two-sided Poisson tail of the observed count
    tail: float


def poisson_two_sided_tail(observed: float, expected: float) -> float:
    """Chance that a Poisson(expected) count lies at least as far out as
    observed on its side: twice the one-sided tail, capped at 1."""
    # scipy costs about 0.3 s to import, so only a comparison pays for it
    from scipy.special import gammainc, gammaincc

    k = round(observed)
    if expected <= 0.0:
        return 1.0 if k == 0 else 0.0
    one_sided = gammainc(k, expected) if k >= expected else gammaincc(k + 1, expected)
    return min(1.0, 2.0 * float(one_sided))


def compare_with_analytics(
    tally: MonteCarloTally,
    a: SourceSetting,
    b: SourceSetting,
    geom: LinkGeometry,
    params: SystemParams,
) -> list[ComparisonRow]:
    """Observed-vs-expected rows with z = (obs - exp)/sqrt(exp) and the
    exact two-sided Poisson tail of the observed count.

    Expectations are the analytic formulas evaluated at N = n_rounds; the
    X error expectation uses the first-principles form, the one the click
    model actually realizes.  m_x counts two events per error pair, so its
    variance is about 2 exp: its row uses z = (obs - exp)/sqrt(2 exp) and
    takes its tail in pair units, obs/2 against exp/2.
    """
    scaled = replace(params, N=float(tally.n_rounds))
    counts = observed_statistics(a, b, geom, scaled)
    rows: list[ComparisonRow] = []

    def add(name: str, observed: float, expected: float, units: float = 1.0) -> None:
        se = math.sqrt(units * expected) if expected > 0.0 else 1.0
        tail = poisson_two_sided_tail(observed / units, expected / units)
        rows.append(ComparisonRow(name, observed, expected, (observed - expected) / se, tail))

    for la in INTENSITY_LABELS:
        for lb in INTENSITY_LABELS:
            add(f"gain[{la},{lb}]", tally.clicks[(la, lb)], counts.x[(la, lb)])
    add("n_z", tally.n_z, counts.n_z)
    add("m_z", tally.m_z, counts.m_z)
    add("n_x", tally.n_x, counts.n_x)
    add("m_x", tally.m_x, counts.m_x, units=2.0)
    return rows
