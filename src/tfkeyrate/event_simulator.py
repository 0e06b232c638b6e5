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
those candidate rounds, the only ones that can click, get arrival numbers;
they are kept in random order, independent of their outcomes.  Each further
quantity is drawn only for the rounds whose tally fields read it:
- the phase for every (nu, nu) round, whose X-slice membership reads it;
- the phase, the bits and the detector split (one uniform per arrived
  photon) for rounds with two or more arrived photons, a dark count beside
  a photon, or a (nu, nu) round in the slice.  A lone photon without a dark
  count clicks exactly one detector whatever the phase and the bits, and
  dark counts alone click by their pattern;
- the arm split and the lost photons (the photon tags) for the mu pool,
  the X events and the rounds of the (o, mu) and (mu, o) classes, whose
  single-photon ground truth counts every round.
The tallies have the same joint distribution as drawing every round, at a
cost of O(events) plus O(classes x shards).

Every result is one frozen MonteCarloTally: each shard returns the tally of
its own rounds, simulate_rounds merges them in shard order as they finish,
and the Z and X matching passes return a new tally with their fields set,
leaving their argument unchanged.

Determinism: rounds are partitioned into shards, each driven by a
counter-based Philox stream keyed by (seed, shard index); the two matching
passes use dedicated streams.  Shard sizes depend on the configuration and
the round count alone, so tallies are bit-exact functions of (seed,
configuration, rounds) regardless of thread count.

Threads: a shard costs its candidate rounds plus about 0.2 ms of fixed
numpy calls that hold the interpreter lock, so shards double from
SHARD_ROUNDS rounds until one expects TARGET_CANDIDATES candidates or covers
the run.  The thread count is an upper bound: one shard runs serially, and
from the second shard on the shards, which share the per-class constants,
go to a thread pool.
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

# Shards whose pools simulate_rounds concatenates into one chunk: worker
# threads allocate a shard's small pools among its temporaries, and copying
# them out in batches lets the threads reuse that memory.
_MERGE_SHARDS = 32

# Pairs post_match_z classifies per step
_Z_MATCH_CHUNK = 1 << 18

# Philox stream ids: shard index for round generation, plus two reserved
# streams for the Z and X matching passes
_Z_MATCH_STREAM = 1 << 62
_X_MATCH_STREAM = (1 << 62) + 1

# intensity codes in INTENSITY_LABELS order; class 4 i + j is the label
# pair _CLASS_LABELS[4 i + j]
_MU, _NU, _O, _OHAT = 0, 1, 2, 3
_CLASS_LABELS = tuple(itertools.product(INTENSITY_LABELS, repeat=2))
_MU_MU, _NU_NU = 4 * _MU + _MU, 4 * _NU + _NU
# the classes of the single-photon ground truth
_O_MU, _MU_O = 4 * _O + _MU, 4 * _MU + _O
_CLASSES = np.arange(16)
_SINGLE_CLASS = np.isin(_CLASSES, [_O_MU, _MU_O])
# the classes whose clicks join the Z pools: the first user sent o / mu, the
# second o or mu
_POOL_O = np.isin(_CLASSES, [4 * _O + _O, _O_MU])
_POOL_MU = np.isin(_CLASSES, [_MU_MU, _MU_O])

# Flag patterns of a round that can click: bit 0 at least one photon
# arrives, bit 1 a left dark count, bit 2 a right dark count.
_PATTERNS = np.arange(1, 8)
_N_PATTERNS = _PATTERNS.shape[0]
_ARRIVAL = (_PATTERNS & 1) != 0
_DARK_L = (_PATTERNS & 2) != 0
_DARK_R = (_PATTERNS & 4) != 0
_DARK_BESIDE_PHOTON = _ARRIVAL & (_DARK_L | _DARK_R)
# success of a round that needs no detector split: a lone photon clicks one
# detector, dark counts alone click where they fall
_UNSPLIT_SUCCESS = _ARRIVAL ^ _DARK_L ^ _DARK_R


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
_POOL_FIELDS = ("z_o_bob_mu", "z_o_nb", "z_mu_bob_mu", "z_mu_na", "x_u", "x_tag10", "x_tag01")
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


def _split(rng: np.random.Generator, photons: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per round, how many of its photons take a branch of chance p: one
    uniform per photon, counted per round (Binomial(photons, p))."""
    owner = np.repeat(np.arange(photons.shape[0]), photons)
    return np.bincount(owner[rng.random(owner.shape[0]) < p[owner]], minlength=photons.shape[0])


def _simulate_shard(run: _RunConstants, n: int, seed: int, shard_index: int) -> MonteCarloTally:
    rng = _stream(seed, shard_index)
    params = run.params
    two_pi = 2.0 * math.pi

    # fixed draw order: class counts, flag patterns, candidate order,
    # arrivals, (nu, nu) phases, the other split rounds' phases, bits,
    # detector split, arm split, lost photons, silent singles
    class_counts = rng.multinomial(n, run.class_probs)
    pattern_counts = rng.multinomial(class_counts, run.pattern_probs)
    silent = pattern_counts[:, -1]

    # Candidates in random order: X matching pairs retained events in
    # arrival order, so the order must not depend on their outcomes.
    code = np.repeat(np.arange(16 * _N_PATTERNS), pattern_counts[:, :-1].ravel())
    rng.shuffle(code)
    cls, pat = np.divmod(code, _N_PATTERNS)
    arrival = _ARRIVAL[pat]
    c = code.shape[0]

    # Zero-truncated Poisson(M) arrivals: the first arrival time T of a
    # rate-M Poisson process on [0, 1] conditioned on T < 1, by inverting its
    # distribution function, then Poisson(M (1 - T)) more.  M (1 - T) is
    # clamped at 0 against rounding.
    m = run.mean_total[cls[arrival]]
    remaining = np.maximum(m + np.log1p(rng.random(m.shape[0]) * np.expm1(-m)), 0.0)
    arrived = np.zeros(c, dtype=np.int64)
    arrived[arrival] = 1 + rng.poisson(remaining)

    # theta_a - theta_b + phi_ab is uniform on [0, 2 pi): one draw suffices.
    # The slice reads it for every (nu, nu) round.
    nunu = np.flatnonzero(cls == _NU_NU)
    theta = np.empty(c)
    theta[nunu] = rng.random(nunu.shape[0]) * two_pi
    folded = np.mod(theta[nunu] - params.sigma, two_pi)
    in_slice = np.mod(folded, math.pi) < params.delta
    slice_rounds, arm = nunu[in_slice], folded[in_slice] >= math.pi

    # A lone photon clicks exactly one detector whatever the phase and the
    # bits, and dark counts alone click by their pattern.  Only rounds with
    # two photons or more, a dark count beside a photon, or a (nu, nu) round
    # in the slice (its parity reads the bits and the detector) are split.
    split = (arrived > 1) | _DARK_BESIDE_PHOTON[pat]
    split[slice_rounds] = True
    idx = np.flatnonzero(split)
    others = idx[cls[idx] != _NU_NU]
    theta[others] = rng.random(others.shape[0]) * two_pi
    # differing encoded bits shift the relative phase by pi
    flip = rng.integers(0, 2, size=idx.shape[0], dtype=bool)
    p_left = np.clip(
        0.5 + np.where(flip, -1.0, 1.0) * run.visibility[cls[idx]] * np.cos(theta[idx]), 0.0, 1.0
    )
    left = _split(rng, arrived[idx], p_left)
    click_right = (arrived[idx] - left > 0) | _DARK_R[pat[idx]]
    split_success = ((left > 0) | _DARK_L[pat[idx]]) ^ click_right

    success = _UNSPLIT_SUCCESS[pat]
    success[idx] = split_success
    clicks = np.bincount(cls[success], minlength=16)
    pool_o = np.flatnonzero(success & _POOL_O[cls])
    pool_mu = np.flatnonzero(success & _POOL_MU[cls])

    # the slice rounds among the split ones; a kept event's parity folds in
    # the bits, the arm and the detector that clicked
    at = np.searchsorted(idx, slice_rounds)
    kept = split_success[at]
    x_rounds = slice_rounds[kept]
    u = flip[at][kept] ^ arm[kept] ^ click_right[at][kept]

    # Photon tags (Poisson splitting of arrived and lost photons) only where
    # a tally field reads them: the mu pool, the X events and the classes of
    # the single-photon ground truth, which counts every round of the class.
    # A silent round's photons were all lost, so its tag is Poisson((1 - eta) k).
    tagged = _SINGLE_CLASS[cls]
    tagged[pool_mu] = True
    tagged[x_rounds] = True
    t = np.flatnonzero(tagged)
    ct = cls[t]
    surv_a = _split(rng, arrived[t], run.share_a[ct])
    n_a = np.zeros(c, dtype=np.int64)
    n_b = np.zeros(c, dtype=np.int64)
    n_a[t] = surv_a + rng.poisson(run.lost_a[ct])
    n_b[t] = arrived[t] - surv_a + rng.poisson(run.lost_b[ct])
    o_mu_single = (ct == _O_MU) & (n_b[t] == 1)
    mu_o_single = (ct == _MU_O) & (n_a[t] == 1)
    silent_single = rng.binomial(silent[[_O_MU, _MU_O]], run.silent_single_probs)

    cap = np.iinfo(np.uint8).max
    return MonteCarloTally(
        n_rounds=n,
        seed=int(seed),
        e_d_z=params.e_d_z,
        clicks=dict(zip(_CLASS_LABELS, clicks.tolist())),
        z_o_bob_mu=cls[pool_o] == _O_MU,
        z_o_nb=np.minimum(n_b[pool_o], cap).astype(np.uint8),
        z_mu_bob_mu=cls[pool_mu] == _MU_MU,
        z_mu_na=np.minimum(n_a[pool_mu], cap).astype(np.uint8),
        x_u=u,
        x_tag10=(n_a[x_rounds] == 1) & (n_b[x_rounds] == 0),
        x_tag01=(n_a[x_rounds] == 0) & (n_b[x_rounds] == 1),
        o_mu_single_rounds=int(o_mu_single.sum() + silent_single[0]),
        o_mu_single_clicks=int((o_mu_single & success[t]).sum()),
        mu_o_single_rounds=int(mu_o_single.sum() + silent_single[1]),
        mu_o_single_clicks=int((mu_o_single & success[t]).sum()),
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

    def shard(job: tuple[int, int]) -> MonteCarloTally:
        return _simulate_shard(run, job[1], seed, job[0])

    if workers == 1:
        return _merge_shards(map(shard, jobs), n_rounds, seed, params.e_d_z)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _merge_shards(pool.map(shard, jobs), n_rounds, seed, params.e_d_z)


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
    """simulate_rounds plus both matching passes."""
    tally = simulate_rounds(a, b, geom, params, n_rounds, seed, threads=threads)
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
