"""Tests for the round-level Monte Carlo simulator and its post-matching."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import binom, chi2_contingency, levene, poisson, ttest_ind

from conftest import (
    mc_asymmetric_config,
    mc_symmetric_config,
    mc_toy_config,
    within_three_se,
)
from tfkeyrate import event_simulator
from tfkeyrate.channel_model import (
    LinkGeometry,
    ObservedCounts,
    SourceSetting,
    expected_pair_counts,
    observed_statistics,
    single_photon_yields,
)
from tfkeyrate.event_simulator import (
    _CLASS_LABELS,
    _MU,
    _NU,
    _O,
    _POOL_FIELDS,
    MonteCarloTally,
    _stream,
    compare_with_analytics,
    oracle_tally,
    poisson_two_sided_tail,
    post_match_x,
    post_match_z,
    resolve_threads,
    simulate_rounds,
)
from tfkeyrate.cli import main
from tfkeyrate.keyrate_engine import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    InfeasibleDecoyError,
    estimate_e11_x,
    estimate_s11_x,
    evaluate_counts,
)


def _dense_shard(run, n, seed, shard_index):
    """Reference shard: every round draws its intensities, phases, bits,
    photon numbers, loss, detector split and dark counts."""
    a, b, geom, params = run.a, run.b, run.geom, run.params
    rng = _stream(seed, shard_index)
    eta_a, eta_b = geom.transmittances(params)
    two_pi = 2.0 * math.pi

    probs_a = np.array([a.p_mu, a.p_nu, a.p_o, a.p_ohat])
    probs_b = np.array([b.p_mu, b.p_nu, b.p_o, b.p_ohat])
    vals_a = np.array([a.mu, a.nu, 0.0, 0.0])
    vals_b = np.array([b.mu, b.nu, 0.0, 0.0])

    ia = np.searchsorted(np.cumsum(probs_a), rng.random(n), side="right")
    ib = np.searchsorted(np.cumsum(probs_b), rng.random(n), side="right")
    theta_a = rng.random(n) * two_pi
    theta_b = rng.random(n) * two_pi
    phi_ab = rng.random(n) * two_pi
    r_a = rng.integers(0, 2, size=n, dtype=np.int8)
    r_b = rng.integers(0, 2, size=n, dtype=np.int8)
    k_a = vals_a[ia]
    k_b = vals_b[ib]
    n_a = rng.poisson(k_a)
    n_b = rng.poisson(k_b)
    surv_a = rng.binomial(n_a, eta_a)
    surv_b = rng.binomial(n_b, eta_b)

    arrived = surv_a + surv_b
    mean_total = eta_a * k_a + eta_b * k_b
    omega = np.sqrt(eta_a * k_a * eta_b * k_b)
    theta = np.mod(theta_a - theta_b + phi_ab, two_pi)
    sign = 1.0 - 2.0 * np.logical_xor(r_a, r_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_left = np.where(
            mean_total > 0.0,
            0.5 + sign * (omega / mean_total) * np.cos(theta),
            0.5,
        )
    p_left = np.clip(p_left, 0.0, 1.0)
    arr_left = rng.binomial(arrived, p_left)
    arr_right = arrived - arr_left
    dark_left = rng.random(n) < params.p_d
    dark_right = rng.random(n) < params.p_d

    click_left = (arr_left > 0) | dark_left
    click_right = (arr_right > 0) | dark_right
    success = np.logical_xor(click_left, click_right)
    det_right = success & click_right

    flat = (ia * 4 + ib)[success]
    clicks = np.bincount(flat, minlength=16)

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

    o_mu_single = (ia == _O) & (ib == _MU) & (n_b == 1)
    mu_o_single = (ia == _MU) & (ib == _O) & (n_a == 1)

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
        x_u=u,
        x_tag10=(n_a[kept] == 1) & (n_b[kept] == 0),
        x_tag01=(n_a[kept] == 0) & (n_b[kept] == 1),
        o_mu_single_rounds=int(o_mu_single.sum()),
        o_mu_single_clicks=int((o_mu_single & success).sum()),
        mu_o_single_rounds=int(mu_o_single.sum()),
        mu_o_single_clicks=int((mu_o_single & success).sum()),
    )


def _count_fields(tally):
    summary = tally.summary()
    fields = {f"clicks[{k}]": v for k, v in summary.pop("clicks").items()}
    fields.update((k, v) for k, v in summary.items() if k not in ("n_rounds", "seed"))
    return fields


def _poisson_two_sided(observed, expected):
    if observed < expected:
        return 2.0 * poisson.cdf(observed, expected)
    return 2.0 * poisson.sf(observed - 1, expected)


# Each check below fails by chance with probability at most DIST_P_MIN;
# there are about 310 of them over the four links.
DIST_SEEDS = 30
DIST_P_MIN = 1e-5


def _dark_toy_config():
    """The toy link with a dark count on either detector in about one round
    of 50: a dark count beside a photon, and clicks of the vacuum classes,
    come in the hundreds."""
    a, b, geom, params = mc_toy_config()
    return a, b, geom, dataclasses.replace(params, p_d=1e-2)


@pytest.mark.parametrize(
    "config, n_rounds",
    [
        (mc_symmetric_config, 300_000),
        (mc_asymmetric_config, 150_000),
        (mc_toy_config, 100_000),
        (_dark_toy_config, 100_000),
    ],
    ids=["symmetric", "asymmetric", "toy", "dark_toy"],
)
def test_sparse_shard_matches_the_dense_reference_in_distribution(monkeypatch, config, n_rounds):
    a, b, geom, params = config()

    def tallies(first_seed):
        seeds = range(first_seed, first_seed + DIST_SEEDS)
        return [oracle_tally(a, b, geom, params, n_rounds, seed) for seed in seeds]

    sparse = tallies(0)
    with monkeypatch.context() as patch:
        patch.setattr(event_simulator, "_simulate_shard", _dense_shard)
        # disjoint seeds: both constructions read the same Philox streams
        dense = tallies(1000)

    sparse_fields = [_count_fields(t) for t in sparse]
    dense_fields = [_count_fields(t) for t in dense]
    for name in sparse_fields[0]:
        x = np.array([f[name] for f in sparse_fields], dtype=float)
        y = np.array([f[name] for f in dense_fields], dtype=float)
        if np.ptp(x) == 0.0 and np.ptp(y) == 0.0:
            assert x[0] == y[0], name
            continue
        assert ttest_ind(x, y, equal_var=False).pvalue > DIST_P_MIN, f"{name} mean"
        assert levene(x, y, center="median").pvalue > DIST_P_MIN, f"{name} variance"

    # pooled over the seeds, the sparse counts follow the analytics
    for per_seed in zip(*(compare_with_analytics(t, a, b, geom, params) for t in sparse)):
        units = 2.0 if per_seed[0].name == "m_x" else 1.0
        observed = sum(r.observed for r in per_seed) / units
        expected = DIST_SEEDS * per_seed[0].expected / units
        assert _poisson_two_sided(observed, expected) > DIST_P_MIN, (
            f"{per_seed[0].name}: {observed} vs {expected:.6g}"
        )


def test_x_pairing_mixes_dark_and_photon_events():
    # With dark counts about as common as photon clicks, greedy X pairing
    # sees the event order: pairing dark-only events among themselves would
    # lower m_x below the analytic expectation.
    a, b, geom, params = mc_toy_config()
    dark = dataclasses.replace(params, p_d=0.03)
    tally = oracle_tally(a, b, geom, dark, n_rounds=6_000_000, seed=20260814, threads=2)
    rows = {r.name: r for r in compare_with_analytics(tally, a, b, geom, dark)}
    assert tally.m_x > 200
    assert _poisson_two_sided(rows["m_x"].observed / 2.0, rows["m_x"].expected / 2.0) > DIST_P_MIN


def test_clicks_follow_the_analytics_where_dark_counts_are_common():
    # Only dark counts click the four vacuum classes, whose declared-vacuum
    # total x_oo_d feeds the yield bounds and s0mub.  In the lit classes a
    # dark count falls beside a photon in about one round of 50; such a
    # round clicks once only when both land on the same side.
    a, b, geom, params = _dark_toy_config()
    n_rounds = 10_000_000
    observed = oracle_tally(a, b, geom, params, n_rounds, seed=20260814).observed_counts()
    expected = observed_statistics(a, b, geom, dataclasses.replace(params, N=float(n_rounds)))
    for label in _CLASS_LABELS:
        assert expected.x[label] > 500.0, label
        assert _poisson_two_sided(observed.x[label], expected.x[label]) > DIST_P_MIN, label
    assert _poisson_two_sided(sum(observed.x.values()), sum(expected.x.values())) > DIST_P_MIN
    assert _poisson_two_sided(observed.x_oo_d, expected.x_oo_d) > DIST_P_MIN


@pytest.fixture(scope="module")
def toy_tally():
    a, b, geom, params = mc_toy_config()
    return oracle_tally(a, b, geom, params, n_rounds=500_000, seed=20260814)


def test_identical_seed_and_config_reproduce_the_tally():
    a, b, geom, params = mc_toy_config()
    first = oracle_tally(a, b, geom, params, n_rounds=200_000, seed=7)
    second = oracle_tally(a, b, geom, params, n_rounds=200_000, seed=7)
    assert first.summary() == second.summary()
    other = oracle_tally(a, b, geom, params, n_rounds=200_000, seed=8)
    assert other.summary() != first.summary()


def test_thread_count_does_not_change_the_tally():
    a, b, geom, params = mc_toy_config()
    serial = oracle_tally(a, b, geom, params, n_rounds=1_200_000, seed=5, threads=1)
    threaded = oracle_tally(a, b, geom, params, n_rounds=1_200_000, seed=5, threads=3)
    assert serial.summary() == threaded.summary()


def test_simulation_needs_a_round_and_runs_on_one(tmp_path):
    a, b, geom, params = mc_toy_config()
    with pytest.raises(ValueError, match="n_rounds"):
        simulate_rounds(a, b, geom, params, 0, seed=1)
    for seed in range(20):
        tally = oracle_tally(a, b, geom, params, 1, seed)
        assert tally.n_rounds == 1
        assert sum(tally.clicks.values()) <= 1
        assert tally.n_x <= 1 and tally.n_z == 0
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "montecarlo_toy.json")
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["montecarlo"]["rounds"] = 1
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("mu", [0.3, 40.0, 700.0])
def test_arrival_table_is_the_zero_truncated_poisson_law(mu):
    # The shard draws arrivals by inverting this table, so it must hold the
    # whole Poisson(M) law given >= 1 photon, up to the brightest class.
    _, _, geom, params = mc_toy_config()
    a = SourceSetting(mu, 0.04, 0.30, 0.25, 0.40, 0.05)
    b = SourceSetting(0.25, 0.08, 0.28, 0.22, 0.44, 0.06)
    run = event_simulator._run_constants(a, b, geom, params)
    cdf = run.arrival_cdf.reshape(16, run.arrival_len) - np.arange(16)[:, None]
    eta_a, eta_b = geom.transmittances(params)
    means = np.add.outer(eta_a * np.array([a.mu, a.nu, 0, 0]), eta_b * np.array([b.mu, b.nu, 0, 0])).ravel()
    k = np.arange(1, run.arrival_len + 1)
    for c, m in enumerate(means):
        if m == 0.0:
            assert np.all(cdf[c] == 1.0)
            continue
        exact = (poisson.cdf(k, m) - poisson.pmf(0, m)) / poisson.sf(0, m)
        assert np.allclose(cdf[c], exact, rtol=1e-10, atol=1e-13), c
        assert cdf[c, -1] == 1.0 and poisson.sf(run.arrival_len, m) < 1e-25
        assert run.lone_probs[c] == pytest.approx(m * math.exp(-m) / -math.expm1(-m), rel=1e-10, abs=1e-300)


def test_bright_pulses_follow_the_analytics():
    # Tens of photons arrive per bright round, deep in the arrival table;
    # such a round clicks once only when every photon takes one side, which
    # depends on the phase.  With a 45 degree slice, a (nu, nu) round
    # outside it must draw its phase from outside it.
    _, _, geom, params = mc_toy_config()
    a = SourceSetting(6.0, 1.5, 0.30, 0.25, 0.40, 0.05)
    b = SourceSetting(4.0, 1.2, 0.28, 0.22, 0.44, 0.06)
    wide = dataclasses.replace(params, delta=math.pi / 4)
    n_rounds = 4_000_000
    observed = oracle_tally(a, b, geom, wide, n_rounds, seed=20260814).observed_counts()
    expected = observed_statistics(a, b, geom, dataclasses.replace(wide, N=float(n_rounds)))
    for label in _CLASS_LABELS:
        assert _poisson_two_sided(observed.x[label], expected.x[label]) > DIST_P_MIN, label
    assert expected.x[("mu", "mu")] > 100.0 and expected.x[("nu", "nu")] > 10_000.0
    assert _poisson_two_sided(observed.n_x, expected.n_x) > DIST_P_MIN


def test_single_photon_rounds_follow_the_emission_law():
    # o_mu_single_rounds counts the (o, mu) rounds in which the second user
    # emitted exactly one photon, clicked or not, lost or not: a binomial
    # count with chance p_o p_mu mu e^-mu per round.  Dark counts make some
    # of them per-round rows.
    a, b, geom, params = _dark_toy_config()
    n_rounds = 100_000_000
    tally = simulate_rounds(a, b, geom, params, n_rounds, seed=20260814)
    probs = np.outer([a.p_mu, a.p_nu, a.p_o, a.p_ohat], [b.p_mu, b.p_nu, b.p_o, b.p_ohat])
    probs /= probs.sum()
    for observed, p in (
        (tally.o_mu_single_rounds, probs[_O, _MU] * b.mu * math.exp(-b.mu)),
        (tally.mu_o_single_rounds, probs[_MU, _O] * a.mu * math.exp(-a.mu)),
    ):
        assert min(binom.cdf(observed, n_rounds, p), binom.sf(observed - 1, n_rounds, p)) > DIST_P_MIN / 2


def test_photon_tags_match_the_dense_reference():
    # At 10 % detector efficiency most photons are lost, and with bright
    # decoys in a 90 degree slice a 1e6-round shard holds tens of thousands
    # of X events and pool events: their photon tags, drawn per row or as
    # category counts, must follow the dense reference's.
    _, _, geom, params = mc_toy_config()
    a = SourceSetting(2.0, 1.0, 0.2, 0.6, 0.15, 0.05)
    lossy = dataclasses.replace(params, eta_d=0.1, delta=math.pi / 2)
    run = event_simulator._run_constants(a, a, geom, lossy)

    def tag_tables(shard, seeds):
        tallies = [shard(run, 1_000_000, seed, 0) for seed in seeds]
        x = np.concatenate([2 * t.x_tag10 + t.x_tag01 for t in tallies])
        pool_o = np.concatenate([3 * t.z_o_bob_mu + np.minimum(t.z_o_nb, 2) for t in tallies])
        pool_mu = np.concatenate([3 * t.z_mu_bob_mu + np.minimum(t.z_mu_na, 2) for t in tallies])
        return [np.bincount(v, minlength=6) for v in (x, pool_o, pool_mu)]

    sparse = tag_tables(event_simulator._simulate_shard, range(2))
    dense = tag_tables(_dense_shard, range(1000, 1002))
    for name, s, d in zip(("x", "pool_o", "pool_mu"), sparse, dense):
        table = np.array([s, d])
        table = table[:, table.sum(axis=0) >= 20]
        assert table.sum() > 10_000 and table.shape[1] >= 2, name
        assert chi2_contingency(table).pvalue > DIST_P_MIN, (name, table)


def test_merge_and_match_chunks_do_not_change_the_tally(monkeypatch):
    a, b, geom, params = mc_toy_config()
    whole = oracle_tally(a, b, geom, params, 2_500_000, seed=13)
    monkeypatch.setattr(event_simulator, "_MERGE_SHARDS", 1)
    monkeypatch.setattr(event_simulator, "_Z_MATCH_CHUNK", 1000)
    chunked = oracle_tally(a, b, geom, params, 2_500_000, seed=13)
    assert chunked.n_z > 10 * 1000
    assert chunked.summary() == whole.summary()
    for name in _POOL_FIELDS:
        x, y = getattr(whole, name), getattr(chunked, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def _sized_shard_link():
    """The symmetric Monte Carlo link on 20 km arms: a base shard expects
    about 8,490 per-round rows, so sized shards hold 4 base shards."""
    a, b, _, params = mc_symmetric_config()
    return a, b, LinkGeometry(20.0, 20.0), params


def test_sized_shards_match_base_size_shards_in_distribution(monkeypatch):
    a, b, geom, params = _sized_shard_link()
    rows = event_simulator._run_constants(a, b, geom, params).rows_per_shard
    assert 2 * rows < event_simulator.TARGET_ROWS <= 4 * rows
    n_rounds = 2 * 4 * event_simulator.SHARD_ROUNDS + 1

    def tallies(first_seed):
        seeds = range(first_seed, first_seed + DIST_SEEDS)
        return [oracle_tally(a, b, geom, params, n_rounds, seed) for seed in seeds]

    sized = tallies(0)
    with monkeypatch.context() as patch:
        patch.setattr(event_simulator, "TARGET_ROWS", 0)
        base = tallies(1000)

    sized_fields = [_count_fields(t) for t in sized]
    base_fields = [_count_fields(t) for t in base]
    for name in sized_fields[0]:
        x = np.array([f[name] for f in sized_fields], dtype=float)
        y = np.array([f[name] for f in base_fields], dtype=float)
        if np.ptp(x) == 0.0 and np.ptp(y) == 0.0:
            assert x[0] == y[0], name
            continue
        assert ttest_ind(x, y, equal_var=False).pvalue > DIST_P_MIN, f"{name} mean"
        assert levene(x, y, center="median").pvalue > DIST_P_MIN, f"{name} variance"

    for per_seed in zip(*(compare_with_analytics(t, a, b, geom, params) for t in sized)):
        units = 2.0 if per_seed[0].name == "m_x" else 1.0
        observed = sum(r.observed for r in per_seed) / units
        expected = DIST_SEEDS * per_seed[0].expected / units
        assert _poisson_two_sided(observed, expected) > DIST_P_MIN, (
            f"{per_seed[0].name}: {observed} vs {expected:.6g}"
        )


def test_vacuum_only_sources_without_darks_never_click():
    vac = SourceSetting(0.4, 0.1, 0.0, 0.0, 1.0, 0.0)
    _, _, geom, params = mc_toy_config()
    silent = dataclasses.replace(params, p_d=0.0)
    tally = oracle_tally(vac, vac, geom, silent, n_rounds=50_000, seed=3)
    assert sum(tally.clicks.values()) == 0
    assert tally.n_z == 0 and tally.z_discarded == 0
    assert tally.n_x == 0 and tally.x_pairs == 0 and tally.m_x == 0


def test_no_darks_and_no_misalignment_means_no_z_errors():
    a, b, geom, params = mc_toy_config()
    clean = dataclasses.replace(params, p_d=0.0, e_d_z=0.0)
    tally = oracle_tally(a, b, geom, clean, n_rounds=300_000, seed=9)
    assert tally.n_z > 0
    assert tally.m_z == 0


def test_post_matching_conserves_events(toy_tally):
    t = toy_tally
    pool_o = t.clicks[("o", "mu")] + t.clicks[("o", "o")]
    pool_mu = t.clicks[("mu", "mu")] + t.clicks[("mu", "o")]
    assert len(t.z_o_bob_mu) == pool_o
    assert len(t.z_mu_bob_mu) == pool_mu
    assert t.n_z + t.z_discarded == min(pool_o, pool_mu)
    assert len(t.x_u) == t.n_x
    assert t.x_pairs == t.n_x // 2
    assert t.m_x % 2 == 0
    assert t.m_x <= 2 * t.x_pairs
    assert 0 <= t.s11_z_true <= t.n_z
    assert 0 <= t.s0mub_true <= t.n_z
    assert 0 <= t.s11_x_true_pairs <= t.x_pairs


def test_oracle_matches_manual_post_matching():
    a, b, geom, params = mc_toy_config()
    raw = simulate_rounds(a, b, geom, params, 200_000, 7)
    z_matched = post_match_z(raw)
    manual = post_match_x(z_matched)
    assert raw.n_z is None and raw.m_x is None
    assert z_matched.n_z is not None and z_matched.m_x is None
    oracle = oracle_tally(a, b, geom, params, n_rounds=200_000, seed=7)
    assert oracle.summary() == manual.summary()


def test_click_tallies_track_analytics(toy_tally):
    a, b, geom, params = mc_toy_config()
    rows = compare_with_analytics(toy_tally, a, b, geom, params)
    names = [r.name for r in rows]
    assert len([n for n in names if n.startswith("gain[")]) == 16
    for short in ("n_z", "m_z", "n_x", "m_x"):
        assert short in names
    for row in rows:
        units = 2.0 if row.name == "m_x" else 1.0
        assert within_three_se(row.observed, row.expected, units), (
            f"{row.name}: observed {row.observed}, expected {row.expected}"
        )


def test_m_x_z_score_counts_two_events_per_error_pair(toy_tally):
    # m_x is twice a Poisson count of error pairs, so its variance is 2 exp.
    a, b, geom, params = mc_toy_config()
    row = {r.name: r for r in compare_with_analytics(toy_tally, a, b, geom, params)}["m_x"]
    assert row.observed == toy_tally.m_x
    assert row.z_score == (row.observed - row.expected) / math.sqrt(2.0 * row.expected)


def test_comparison_tails_are_exact_poisson_tails(toy_tally):
    a, b, geom, params = mc_toy_config()
    for row in compare_with_analytics(toy_tally, a, b, geom, params):
        units = 2.0 if row.name == "m_x" else 1.0
        exact = min(1.0, _poisson_two_sided(row.observed / units, row.expected / units))
        assert row.tail == pytest.approx(exact, rel=1e-9, abs=0.0), row.name
    # one click where 0.035 are expected: z = 5.2, yet as likely as 7 %
    assert poisson_two_sided_tail(1, 0.035) == pytest.approx(2.0 * -math.expm1(-0.035), rel=1e-12)
    assert poisson_two_sided_tail(0, 0.0) == 1.0
    assert poisson_two_sided_tail(1, 0.0) == 0.0


def test_tagged_z_yield_matches_singles_product():
    # The matched single-photon pair count should follow z01 * z10 / pool.
    a, b, geom, params = mc_symmetric_config()
    n_rounds = 2_000_000
    tally = oracle_tally(a, b, geom, params, n_rounds=n_rounds, seed=20260814, threads=2)
    scaled = dataclasses.replace(params, N=float(n_rounds))
    counts = expected_pair_counts(a, b, geom, scaled)
    y10_true, y01_true = single_photon_yields(geom, params)
    z01 = n_rounds * a.p_o * b.p_mu * b.mu * math.exp(-b.mu) * y01_true
    z10 = n_rounds * a.p_mu * b.p_o * a.mu * math.exp(-a.mu) * y10_true
    pool_o = counts.x[("o", "mu")] + counts.x[("o", "o")]
    pool_mu = counts.x[("mu", "mu")] + counts.x[("mu", "o")]
    expected = z01 * z10 / max(pool_o, pool_mu)
    assert expected > 50.0
    assert within_three_se(tally.s11_z_true, expected)


def test_tagged_x_pairs_stay_within_phase_error_bound():
    a, b, geom, params = mc_toy_config()
    n_rounds = 1_200_000
    tally = oracle_tally(a, b, geom, params, n_rounds=n_rounds, seed=20260814, threads=2)
    # An odd click count leaves the trailing event unmatched.
    matched = 2 * tally.x_pairs
    u = tally.x_u[:matched]
    tag10 = tally.x_tag10[:matched]
    tag01 = tally.x_tag01[:matched]
    u1, u2 = u[0::2], u[1::2]
    tag10_1, tag10_2 = tag10[0::2], tag10[1::2]
    tag01_1, tag01_2 = tag01[0::2], tag01[1::2]
    tagged = (tag10_1 & tag01_2) | (tag01_1 & tag10_2)
    assert int(tagged.sum()) == tally.s11_x_true_pairs
    assert tally.s11_x_true_pairs > 20
    errors = int((u1[tagged] != u2[tagged]).sum())
    scaled = dataclasses.replace(params, N=float(n_rounds))
    counts = observed_statistics(a, b, geom, scaled)
    _, e11_upper = estimate_e11_x(counts, a, b, geom, scaled, mode=MODE_ASYMPTOTIC)
    cap = min(e11_upper, 0.5)
    assert errors <= binom.ppf(0.99865, tally.s11_x_true_pairs, cap)


def test_summary_and_json_round_trip(toy_tally):
    summary = toy_tally.summary()
    assert json.loads(json.dumps(summary)) == summary
    assert summary["n_rounds"] == 500_000
    assert summary["clicks"]["mu,mu"] == toy_tally.clicks[("mu", "mu")]
    assert summary["n_z"] == toy_tally.n_z


def test_observed_counts_match_the_hand_built_counts(toy_tally):
    t = toy_tally
    hand_built = ObservedCounts(
        x={k: float(v) for k, v in t.clicks.items()},
        x_oo_d=float(t.clicks[("ohat", "ohat")] + t.clicks[("ohat", "o")] + t.clicks[("o", "ohat")]),
        n_z=float(t.n_z),
        m_z=float(t.m_z),
        E_z=t.m_z / t.n_z,
        n_x=float(t.n_x),
        m_x=float(t.m_x),
    )
    assert t.observed_counts() == hand_built


def test_simulated_counts_run_the_shared_estimation_path(toy_tally, tmp_path):
    # toy_tally is the montecarlo command's tally for this config and seed
    a, b, geom, params = mc_toy_config()
    scaled = dataclasses.replace(params, N=float(toy_tally.n_rounds))
    ev = evaluate_counts(toy_tally.observed_counts(), a, b, geom, scaled, MODE_FINITE)
    assert len(set(ev.chernoff_applications)) == len(ev.chernoff_applications) == 13

    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "montecarlo_toy.json")
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["montecarlo"] = {"rounds": toy_tally.n_rounds, "seed": toy_tally.seed}
    cfg, out = tmp_path / "mc.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert report["tally"] == toy_tally.summary()
    bounds = report["decoy_bounds"]
    dec = ev.decoy
    for key, value in (
        ("y01_lower", dec.y01_lower),
        ("y10_lower", dec.y10_lower),
        ("s11_z_lower", dec.s11_z_lower),
        ("s11_x_lower", dec.s11_x_lower),
        ("s0mub_lower", dec.s0mub_z_lower),
    ):
        assert bounds[key] == float(f"{value:.12g}"), key


def test_a_tally_without_z_pairs_yields_no_key(toy_tally):
    a, b, geom, params = mc_toy_config()
    empty = dataclasses.replace(toy_tally, n_z=0, m_z=0)
    counts = empty.observed_counts()
    assert counts.E_z == 0.0
    scaled = dataclasses.replace(params, N=float(toy_tally.n_rounds))
    with pytest.raises(InfeasibleDecoyError, match="without Z-basis pairs"):
        evaluate_counts(counts, a, b, geom, scaled)


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("TFKEYRATE_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(4) == 4
    monkeypatch.setenv("TFKEYRATE_THREADS", "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2
    monkeypatch.setenv("TFKEYRATE_THREADS", "junk")
    with pytest.raises(ValueError):
        resolve_threads(None)
    # Nonpositive requests are clamped rather than rejected.
    assert resolve_threads(0) == 1
    assert resolve_threads(-2) == 1
