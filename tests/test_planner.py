"""Tests for slice-width polish, link optimization, scans, and network evaluation."""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import (
    NODE_KM,
    PLOB_RATES,
    RATES_SIGMA5,
    TP_SETTINGS_SIGMA5,
    oriented_pair,
    reference_params,
)
from tfkeyrate import planner
from tfkeyrate.channel_model import LinkGeometry
from tfkeyrate.diagnostics import plob_bound
from tfkeyrate.keyrate_engine import InfeasibleDecoyError, evaluate_link
from tfkeyrate.planner import (
    ChannelShape,
    NetworkNode,
    NetworkScenario,
    distance_scan,
    evaluate_network,
    optimize_link,
    polish_delta,
)


def _reference_link():
    near, far, near_set, far_set, geom = oriented_pair("A", "C", TP_SETTINGS_SIGMA5)
    return near_set, far_set, geom, reference_params(1e11)


def test_channel_shape_geometry_and_validation():
    sym = ChannelShape("symmetric")
    geom = sym.geometry(300.0)
    assert geom.l_a == geom.l_b == 150.0

    asym = ChannelShape("asymmetric", offset_km=80.0)
    geom = asym.geometry(300.0)
    assert geom.l_a == 110.0
    assert geom.l_b == 190.0
    assert geom.l_a + geom.l_b == 300.0

    with pytest.raises(ValueError):
        ChannelShape("staircase")
    with pytest.raises(ValueError):
        ChannelShape("symmetric", offset_km=10.0)
    with pytest.raises(ValueError):
        ChannelShape("asymmetric", offset_km=-1.0)
    with pytest.raises(ValueError):
        asym.geometry(80.0)


def test_polish_counts_its_evaluations_and_makes_none_after_its_search(monkeypatch):
    # the winner's evaluation is the one made during the search, returned
    # as is, so polish evaluates no link after the scalar search ends
    import scipy.optimize

    events = []
    evaluate_link, minimize_scalar = planner.evaluate_link, scipy.optimize.minimize_scalar

    def counted_link(*args, **kwargs):
        events.append("link")
        return evaluate_link(*args, **kwargs)

    def marked_search(*args, **kwargs):
        res = minimize_scalar(*args, **kwargs)
        events.append("search done")
        return res

    monkeypatch.setattr(planner, "evaluate_link", counted_link)
    monkeypatch.setattr(scipy.optimize, "minimize_scalar", marked_search)
    a, b, geom, params = _reference_link()
    polished, rate, evaluation, n_evals = polish_delta(a, b, geom, params)
    assert events[-1] == "search done"
    assert events.count("link") == n_evals
    assert evaluation == evaluate_link(a, b, geom, polished)
    assert rate == evaluation.result.rate > 0.0


def test_polish_forms_the_pair_counts_once(monkeypatch):
    # only the slice width changes, so every width after the first feasible
    # one reuses its pair counts, Z totals and slice-free bounds
    from tfkeyrate import channel_model

    calls = []
    expected_pair_counts = channel_model.expected_pair_counts

    def counted(*args):
        calls.append(args)
        return expected_pair_counts(*args)

    monkeypatch.setattr(channel_model, "expected_pair_counts", counted)
    a, b, geom, params = _reference_link()
    _, _, evaluation, n_evals = polish_delta(a, b, geom, params)
    assert len(calls) == 1
    assert n_evals == 24
    assert evaluation.link[:3] == (a, b, geom)


def test_polish_of_a_link_failing_before_the_slice_forms_the_pair_counts_once(monkeypatch):
    # the yield bounds read no slice width: once they collapse, every later
    # width is rate 0 without forming the pair counts again
    from tfkeyrate import channel_model

    calls = []
    expected_pair_counts = channel_model.expected_pair_counts

    def counted(*args):
        calls.append(args)
        return expected_pair_counts(*args)

    monkeypatch.setattr(channel_model, "expected_pair_counts", counted)
    a, b, _, params = _reference_link()
    geom = LinkGeometry(250.0, 350.0)
    polished, rate, evaluation, n_evals = polish_delta(a, b, geom, params)
    assert len(calls) == 1
    assert (rate, evaluation, n_evals) == (0.0, None, 1)
    # all widths tie at rate 0, where the smallest grid width wins
    assert polished == replace(params, delta=planner._DELTA_GRID[0])
    with pytest.raises(InfeasibleDecoyError, match="yield bounds collapsed"):
        evaluate_link(a, b, geom, polished)


def test_polish_delta_reaches_reference_link_rate():
    a, b, geom, params = _reference_link()
    polished, rate, evaluation, n_evals = polish_delta(a, b, geom, params)

    published = RATES_SIGMA5[("A", "C")]
    assert abs(rate - published) / published < 0.10
    assert 0.0 < polished.delta < math.radians(25.0)
    assert polished.delta != params.delta
    assert evaluation is not None and evaluation.result.rate == rate
    assert n_evals > 0
    # the input snapshot is never mutated
    assert params.delta == math.radians(7.0)


def test_polish_delta_is_idempotent():
    a, b, geom, params = _reference_link()
    polished, rate, _, _ = polish_delta(a, b, geom, params)
    again, rate_again, _, _ = polish_delta(a, b, geom, polished)
    assert again.delta == polished.delta
    assert rate_again == rate


def test_optimize_link_delta_only_matches_polish():
    a, b, geom, params = _reference_link()
    _, rate, _, n_evals = polish_delta(a, b, geom, params)
    plan = optimize_link(geom, params, sides=(), initial=(a, b), n_starts=2, seed=1)
    assert plan.feasible
    assert plan.rate == pytest.approx(rate, rel=1e-12)
    assert plan.n_evaluations == n_evals
    assert (plan.a, plan.b) == (a, b)


def test_optimize_link_with_free_intensities_beats_polish():
    a, b, geom, params = _reference_link()
    _, polished_rate, _, _ = polish_delta(a, b, geom, params)
    plan = optimize_link(
        geom, params, sides=("b",), initial=(a, b), n_starts=2, seed=3, structured=False
    )
    assert plan.feasible
    assert plan.rate >= polished_rate
    assert plan.n_evaluations > 100
    assert plan.evaluation is not None
    assert plan.delta == plan.params.delta


def test_optimize_link_is_deterministic():
    a, b, geom, params = _reference_link()
    kwargs = dict(sides=("b",), initial=(a, b), n_starts=2, seed=3, structured=False)
    first = optimize_link(geom, params, **kwargs)
    second = optimize_link(geom, params, **kwargs)
    assert first.rate == second.rate
    assert first.a == second.a and first.b == second.b
    assert first.params == second.params
    assert first.n_evaluations == second.n_evaluations


def test_optimize_link_returns_a_frozen_side_exactly():
    a, b, geom, params = _reference_link()
    plan = optimize_link(geom, params, sides=("a",), initial=(a, b), n_starts=1, structured=False)
    assert plan.b == b
    assert plan.a != a


def test_optimize_link_rejects_unknown_sides():
    a, b, geom, params = _reference_link()
    with pytest.raises(ValueError, match="unknown sides"):
        optimize_link(geom, params, sides=("c",), initial=(a, b))


def test_network_anchors_free_only_unfrozen_sides(monkeypatch):
    params = reference_params(1e11)
    scn = NetworkScenario(
        tuple(NetworkNode(n, NODE_KM[n], TP_SETTINGS_SIGMA5[n]) for n in "ABCD"),
        (("A", "C"), ("C", "D")),
        params,
    )
    calls = []

    def tuned(s):
        return replace(s, mu=s.mu * 1.01)

    def fake_optimize_link(geom, params, sides, *, initial, **kwargs):
        calls.append((sides, initial))
        a, b = initial
        return SimpleNamespace(
            a=tuned(a) if "a" in sides else a, b=tuned(b) if "b" in sides else b
        )

    monkeypatch.setattr(planner, "optimize_link", fake_optimize_link)
    ev = evaluate_network(scn, seed=0, optimize_anchors=True, orientation="nearer_alice")

    settings = {n: TP_SETTINGS_SIGMA5[n] for n in "ABCD"}
    # the nearer node C takes the first role on both anchors
    assert calls == [
        (("a", "b"), (settings["C"], settings["A"])),
        (("b",), (tuned(settings["C"]), settings["D"])),
    ]
    # C is frozen by the first anchor; B is on no anchor and keeps its config
    assert ev.settings == {
        "A": tuned(settings["A"]),
        "B": settings["B"],
        "C": tuned(settings["C"]),
        "D": tuned(settings["D"]),
    }


def test_optimize_link_flags_infeasible_links():
    a, b, _, params = _reference_link()
    hopeless = LinkGeometry(400.0, 400.0)
    plan = optimize_link(hopeless, params, sides=(), initial=(a, b), n_starts=2, seed=1)
    assert not plan.feasible
    assert plan.rate == 0.0
    assert plan.evaluation is None


def test_distance_scan_columns_and_monotone_rates():
    params = reference_params(1e11)
    grid = (220.0, 260.0, 300.0)
    rows = distance_scan(
        params, ChannelShape("symmetric"), grid, seed=2, n_starts=2, warm_random_starts=1
    )

    assert tuple(row.total_km for row in rows) == grid
    for row in rows:
        assert row.plob == plob_bound(row.total_km, params.eta_d, params.alpha)
        assert 0.0 < row.rate_finite <= row.rate_asymptotic
        assert row.plan.feasible
        assert row.plan.geom.l_a == row.plan.geom.l_b == row.total_km / 2.0
    rates = [row.rate_finite for row in rows]
    assert rates == sorted(rates, reverse=True)


def test_distance_scan_rejects_unsorted_grid():
    params = reference_params(1e11)
    with pytest.raises(ValueError):
        distance_scan(params, ChannelShape("symmetric"), (300.0, 260.0), n_starts=1)


def test_scenario_validation():
    params = reference_params(1e11)
    setting = TP_SETTINGS_SIGMA5["A"]
    with pytest.raises(ValueError):
        NetworkNode("A", -5.0, setting)
    with pytest.raises(ValueError):
        NetworkScenario(
            (NetworkNode("A", 10.0, setting), NetworkNode("A", 20.0, setting)), (), params
        )
    with pytest.raises(ValueError):
        NetworkScenario(
            (NetworkNode("A", 10.0, setting), NetworkNode("B", 20.0, setting)),
            (("A", "Z"),),
            params,
        )


@pytest.mark.parametrize("distance_km", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_network_node_rejects_non_finite_distance(distance_km):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="finite"):
        NetworkNode("A", distance_km, TP_SETTINGS_SIGMA5["A"])
    assert time.perf_counter() - start < 1.0


def test_network_orientation_policies():
    params = reference_params(1e11)
    nodes_ac = (
        NetworkNode("A", 200.0, TP_SETTINGS_SIGMA5["A"]),
        NetworkNode("C", 120.0, TP_SETTINGS_SIGMA5["C"]),
    )
    nodes_ca = nodes_ac[::-1]

    def pair_rate(nodes, orientation):
        scn = NetworkScenario(nodes, (), params)
        ev = evaluate_network(scn, seed=0, optimize_anchors=False, orientation=orientation)
        assert len(ev.pairs) == 1
        return ev.pairs[0]

    # role assignment by distance makes the result independent of listing order
    near_first = pair_rate(nodes_ac, "nearer_alice")
    near_second = pair_rate(nodes_ca, "nearer_alice")
    assert near_first.rate == near_second.rate

    # "best" tries both roles, so it is order independent too and never worse
    best = pair_rate(nodes_ac, "best")
    assert best.rate == near_first.rate

    # "as_given" respects listing order, and the roles genuinely differ here
    as_listed = pair_rate(nodes_ac, "as_given")
    as_reversed = pair_rate(nodes_ca, "as_given")
    assert as_listed.rate != as_reversed.rate
    assert best.rate >= max(as_listed.rate, as_reversed.rate)

    with pytest.raises(ValueError):
        pair_rate(nodes_ac, "sideways")


def test_network_anchored_four_user_reference():
    """Frozen published settings reproduce every pairwise rate within 10%."""
    params = reference_params(1e11)
    scn = NetworkScenario(
        tuple(NetworkNode(n, NODE_KM[n], TP_SETTINGS_SIGMA5[n]) for n in "ABCD"),
        (),
        params,
    )
    ev = evaluate_network(scn, seed=0, optimize_anchors=False, orientation="nearer_alice")
    assert len(ev.pairs) == 6

    above_plob = []
    for pair in ev.pairs:
        key = (pair.node_a, pair.node_b)
        if key not in RATES_SIGMA5:
            key = (pair.node_b, pair.node_a)
        published = RATES_SIGMA5[key]
        assert abs(pair.rate - published) / published < 0.10
        assert pair.total_km == NODE_KM[pair.node_a] + NODE_KM[pair.node_b]
        assert pair.ratio == pair.rate / pair.plob
        if pair.rate > pair.plob:
            above_plob.append(frozenset(key))

    # five of the six links beat the repeaterless benchmark; C-D is too short
    # for the benchmark to be beatable at these settings
    assert len(above_plob) == 5
    assert frozenset(("C", "D")) not in above_plob
