"""Threshold search, optimal batch size, and sweep grids.

Pre-build bisection oracle (802.11b @ 11 Mbps, package defaults,
800-bit deterministic payloads): lambda*(5) = 1405.786 pps, bracketed by
G(5, 1400) = +58.3 us and G(5, 1410) = -44.2 us.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from aggdelay import solver

from aggdelay import (
    PKForm,
    QueueMetrics,
    SearchParams,
    ThresholdResult,
    TrafficSpec,
    evaluate,
    gain,
    gain_grid,
    k1_stability_limit,
    lambda_threshold,
    lambda_thresholds,
    optimal_k,
    system_time,
)
from aggdelay.cli import parse_run_config
from aggdelay.presets import PRESETS, preset
from conftest import custom_profile

LAMBDA_STAR_5 = 1405.7862573980005


def test_lambda_threshold_k5_matches_bisection_oracle(phy_b11, det800):
    result = lambda_threshold(5, phy_b11, det800)
    assert result.converged
    assert result.note == ""
    assert result.lambda_star == pytest.approx(LAMBDA_STAR_5, rel=1e-4)
    low, high = result.bracket
    assert gain(5, low, phy_b11, det800) > 0.0
    assert gain(5, high, phy_b11, det800) <= 0.0
    assert high - low <= 1e-6 * high
    assert result.iterations <= 200


def test_lambda_threshold_grows_with_k(phy_b11, det800):
    t2 = lambda_threshold(2, phy_b11, det800)
    t10 = lambda_threshold(10, phy_b11, det800)
    assert t2.converged and t10.converged
    assert t2.lambda_star < t10.lambda_star


def test_lambda_threshold_already_negative_at_min(phy_b11, det800):
    result = lambda_threshold(
        5, phy_b11, det800, search=SearchParams(lambda_min=1500.0)
    )
    assert result.converged
    assert result.lambda_star == 1500.0
    assert result.bracket == (1500.0, 1500.0)
    assert result.note != ""


def test_lambda_threshold_no_sign_change(phy_b11, det800):
    result = lambda_threshold(
        5, phy_b11, det800, search=SearchParams(lambda_min=1.0, lambda_max=100.0)
    )
    assert not result.converged
    assert math.isnan(result.lambda_star)


def test_lambda_threshold_domain_errors(phy_b11, det800):
    with pytest.raises(ValueError):
        lambda_threshold(1, phy_b11, det800)
    with pytest.raises(ValueError):
        SearchParams(lambda_min=0.0)
    with pytest.raises(ValueError):
        SearchParams(lambda_min=10.0, lambda_max=5.0)
    with pytest.raises(ValueError):
        SearchParams(rel_tol=0.0)
    # stability limit below lambda_min -> empty effective range
    with pytest.raises(ValueError):
        lambda_threshold(
            5, phy_b11, det800, search=SearchParams(lambda_min=5000.0)
        )


def test_threshold_respects_custom_tolerance(phy_b11, det800):
    tight = lambda_threshold(
        5, phy_b11, det800, search=SearchParams(rel_tol=1e-9)
    )
    low, high = tight.bracket
    assert tight.converged
    assert high - low <= 1e-9 * high
    assert tight.lambda_star == pytest.approx(LAMBDA_STAR_5, rel=1e-7)


def test_optimal_k_low_load_prefers_no_aggregation(phy_b11, det800):
    k_best, metrics = optimal_k(50.0, phy_b11, det800, k_max=10)
    assert k_best == 1
    assert metrics.k == 1
    assert metrics.gain == 0.0
    assert metrics.stable


def test_optimal_k_high_load_prefers_aggregation(phy_b11, det800):
    k_best, metrics = optimal_k(1500.0, phy_b11, det800, k_max=10)
    assert k_best >= 2
    assert metrics.stable
    assert system_time(5, 1500.0, phy_b11, det800) < system_time(
        1, 1500.0, phy_b11, det800
    )
    # exhaustive scan oracle
    finite = {
        k: system_time(k, 1500.0, phy_b11, det800)
        for k in range(1, 11)
        if math.isfinite(system_time(k, 1500.0, phy_b11, det800))
    }
    assert k_best == min(finite, key=finite.get)


def test_optimal_k_all_unstable_flags(phy_b11, det800):
    k_best, metrics = optimal_k(10_000.0, phy_b11, det800, k_max=3)
    assert k_best == 3
    assert not metrics.stable
    assert metrics.system_time == math.inf


def test_optimal_k_domain_error(phy_b11, det800):
    with pytest.raises(ValueError):
        optimal_k(100.0, phy_b11, det800, k_max=0)


def test_optimal_k_matches_bruteforce_on_random_configs():
    rng = random.Random(515)
    for _ in range(60):
        phy = custom_profile(
            bit_rate=rng.uniform(1e6, 6e7),
            slot=rng.uniform(5e-6, 3e-5),
            cw=rng.randint(0, 64),
        )
        traffic = TrafficSpec.deterministic(
            rng.uniform(10.0, 4000.0), rng.uniform(100.0, 8000.0)
        )
        k_max = rng.randint(1, 20)
        lam = traffic.lambda_total
        k_best, metrics = optimal_k(lam, phy, traffic, k_max=k_max)
        brute = None
        for k in range(1, k_max + 1):
            f = system_time(k, lam, phy, traffic)
            if math.isfinite(f) and (brute is None or f < brute[1]):
                brute = (k, f)
        if brute is None:
            assert k_best == k_max and not metrics.stable
        else:
            assert k_best == brute[0]
            assert metrics.system_time == brute[1]


def _per_k_threshold(k, phy, traffic, form, search=SearchParams()):
    """One k solved alone, moments and a three-point kernel check of its own: the
    algorithm ``lambda_threshold`` ran before thresholds were checked in batches."""
    m = solver._moments(phy, traffic)
    (s_k, v_k), (s_1, v_1) = solver._service(k, m), solver._service(1, m)
    lam_min, lam_max = search.lambda_min, search.lambda_max
    if lam_max is None:
        lam_max = 0.999 * (1.0 / s_1)
    v_k, v_1 = (v_k, v_1) if form is PKForm.GENERAL_PK else (0.0, 0.0)
    coeffs = solver._break_even_cubic(k, s_k, s_k * s_k + v_k, s_1, s_1 * s_1 + v_1)
    limit = min(k / s_k, 1.0 / s_1)
    roots = [x for x in solver._positive_roots(*coeffs) if lam_min < x < limit and x <= lam_max]
    root, steps = solver._polish(coeffs, min(roots)) if roots else (math.nan, 0)
    low, high = root * (1.0 - 0.25 * search.rel_tol), root * (1.0 + 0.25 * search.rel_tol)
    g = solver._chain(np.float64(k), np.array([lam_min, low, high]), m, form).gain.tolist()
    if g[0] <= 0.0:
        note = "gain already non-positive at lambda_min"
        return ThresholdResult(k, lam_min, (lam_min, lam_min), 0, True, note)
    if not roots:
        note = "no sign change within the search range"
        return ThresholdResult(k, math.nan, (lam_min, lam_max), 0, False, note)
    converged = g[1] > 0.0 >= g[2]
    note = "" if converged else "gain does not change sign across the cubic root"
    return ThresholdResult(k, root if converged else math.nan, (low, high), steps, converged, note)


def _assert_batched_equals_per_k(ks, phy, traffic, form, search=SearchParams()):
    got = lambda_thresholds(ks, phy, traffic, form, search)
    want = [_per_k_threshold(k, phy, traffic, form, search) for k in ks]
    assert [repr(r) for r in got] == [repr(r) for r in want]
    return got


FIG_PRESETS = sorted(name for name in PRESETS if name.startswith(("fig4-", "fig5-")))
DENSE_KS = (*range(2, 21, 3), *range(30, 151, 20))


@pytest.mark.parametrize("name", FIG_PRESETS)
@pytest.mark.parametrize("form", list(PKForm))
def test_batched_thresholds_equal_the_per_k_solve_on_every_figure_preset(name, form):
    rc = parse_run_config(preset(name))
    assert len(FIG_PRESETS) == 12 and rc.k_values == tuple(range(2, 21))
    for traffic in (rc.traffic, TrafficSpec.exponential(100.0, 800.0)):
        for ks in (rc.k_values, DENSE_KS):
            results = _assert_batched_equals_per_k(ks, rc.phy, traffic, form)
            assert all(r.converged for r in results[:19])


def test_batched_thresholds_cover_every_note_like_the_per_k_solve(phy_b11, det800, exp800):
    non_positive = "gain already non-positive at lambda_min"
    no_root = "no sign change within the search range"
    cases = [  # (k values, search, the notes of their results)
        ((2, 5, 20), SearchParams(lambda_min=1500.0), {non_positive, ""}),
        ((5, 10**9), SearchParams(), {no_root, ""}),  # a huge k: no root below mu(1)
        ((2, 5, 20), SearchParams(lambda_max=100.0), {no_root}),  # lambda_max below every root
        ((2, 5, 20), SearchParams(lambda_max=1500.0, rel_tol=0.5), {no_root, ""}),
    ]
    for ks, search, notes in cases:
        for traffic, form in ((det800, PKForm.DETERMINISTIC_SERVICE), (exp800, PKForm.GENERAL_PK)):
            results = _assert_batched_equals_per_k(ks, phy_b11, traffic, form, search)
            assert {r.note for r in results} == notes
    huge = lambda_thresholds((10**9,), phy_b11, det800)[0]
    assert not huge.converged and math.isnan(huge.lambda_star)
    cut = lambda_thresholds((5,), phy_b11, det800, search=SearchParams(lambda_max=100.0))[0]
    assert cut.bracket == (1.0, 100.0) and not cut.converged


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
def test_batched_thresholds_check_in_chunks_across_boundaries(monkeypatch, phy_b11, exp800, chunk):
    ks = (2, 5, 3, 2, 40, 10**9, 7, 20, 4, 150, 9)
    search = SearchParams(lambda_min=1200.0, lambda_max=1300.0)
    want = [_per_k_threshold(k, phy_b11, exp800, PKForm.GENERAL_PK, search) for k in ks]
    assert len({r.note for r in want}) == 3  # converged, non-positive at lambda_min, no root
    shapes, chain = [], solver._chain

    def recording_chain(k, lam, *args):
        shapes.append(lam.shape)
        return chain(k, lam, *args)

    monkeypatch.setattr(solver, "OPTIMAL_K_CHUNK", chunk)
    monkeypatch.setattr(solver, "_chain", recording_chain)
    got = lambda_thresholds(ks, phy_b11, exp800, PKForm.GENERAL_PK, search)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    sizes = [len(ks[i:i + chunk]) for i in range(0, len(ks), chunk)]
    assert shapes == [(n, 3) for n in sizes]


def test_lambda_thresholds_takes_any_iterable_and_rejects_a_bad_k(phy_b11, det800):
    assert lambda_thresholds((), phy_b11, det800) == []
    assert lambda_thresholds(iter([5]), phy_b11, det800) == [lambda_threshold(5, phy_b11, det800)]
    for bad in ([2, 1], [2, 3.0], [True]):
        with pytest.raises(ValueError, match="integer k >= 2"):
            lambda_thresholds(bad, phy_b11, det800)


def _whole_array_optimal_k(lam, phy, traffic, form, k_max):
    """optimal_k as one kernel call over all of 1..k_max (the unchunked reference)."""
    values = solver._chain(np.arange(1.0, k_max + 1.0), np.float64(lam),
                           solver._moments(phy, traffic), form)
    total = values.system_time
    finite = np.isfinite(total)
    best = int(np.argmin(np.where(finite, total, np.inf))) if finite.any() else k_max - 1
    return best + 1, QueueMetrics(best + 1, float(lam), *(value[best].item() for value in values))


def test_chunked_optimal_k_equals_the_whole_array_argmin_on_random_profiles(monkeypatch):
    rng = random.Random(1313)
    monkeypatch.setattr(solver, "OPTIMAL_K_CHUNK", 7)
    for _ in range(80):
        phy = custom_profile(bit_rate=rng.uniform(1e6, 6e7), slot=rng.uniform(5e-6, 3e-5),
                             cw=rng.randint(0, 64))
        traffic = TrafficSpec.exponential(rng.uniform(10.0, 4000.0), rng.uniform(100.0, 8000.0))
        form = rng.choice(list(PKForm))
        k_max = rng.randint(1, 40)
        lam = traffic.lambda_total * rng.choice([1.0, 3.0, 30.0])
        expected = _whole_array_optimal_k(lam, phy, traffic, form, k_max)
        assert repr(optimal_k(lam, phy, traffic, form, k_max)) == repr(expected)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 64])
def test_chunked_optimal_k_keeps_ties_and_the_all_unstable_fallback(monkeypatch, chunk):
    """system_time drawn from a few values, ties and inf/NaN among them, so ties fall on
    both sides of chunk boundaries; the argmin must be the whole array's."""
    rng = random.Random(chunk)
    chain, phy, traffic = solver._chain, custom_profile(), TrafficSpec.deterministic(500.0, 800.0)
    monkeypatch.setattr(solver, "OPTIMAL_K_CHUNK", chunk)
    for _ in range(60):
        k_max = rng.randint(1, 24)
        levels = rng.choice([[1.0, 2.0, math.inf], [math.inf, math.nan], [3.0], [2.0, math.nan]])
        profile = np.array([rng.choice(levels) for _ in range(k_max)])
        monkeypatch.setattr(solver, "_chain", lambda k, *args: chain(k, *args)._replace(
            system_time=profile[k.astype(int) - 1]))
        got = optimal_k(500.0, phy, traffic, k_max=k_max)
        expected = _whole_array_optimal_k(500.0, phy, traffic, solver._DEFAULT_FORM, k_max)
        assert repr(got) == repr(expected)
        finite = [k for k in range(1, k_max + 1) if math.isfinite(profile[k - 1])]
        assert got[0] == (min(finite, key=lambda k: profile[k - 1]) if finite else k_max)


def test_optimal_k_memory_stays_bounded_at_large_k_max(phy_b11, det800):
    k_max = 3 * solver.OPTIMAL_K_CHUNK + 5
    assert optimal_k(800.0, phy_b11, det800, k_max=k_max) == _whole_array_optimal_k(
        800.0, phy_b11, det800, PKForm.DETERMINISTIC_SERVICE, k_max)
    tracemalloc.start()
    try:
        k_best, metrics = optimal_k(800.0, phy_b11, det800, k_max=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (k_best, metrics) == optimal_k(800.0, phy_b11, det800, k_max=20)
    assert peak < 8e6  # one chunk's columns; the whole array took about 160 MB


def test_gain_grid_row_major_order(phy_b11, det800):
    rows = gain_grid([2, 3], [100.0, 200.0, 300.0], phy_b11, det800)
    assert [(r.k, r.lam) for r in rows] == [
        (2, 100.0),
        (2, 200.0),
        (2, 300.0),
        (3, 100.0),
        (3, 200.0),
        (3, 300.0),
    ]


def test_gain_grid_k1_is_all_zero(phy_b11, det800):
    rows = gain_grid([1], [10.0, 500.0, 1500.0], phy_b11, det800)
    assert all(r.gain == 0.0 for r in rows)


def test_gain_grid_single_point_matches_direct_evaluation(phy_b11, det800):
    (row,) = gain_grid([4], [250.0], phy_b11, det800)
    m = evaluate(4, 250.0, phy_b11, det800)
    assert row.k == m.k
    assert row.lam == 250.0
    assert row.erlang_wait == m.erlang_wait
    assert row.service_mean == m.service_mean
    assert row.rho == m.rho
    assert row.queue_wait == m.queue_wait
    assert row.system_time == m.system_time
    assert row.gain == m.gain
    assert row.stable == m.stable


def test_every_chain_point_is_a_queue_metrics_record_with_its_rate(phy_b11, det800):
    assert evaluate(4, 250.0, phy_b11, det800).lam == 250.0
    assert optimal_k(1500.0, phy_b11, det800)[1].lam == 1500.0
    rows = gain_grid([1, 4], [250.0, 900.0], phy_b11, det800)
    assert all(type(row) is QueueMetrics for row in rows)


def test_gain_grid_is_a_sequence_that_equals_the_list_of_its_rows(phy_b11, det800):
    rows = gain_grid([1, 5], [250.0, 900.0, 2500.0], phy_b11, det800)
    listed = list(rows)
    assert len(rows) == 6 and rows == listed and listed == rows
    assert [rows[i] for i in range(-6, 6)] == listed * 2
    assert rows[1:5:2] == listed[1:5:2] and rows[::-1] == listed[::-1]
    assert rows[4] == evaluate(5, 900.0, phy_b11, det800)
    with pytest.raises(IndexError):
        rows[6]
    assert rows != listed[:-1] and rows != tuple(listed)


def test_gain_grid_keeps_unstable_rows(phy_b11, det800):
    rows = gain_grid([1, 5], [1500.0, 2500.0], phy_b11, det800)
    unstable = [r for r in rows if not r.stable]
    assert len(unstable) == 1  # k=1 at 2500 pps
    assert unstable[0].system_time == math.inf
    negative_inf = [r for r in rows if r.gain == -math.inf]
    assert len(negative_inf) == 1  # k=5 at 2500 pps


def test_gain_grid_is_pure(phy_b11, det800):
    a = gain_grid([2, 5], [100.0, 900.0], phy_b11, det800, PKForm.GENERAL_PK)
    b = gain_grid([2, 5], [100.0, 900.0], phy_b11, det800, PKForm.GENERAL_PK)
    assert a == b


def test_gain_grid_empty_inputs_rejected(phy_b11, det800):
    with pytest.raises(ValueError):
        gain_grid([], [100.0], phy_b11, det800)
    with pytest.raises(ValueError):
        gain_grid([2], [], phy_b11, det800)


def test_k1_stability_limit(phy_b11, det800):
    assert k1_stability_limit(phy_b11, det800) == pytest.approx(
        1635.930993456276, rel=1e-12
    )


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_search_params_reject_non_finite_bounds(bad):
    with pytest.raises(ValueError, match="finite"):
        SearchParams(lambda_min=bad)
    with pytest.raises(ValueError, match="finite"):
        SearchParams(lambda_max=bad)
