"""Monte Carlo simulator: closed-form anchors, determinism, accounting.

Anchors re-derived by hand before implementation (802.11b @ 11 Mbps,
package-default overhead):

    constant service with CW=0:  s = gamma + 800/11e6 = 451.2727 us,
    load 0.5 at lambda = 1107.9774 pps, mean sojourn
    s + rho*s/(2*(1-rho)) = 676.9091 us;
    aggregated k=5 at 100 pps: mean buffer wait (k-1)/(2*lam) = 20 ms.

Statistical assertions run under fixed seeds and tolerances of several
standard errors, so they are deterministic, not flaky.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aggdelay import (
    PKForm,
    SimConfig,
    SimMode,
    TrafficSpec,
    backoff_moments,
    overhead_gamma,
    replications,
    simulate,
    system_time,
    validate_against_model,
)
import aggdelay.sim as sim_module
from conftest import custom_profile, emitted

MD1_SERVICE = 4.5127272727272735e-4
MD1_LAMBDA = 1107.9774375503623  # gives rho = 0.5
MD1_SOJOURN = 6.769090909090911e-4


def b11_cw0():
    return custom_profile(cw=0)


def test_standard_mode_matches_md1_closed_form():
    traffic = TrafficSpec.deterministic(MD1_LAMBDA, 800.0)
    config = SimConfig(
        mode=SimMode.STANDARD,
        phy=b11_cw0(),
        traffic=traffic,
        seed=101,
        num_frames=410_000,
        warmup_frames=10_000,
    )
    result = simulate(config)
    assert result.frames_measured == 400_000
    assert abs(result.sojourn_mean - MD1_SOJOURN) <= result.ci95_halfwidth
    # service is constant here, so its sample mean is exact
    assert result.service_mean == pytest.approx(MD1_SERVICE, rel=1e-12)
    assert result.buffer_wait_mean == 0.0


def test_aggregated_buffer_wait_matches_erlang_mean(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.AGGREGATED,
        phy=phy_b11,
        traffic=det800,
        seed=42,
        num_frames=200_000,
        warmup_frames=1_000,
        k=5,
    )
    result = simulate(config)
    assert abs(result.buffer_wait_mean - 0.02) <= result.buffer_wait_ci95


def test_degenerate_single_measured_frame(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.STANDARD,
        phy=phy_b11,
        traffic=det800,
        seed=3,
        num_frames=11,
        warmup_frames=10,
    )
    result = simulate(config)
    assert result.frames_measured == 1
    assert math.isfinite(result.sojourn_mean)
    assert math.isnan(result.sojourn_stddev)
    assert math.isnan(result.ci95_halfwidth)
    assert json.loads(emitted(result.to_dict()))["ci95_halfwidth_s"] == "nan"


def test_identical_seed_gives_bit_identical_results(phy_b11, exp800):
    config = SimConfig(
        mode=SimMode.AGGREGATED,
        phy=phy_b11,
        traffic=exp800,
        seed=777,
        num_frames=50_000,
        warmup_frames=500,
        k=3,
    )
    a, b = simulate(config), simulate(config)
    assert a == b
    assert emitted(a.to_dict()) == emitted(b.to_dict())
    c = simulate(replace(config, seed=778))
    assert c.sojourn_mean != a.sojourn_mean


def test_named_substreams_isolate_distributions(phy_b11):
    # Payload family changes must not perturb the arrival draws: the
    # buffer wait depends on arrivals only, so it must stay identical.
    base = dict(
        mode=SimMode.AGGREGATED, phy=phy_b11, seed=99, num_frames=30_000, k=5
    )
    det = simulate(SimConfig(traffic=TrafficSpec.deterministic(100.0, 800.0), **base))
    exp = simulate(SimConfig(traffic=TrafficSpec.exponential(100.0, 800.0), **base))
    assert det.buffer_wait_mean == exp.buffer_wait_mean
    assert det.service_mean != exp.service_mean


def test_frame_conservation(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.AGGREGATED,
        phy=phy_b11,
        traffic=det800,
        seed=5,
        num_frames=1_000,
        warmup_frames=100,
        k=7,
    )
    result = simulate(config)
    assert result.in_flight == 1_000 - (1_000 // 7) * 7
    assert (
        result.frames_generated
        == result.frames_measured + result.warmup_excluded + result.in_flight
    )


def test_no_batch_ever_completes(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.AGGREGATED,
        phy=phy_b11,
        traffic=det800,
        seed=5,
        num_frames=3,
        warmup_frames=0,
        k=5,
    )
    result = simulate(config)
    assert result.frames_measured == 0
    assert result.in_flight == 3
    assert math.isnan(result.sojourn_mean)


def test_warmup_swallows_all_completions(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.AGGREGATED,
        phy=phy_b11,
        traffic=det800,
        seed=5,
        num_frames=12,
        warmup_frames=11,
        k=5,
    )
    result = simulate(config)
    assert result.frames_measured == 0
    assert result.warmup_excluded == 10  # only completed frames count
    assert result.in_flight == 2
    assert math.isnan(result.sojourn_mean)
    assert (
        result.frames_generated
        == result.frames_measured + result.warmup_excluded + result.in_flight
    )


def test_sojourn_equals_breakdown_sum(phy_b11, exp800):
    for mode, k in ((SimMode.STANDARD, 1), (SimMode.AGGREGATED, 4)):
        config = SimConfig(
            mode=mode,
            phy=phy_b11,
            traffic=exp800,
            seed=11,
            num_frames=40_000,
            warmup_frames=400,
            k=k,
        )
        r = simulate(config)
        parts = r.buffer_wait_mean + r.queue_wait_mean + r.service_mean
        assert abs(r.sojourn_mean - parts) < 1e-9


def test_backoff_mean_anchor_converges(phy_b11, det800):
    # deterministic payloads isolate the backoff: mean backoff estimate =
    # measured service mean - gamma - E[P]/bit_rate -> slot*cw/2
    gamma = overhead_gamma(phy_b11).gamma_total
    payload_time = 800.0 / 11e6
    expected, sigma = 160e-6, math.sqrt(9.6e-9)
    errors = {}
    for n in (100_000, 1_000_000):
        config = SimConfig(
            mode=SimMode.STANDARD,
            phy=phy_b11,
            traffic=det800,
            seed=1234,
            num_frames=n,
            warmup_frames=0,
        )
        r = simulate(config)
        estimate = r.service_mean - gamma - payload_time
        errors[n] = abs(estimate - expected)
        assert errors[n] <= 5.0 * sigma / math.sqrt(n)
    assert errors[1_000_000] < errors[100_000]


def test_payload_mean_anchor_converges():
    # CW=0 isolates the payload: (service mean - gamma) * bit_rate -> E[P]
    phy = b11_cw0()
    traffic = TrafficSpec.exponential(100.0, 800.0)
    gamma = overhead_gamma(phy).gamma_total
    sigma_bits = 800.0
    errors = {}
    for n in (100_000, 1_000_000):
        config = SimConfig(
            mode=SimMode.STANDARD,
            phy=phy,
            traffic=traffic,
            seed=4321,
            num_frames=n,
            warmup_frames=0,
        )
        r = simulate(config)
        estimate = (r.service_mean - gamma) * 11e6
        errors[n] = abs(estimate - 800.0)
        assert errors[n] <= 5.0 * sigma_bits / math.sqrt(n)
    assert errors[1_000_000] < errors[100_000]


def test_buffer_wait_anchor_converges(phy_b11, det800):
    # per-frame buffer waits average (k-1)/(2*lam) = 20 ms at k=5, 100 pps;
    # within-batch correlation inflates the spread ~sqrt(3), hence 6 sigma
    sigma = 0.02  # sqrt(Var(B)) for k=5 at 100 pps, hand enumeration
    errors = {}
    for n in (100_000, 1_000_000):
        config = SimConfig(
            mode=SimMode.AGGREGATED,
            phy=phy_b11,
            traffic=det800,
            seed=2718,
            num_frames=n,
            warmup_frames=0,
            k=5,
        )
        r = simulate(config)
        errors[n] = abs(r.buffer_wait_mean - 0.02)
        assert errors[n] <= 6.0 * sigma / math.sqrt(n)
    assert errors[1_000_000] < errors[100_000]


def test_k1_sojourn_converges_to_analytic_f1(phy_b11, exp800):
    lam = 0.5 / 6.112727272727273e-4  # rho = 0.5
    traffic = TrafficSpec.exponential(lam, 800.0)
    config = SimConfig(
        mode=SimMode.STANDARD,
        phy=phy_b11,
        traffic=traffic,
        seed=31415,
        num_frames=420_000,
        warmup_frames=20_000,
    )
    report = validate_against_model(config, PKForm.GENERAL_PK)
    assert report.analytic_stable
    # M/G/1 is exact at k=1: agreement within ci95 or 1 percent
    assert report.abs_deviation <= max(
        report.sim.ci95_halfwidth, 0.01 * report.analytic_system_time
    )
    assert report.interbatch_cv == pytest.approx(1.0, abs=0.01)


def test_validate_reports_erlang_cv_for_batches(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.AGGREGATED,
        phy=phy_b11,
        traffic=det800,
        seed=7,
        num_frames=100_000,
        warmup_frames=1_000,
        k=5,
    )
    report = validate_against_model(config)
    assert report.k == 5
    assert report.interbatch_cv == pytest.approx(1.0 / math.sqrt(5), abs=0.01)
    assert report.within_ci95 is not None


def test_validate_unstable_skips_comparison(phy_b11):
    traffic = TrafficSpec.deterministic(2000.0, 800.0)
    config = SimConfig(
        mode=SimMode.STANDARD,
        phy=phy_b11,
        traffic=traffic,
        seed=1,
        num_frames=1_000,
    )
    report = validate_against_model(config)
    assert not report.analytic_stable
    assert report.analytic_system_time == math.inf
    assert report.sim is None
    assert math.isnan(report.abs_deviation)
    assert report.within_ci95 is None


def test_backoff_override_gives_constant_service(det800):
    phy = custom_profile(backoff_override=20e-6)
    config = SimConfig(
        mode=SimMode.STANDARD, phy=phy, traffic=det800, seed=9, num_frames=5_000
    )
    r = simulate(config)
    expected = overhead_gamma(phy).gamma_total + 20e-6 + 800.0 / 11e6
    assert r.service_mean == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("cw", [16, 2**31 - 2, 2**31])
def test_backoff_draws_equal_64_bit_integer_draws(cw):
    # 32-bit draws where the window fits, 64-bit beyond it: same values
    phy = custom_profile(cw=cw)
    expected = phy.slot * sim_module._substream(4, "backoffs").integers(0, cw + 1, 5_000)
    got = sim_module._sample_backoffs(sim_module._substream(4, "backoffs"), phy, np.empty(5_000))
    assert np.array_equal(got, expected)


def test_uniform_and_empirical_payload_sampling(phy_b11):
    uni = TrafficSpec.uniform_range(100.0, 400.0, 1200.0)
    emp = TrafficSpec.empirical(100.0, [640.0, 800.0, 960.0])
    for traffic in (uni, emp):
        config = SimConfig(
            mode=SimMode.STANDARD,
            phy=phy_b11,
            traffic=traffic,
            seed=55,
            num_frames=200_000,
        )
        r = simulate(config)
        measured_payload = (
            r.service_mean - overhead_gamma(phy_b11).gamma_total - 160e-6
        ) * 11e6
        # 160e-6 is the mean backoff; its noise is included, so stay loose
        assert measured_payload == pytest.approx(800.0, rel=0.01)


def test_replications_one_result_per_seed(phy_b11, det800):
    config = SimConfig(
        mode=SimMode.STANDARD, phy=phy_b11, traffic=det800, seed=0, num_frames=5_000
    )
    rows = replications(config, [3, 4, 5])
    assert [seed for seed, _ in rows] == [3, 4, 5]
    assert rows[0][1] == simulate(replace(config, seed=3))
    assert rows[0][1] != rows[1][1]


def test_replications_checks_every_seed_before_running_any(phy_b11, det800, monkeypatch):
    config = SimConfig(
        mode=SimMode.STANDARD, phy=phy_b11, traffic=det800, seed=0, num_frames=5_000
    )
    runs = []
    monkeypatch.setattr(sim_module, "simulate", runs.append)
    with pytest.raises(ValueError, match="64 bits"):
        replications(config, [2**64 - 1, 2**64])
    assert runs == []


def test_config_validation_errors(phy_b11, det800):
    good = dict(
        mode=SimMode.STANDARD, phy=phy_b11, traffic=det800, seed=1, num_frames=10
    )
    SimConfig(**good)
    with pytest.raises(ValueError):
        SimConfig(**{**good, "num_frames": 10, "warmup_frames": 10})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "warmup_frames": -1})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "mode": SimMode.AGGREGATED})  # k=1
    with pytest.raises(ValueError):
        SimConfig(**{**good, "k": 4})  # standard mode with k != 1
    with pytest.raises(ValueError, match="SimMode"):
        SimConfig(**{**good, "mode": "standard"})
    with pytest.raises(ValueError, match="integers"):
        SimConfig(**{**good, "num_frames": 1e5})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "seed": 1.5})


# --- streaming in fixed blocks ---------------------------------------------

_STATS = (
    "sojourn_mean",
    "sojourn_stddev",
    "ci95_halfwidth",
    "buffer_wait_mean",
    "buffer_wait_ci95",
    "queue_wait_mean",
    "service_mean",
    "interbatch_cv",
)


def _blocked_and_whole(monkeypatch, config, block_frames):
    """The run in one default block, then in patched small blocks."""
    whole = simulate(config)
    monkeypatch.setattr(sim_module, "_BLOCK_FRAMES", block_frames)
    return simulate(config), whole


def _assert_same_run(blocked, whole):
    for name in ("frames_generated", "frames_measured", "warmup_excluded", "in_flight"):
        assert getattr(blocked, name) == getattr(whole, name), name
    for name in _STATS:
        a, b = getattr(blocked, name), getattr(whole, name)
        assert a == pytest.approx(b, rel=1e-11, abs=0.0), name


@pytest.mark.parametrize(
    "traffic",
    [
        TrafficSpec.deterministic(1000.0, 800.0),
        TrafficSpec.exponential(1000.0, 800.0),
        TrafficSpec.uniform_range(1000.0, 400.0, 1200.0),
        TrafficSpec.empirical(1000.0, [640.0, 800.0, 960.0, 12000.0]),
    ],
    ids=lambda t: t.payload_family.value,
)
@pytest.mark.parametrize("mode", [SimMode.STANDARD, SimMode.AGGREGATED])
def test_block_size_does_not_change_results(monkeypatch, phy_b11, traffic, mode):
    # 3000 frames is not a multiple of k = 7: blocks round down to 2996.
    k = 7 if mode is SimMode.AGGREGATED else 1
    config = SimConfig(
        mode=mode, phy=phy_b11, traffic=traffic, seed=21, num_frames=30_000,
        warmup_frames=500, k=k,
    )
    _assert_same_run(*_blocked_and_whole(monkeypatch, config, 3000))


def test_batch_larger_than_block(monkeypatch, phy_b11):
    # Each block is then exactly one batch; 20_000 = 13 * 1500 + 500, so
    # the last block is a partial batch that stays in flight.
    traffic = TrafficSpec.exponential(2000.0, 800.0)
    config = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11, traffic=traffic, seed=5,
        num_frames=20_000, warmup_frames=100, k=1500,
    )
    blocked, whole = _blocked_and_whole(monkeypatch, config, 1000)
    _assert_same_run(blocked, whole)
    assert blocked.in_flight == 500


@pytest.mark.parametrize("mode, k", [(SimMode.STANDARD, 1), (SimMode.AGGREGATED, 4)])
def test_warmup_spanning_several_blocks(monkeypatch, phy_b11, mode, k):
    config = SimConfig(
        mode=mode, phy=phy_b11, traffic=TrafficSpec.exponential(1200.0, 800.0),
        seed=8, num_frames=30_000, warmup_frames=9_003, k=k,
    )
    blocked, whole = _blocked_and_whole(monkeypatch, config, 2000)
    _assert_same_run(blocked, whole)
    assert blocked.warmup_excluded == 9_003


def test_trailing_partial_batch_in_last_block(monkeypatch, phy_b11):
    traffic = TrafficSpec.exponential(1500.0, 800.0)
    config = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11, traffic=traffic, seed=13,
        num_frames=40_003, warmup_frames=1_000, k=5,
    )
    blocked, whole = _blocked_and_whole(monkeypatch, config, 2500)
    _assert_same_run(blocked, whole)
    assert blocked.in_flight == 3


def _traced_peak(config):
    """Peak bytes that numpy and Python allocate during one run."""
    tracemalloc.start()
    try:
        simulate(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_frames(monkeypatch, phy_b11):
    monkeypatch.setattr(sim_module, "_BLOCK_FRAMES", 2048)
    config = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11, traffic=TrafficSpec.exponential(1000.0, 800.0),
        seed=2, num_frames=20_000, warmup_frames=100, k=4,
    )
    small = _traced_peak(config)
    assert _traced_peak(replace(config, num_frames=200_000)) < 1.5 * small


def test_working_set_at_the_default_block_size(monkeypatch, phy_b11):
    # A few block-sized arrays, not frame-sized ones: 1e6 frames of one
    # array alone would take 7.6 MiB.
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 1)
    aggregated = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11, traffic=TrafficSpec.exponential(2500.0, 800.0),
        seed=7, num_frames=1_000_000, k=5,
    )
    assert _traced_peak(aggregated) < 4 * 2**20
    # Threaded: the helper's second pair of block buffers adds one block.
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 2)
    standard = SimConfig(
        mode=SimMode.STANDARD, phy=phy_b11, traffic=TrafficSpec.exponential(1000.0, 800.0),
        seed=7, num_frames=3_000_000,
    )
    assert _traced_peak(standard) < 8 * 2**20


def test_interbatch_cv_matches_the_arrival_marks(phy_b11, det800):
    # The streamed CV equals the one computed from the whole arrival
    # stream: every arrival in standard mode, every k-th in aggregated.
    for mode, k in ((SimMode.STANDARD, 1), (SimMode.AGGREGATED, 5)):
        config = SimConfig(
            mode=mode, phy=phy_b11, traffic=det800, seed=3, num_frames=20_001, k=k
        )
        rng = sim_module._substream(3, "arrivals")
        arrivals = np.cumsum(rng.exponential(1.0 / 100.0, size=20_001))
        gaps = np.diff(arrivals[k - 1 :: k])
        expected = float(np.std(gaps, ddof=1) / np.mean(gaps))
        assert simulate(config).interbatch_cv == expected
        assert validate_against_model(config).interbatch_cv == expected


# --- the exact queue wait and the batch means -------------------------------


def _replay(config):
    """The run's substreams drawn at once: frame inter-arrival times and the
    service time of every completed batch (exponential payloads only)."""
    k, n = config.k, config.num_frames
    n_batches = n // k
    gaps = sim_module._substream(config.seed, "arrivals").exponential(
        1.0 / config.traffic.lambda_total, n
    )
    payloads = sim_module._substream(config.seed, "payloads").exponential(
        config.traffic.payload_mean, n
    )
    backoffs = sim_module._substream(config.seed, "backoffs").integers(
        0, config.phy.cw + 1, n_batches
    )
    service = config.phy.slot * backoffs + overhead_gamma(config.phy).gamma_total
    payload_sums = payloads[: n_batches * k].reshape(n_batches, k).sum(axis=1)
    service += payload_sums / config.phy.bit_rate
    return gaps, service


def _lindley_waits(gaps, service, k):
    """W_{b+1} = max(W_b + s_b - g_{b+1}, 0), one batch at a time, with g the
    time between batch formations: the sum of the batch's own k gaps."""
    formation_gaps = gaps[: service.size * k].reshape(-1, k).sum(axis=1).tolist()
    waits = [0.0]
    for s, g in zip(service.tolist(), formation_gaps[1:]):
        waits.append(max(waits[-1] + s - g, 0.0))
    return waits


@pytest.mark.parametrize(
    "mode, k, lam, num_frames, warmup, block",
    [
        (SimMode.STANDARD, 1, 300.0, 200_000, 1_003, 4096),
        (SimMode.AGGREGATED, 7, 2000.0, 60_001, 2_500, 3000),
        (SimMode.AGGREGATED, 5, 2500.0, 2_000_000, 10_003, None),  # light load
    ],
    ids=["standard", "aggregated-small-blocks", "aggregated-light-load"],
)
def test_queue_wait_matches_a_sequential_lindley_recursion(
    monkeypatch, phy_b11, mode, k, lam, num_frames, warmup, block
):
    # Rounding noise on absolute times must not bias the mean: the waits
    # are exactly 0 at every busy-period start, as in the recursion.
    if block is not None:
        monkeypatch.setattr(sim_module, "_BLOCK_FRAMES", block)
    config = SimConfig(
        mode=mode, phy=phy_b11, traffic=TrafficSpec.exponential(lam, 800.0), seed=17,
        num_frames=num_frames, warmup_frames=warmup, k=k,
    )
    waits = _lindley_waits(*_replay(config), k)
    measured = [min(k, max(0, (b + 1) * k - warmup)) for b in range(len(waits))]
    expected = math.fsum(c * w for c, w in zip(measured, waits)) / sum(measured)
    result = simulate(config)
    assert result.frames_measured == sum(measured)
    assert result.queue_wait_mean == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("warmup", [1_003, 7_502], ids=["first-block", "later-block"])
def test_batch_means_equal_the_repeated_frame_means(monkeypatch, phy_b11, warmup):
    # Blocks of 3000 frames: the warmup ends 3 frames (2 frames) into a batch
    # of the first (third) block, which then counts as a partial batch.
    monkeypatch.setattr(sim_module, "_BLOCK_FRAMES", 3000)
    k = 5
    config = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11,
        traffic=TrafficSpec.exponential(1500.0, 800.0), seed=23, num_frames=30_001,
        warmup_frames=warmup, k=k,
    )
    gaps, service = _replay(config)
    ready = np.cumsum(gaps)[k - 1 : service.size * k : k]
    waits = sim_module._fifo_waits(
        ready, service, 0.0, -math.inf, np.empty_like(service), np.empty_like(service)
    )[0]
    result = simulate(config)
    for name, batch_values in (("queue_wait_mean", waits), ("service_mean", service)):
        frame_mean = float(np.mean(np.repeat(batch_values, k)[warmup:]))
        got = getattr(result, name)
        assert got == pytest.approx(frame_mean, rel=1e-12, abs=0.0), name
