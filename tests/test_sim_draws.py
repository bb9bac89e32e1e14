"""Draws in blocks, the helper thread and the block buffers of the simulator.

A run draws its three substreams a block at a time, and a run of more than
2^19 frames draws them on a helper thread, one block ahead into a second
pair of buffers, when two CPUs are usable. These tests pin that draws in
blocks equal one whole draw with numpy's own samplers, that the helper
never refills a block the caller still holds, that the thread changes no
result, that no thread outlives a call, whether it returns or raises on
either thread, and that the seeds of one ``replications`` call reuse their
block buffers without changing a result.
"""

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aggdelay import (
    PayloadFamily, SimConfig, SimMode, TrafficSpec, overhead_gamma, replications, simulate,
)
import aggdelay.sim as sim_module
from aggdelay.cli import EXIT_SIM, _render, main
from aggdelay.phy import profile_for
from conftest import custom_profile

FAMILIES = [
    TrafficSpec.deterministic(1000.0, 801.3),
    TrafficSpec.exponential(1000.0, 800.0),
    TrafficSpec.uniform_range(1000.0, 400.0, 1200.0),
    TrafficSpec.empirical(1000.0, [640.0, 800.0, 960.0, 12000.0]),
]
MODES = [(SimMode.STANDARD, 1), (SimMode.AGGREGATED, 7)]


def _family_id(traffic):
    return traffic.payload_family.value


def _whole_draws(config, n):
    """The first n frames' inter-arrival times and their whole batches'
    service times, each substream drawn at once by numpy's own sampler."""
    k, phy, traffic = config.k, config.phy, config.traffic
    n_batches = n // k
    gaps = sim_module._substream(config.seed, "arrivals").exponential(
        1.0 / config.traffic.lambda_total, n
    )
    rng = sim_module._substream(config.seed, "payloads")
    family = traffic.payload_family
    if family is PayloadFamily.DETERMINISTIC:
        payloads = np.full(n, traffic.payload_mean)
    elif family is PayloadFamily.EXPONENTIAL:
        payloads = rng.exponential(traffic.payload_mean, n)
    elif family is PayloadFamily.UNIFORM_RANGE:
        payloads = rng.uniform(traffic.uniform_lo, traffic.uniform_hi, n)
    else:
        payloads = rng.choice(np.asarray(traffic.empirical_values), size=n, replace=True)
    if phy.backoff_override is not None:
        service = np.full(n_batches, phy.backoff_override)
    else:
        backoffs = sim_module._substream(config.seed, "backoffs")
        service = phy.slot * backoffs.integers(0, phy.cw + 1, n_batches)
    service += overhead_gamma(phy).gamma_total
    service += payloads[: n_batches * k].reshape(n_batches, k).sum(axis=1) / phy.bit_rate
    return gaps, service


@pytest.mark.parametrize(
    "phy",
    [custom_profile(), custom_profile(backoff_override=20e-6), custom_profile(cw=2**31)],
    ids=["cw16", "override", "cw2^31"],
)
@pytest.mark.parametrize("traffic", FAMILIES, ids=_family_id)
@pytest.mark.parametrize("mode, k", MODES)
def test_chunked_draws_equal_one_whole_draw(phy, traffic, mode, k):
    # Uneven chunks of whole batches, the last one ending in a partial batch.
    config = SimConfig(mode=mode, phy=phy, traffic=traffic, seed=61, num_frames=10, k=k)
    chunks = [k * m for m in (1, 13, 250, 2, 97)] + [k * 40 + (3 if k > 1 else 1)]
    n = sum(chunks)
    gaps, service = np.empty(n), np.empty(n // k)
    draws = sim_module._Draws(config)
    offset = 0
    for size in chunks:
        draws.fill(gaps[offset : offset + size], service[offset // k : (offset + size) // k])
        offset += size
    want_gaps, want_service = _whole_draws(config, n)
    assert np.array_equal(gaps, want_gaps)
    assert np.array_equal(service, want_service)


@pytest.mark.parametrize("k", [1, 2, 5, 7, 20, 150, 1500])
def test_deterministic_payload_time_is_the_sum_of_a_batch_of_frames(k):
    # One constant per batch equals the frame-sized form: k payloads summed
    # per batch by numpy, then divided by the bit rate.
    mode = SimMode.STANDARD if k == 1 else SimMode.AGGREGATED
    traffic = TrafficSpec.deterministic(100.0, 801.3)
    config = SimConfig(mode=mode, phy=custom_profile(), traffic=traffic, seed=1, num_frames=k, k=k)
    frames = np.full(3 * k, traffic.payload_mean)
    per_batch = frames.reshape(3, k).sum(axis=1) / config.phy.bit_rate
    assert (per_batch == sim_module._Draws(config).payload_time).all()


def test_the_helper_never_refills_a_block_the_caller_holds(phy_b11, exp800):
    # 21 blocks of 300 frames, the last of 7 (two batches and one frame).
    # After each block is handed over, the helper has time to draw ahead:
    # the block must stay as it was handed over, and the blocks in order
    # must be the ones the calling thread draws alone.
    config = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11, traffic=exp800, seed=8, num_frames=6_007, k=3
    )
    held = []
    threaded = sim_module._drawn(sim_module._Draws(config), sim_module._Buffers(), 6_007, 300, True)
    for gaps, service in threaded:
        copy = gaps.copy(), service.copy()
        time.sleep(0.005)
        assert np.array_equal(gaps, copy[0]) and np.array_equal(service, copy[1])
        held.append(copy)
    alone = sim_module._drawn(sim_module._Draws(config), sim_module._Buffers(), 6_007, 300, False)
    pairs = [(gaps.copy(), service.copy()) for gaps, service in alone]
    assert len(held) == len(pairs) == 21
    for (gaps, service), (want_gaps, want_service) in zip(held, pairs):
        assert np.array_equal(gaps, want_gaps) and np.array_equal(service, want_service)


@pytest.fixture
def started(monkeypatch):
    """Every thread started during the test."""
    threads = []
    start = threading.Thread.start

    def record(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return threads


#: A CLI run of 20,000 frames: threaded, 29 blocks under ``_small_blocks``.
SIMULATE_ARGV = [
    "simulate", "--lambda", "300", "--payload-family", "exponential",
    "--payload-mean-bits", "800", "--seed", "4", "--frames", "20000",
]


def _small_blocks(monkeypatch, cpus=2):
    """Blocks of 700 frames and a helper thread above 3000, on a given CPU count."""
    monkeypatch.setattr(sim_module, "_BLOCK_FRAMES", 700)
    monkeypatch.setattr(sim_module, "_THREAD_FRAMES", 3000)
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("traffic", FAMILIES, ids=_family_id)
@pytest.mark.parametrize("mode, k", MODES)
def test_helper_thread_changes_no_result(monkeypatch, phy_b11, traffic, mode, k, started):
    config = SimConfig(
        mode=mode, phy=phy_b11, traffic=traffic, seed=29, num_frames=20_003,
        warmup_frames=4_001, k=k,
    )
    _small_blocks(monkeypatch)
    threaded = simulate(config)
    assert len(started) == 1
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 1)
    alone = simulate(config)
    assert threaded == alone
    assert len(started) == 1


def test_concurrent_threaded_runs_under_fast_thread_switching(monkeypatch, phy_b11, exp800):
    # Four callers, each with its own helper (more threads than CPUs), hand
    # off 64-frame blocks while the interpreter switches threads often.
    # Each makes one replications call, with its own block buffers.
    monkeypatch.setattr(sim_module, "_BLOCK_FRAMES", 64)
    monkeypatch.setattr(sim_module, "_THREAD_FRAMES", 1024)
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 2)
    aggregated = SimConfig(
        mode=SimMode.AGGREGATED, phy=phy_b11, traffic=exp800, seed=0, num_frames=12_001, k=3
    )
    standard = SimConfig(mode=SimMode.STANDARD, phy=phy_b11, traffic=exp800, seed=0, num_frames=4_001)
    configs = [aggregated, standard, aggregated, standard]
    seeds = [(2 * i, 2 * i + 1) for i in range(len(configs))]
    results = [None] * len(configs)

    def run(i):
        results[i] = replications(configs[i], seeds[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 1)
    for config, pairs, pair_seeds in zip(configs, results, seeds):
        assert pairs == [(s, simulate(replace(config, seed=s))) for s in pair_seeds]


def test_no_thread_outlives_a_run(monkeypatch, phy_b11, exp800, started):
    _small_blocks(monkeypatch)
    before = threading.active_count()
    config = SimConfig(mode=SimMode.STANDARD, phy=phy_b11, traffic=exp800, seed=4, num_frames=20_000)
    simulate(config)
    assert len(started) == 1
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "name, on_helper",
    [("_sample_payloads", True), ("_fifo_waits", False)],
    ids=["draw-on-the-helper", "block-on-the-caller"],
)
def test_a_failure_on_either_thread_ends_the_run_and_its_thread(
    monkeypatch, phy_b11, exp800, started, name, on_helper
):
    _small_blocks(monkeypatch)
    original = getattr(sim_module, name)
    calls = []

    def fail_second_call(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise RuntimeError("second call failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(sim_module, name, fail_second_call)
    before = threading.active_count()
    config = SimConfig(mode=SimMode.STANDARD, phy=phy_b11, traffic=exp800, seed=4, num_frames=20_000)
    try:
        simulate(config)
    except RuntimeError as exc:  # its traceback keeps the run's frame alive
        failure = exc
    assert str(failure) == "second call failed"
    assert calls[1] is (started[0] if on_helper else threading.current_thread())
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before

    calls.clear()
    assert main(SIMULATE_ARGV) == EXIT_SIM
    assert len(started) == 2
    assert threading.active_count() == before


def test_a_one_block_run_or_a_single_cpu_starts_no_thread(monkeypatch, phy_b11, exp800, started):
    config = SimConfig(mode=SimMode.STANDARD, phy=phy_b11, traffic=exp800, seed=4, num_frames=50_000)
    monkeypatch.setattr(sim_module, "_usable_cpus", lambda: 2)
    simulate(config)  # one default block
    assert (1 << 19) // sim_module._BLOCK_FRAMES == 8
    simulate(replace(config, num_frames=1 << 19))  # 8 default blocks, not above the thread threshold
    _small_blocks(monkeypatch, cpus=1)
    simulate(config)  # 72 blocks, one CPU
    assert started == []


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(sim_module.os, "sched_getaffinity", raising=False)  # not on every platform
    assert sim_module._usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(sim_module.os, "cpu_count", lambda: None)  # count unknown
    assert sim_module._usable_cpus() == 1


def test_importing_the_cli_loads_no_thread_pool():
    # concurrent.futures (which loads logging) is not needed: the helper is
    # a plain thread. The run is threaded whatever the CPUs really are.
    package_root = str(Path(sim_module.__file__).parents[1])
    code = f"""
import os, sys, threading
sys.path.insert(0, {package_root!r})
import aggdelay.cli, aggdelay.sim as sim

def loaded():
    return [name for name in ("concurrent.futures", "logging") if name in sys.modules]

print(loaded())
sim._BLOCK_FRAMES, sim._THREAD_FRAMES, sim._usable_cpus = 700, 3000, lambda: 2
before = threading.active_count()
start, started = threading.Thread.start, []
threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
argv = {SIMULATE_ARGV!r} + ["--output", os.devnull]
assert aggdelay.cli.main(argv) == 0
assert len(started) == 1 and threading.active_count() == before
print(loaded())
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["[]", "[]", ""]


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-thread", "helper"])
@pytest.mark.parametrize("traffic", FAMILIES, ids=_family_id)
@pytest.mark.parametrize("mode, k", MODES)
def test_reused_buffers_change_no_result(monkeypatch, phy_b11, traffic, mode, k, cpus):
    # 5 blocks, the last one partial: each seed overwrites the buffers of
    # the seed before, and must read none of what that seed left there.
    _small_blocks(monkeypatch, cpus)
    config = SimConfig(
        mode=mode, phy=phy_b11, traffic=traffic, seed=40, num_frames=3_403,
        warmup_frames=500, k=k,
    )
    holders = []

    class Recorded(sim_module._Buffers):
        def take(self, name, shape):
            array = super().take(name, shape)
            holders.append((self, name, id(array)))
            return array

    monkeypatch.setattr(sim_module, "_Buffers", Recorded)
    pairs = replications(config, [40, 41, 7, 40])
    assert len({holder for holder, _, _ in holders}) == 1  # one holder per call
    assert len(set(holders)) == 4  # gaps, service, scratch, waits: each made once
    assert pairs == [(s, simulate(replace(config, seed=s))) for s in (40, 41, 7, 40)]


_B11 = profile_for("b", 11e6)
# Runs longer than 2^20 frames (threaded wherever two CPUs are usable), with
# the digests of their results from the single-threaded simulator.
MULTI_BLOCK = {
    "standard-exponential": (
        SimConfig(SimMode.STANDARD, _B11, TrafficSpec.exponential(1146.0, 800.0), 2024, 2_500_000, 10_000),
        "1ade964ba4a6fa9e31bf48ea3b958a8f96d60ce920185aaf51f1370ec173a6a0",
    ),
    "aggregated-uniform": (
        SimConfig(
            SimMode.AGGREGATED, _B11, TrafficSpec.uniform_range(3000.0, 400.0, 1200.0),
            2025, 2_200_003, 10_003, k=7,
        ),
        "0449fc63da0997ff369c92122d3def98633957bfadc109b55db2b9c8ab824074",
    ),
    "aggregated-deterministic": (
        SimConfig(SimMode.AGGREGATED, _B11, TrafficSpec.deterministic(2500.0, 801.3), 2026, 2_100_000, 5_000, k=5),
        "116bf47c8de792aac63736a319ae8a0fa63939d03bdd79427a82dc9e84b614d3",
    ),
}


@pytest.mark.parametrize("name", MULTI_BLOCK)
def test_multi_block_runs_keep_their_bytes(name):
    config, digest = MULTI_BLOCK[name]
    result = simulate(config)
    text = _render(result.to_dict(), "json") + repr(result.interbatch_cv)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
