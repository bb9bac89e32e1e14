"""Analytic chain: Erlang buffer wait, service moments, queue wait, gain.

Frozen oracles, re-derived by hand before implementation
(802.11b @ 11 Mbps, package-default overhead, 800-bit payloads):

    1/mu(1) = 800/11e6 + 378.5455us + 160us = 611.2727 us
    1/mu(5) = 4000/11e6 + 378.5455us + 160us = 902.1818 us
    W(1,100) deterministic-service form          = 19.899095 us
    W(1,100) general form, exponential payloads  = 20.692027 us
    F(1,100) = 631.1718 us      F(5,100) = 20910.4707 us
    G(5,100) = +20279.30 us     G(5,1500) = -1581.06 us
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from aggdelay import (
    PayloadFamily,
    PKForm,
    TrafficSpec,
    erlang_wait,
    evaluate,
    gain,
    queue_wait,
    service_time,
    service_variance,
    system_time,
)
from conftest import custom_profile

SM1 = 6.112727272727273e-4
SM5 = 9.021818181818182e-4
W1_100_DET = 1.9899094746997456e-5
W1_100_GPK_EXP = 2.0692027365329974e-5
F1_100 = 6.311718220197248e-4
F5_100 = 2.091047070008329e-2
MU1 = 1635.930993456276


def random_custom_profile(rng: random.Random, zero_variance: bool = False):
    return custom_profile(
        bit_rate=rng.uniform(1e6, 6e7),
        slot=rng.uniform(1e-6, 5e-5),
        difs=rng.uniform(0.0, 2e-4),
        sifs=rng.uniform(0.0, 5e-5),
        preamble=rng.uniform(0.0, 2e-4),
        cw=0 if zero_variance else rng.randint(0, 64),
        mac_header_bits=rng.randint(0, 512),
        crc_bits=rng.randint(0, 64),
        ack_bits=rng.randint(0, 256),
        ack_rate=rng.uniform(1e6, 6e7),
    )


def random_traffic(rng: random.Random, zero_variance: bool = False) -> TrafficSpec:
    lam = rng.uniform(1.0, 5000.0)
    mean = rng.uniform(64.0, 12000.0)
    if zero_variance or rng.random() < 0.5:
        return TrafficSpec.deterministic(lam, mean)
    return TrafficSpec.exponential(lam, mean)


# --- erlang_wait -----------------------------------------------------------


def test_erlang_wait_examples():
    assert erlang_wait(1, 123.4) == 0.0
    assert erlang_wait(5, 100.0) == pytest.approx(0.02, rel=1e-12)
    assert erlang_wait(3, 1000.0) == pytest.approx(1e-3, rel=1e-12)


def test_erlang_wait_matches_monte_carlo_batch_fill():
    # Mean wait of every frame until its batch of k fills, straight from
    # Poisson arrivals: the closed form (k-1)/(2*lam) should reproduce it.
    rng = np.random.default_rng(7)
    lam, k, n_batches = 100.0, 5, 200_000
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=n_batches * k))
    per_batch = arrivals.reshape(n_batches, k)
    waits = per_batch[:, -1:] - per_batch
    assert abs(float(waits.mean()) - erlang_wait(k, lam)) < 2e-4


def test_erlang_wait_domain_errors():
    with pytest.raises(ValueError):
        erlang_wait(0, 100.0)
    with pytest.raises(ValueError):
        erlang_wait(2, 0.0)
    with pytest.raises(ValueError):
        erlang_wait(2, -5.0)


def test_erlang_wait_monotone_in_k_and_lambda():
    for lam in (10.0, 100.0, 1000.0):
        waits = [erlang_wait(k, lam) for k in range(1, 12)]
        assert all(a < b for a, b in zip(waits, waits[1:]))
    for k in (2, 5, 9):
        assert erlang_wait(k, 100.0) > erlang_wait(k, 200.0) > erlang_wait(k, 400.0)


# --- service moments -------------------------------------------------------


def test_service_time_examples(phy_b11, det800):
    phy = replace(phy_b11, backoff_override=160e-6)
    assert service_time(1, phy, det800) == pytest.approx(SM1, rel=1e-12)
    assert service_time(5, phy, det800) == pytest.approx(SM5, rel=1e-12)


def test_service_time_pure_payload():
    phy = custom_profile(
        bit_rate=1e6,
        difs=0.0,
        sifs=0.0,
        preamble=0.0,
        mac_header_bits=0,
        crc_bits=0,
        ack_bits=0,
        backoff_override=0.0,
    )
    traffic = TrafficSpec.deterministic(10.0, 1e6)  # E[P] = bit_rate * 1s
    assert service_time(1, phy, traffic) == pytest.approx(1.0, rel=1e-12)


def test_service_time_defaults_to_profile_backoff_mean(phy_b11, det800):
    phy = replace(phy_b11, backoff_override=160e-6)
    assert service_time(1, phy_b11, det800) == service_time(1, phy, det800)


def test_service_time_domain_error(phy_b11, det800):
    with pytest.raises(ValueError):
        service_time(0, replace(phy_b11, backoff_override=0.0), det800)


def test_service_variance_examples(det800):
    assert service_variance(3, custom_profile(cw=0), det800) == 0.0
    assert service_variance(1, custom_profile(), det800) == pytest.approx(
        9.6e-9, rel=1e-12
    )
    exp800 = TrafficSpec.exponential(100.0, 800.0)
    assert service_variance(2, custom_profile(cw=0), exp800) == pytest.approx(
        1.0578512396694216e-8, rel=1e-12
    )


def test_service_variance_adds_k_payload_terms(phy_b11, exp800):
    v1 = service_variance(1, phy_b11, exp800)
    v4 = service_variance(4, phy_b11, exp800)
    backoff_var = 9.6e-9
    assert v4 - backoff_var == pytest.approx(4 * (v1 - backoff_var), rel=1e-12)


# --- queue wait ------------------------------------------------------------


def test_queue_wait_deterministic_service_k1(phy_b11, det800):
    assert queue_wait(
        1, 100.0, phy_b11, det800, PKForm.DETERMINISTIC_SERVICE
    ) == pytest.approx(W1_100_DET, rel=1e-12)


def test_queue_wait_general_pk_with_exponential_payload(phy_b11, exp800):
    assert queue_wait(1, 100.0, phy_b11, exp800, PKForm.GENERAL_PK) == pytest.approx(
        W1_100_GPK_EXP, rel=1e-12
    )


def test_queue_wait_unstable_returns_inf(phy_b11, det800):
    assert queue_wait(1, 1700.0, phy_b11, det800) == math.inf
    assert queue_wait(1, MU1 * 1.0001, phy_b11, det800) == math.inf


def test_general_pk_reduces_to_deterministic_with_zero_variance():
    rng = random.Random(1009)
    for _ in range(200):
        phy = random_custom_profile(rng, zero_variance=True)
        traffic = random_traffic(rng, zero_variance=True)
        k = rng.randint(1, 12)
        lam = traffic.lambda_total
        det = queue_wait(k, lam, phy, traffic, PKForm.DETERMINISTIC_SERVICE)
        gen = queue_wait(k, lam, phy, traffic, PKForm.GENERAL_PK)
        if math.isinf(det):
            assert math.isinf(gen)
        else:
            assert gen == pytest.approx(det, rel=1e-12)


def test_general_pk_dominates_deterministic_with_positive_variance():
    rng = random.Random(2027)
    checked = 0
    for _ in range(300):
        phy = random_custom_profile(rng)
        traffic = random_traffic(rng)
        if service_variance(1, phy, traffic) == 0.0:
            continue
        k = rng.randint(1, 12)
        lam = traffic.lambda_total
        det = queue_wait(k, lam, phy, traffic, PKForm.DETERMINISTIC_SERVICE)
        gen = queue_wait(k, lam, phy, traffic, PKForm.GENERAL_PK)
        if math.isinf(det):
            continue
        assert gen > det
        checked += 1
    assert checked > 100


def test_queue_wait_monotone_in_lambda_and_diverges(phy_b11, det800):
    for k in (1, 2, 5, 10):
        limit = k / service_time(k, phy_b11, det800)
        grid = [limit * f for f in np.linspace(0.05, 0.999, 60)]
        waits = [queue_wait(k, lam, phy_b11, det800) for lam in grid]
        assert all(a < b for a, b in zip(waits, waits[1:]))
        w_09 = queue_wait(k, 0.9 * limit, phy_b11, det800)
        w_0999 = queue_wait(k, 0.999 * limit, phy_b11, det800)
        assert w_0999 >= 10.0 * w_09


def test_system_time_monotone_and_divergent_for_k1(phy_b11, det800):
    grid = [MU1 * f for f in np.linspace(0.05, 0.999, 60)]
    totals = [system_time(1, lam, phy_b11, det800) for lam in grid]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    assert system_time(1, 0.999 * MU1, phy_b11, det800) >= 10.0 * system_time(
        1, 0.9 * MU1, phy_b11, det800
    )


# --- system time and gain --------------------------------------------------


def test_system_time_examples(phy_b11, det800):
    assert system_time(1, 100.0, phy_b11, det800) == pytest.approx(F1_100, rel=1e-12)
    assert system_time(5, 100.0, phy_b11, det800) == pytest.approx(F5_100, rel=1e-12)
    assert system_time(1, 2000.0, phy_b11, det800) == math.inf


def test_gain_examples(phy_b11, det800):
    assert gain(1, 100.0, phy_b11, det800) == 0.0
    assert gain(5, 100.0, phy_b11, det800) == pytest.approx(
        F5_100 - F1_100, rel=1e-12
    )
    assert gain(5, 100.0, phy_b11, det800) == pytest.approx(2.0279299e-2, rel=1e-6)
    assert gain(5, 1500.0, phy_b11, det800) == pytest.approx(
        -1.5810617903552864e-3, rel=1e-9
    )


def test_gain_bracket_values_from_hand_bisection(phy_b11, det800):
    assert gain(5, 1400.0, phy_b11, det800) == pytest.approx(5.83179e-5, rel=1e-4)
    assert gain(5, 1410.0, phy_b11, det800) == pytest.approx(-4.41546e-5, rel=1e-4)


def test_gain_is_zero_for_k1_everywhere(phy_b11, det800):
    rng = random.Random(33)
    for _ in range(50):
        lam = rng.uniform(1.0, 5000.0)  # includes unstable rates
        assert gain(1, lam, phy_b11, det800) == 0.0


def test_gain_extended_arithmetic(phy_b11, det800):
    # lambda between mu(1) and the k=5 stability limit: only k=1 collapses
    assert gain(5, 2500.0, phy_b11, det800) == -math.inf
    # beyond every stability limit: no finite comparison exists
    assert math.isnan(gain(5, 6000.0, phy_b11, det800))


# --- traffic spec ----------------------------------------------------------


def test_traffic_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec.deterministic(0.0, 800.0)
    with pytest.raises(ValueError):
        TrafficSpec.deterministic(100.0, 0.0)
    with pytest.raises(ValueError):
        TrafficSpec(100.0, 800.0, 5.0, payload_family=PayloadFamily.DETERMINISTIC)
    exp = TrafficSpec.exponential(100.0, 800.0)
    assert exp.payload_variance == 800.0**2
    uni = TrafficSpec.uniform_range(100.0, 400.0, 1200.0)
    assert uni.payload_mean == 800.0
    assert uni.payload_variance == pytest.approx(800.0**2 / 12.0, rel=1e-12)
    emp = TrafficSpec.empirical(100.0, [400.0, 800.0, 1200.0])
    assert emp.payload_mean == pytest.approx(800.0, rel=1e-12)
    with pytest.raises(ValueError):
        TrafficSpec.empirical(100.0, [])
    with pytest.raises(ValueError):
        TrafficSpec.uniform_range(100.0, 1200.0, 400.0)


def _spec(family, mean, var, **extra):
    return TrafficSpec(100.0, mean, var, payload_family=family, **extra)


def test_traffic_spec_moment_edges():
    mean = 800.0
    det, exp_, uni, emp = (PayloadFamily.DETERMINISTIC, PayloadFamily.EXPONENTIAL,
                           PayloadFamily.UNIFORM_RANGE, PayloadFamily.EMPIRICAL)
    for var in (-1.0, math.inf):
        with pytest.raises(ValueError, match="payload_variance must be non-negative and finite"):
            _spec(exp_, mean, var)
    with pytest.raises(ValueError, match="deterministic payloads require zero variance"):
        _spec(det, mean, 1e-300)
    _spec(exp_, mean, mean**2 * (1.0 + 1e-10))
    with pytest.raises(ValueError, match=r"exponential payloads require variance == mean\*\*2"):
        _spec(exp_, mean, mean**2 * (1.0 + 1e-8))
    bounds = dict(uniform_lo=400.0, uniform_hi=1200.0)
    _spec(uni, mean, 800.0**2 / 12.0 * (1.0 + 1e-10), **bounds)
    with pytest.raises(ValueError, match=r"uniform-range moments do not match \[lo, hi\]"):
        _spec(uni, mean, 800.0**2 / 12.0 * (1.0 + 1e-8), **bounds)
    # an empirical sample's variance may be off by 1e-12 * mean**2 absolute
    _spec(emp, mean, 1e-9, empirical_values=(800.0, 800.0))
    with pytest.raises(ValueError, match="empirical moments do not match the sample"):
        _spec(emp, mean, 1e-6, empirical_values=(800.0, 800.0))


def test_traffic_spec_moment_overflow_is_a_value_error():
    """A variance past the float range ends in ValueError, through the classmethods and
    the plain constructor alike; deterministic payloads have no variance to overflow."""
    exp_, uni, emp = (PayloadFamily.EXPONENTIAL, PayloadFamily.UNIFORM_RANGE,
                      PayloadFamily.EMPIRICAL)
    builds = [
        lambda: TrafficSpec.exponential(100.0, 1e200),
        lambda: TrafficSpec.uniform_range(100.0, 0.0, 1e308),
        lambda: TrafficSpec.empirical(100.0, [1e308, 1.0]),
        lambda: _spec(exp_, 1e200, 1e300),
        lambda: _spec(uni, 5e307, 1e300, uniform_lo=0.0, uniform_hi=1e308),
        lambda: _spec(emp, 5e307, 1e300, empirical_values=(1e308, 1.0)),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="payload moments .* overflow"):
            build()
    assert TrafficSpec.deterministic(100.0, 1e200).payload_variance == 0.0


@pytest.mark.parametrize("lo, hi", [(1200.0, 400.0), (800.0, 800.0), (-100.0, 1700.0)])
def test_uniform_range_needs_ordered_non_negative_bounds(lo, hi):
    with pytest.raises(ValueError, match=r"uniform-range payloads require 0 <= lo < hi"):
        TrafficSpec.uniform_range(100.0, lo, hi)


@pytest.mark.parametrize("values", [(0.0, 800.0), (-100.0, 900.0)])
def test_empirical_sizes_must_be_positive(values):
    with pytest.raises(ValueError, match="non-empty list of positive sizes"):
        TrafficSpec.empirical(100.0, values)
    with pytest.raises(ValueError, match="non-empty list of positive sizes"):
        _spec(PayloadFamily.EMPIRICAL, 800.0, 0.0, empirical_values=())


# --- QueueMetrics invariants -----------------------------------------------


def test_evaluate_satisfies_type_invariants():
    rng = random.Random(4099)
    for _ in range(300):
        phy = random_custom_profile(rng)
        traffic = random_traffic(rng)
        k = rng.randint(1, 15)
        lam = traffic.lambda_total
        form = rng.choice(list(PKForm))
        m = evaluate(k, lam, phy, traffic, form)
        assert m.erlang_wait == (k - 1) / (2.0 * lam)
        assert (m.erlang_wait == 0.0) == (k == 1)
        assert m.lambda_a * k == pytest.approx(lam, rel=1e-15)
        assert m.rho == m.lambda_a * m.service_mean
        assert m.stable == (m.rho < 1.0)
        if not m.stable:
            assert m.queue_wait == math.inf
            assert m.system_time == math.inf
        else:
            assert m.system_time == pytest.approx(
                m.erlang_wait + m.service_mean + m.queue_wait, rel=1e-12
            )
            assert m.queue_wait == queue_wait(k, lam, phy, traffic, form)
        if k == 1:
            assert m.gain == 0.0


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_non_finite_rates_rejected(phy_b11, det800, bad):
    with pytest.raises(ValueError, match="finite"):
        TrafficSpec.deterministic(bad, 800.0)
    with pytest.raises(ValueError, match="finite"):
        erlang_wait(2, bad)
    with pytest.raises(ValueError, match="finite"):
        queue_wait(2, bad, phy_b11, det800)


@pytest.mark.parametrize("values, mean, variance", [
    ([0.1, 0.2, 0.3], 0.19999999999999998, 0.006666666666666665),  # mean 0.20000000000000004
    ([505.0, 396.0, 204.0, 117.6], 305.65, 23399.767499999998),  # variance 23399.7675
])
def test_empirical_moments_are_the_same_on_every_python_version(values, mean, variance):
    """The sample moments are math.fsum sums, not the builtin sum, which is compensated
    from Python 3.12 on: before 3.12 it gave the moments in the comments."""
    spec = TrafficSpec.empirical(1.0, values)
    assert (spec.payload_mean, spec.payload_variance) == (mean, variance)
