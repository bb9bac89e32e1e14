"""The numpy kernel against the scalar chain it replaced, and the
closed-form lambda*(k) against a scan-and-bisection oracle.

``reference_chain`` is the per-point pure-Python chain, in the operation
order the model documents; the kernel must reproduce it bit for bit.
``bisection_threshold`` is the geometric scan plus bisection that the
closed form replaced, run on the reference gain to 1e-12.
"""

import math
import random
from operator import attrgetter

import pytest

from aggdelay import (
    PKForm,
    SearchParams,
    TrafficSpec,
    backoff_moments,
    evaluate,
    gain,
    gain_grid,
    lambda_threshold,
    optimal_k,
    overhead_gamma,
    profile_for,
)
from aggdelay.cli import _SWEEP_FIELDS, _render, fmt
from conftest import custom_profile, sweep_text

DET = PKForm.DETERMINISTIC_SERVICE
FIELDS = ("erlang_wait", "service_mean", "service_variance", "lambda_a", "rho",
          "queue_wait", "system_time", "gain", "stable")
PRESET_PHYS = [("b", r) for r in (1e6, 2e6, 5.5e6, 11e6)] + [
    ("g", r) for r in (6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6)
]


def families():
    """One traffic spec per payload family, all with an 800-bit mean."""
    return [
        TrafficSpec.deterministic(100.0, 800.0),
        TrafficSpec.exponential(100.0, 800.0),
        TrafficSpec.uniform_range(100.0, 400.0, 1200.0),
        TrafficSpec.empirical(100.0, [400.0, 800.0, 1200.0]),
    ]


def reference_system(phy, traffic, form):
    """Per-point F(j, lam) as the scalar model computed it, and s_j."""
    backoff_mean, backoff_var = backoff_moments(phy)
    gamma = overhead_gamma(phy).gamma_total

    def service(j):
        return j * traffic.payload_mean / phy.bit_rate + gamma + backoff_mean

    def point(j, lam):
        mean = service(j)
        var = backoff_var + j * traffic.payload_variance / phy.bit_rate**2
        lam_a = lam / j
        rho = lam_a * mean
        if rho >= 1.0:
            wait = math.inf
        elif form is DET:
            wait = lam_a * mean * mean / (2.0 * (1.0 - rho))
        else:
            wait = (lam_a * lam_a * var + rho * rho) / (2.0 * lam_a * (1.0 - rho))
        erlang = (j - 1) / (2.0 * lam)
        total = math.inf if math.isinf(wait) else erlang + mean + wait
        return erlang, mean, var, lam_a, rho, wait, total, rho < 1.0

    return point, service


def reference_chain(k, lam, phy, traffic, form):
    point, _ = reference_system(phy, traffic, form)
    erlang, mean, var, lam_a, rho, wait, f_k, stable = point(k, lam)
    f_1 = point(1, lam)[6]
    if k == 1:
        g = 0.0
    elif math.isinf(f_k) and math.isinf(f_1):
        g = math.nan
    elif math.isinf(f_1):
        g = -math.inf
    elif math.isinf(f_k):
        g = math.inf
    else:
        g = f_k - f_1
    return dict(zip(FIELDS, (erlang, mean, var, lam_a, rho, wait, f_k, g, stable)))


def same(a, b) -> bool:
    """Bitwise equality of two floats (any NaN equals any NaN), or of bools."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def random_phy(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:  # preset
        return profile_for(*rng.choice(PRESET_PHYS))
    if kind == 1:  # no overhead at all: payload-only service times
        return custom_profile(bit_rate=rng.uniform(1e6, 6e7), difs=0.0, sifs=0.0,
                              preamble=0.0, cw=0, mac_header_bits=0, crc_bits=0,
                              ack_bits=0, backoff_override=rng.choice([None, 0.0]))
    return custom_profile(
        bit_rate=rng.uniform(1e6, 6e7),
        slot=rng.uniform(1e-6, 5e-5),
        difs=rng.uniform(0.0, 2e-4),
        sifs=rng.uniform(0.0, 5e-5),
        preamble=rng.uniform(0.0, 2e-4),
        cw=0 if kind == 2 else rng.randint(1, 64),
        mac_header_bits=rng.randint(0, 512),
        crc_bits=rng.randint(0, 64),
        ack_bits=rng.randint(0, 256),
        ack_rate=rng.uniform(1e6, 6e7),
        backoff_override=rng.choice([None, None, rng.uniform(0.0, 1e-3)]),
    )


def random_case(rng: random.Random):
    phy = random_phy(rng)
    mean = rng.uniform(64.0, 12000.0)
    lo = rng.uniform(0.0, mean)
    traffic = rng.choice([
        TrafficSpec.deterministic(1.0, mean),
        TrafficSpec.exponential(1.0, mean),
        TrafficSpec.uniform_range(1.0, lo, 2.0 * mean - lo),
        TrafficSpec.empirical(1.0, [rng.uniform(1.0, 2.0 * mean) for _ in range(5)]),
    ])
    return phy, traffic


def rates(rng, phy, traffic, k_values):
    """Rates from light load to past every stability limit: both queues
    stable, only k=1 unstable (G = -inf) and both unstable (G = NaN)."""
    _, service = reference_system(phy, traffic, DET)
    mu_1, mu_k = 1.0 / service(1), max(k / service(k) for k in k_values)
    out = [mu_1 * rng.uniform(0.01, 0.999) for _ in range(6)]
    out += [rng.uniform(mu_1, mu_k) for _ in range(3)] + [mu_k * rng.uniform(1.0, 3.0)]
    return out + [mu_1]  # rho = 1 exactly at k = 1 (up to rounding)


def test_kernel_matches_reference_chain_bitwise():
    rng = random.Random(0xC4A1)
    seen = set()
    for _ in range(60):
        phy, traffic = random_case(rng)
        k_values = sorted(rng.sample(range(1, 151), 5) + [1])
        lams = rates(rng, phy, traffic, k_values)
        for form in PKForm:
            rows = gain_grid(k_values, lams, phy, traffic, form)
            assert [(r.k, r.lam) for r in rows] == [(k, lam) for k in k_values for lam in lams]
            for row in rows:
                want = reference_chain(row.k, row.lam, phy, traffic, form)
                got = evaluate(row.k, row.lam, phy, traffic, form)
                for field in FIELDS:
                    assert same(getattr(got, field), want[field]), (field, row.k, row.lam)
                    if hasattr(row, field):
                        assert same(getattr(row, field), want[field]), (field, row.k, row.lam)
                assert same(gain(row.k, row.lam, phy, traffic, form), want["gain"])
                g = want["gain"]
                seen.add("nan" if math.isnan(g) else g if math.isinf(g) else "finite")
    assert {"finite", -math.inf, "nan"} <= seen


def test_columnar_sweep_text_matches_the_per_record_route():
    """sweep_csv and sweep_json format the kernel's columns a k-row at a
    time; their bytes must equal _render over one dict per QueueMetrics row."""
    row_values = attrgetter(*_SWEEP_FIELDS.values())
    rng = random.Random(0x5EE9)
    # Overhead-free service: every k shares one stability limit, and just below
    # it rounding leaves k=7 unstable and k=1 stable, the one way to a +inf gain.
    bare = custom_profile(bit_rate=1e6, difs=0.0, sifs=0.0, preamble=0.0, cw=0,
                          mac_header_bits=0, crc_bits=0, ack_bits=0, backoff_override=0.0)
    cases = [(bare, TrafficSpec.deterministic(1.0, 149.0), [1, 7], [math.nextafter(1e6 / 149.0, 0.0)])]
    for n in range(30):
        phy, traffic = random_case(rng)
        k_values = sorted(set(rng.sample(range(1, 151), 4)) | {1})
        lams = rates(rng, phy, traffic, k_values)
        if n % 3 == 0:  # a single-rate gain call
            k_values, lams = [rng.choice(k_values)], [rng.choice(lams)]
        elif n % 3 == 1:
            lams = rng.sample(lams, len(lams))
        cases.append((phy, traffic, k_values, lams))
    gains = set()
    for phy, traffic, k_values, lams in cases:
        for form in PKForm:
            grid = gain_grid(k_values, lams, phy, traffic, form)
            records = [dict(zip(_SWEEP_FIELDS, row_values(row))) for row in list(grid)]
            assert sweep_text(grid, "csv") == _render(records, "csv")
            assert sweep_text(grid, "json") == _render(records, "json")
            gains.update("finite" if math.isfinite(g) and g else fmt(g) for g in grid.columns.gain.flat)
    assert gains == {"0", "finite", "inf", "-inf", "nan"}


@pytest.mark.parametrize("form", list(PKForm))
@pytest.mark.parametrize("family", range(4))
def test_optimal_k_matches_scalar_argmin(form, family):
    phy = profile_for("b", 11e6)
    traffic = families()[family]
    mu_1 = 1.0 / reference_system(phy, traffic, form)[1](1)
    for factor in (0.05, 0.3, 0.6, 0.9, 0.99, 1.5, 4.0, 40.0):
        lam = factor * mu_1
        totals = [reference_chain(k, lam, phy, traffic, form)["system_time"]
                  for k in range(1, 151)]
        finite = [(f, k) for k, f in enumerate(totals, 1) if math.isfinite(f)]
        want = min(finite)[1] if finite else 150  # first k of the smallest F
        k_best, metrics = optimal_k(lam, phy, traffic, form, k_max=150)
        assert k_best == want == metrics.k
        reference = reference_chain(want, lam, phy, traffic, form)
        assert all(same(getattr(metrics, f), reference[f]) for f in FIELDS)


def bisection_threshold(k, phy, traffic, form, rel_tol=1e-12, scan_points=64):
    """The scan-and-bisection search of lambda*(k) on the reference gain."""
    point, service = reference_system(phy, traffic, form)

    def g(lam):  # inf - finite, finite - inf and inf - inf: gain()'s inf, -inf and NaN
        return point(k, lam)[6] - point(1, lam)[6]

    lam_min, lam_max = 1.0, 0.999 / service(1)
    assert g(lam_min) > 0.0
    ratio = (lam_max / lam_min) ** (1.0 / (scan_points - 1))
    low, high = lam_min, None
    for i in range(1, scan_points):
        candidate = lam_max if i == scan_points - 1 else lam_min * ratio**i
        if g(candidate) <= 0.0:
            high = candidate
            break
        low = candidate
    if high is None:
        return math.nan
    while high - low > rel_tol * high:
        mid = 0.5 * (low + high)
        if g(mid) > 0.0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


THRESHOLD_KS = (*range(2, 21), *range(30, 151, 20))
# 99 payloads of 100 bits and one of 1e6: the break-even cubic of many of
# these solves has one real root, which comes from the Cardano form.
HEAVY_TAIL = TrafficSpec.empirical(100.0, [100.0] * 99 + [1e6])


@pytest.mark.parametrize("standard, rate", PRESET_PHYS)
def test_closed_form_threshold_matches_bisection(standard, rate):
    phy = profile_for(standard, rate)
    worst = 0.0
    for traffic in [*families(), HEAVY_TAIL]:
        for form in PKForm:
            for k in THRESHOLD_KS:
                want = bisection_threshold(k, phy, traffic, form)
                result = lambda_threshold(k, phy, traffic, form)
                if math.isnan(want):  # no root below mu(1) for either method
                    assert traffic is HEAVY_TAIL and not result.converged, (k, form)
                    assert math.isnan(result.lambda_star)
                    continue
                assert result.converged and result.note == "", (k, form, traffic)
                worst = max(worst, abs(result.lambda_star - want) / want)
                low, high = result.bracket
                assert low < result.lambda_star < high
                assert high - low <= 1e-6 * high
                assert gain(k, low, phy, traffic, form) > 0.0
                assert gain(k, high, phy, traffic, form) <= 0.0
                assert 1 <= result.iterations <= 8
    assert worst <= 1e-9


def test_threshold_with_lambda_max_above_mu1(phy_b11, det800):
    mu_1 = 1.0 / reference_system(phy_b11, det800, DET)[1](1)
    default = lambda_threshold(5, phy_b11, det800)
    wide = lambda_threshold(5, phy_b11, det800, search=SearchParams(lambda_max=3.0 * mu_1))
    assert wide.converged and wide == default


def test_threshold_lambda_min_above_root_returns_lambda_min(phy_b11, exp800):
    star = lambda_threshold(3, phy_b11, exp800, PKForm.GENERAL_PK).lambda_star
    lam_min = star * (1.0 + 1e-6)
    result = lambda_threshold(
        3, phy_b11, exp800, PKForm.GENERAL_PK, SearchParams(lambda_min=lam_min)
    )
    assert result.converged and result.iterations == 0
    assert result.lambda_star == lam_min and result.bracket == (lam_min, lam_min)


def test_threshold_lambda_max_just_below_root_does_not_converge(phy_b11, det800):
    star = lambda_threshold(7, phy_b11, det800).lambda_star
    search = SearchParams(lambda_max=star * (1.0 - 1e-9))
    result = lambda_threshold(7, phy_b11, det800, search=search)
    assert not result.converged and math.isnan(result.lambda_star)
    assert result.bracket == (1.0, search.lambda_max)
    assert result.note == "no sign change within the search range"


def test_threshold_without_overhead_has_no_root():
    # With no overhead and no backoff W(k) = k W(1), so G > 0 up to mu(1).
    phy = custom_profile(difs=0.0, sifs=0.0, preamble=0.0, cw=0, mac_header_bits=0,
                         crc_bits=0, ack_bits=0)
    traffic = TrafficSpec.deterministic(1.0, 800.0)
    mu_1 = 1.0 / reference_system(phy, traffic, DET)[1](1)
    for k in (2, 5, 50, 150):
        assert math.isnan(bisection_threshold(k, phy, traffic, DET))
        # Past mu(1) both queues are unstable; the cubic's root at the pole is no sign change.
        for search in (SearchParams(), SearchParams(lambda_max=3.0 * mu_1)):
            result = lambda_threshold(k, phy, traffic, search=search)
            assert not result.converged and math.isnan(result.lambda_star)
