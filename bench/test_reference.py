"""Tests of the benchmark's reference module and output checks.

They run in well under a second and never call the program: the
reference is checked against hand-derived anchors and against itself
(cubic root vs bisection, closed forms vs brute force), and the checks
against outputs synthesised from the reference.
"""

import math
import random

import numpy as np
import pytest

import checks
import reference as ref
import workloads

B11 = ref.link("b", 11e6)
DET800 = ref.Payload.deterministic(800.0)

# Anchors derived by hand for 802.11b at 11 Mbit/s, 800-bit deterministic
# payloads and the deterministic-service form.
F1_100 = 6.311718220197248e-4
F5_100 = 2.091047070008329e-2
LAMBDA_STAR_5 = 1405.7862573980005
MU_1 = 1635.930993456276
S_1 = 6.112727272727273e-4

PROFILES = [("b", r) for r in ref.RATES_B] + [("g", r) for r in ref.RATES_G]
PAYLOADS = [DET800, ref.Payload.exponential(800.0), ref.Payload.uniform(400.0, 1200.0)]


def test_hand_anchors():
    assert ref.service(1, B11, DET800)[0] == pytest.approx(S_1, rel=1e-15)
    assert ref.system_time(1, 100.0, B11, DET800, ref.DET) == pytest.approx(F1_100, rel=1e-14)
    assert ref.system_time(5, 100.0, B11, DET800, ref.DET) == pytest.approx(F5_100, rel=1e-14)
    assert ref.k1_limit(B11, DET800) == pytest.approx(MU_1, rel=1e-14)
    assert ref.lambda_star(5, B11, DET800, ref.DET) == pytest.approx(LAMBDA_STAR_5, rel=1e-12)


def test_chain_identities():
    k = np.arange(1, 30)
    for standard, rate in PROFILES:
        link = ref.link(standard, rate)
        for payload in PAYLOADS:
            for form in (ref.DET, ref.GENERAL):
                c = ref.chain(k, 300.0, link, payload, form)
                stable = c["stable"]
                total = c["erlang_wait"] + c["service_mean"] + c["queue_wait"]
                assert np.allclose(c["system_time"][stable], total[stable], rtol=1e-15)
                assert np.all(np.isinf(c["system_time"][~stable]))
                assert c["gain"][0] == 0.0


def test_general_form_equals_deterministic_for_constant_service():
    link = ref.Link(rate=11e6, slot=20e-6, difs=50e-6, preamble=96e-6, cw=0)
    lam = np.linspace(10.0, 3000.0, 50)
    det = ref.chain(5, lam, link, DET800, ref.DET)
    gen = ref.chain(5, lam, link, DET800, ref.GENERAL)
    assert np.allclose(det["system_time"], gen["system_time"], rtol=1e-14, equal_nan=True)


def test_gain_markers():
    assert ref.gain(10, 1.02 * MU_1, B11, DET800, ref.DET) == -math.inf  # only k=1 unstable
    assert math.isnan(ref.gain(2, 1e4, B11, DET800, ref.DET))  # both unstable
    assert math.isfinite(ref.gain(5, 0.99 * MU_1, B11, DET800, ref.DET))


def _bisect_root(k, link, payload, form):
    """First sign change of the reference's own G on a fine scan, bisected."""
    limit = 0.999 * ref.k1_limit(link, payload)
    grid = np.geomspace(1.0, limit, 4000)
    g = ref.chain(k, grid, link, payload, form)["gain"]
    j = int(np.flatnonzero(g <= 0.0)[0])
    lo, hi = grid[j - 1], grid[j]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ref.gain(k, mid, link, payload, form) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("standard,rate", PROFILES)
def test_cubic_root_matches_bisection(standard, rate):
    link = ref.link(standard, rate)
    for payload in PAYLOADS:
        for form in (ref.DET, ref.GENERAL):
            for k in (2, 3, 7, 20, 64, 150):
                want = _bisect_root(k, link, payload, form)
                assert ref.lambda_star(k, link, payload, form) == pytest.approx(want, rel=1e-11)


def test_optimal_k_is_the_brute_force_argmin():
    for lam in (50.0, 800.0, 1500.0, 1700.0, 5000.0):
        k, f = ref.optimal_k(lam, B11, DET800, ref.DET, 40)
        values = [ref.system_time(j, lam, B11, DET800, ref.DET) for j in range(1, 41)]
        finite = [v for v in values if math.isfinite(v)]
        assert f == min(finite) and values.index(f) + 1 == k


def test_pk_reduces_to_md1():
    link = ref.Link(rate=11e6, slot=20e-6, difs=50e-6, preamble=96e-6, cw=0)
    s = ref.service(1, link, DET800)[0]
    lam = 0.6 / s
    wq, sojourn = ref.pk_sojourn(lam, link, DET800)
    assert wq == pytest.approx(0.6 * s / (2 * 0.4), rel=1e-14)
    assert sojourn == pytest.approx(wq + s, rel=1e-15)


def test_kingman_bounds_pollaczek_khinchine_for_poisson_arrivals():
    for lam in (100.0, 800.0, 1500.0):
        for payload in PAYLOADS:
            assert ref.pk_sojourn(lam, B11, payload)[0] <= ref.kingman_bound(1, lam, B11, payload)


def test_erlang_cv():
    rng = np.random.default_rng(7)
    for k in (1, 5, 20):
        gaps = rng.standard_exponential((200_000, k)).sum(axis=1)
        assert gaps.std() / gaps.mean() == pytest.approx(ref.interbatch_cv(k), rel=0.01)


def test_grid_semantics():
    lin = ref.grid("linear", 1.0, 1600.0, 200)
    geo = ref.grid("geometric", 10.0, 2e4, 50)
    assert len(lin) == 200 and lin[0] == 1.0 and lin[-1] == 1600.0
    assert np.allclose(np.diff(lin), (1600.0 - 1.0) / 199, rtol=1e-9)
    assert geo[-1] == 2e4 and np.allclose(np.diff(np.log(geo)), math.log(2e3) / 49)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_inputs_follow_the_seed(workload):
    a, b, c = (workloads.calls(workload, s) for s in (1, 1, 2))
    assert a == b and a != c
    assert all(isinstance(x, str) for call in a for x in call.argv)
    sims = [call.sim for call in a if call.sim]
    assert sims and all(0 <= s.seed < 2**63 for s in sims)
    kinds = {call.command for call in a}
    assert kinds == {"sweep", "gain", "threshold", "optimal-k", "simulate", "validate"}


def _sweep_text(call, perturb=None):
    k = np.repeat(np.array(call.k, dtype=float), len(call.lam))
    lam = np.tile(np.array(call.lam), len(call.k))
    c = ref.chain(k, lam, call.link, call.payload, call.form)
    lines = [checks.SWEEP_HEADER]
    for i in range(k.size):
        values = [c[f][i] for f in ("erlang_wait", "service_mean", "rho", "queue_wait", "system_time", "gain")]
        if perturb == i:
            values[4] *= 1 + 1e-7
        cells = [str(int(k[i])), f"{lam[i]:.12g}"] + [
            ("inf" if v > 0 else "-inf") if math.isinf(v) else ("nan" if math.isnan(v) else f"{v:.12g}")
            for v in values
        ]
        lines.append(",".join(cells + ["true" if c["stable"][i] else "false"]))
    return "\n".join(lines) + "\n"


def test_sweep_check_accepts_the_reference_and_rejects_a_perturbed_row():
    call = workloads.fig3_sweep("csv")
    checks.check(call, _sweep_text(call))
    with pytest.raises(checks.CheckError):
        checks.check(call, _sweep_text(call, perturb=random.Random(3).randrange(1, 900)))
    rows = _sweep_text(call).split("\n")
    with pytest.raises(checks.CheckError):
        checks.check(call, "\n".join([rows[0], rows[2], rows[1]] + rows[3:]))


def test_threshold_check_rejects_a_root_off_by_2e6():
    call = workloads.preset_threshold("fig4-11", "b", 11e6)
    rows = [checks.THRESHOLD_HEADER]
    for k in call.k:
        star = ref.lambda_star(k, call.link, call.payload, call.form)
        rows.append(f"{k},{star:.12g},{star * (1 - 4e-7):.12g},{star * (1 + 4e-7):.12g},17,true,")
    checks.check(call, "\n".join(rows) + "\n")
    rows[5] = rows[5].replace(rows[5].split(",")[1], repr(float(rows[5].split(",")[1]) * (1 + 2e-6)), 1)
    with pytest.raises(checks.CheckError):
        checks.check(call, "\n".join(rows) + "\n")
