"""Output checks: every CLI output against the reference or a property.

``check(call, text)`` raises :class:`CheckError` on the first mismatch and
returns what the metrics need from a correct output (threshold
iterations). Nothing is compared to a stored copy of an earlier output.

Statistical tolerances scale as ``Z * c / sqrt(frames_measured)`` with
``c`` the largest seed-to-seed spread of ``sqrt(n) * relative error``
measured over the workloads' simulation calls (``tolerances.py``) and
``Z = 8``: a normal deviate that large has odds below 1e-15.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

SWEEP_HEADER = "k,lambda,erlang_wait_s,service_mean_s,rho,queue_wait_s,system_time_s,gain_s,stable"
THRESHOLD_HEADER = "k,lambda_star,lambda_low,lambda_high,iterations,converged,note"
SIM_FIELDS = (
    "frames_generated", "frames_measured", "warmup_excluded", "in_flight",
    "sojourn_mean_s", "sojourn_stddev_s", "ci95_halfwidth_s", "buffer_wait_mean_s",
    "buffer_wait_ci95_s", "queue_wait_mean_s", "service_mean_s",
)
SIM_HEADER = "seed," + ",".join(SIM_FIELDS)

ANALYTIC_RTOL = 1e-9
THRESHOLD_RTOL = 1e-6
Z = 8.0
# sqrt(n) * relative error: the largest seed-to-seed standard deviation
# over the workloads' simulation calls (30 seeds, tolerances.py), rounded
# up. The README lists the study.
SPREAD = {
    "sojourn_standard": 3.5,
    "service_standard": 0.25,
    "buffer": 1.7,
    "service_aggregated": 1.0,
    "cv": 1.2,
}


class CheckError(AssertionError):
    """An output that contradicts the reference or a required property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got, want, rtol: float, what: str, scale=None) -> None:
    """Elementwise |got - want| <= rtol * max(|want|, scale); non-finite must match."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    finite = np.isfinite(want)
    same_nonfinite = np.where(
        np.isnan(want), np.isnan(got), np.where(finite, np.isfinite(got), got == want)
    )
    bound = np.abs(want) if scale is None else np.maximum(np.abs(want), np.abs(scale))
    with np.errstate(invalid="ignore"):
        near = np.where(finite, np.abs(got - want) <= rtol * bound, True)
    bad = np.flatnonzero(~(same_nonfinite & near))
    if bad.size:
        i = int(bad[0])
        raise CheckError(
            f"{what}: {bad.size} of {want.size} values off, first at row {i}: "
            f"got {got.flat[i]!r}, want {want.flat[i]!r}"
        )


def _value(cell):
    """CSV cell or JSON value to a Python float/bool/str."""
    if cell in ("true", "false"):
        return cell == "true"
    if isinstance(cell, str):
        return float(cell)
    return cell


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    _require(lines[0] == header, f"header {lines[0]!r} != {header!r}")
    _require(lines[-1] == "", "output must end in a newline")
    return [line.split(",") for line in lines[1:-1]]


def _sweep_columns(call, text: str) -> dict:
    if call.fmt == "csv":
        rows = _csv(text, SWEEP_HEADER)
        keys = SWEEP_HEADER.split(",")
        _require(all(len(r) == len(keys) for r in rows), "ragged CSV row")
        cols = {key: [r[j] for r in rows] for j, key in enumerate(keys)}
        stable = cols.pop("stable")
        _require(set(stable) <= {"true", "false"}, "stable must be true/false")
        out = {key: np.array(vals, dtype=float) for key, vals in cols.items()}
        out["stable"] = np.array([s == "true" for s in stable])
        return out
    rows = json.loads(text)
    _require(isinstance(rows, list), "JSON sweep must be a list")
    keys = SWEEP_HEADER.split(",")
    _require(all(sorted(r) == sorted(keys) for r in rows), "JSON sweep keys differ from the contract")
    out = {key: np.array([_value(r[key]) for r in rows], dtype=float) for key in keys if key != "stable"}
    stable = [r["stable"] for r in rows]
    _require(all(isinstance(s, bool) for s in stable), "stable must be a JSON boolean")
    out["stable"] = np.array(stable)
    return out


def check_sweep(call, text: str) -> None:
    """Row count, k-outer/lambda-inner order and every field vs the reference."""
    cols = _sweep_columns(call, text)
    n_k, n_lam = len(call.k), len(call.lam)
    _require(cols["k"].size == n_k * n_lam, f"{cols['k'].size} rows, want {n_k * n_lam}")
    k = np.repeat(np.array(call.k, dtype=float), n_lam)
    lam = np.tile(np.array(call.lam), n_k)
    _require(np.array_equal(cols["k"], k), "k column is not k-outer in the requested order")
    _close(cols["lambda"], lam, 1e-11, "lambda column (lambda-inner grid)")
    want = ref.chain(k, lam, call.link, call.payload, call.form)
    for key, field in (
        ("erlang_wait_s", "erlang_wait"),
        ("service_mean_s", "service_mean"),
        ("rho", "rho"),
        ("queue_wait_s", "queue_wait"),
        ("system_time_s", "system_time"),
    ):
        _close(cols[key], want[field], ANALYTIC_RTOL, key)
    # G = F(k) - F(1) cancels; compare it on the scale of F(1).
    _close(cols["gain_s"], want["gain"], ANALYTIC_RTOL, "gain_s", scale=want["system_time_k1"])
    _require(np.array_equal(cols["stable"], want["stable"]), "stable differs from rho < 1")


def check_threshold(call, text: str) -> list[int]:
    """lambda* within 1e-6 of the reference root; returns the iterations column."""
    rows = _csv(text, THRESHOLD_HEADER)
    _require([int(r[0]) for r in rows] == list(call.k), "threshold rows are not the requested k")
    iterations = []
    for r in rows:
        k, star, low, high = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        _require(r[5] == "true" and r[6] == "", f"k={k}: not converged ({r[6]!r})")
        want = ref.lambda_star(k, call.link, call.payload, call.form)
        _require(
            abs(star - want) <= THRESHOLD_RTOL * want,
            f"k={k}: lambda_star {star!r}, reference root {want!r}",
        )
        _require(
            low * (1 - 1e-9) <= want <= high * (1 + 1e-9),
            f"k={k}: bracket [{low!r}, {high!r}] misses the root {want!r}",
        )
        iterations.append(int(r[4]))
    return iterations


def check_optimal_k(call, text: str) -> None:
    """The reported k minimises F over 1..k_max (ties within 1e-12 allowed)."""
    if call.fmt == "json":
        rec = {key: _value(v) for key, v in json.loads(text).items()}
    else:
        header, values, end = text.split("\n")
        _require(end == "", "output must end in a newline")
        rec = {key: _value(v) for key, v in zip(header.split(","), values.split(","))}
    (lam,) = call.lam
    _require(rec["k_max"] == call.k_max, "k_max echo differs")
    _close(rec["lambda"], lam, 1e-11, "lambda echo")
    k_best, f_best = ref.optimal_k(lam, call.link, call.payload, call.form, call.k_max)
    k = int(rec["k_best"])
    want = ref.chain(k, lam, call.link, call.payload, call.form)
    _require(1 <= k <= call.k_max, f"k_best {k} outside 1..{call.k_max}")
    _require(
        k == k_best or abs(float(want["system_time"]) - f_best) <= 1e-12 * f_best,
        f"k_best {k}, reference argmin {k_best}",
    )
    for key, field in (
        ("erlang_wait_s", "erlang_wait"),
        ("service_mean_s", "service_mean"),
        ("rho", "rho"),
        ("queue_wait_s", "queue_wait"),
        ("system_time_s", "system_time"),
    ):
        _close(rec[key], want[field], ANALYTIC_RTOL, key)
    _close(rec["gain_s"], want["gain"], ANALYTIC_RTOL, "gain_s", scale=want["system_time_k1"])
    _require(rec["stable"] == bool(want["stable"]), "stable differs from rho < 1")


def _stat_tol(name: str, measured: int) -> float:
    return Z * SPREAD[name] / math.sqrt(measured)


def sim_errors(sim, result: dict, link, payload) -> dict:
    """Relative error of each statistic whose mean is known exactly."""
    if sim.mode == "standard":
        return {
            "sojourn_standard": result["sojourn_mean_s"] / ref.pk_sojourn(sim.lam, link, payload)[1] - 1.0,
            "service_standard": result["service_mean_s"] / ref.service(1, link, payload)[0] - 1.0,
        }
    return {
        "buffer": result["buffer_wait_mean_s"] / ref.buffer_wait(sim.k, sim.lam) - 1.0,
        "service_aggregated": result["service_mean_s"] / ref.service(sim.k, link, payload)[0] - 1.0,
    }


def check_sim_result(sim, result: dict, link, payload) -> None:
    """Frame accounting, the sojourn decomposition and the queueing laws."""
    _require(sorted(result) == sorted(SIM_FIELDS), "sim fields differ")
    gen, meas = result["frames_generated"], result["frames_measured"]
    _require(gen == sim.frames, f"frames_generated {gen} != {sim.frames}")
    _require(
        gen == meas + result["warmup_excluded"] + result["in_flight"],
        "frames_generated != measured + warmup_excluded + in_flight",
    )
    _require(result["warmup_excluded"] == sim.warmup and meas > 0, "warm-up accounting")
    parts = result["buffer_wait_mean_s"] + result["queue_wait_mean_s"] + result["service_mean_s"]
    _require(
        abs(result["sojourn_mean_s"] - parts) <= 1e-9 * result["sojourn_mean_s"],
        f"sojourn {result['sojourn_mean_s']!r} != buffer + queue + service {parts!r}",
    )
    if sim.mode == "standard":
        _require(result["buffer_wait_mean_s"] == 0.0, "standard mode has no buffer wait")
    else:
        bound = ref.kingman_bound(sim.k, sim.lam, link, payload)
        _require(
            0.0 <= result["queue_wait_mean_s"] <= bound,
            f"queue wait {result['queue_wait_mean_s']!r} above Kingman's bound {bound!r}",
        )
    for name, err in sim_errors(sim, result, link, payload).items():
        _require(abs(err) <= _stat_tol(name, meas), f"{name}: relative error {err:+.3e} over {meas} frames")


def _sim_records(call, text: str) -> list[tuple[int, dict]]:
    sim = call.sim
    if call.fmt == "csv":
        rows = _csv(text, SIM_HEADER)
        records = []
        for r in rows:
            rec = {key: int(v) if j < 4 else float(v) for j, (key, v) in enumerate(zip(SIM_FIELDS, r[1:]))}
            records.append((int(r[0]), rec))
        return records
    data = json.loads(text)
    if sim.replications == 1:
        return [(sim.seed, data)]
    return [(item["seed"], item["result"]) for item in data]


def check_simulate(call, text: str) -> None:
    sim = call.sim
    records = _sim_records(call, text)
    _require(
        [seed for seed, _ in records] == list(range(sim.seed, sim.seed + sim.replications)),
        "one row per replication seed, in order",
    )
    for _, rec in records:
        check_sim_result(sim, rec, call.link, call.payload)


def check_validate(call, text: str) -> None:
    sim = call.sim
    rep = json.loads(text)
    want = ref.system_time(sim.k, sim.lam, call.link, call.payload, call.form)
    _require(
        rep["mode"] == sim.mode and rep["k"] == sim.k and rep["form"] == call.form and rep["analytic_stable"],
        "validate echo differs",
    )
    _close(rep["lambda_pps"], sim.lam, 1e-12, "lambda_pps")
    _close(rep["analytic_system_time_s"], want, ANALYTIC_RTOL, "analytic_system_time_s")
    check_sim_result(sim, rep["sim"], call.link, call.payload)
    deviation = abs(rep["sim"]["sojourn_mean_s"] - rep["analytic_system_time_s"])
    _close(rep["abs_deviation_s"], deviation, 1e-12, "abs_deviation_s")
    _close(rep["rel_deviation"], deviation / rep["analytic_system_time_s"], 1e-12, "rel_deviation")
    n_marks = sim.frames // sim.k
    cv_err = rep["interbatch_cv"] / ref.interbatch_cv(sim.k) - 1.0
    _require(
        abs(cv_err) <= _stat_tol("cv", n_marks),
        f"interbatch_cv {rep['interbatch_cv']!r}, Erlang-{sim.k} value {ref.interbatch_cv(sim.k)!r}",
    )


def check(call, text: str):
    """Check one output; returns threshold iterations, else None."""
    if call.command in ("sweep", "gain"):
        return check_sweep(call, text)
    if call.command == "threshold":
        return check_threshold(call, text)
    if call.command == "optimal-k":
        return check_optimal_k(call, text)
    if call.command == "simulate":
        return check_simulate(call, text)
    return check_validate(call, text)
