"""Search routines on top of the analytic model.

``lambda_threshold`` finds the traffic rate where the aggregation gain
G(k) first turns non-positive (the break-even point), ``optimal_k`` picks
the batch size minimizing mean system time at a fixed rate, and
``gain_grid`` evaluates a (k, lambda) grid for serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import PKForm, QueueMetrics, TrafficSpec, evaluate, gain, service_time
from .phy import PhyProfile


@dataclass(frozen=True)
class SearchParams:
    """Bracketing search configuration for :func:`lambda_threshold`.

    ``lambda_max=None`` defaults to 0.999 times the k=1 stability limit
    mu(1): past that point G is -inf by convention, so any sign change
    has already happened. Tolerance is relative on lambda.
    """

    lambda_min: float = 1.0
    lambda_max: float | None = None
    rel_tol: float = 1e-6
    max_iter: int = 200
    scan_points: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_min < math.inf:
            raise ValueError("lambda_min must be positive and finite")
        if self.lambda_max is not None and not (
            self.lambda_min < self.lambda_max < math.inf
        ):
            raise ValueError("lambda_max must be finite and exceed lambda_min")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.scan_points < 2:
            raise ValueError("scan_points must be >= 2")


@dataclass(frozen=True)
class ThresholdResult:
    """Located sign change of lambda -> G(k, lambda).

    When ``converged`` and ``note`` is empty, the bracket satisfies
    G(lambda_low) > 0 >= G(lambda_high) and its width is within the
    relative tolerance. ``lambda_star`` is NaN when not converged.
    """

    k: int
    lambda_star: float
    bracket: tuple[float, float]
    iterations: int
    converged: bool
    note: str = ""


@dataclass(frozen=True)
class SweepRow:
    """One (k, lambda) grid point, mirroring the model outputs."""

    k: int
    lam: float
    erlang_wait: float
    service_mean: float
    rho: float
    queue_wait: float
    system_time: float
    gain: float
    stable: bool

    @classmethod
    def from_metrics(cls, lam: float, m: QueueMetrics) -> "SweepRow":
        return cls(
            k=m.k,
            lam=lam,
            erlang_wait=m.erlang_wait,
            service_mean=m.service_mean,
            rho=m.rho,
            queue_wait=m.queue_wait,
            system_time=m.system_time,
            gain=m.gain,
            stable=m.stable,
        )


def k1_stability_limit(phy: PhyProfile, traffic: TrafficSpec) -> float:
    """Largest arrival rate with a stable unaggregated queue: mu(1)."""
    return 1.0 / service_time(1, phy, traffic)


def lambda_threshold(
    k: int,
    phy: PhyProfile,
    traffic: TrafficSpec,
    form: PKForm = PKForm.DETERMINISTIC_SERVICE,
    search: SearchParams = SearchParams(),
) -> ThresholdResult:
    """Smallest rate where G(k, .) changes from positive to non-positive.

    A coarse geometric scan over [lambda_min, lambda_max] locates the
    first bracketing pair, then bisection narrows it to the relative
    tolerance. If G is already non-positive at lambda_min the result is
    converged at lambda_min with an explanatory note; if no sign change
    exists in range, ``converged`` is False.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"threshold search needs an integer k >= 2, got {k!r}")
    lam_max = search.lambda_max
    if lam_max is None:
        lam_max = 0.999 * k1_stability_limit(phy, traffic)
    if lam_max <= search.lambda_min:
        raise ValueError(
            f"empty search range: lambda_max {lam_max:g} <= lambda_min "
            f"{search.lambda_min:g}"
        )

    def g(lam: float) -> float:
        return gain(k, lam, phy, traffic, form)

    lam_min = search.lambda_min
    if g(lam_min) <= 0.0:
        return ThresholdResult(
            k=k,
            lambda_star=lam_min,
            bracket=(lam_min, lam_min),
            iterations=0,
            converged=True,
            note="gain already non-positive at lambda_min",
        )

    # Geometric scan for the first positive -> non-positive pair.
    n = search.scan_points
    ratio = (lam_max / lam_min) ** (1.0 / (n - 1))
    low = lam_min
    high = None
    for i in range(1, n):
        candidate = lam_max if i == n - 1 else lam_min * ratio**i
        if g(candidate) <= 0.0:
            high = candidate
            break
        low = candidate
    if high is None:
        return ThresholdResult(
            k=k,
            lambda_star=math.nan,
            bracket=(lam_min, lam_max),
            iterations=0,
            converged=False,
            note="no sign change within the search range",
        )

    iterations = 0
    while high - low > search.rel_tol * high and iterations < search.max_iter:
        mid = 0.5 * (low + high)
        if g(mid) > 0.0:
            low = mid
        else:
            high = mid
        iterations += 1
    converged = high - low <= search.rel_tol * high
    return ThresholdResult(
        k=k,
        lambda_star=0.5 * (low + high),
        bracket=(low, high),
        iterations=iterations,
        converged=converged,
        note="" if converged else "bisection hit max_iter",
    )


def optimal_k(
    lam: float,
    phy: PhyProfile,
    traffic: TrafficSpec,
    form: PKForm = PKForm.DETERMINISTIC_SERVICE,
    k_max: int = 20,
) -> tuple[int, QueueMetrics]:
    """Batch size in {1, ..., k_max} minimizing the finite mean system time.

    Ties break toward smaller k. If no batch size yields a stable queue,
    returns k_max with its (unstable) metrics so the caller sees the flag.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    best: QueueMetrics | None = None
    for k in range(1, k_max + 1):
        m = evaluate(k, lam, phy, traffic, form)
        if math.isinf(m.system_time):
            continue
        if best is None or m.system_time < best.system_time:
            best = m
    if best is None:
        return k_max, evaluate(k_max, lam, phy, traffic, form)
    return best.k, best


def gain_grid(
    k_set,
    lambda_grid,
    phy: PhyProfile,
    traffic: TrafficSpec,
    form: PKForm = PKForm.DETERMINISTIC_SERVICE,
) -> list[SweepRow]:
    """Evaluate every (k, lambda) pair, k outer and lambda inner.

    Rows for unstable points carry the unbounded markers; nothing is
    omitted. Pure function of its inputs.
    """
    k_values = list(k_set)
    lam_values = [float(lam) for lam in lambda_grid]
    if not k_values or not lam_values:
        raise ValueError("k_set and lambda_grid must be non-empty")
    rows = []
    for k in k_values:
        for lam in lam_values:
            rows.append(SweepRow.from_metrics(lam, evaluate(k, lam, phy, traffic, form)))
    return rows
