"""Search routines on top of the analytic model.

``lambda_thresholds`` finds, for each k, the rate where the aggregation gain
G(k) first turns non-positive (the break-even point), a cubic root in closed
form, and checks all k in one kernel call (``lambda_threshold``: one k).
``optimal_k`` picks the batch size minimizing mean system time at a fixed
rate, and ``gain_grid`` evaluates a (k, lambda) grid, all on the model's one
numpy kernel. ``optimal_k`` returns its point as the ``QueueMetrics`` record
``evaluate`` gives; ``gain_grid`` a ``GainGrid``, a sequence of those records."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

# evaluate and gain stay importable from this module, where profilers wrap them.
from .model import PKForm, QueueMetrics, TrafficSpec, evaluate, gain, service_time  # noqa: F401
from .model import _DEFAULT_FORM, _Chain, _chain, _check_k, _check_lambda, _moments, _service
from .phy import PhyProfile


# Bounds the memory of one kernel call: the points of a sweep's call, the batch sizes of
# an optimal_k or lambda_thresholds one. One 2^16-point sweep call alone grew peak RSS by
# about 9.5 MB; at 2^12 a sweep's memory stays within a few MB of a small one's.
OPTIMAL_K_CHUNK = 2**12


@dataclass(frozen=True)
class SearchParams:
    """Search range and tolerance of :func:`lambda_threshold`.

    ``lambda_max=None`` defaults to 0.999 times the k=1 stability limit
    mu(1): past that point G is -inf by convention, so any sign change
    has already happened. ``rel_tol`` is the relative width of the
    verified bracket.
    """

    lambda_min: float = 1.0
    lambda_max: float | None = None
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_min < math.inf:
            raise ValueError("lambda_min must be positive and finite")
        if self.lambda_max is not None and not (
            self.lambda_min < self.lambda_max < math.inf
        ):
            raise ValueError("lambda_max must be finite and exceed lambda_min")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be finite and in (0, 1), got {self.rel_tol!r}")


@dataclass(frozen=True)
class ThresholdResult:
    """Located sign change of lambda -> G(k, lambda).

    When ``converged`` and ``note`` is empty, the bracket satisfies
    G(lambda_low) > 0 >= G(lambda_high) and its width is within the
    relative tolerance. ``lambda_star`` is NaN when not converged.
    ``iterations`` counts the Newton steps that polished the cubic root.
    """

    k: int
    lambda_star: float
    bracket: tuple[float, float]
    iterations: int
    converged: bool
    note: str = ""


def k1_stability_limit(phy: PhyProfile, traffic: TrafficSpec) -> float:
    """Largest arrival rate with a stable unaggregated queue: mu(1)."""
    return 1.0 / service_time(1, phy, traffic)


def _break_even_cubic(k: int, s_k: float, q_k: float, s_1: float, q_1: float) -> tuple:
    """Coefficients c0..c3 of P(lam) = 2 lam (k - lam s_k)(1 - lam s_1) G(k, lam).

    With q_j the second moment term of W_j = lam q_j / (2 (j - lam s_j))
    (s_j^2, plus the service variance in the general form) and
    A = (k - lam s_k)(1 - lam s_1) = k + a1 lam + a2 lam^2:

        P = (k-1) A + 2 (s_k - s_1) lam A + lam^2 (q_k (1 - lam s_1) - q_1 (k - lam s_k))

    P has the sign of G wherever both queues are stable, and c0 = k(k-1) > 0.
    """
    a1, a2, d = -(k * s_1 + s_k), s_k * s_1, 2.0 * (s_k - s_1)
    c2 = (k - 1) * a2 + d * a1 + q_k - k * q_1
    return (k - 1) * k, (k - 1) * a1 + d * k, c2, d * a2 + q_1 * s_k - q_k * s_1


def _positive_roots(c0: float, c1: float, c2: float, c3: float) -> list[float]:
    """Positive real roots of c0 + c1 x + c2 x^2 + c3 x^3 for c0 != 0.

    In y = 1/x the cubic is y^3 + a y^2 + b y + c with a = c1/c0, b = c2/c0,
    c = c3/c0, which stays a cubic however small c3 is. Its real roots
    come from the trigonometric or Cardano form (Numerical Recipes 5.6).
    """
    a, b, c = c1 / c0, c2 / c0, c3 / c0
    q = (a * a - 3.0 * b) / 9.0
    r = (2.0 * a * a * a - 9.0 * a * b + 27.0 * c) / 54.0
    if r * r < q * q * q:
        theta = math.acos(max(-1.0, min(1.0, r / math.sqrt(q * q * q))))  # |.| <= 1 up to rounding
        ys = [-2.0 * math.sqrt(q) * math.cos((theta + 2.0 * math.pi * j) / 3.0) - a / 3.0
              for j in (0, 1, 2)]
    else:
        u = -math.copysign((abs(r) + math.sqrt(r * r - q * q * q)) ** (1.0 / 3.0), r)
        ys = [u + (q / u if u else 0.0) - a / 3.0]
    return [1.0 / y for y in ys if y > 0.0]


def _polish(coeffs: tuple, x: float) -> tuple[float, int]:
    """At most 8 Newton steps on the cubic from x, until one is within 4 ulp."""
    c0, c1, c2, c3 = coeffs
    for steps in range(1, 9):
        slope = (3.0 * c3 * x + 2.0 * c2) * x + c1
        step = (((c3 * x + c2) * x + c1) * x + c0) / slope if slope else 0.0
        x -= step
        if abs(step) <= 4.0 * math.ulp(x):
            break
    return x, steps


def lambda_threshold(
    k: int, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM,
    search: SearchParams = SearchParams(),
) -> ThresholdResult:
    """Smallest rate where G(k, .) changes from positive to non-positive, for one k."""
    return lambda_thresholds((k,), phy, traffic, form, search)[0]


def lambda_thresholds(
    k_values, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM,
    search: SearchParams = SearchParams(),
) -> list[ThresholdResult]:
    """For each k, the smallest rate where G(k, .) changes from positive to non-positive.

    lambda* is the smallest root of ``_break_even_cubic`` in (lambda_min,
    min(lambda_max, k/s_k, 1/s_1)) in closed form, polished by Newton steps;
    a kernel call checks G(low) > 0 >= G(high) on lambda* (1 -/+ rel_tol/4),
    once per ``OPTIMAL_K_CHUNK`` batch sizes. If G is already non-positive at
    lambda_min the result is converged at lambda_min with a note; if no root
    lies in range, or G does not change sign across it, ``converged`` is False.
    """
    k_values = tuple(k_values)
    if bad := [k for k in k_values if not isinstance(k, int) or k < 2]:
        raise ValueError(f"threshold search needs an integer k >= 2, got {bad[0]!r}")
    m = _moments(phy, traffic)
    s_1, v_1 = _service(1, m)
    lam_min = search.lambda_min
    lam_max = 0.999 * (1.0 / s_1) if search.lambda_max is None else search.lambda_max
    if lam_max <= lam_min:
        raise ValueError(f"empty search range: lambda_max {lam_max:g} <= lambda_min {lam_min:g}")
    tol, general = 0.25 * search.rel_tol, form is PKForm.GENERAL_PK
    q_1, results = s_1 * s_1 + (v_1 if general else 0.0), []
    for start in range(0, len(k_values), OPTIMAL_K_CHUNK):
        chunk, solves = k_values[start:start + OPTIMAL_K_CHUNK], []
        for k in chunk:
            s_k, v_k = _service(k, m)
            coeffs = _break_even_cubic(k, s_k, s_k * s_k + (v_k if general else 0.0), s_1, q_1)
            limit = min(k / s_k, 1.0 / s_1)
            roots = [x for x in _positive_roots(*coeffs) if lam_min < x < limit and x <= lam_max]
            root, steps = _polish(coeffs, min(roots)) if roots else (math.nan, 0)
            solves.append((bool(roots), root, steps, root * (1.0 - tol), root * (1.0 + tol)))
        lam = np.empty((len(chunk), 3))
        lam[:, 0], lam[:, 1], lam[:, 2] = lam_min, [s[3] for s in solves], [s[4] for s in solves]
        gains = _chain(np.array(chunk, dtype=float)[:, None], lam, m, form).gain.tolist()
        for k, (found, root, steps, low, high), g in zip(chunk, solves, gains):
            if g[0] <= 0.0:
                r = lam_min, (lam_min, lam_min), 0, True, "gain already non-positive at lambda_min"
            elif not found:
                r = math.nan, (lam_min, lam_max), 0, False, "no sign change within the search range"
            else:
                ok = g[1] > 0.0 >= g[2]
                r = (root if ok else math.nan, (low, high), steps, ok,
                     "" if ok else "gain does not change sign across the cubic root")
            results.append(ThresholdResult(k, *r))
    return results


def optimal_k(
    lam: float, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM, k_max: int = 20
) -> tuple[int, QueueMetrics]:
    """Batch size in {1, ..., k_max} minimizing the finite mean system time.

    Ties break toward smaller k. If no batch size yields a stable queue,
    returns k_max with its (unstable) metrics so the caller sees the flag.
    The kernel runs on ``OPTIMAL_K_CHUNK`` batch sizes at a time, so memory
    stays bounded however large k_max is.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    _check_lambda(lam)
    m, lam_64, best, best_total = _moments(phy, traffic), np.float64(lam), None, math.inf
    for start in range(1, k_max + 1, OPTIMAL_K_CHUNK):
        k = np.arange(float(start), min(start + OPTIMAL_K_CHUNK, k_max + 1.0))
        values = _chain(k, lam_64, m, form)
        total = np.where(np.isfinite(values.system_time), values.system_time, np.inf)
        i = int(np.argmin(total))
        if total[i] == math.inf:
            i = len(total) - 1  # no stable k here: the last one, which is k_max if none is
        if total[i] < best_total or best_total == math.inf:  # strictly: ties keep the smaller k
            best, best_total = (start + i, [value[i].item() for value in values]), total[i]
        del k, values, total  # free this chunk before the next is computed
    return best[0], QueueMetrics(best[0], float(lam), *best[1])


class GainGrid(Sequence):
    """``QueueMetrics`` rows of a (k, lambda) grid, k outer, built only when indexed or
    iterated from ``k_values``, ``lam_values`` and the kernel's ``columns`` broadcast to
    (k, lambda). It equals a list of the same rows."""

    def __init__(self, k_values: tuple, lam_values: list, columns) -> None:
        self.k_values, self.lam_values, self.columns = k_values, lam_values, columns

    def __len__(self) -> int:
        return len(self.k_values) * len(self.lam_values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i, j = divmod(range(len(self))[index], len(self.lam_values))
        return QueueMetrics(self.k_values[i], self.lam_values[j],
                            *(value.item(i, j) for value in self.columns))

    def __iter__(self):
        for i, k in enumerate(self.k_values):
            yield from map(QueueMetrics, repeat(k), self.lam_values,
                           *(value[i].tolist() for value in self.columns))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (GainGrid, list)) else NotImplemented


def gain_grid(
    k_set, lambda_grid, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM
) -> GainGrid:
    """Evaluate every (k, lambda) pair, k outer and lambda inner, in one kernel call.

    Returns a ``GainGrid`` of ``QueueMetrics`` rows, each built when read; unstable
    points carry the unbounded markers, none is omitted. Pure function of its inputs.
    """
    k_values = tuple(k_set)
    lam_values = [float(lam) for lam in lambda_grid]
    if not k_values or not lam_values:
        raise ValueError("k_set and lambda_grid must be non-empty")
    for k in k_values:
        _check_k(k)
    for lam in lam_values:
        _check_lambda(lam)
    values = _chain(
        np.array(k_values, dtype=float)[:, None], np.array(lam_values), _moments(phy, traffic), form
    )
    shape = (len(k_values), len(lam_values))
    for value in values:
        value.flags.writeable = False  # as read-only as the broadcast service moments
    return GainGrid(k_values, lam_values, _Chain._make(
        value if value.shape == shape else np.broadcast_to(value, shape) for value in values))
