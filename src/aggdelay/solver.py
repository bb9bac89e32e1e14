"""Search routines on top of the analytic model.

``lambda_thresholds`` finds, for each k, the rate where the aggregation gain
G(k) first turns non-positive (the break-even point), a cubic root in closed
form, and checks a chunk of k in one kernel call (``lambda_threshold``: one k).
``optimal_k`` picks the batch size minimizing mean system time at a fixed
rate, and ``gain_grid`` evaluates a (k, lambda) grid, all on the model's one
numpy kernel. ``optimal_k`` returns its point as the ``QueueMetrics`` record
``evaluate`` gives; ``gain_grid`` a ``GainGrid``, a sequence of those records."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

# evaluate and gain stay importable from this module, where profilers wrap them.
from .model import PKForm, QueueMetrics, TrafficSpec, evaluate, gain, service_time  # noqa: F401
from .model import (_DEFAULT_FORM, _Chain, _chain, _check_k, _check_lambda, _check_rates,
                    _moments, _service)
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


class ThresholdResult(NamedTuple):
    """Located sign change of lambda -> G(k, lambda); a named tuple (change one by ``_replace``).

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


def _smallest_root(coeffs: tuple, lam_min: float, limit: float, lam_max: float) -> float:
    """Smallest root x of c0 + c1 x + c2 x^2 + c3 x^3 (c0 != 0) in (lam_min, limit), at most
    lam_max, else NaN. In y = 1/x the cubic is y^3 + (c1 y^2 + c2 y + c3) / c0, whose real roots
    (trigonometric or Cardano form, Numerical Recipes 5.6) are tried largest y first: for
    0 < theta < pi the first trigonometric one, so the other two are seldom computed."""
    c0, c1, c2, c3 = coeffs
    a, b, c = c1 / c0, c2 / c0, c3 / c0
    q = (a * a - 3.0 * b) / 9.0
    r = (2.0 * a * a * a - 9.0 * a * b + 27.0 * c) / 54.0
    if r * r < q * q * q:
        theta = math.acos(max(-1.0, min(1.0, r / math.sqrt(q * q * q))))  # |.| <= 1 up to rounding
        scale, shift = -2.0 * math.sqrt(q), a / 3.0
        y = scale * math.cos((theta + 2.0 * math.pi) / 3.0) - shift
        if 0.0 < theta < math.pi and y > 0.0 and lam_min < (x := 1.0 / y) < limit and x <= lam_max:
            return x
        ys = sorted((y, scale * math.cos((theta + 4.0 * math.pi) / 3.0) - shift,
                     scale * math.cos(theta / 3.0) - shift), reverse=True)
    else:
        u = -math.copysign((abs(r) + math.sqrt(r * r - q * q * q)) ** (1.0 / 3.0), r)
        ys = (u + (q / u if u else 0.0) - a / 3.0,)
    for y in ys:
        if y > 0.0 and lam_min < (x := 1.0 / y) < limit and x <= lam_max:
            return x
    return math.nan


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
    """For each k, the smallest rate where G(k, .) changes from positive to non-positive."""
    return list(chain.from_iterable(threshold_chunks(k_values, phy, traffic, form, search)))


def threshold_chunks(
    k_values, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM,
    search: SearchParams = SearchParams(),
):
    """``lambda_thresholds``' results as lists of ``OPTIMAL_K_CHUNK`` k, each solved when read,
    once every k and the search range are checked. lambda* is the smallest root of
    ``_break_even_cubic`` in (lambda_min, min(lambda_max, k/s_k, 1/s_1)), polished by Newton
    steps; a kernel call per list checks G(low) > 0 >= G(high) on lambda* (1 -/+ rel_tol/4).
    A k whose G is non-positive at lambda_min converges there, with a note; one without a
    root in range, or whose G keeps its sign across the root, does not converge. A range or
    other sequence is sliced as it is, any other iterable read into a tuple first."""
    if not isinstance(k_values, Sequence):
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
    q_1, limit_1 = s_1 * s_1 + (v_1 if general else 0.0), 1.0 / s_1
    gamma, b_mean, b_var, pm, pv, br, br_sq = m  # summed below as _service sums them

    def solve(chunk: tuple) -> list[ThresholdResult]:
        solves, results = [], []
        for k in chunk:
            s_k = k * pm / br + gamma + b_mean
            coeffs = _break_even_cubic(
                k, s_k, s_k * s_k + (b_var + k * pv / br_sq if general else 0.0), s_1, q_1)
            x = _smallest_root(coeffs, lam_min, min(k / s_k, limit_1), lam_max)
            solves.append(_polish(coeffs, x) if x == x else (x, 0))  # NaN x: no root in range
        lam = np.multiply.outer([root for root, _ in solves], (1.0, 1.0 - tol, 1.0 + tol))
        lam[:, 0] = lam_min
        gains = _chain(np.array(chunk, dtype=float)[:, None], lam, m, form).gain.tolist()
        for k, (root, steps), (_, low, high), g in zip(chunk, solves, lam.tolist(), gains):
            if g[0] <= 0.0:
                r = lam_min, (lam_min, lam_min), 0, True, "gain already non-positive at lambda_min"
            elif not steps:
                r = math.nan, (lam_min, lam_max), 0, False, "no sign change within the search range"
            else:
                ok = g[1] > 0.0 >= g[2]
                r = (root if ok else math.nan, (low, high), steps, ok,
                     "" if ok else "gain does not change sign across the cubic root")
            results.append(ThresholdResult(k, *r))
        return results

    return map(solve, (k_values[i:i + OPTIMAL_K_CHUNK]
                       for i in range(0, len(k_values), OPTIMAL_K_CHUNK)))


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
    lam = np.array(lam_values)
    _check_rates(lam)
    values = _chain(np.array(k_values, dtype=float)[:, None], lam, _moments(phy, traffic), form)
    shape = (len(k_values), len(lam_values))
    for value in values:
        value.flags.writeable = False  # as read-only as the broadcast service moments
    return GainGrid(k_values, lam_values, _Chain._make(
        value if value.shape == shape else np.broadcast_to(value, shape) for value in values))
