"""Analytic delay chain for k-frame aggregation over a single 802.11 link.

Frames arrive in one Poisson stream of rate ``lam`` and are grouped into
batches of ``k``. A frame's mean time through the system is

    F(k) = Er(k) + 1/mu(k) + W(k)

where ``Er(k) = (k-1)/(2*lam)`` is the mean wait for the batch to fill,
``1/mu(k)`` is the mean batch service time (payloads + overhead + mean
backoff), and ``W(k)`` is the M/G/1 mean queue wait at batch rate
``lam/k``. The gain ``G(k) = F(k) - F(1)`` is negative exactly when
aggregating k frames reduces mean delay.

Unstable queues (utilization >= 1) yield ``math.inf`` rather than raising:
sweep grids stay total. ``gain`` returns NaN (``BOTH_UNSTABLE``) when
neither the aggregated nor the unaggregated system is stable.

All of the arithmetic lives in one numpy kernel, ``_chain``, over
broadcast (k, lam) arrays; PHY overhead and backoff moments are built once
per call. The scalar functions here and the grids, optimal k and the
break-even check of ``aggdelay.solver`` are thin wrappers around it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .phy import PhyProfile, backoff_moments, overhead_gamma

#: Distinguished value for "this queue does not reach steady state".
UNBOUNDED = math.inf

#: Marker returned by :func:`gain` when both systems are unstable and no
#: finite comparison exists. Test with math.isnan.
BOTH_UNSTABLE = math.nan


class PayloadFamily(Enum):
    DETERMINISTIC = "deterministic"
    EXPONENTIAL = "exponential"
    UNIFORM_RANGE = "uniform-range"
    EMPIRICAL = "empirical"


class PKForm(Enum):
    """Closed form used for the M/G/1 mean queue wait.

    GENERAL_PK uses the full formula with the service variance;
    DETERMINISTIC_SERVICE drops the variance term (the two coincide when
    the service time is constant). DETERMINISTIC_SERVICE is the default
    throughout the package.
    """

    GENERAL_PK = "general-pk"
    DETERMINISTIC_SERVICE = "deterministic-service"


_DEFAULT_FORM = PKForm.DETERMINISTIC_SERVICE
_MOMENT_RTOL = 1e-9
_MOMENT_ERROR = {
    PayloadFamily.DETERMINISTIC: "deterministic payloads require zero variance",
    PayloadFamily.EXPONENTIAL: "exponential payloads require variance == mean**2",
    PayloadFamily.UNIFORM_RANGE: "uniform-range moments do not match [lo, hi]",
    PayloadFamily.EMPIRICAL: "empirical moments do not match the sample",
}


def _family_moments(family: PayloadFamily, mean=None, lo=None, hi=None, values=None) -> tuple:
    """Payload mean and variance implied by ``mean`` (deterministic, exponential),
    ``lo`` and ``hi`` (uniform) or the sample ``values`` (empirical); ValueError on overflow."""
    try:
        if family is PayloadFamily.DETERMINISTIC:
            return mean, 0.0
        if family is PayloadFamily.EXPONENTIAL:
            return mean, mean**2
        if family is PayloadFamily.UNIFORM_RANGE:
            return (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0
        mean = math.fsum(values) / len(values)  # fsum: the same on every Python version
        return mean, math.fsum((v - mean) ** 2 for v in values) / len(values)
    except OverflowError:
        raise ValueError(f"{family.value} payload moments (mean, variance) overflow") from None


@dataclass(frozen=True)
class TrafficSpec:
    """Aggregate Poisson arrival rate plus the payload-size distribution.

    Payload sizes are continuous-valued bits. ``uniform_lo``/``uniform_hi``
    are required for UNIFORM_RANGE, ``empirical_values`` for EMPIRICAL;
    the stored moments must match the family (use the classmethod
    constructors to get them right automatically).
    """

    lambda_total: float
    payload_mean: float
    payload_variance: float
    payload_family: PayloadFamily
    uniform_lo: float | None = None
    uniform_hi: float | None = None
    empirical_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_total < math.inf:
            raise ValueError(f"lambda_total must be positive and finite, got {self.lambda_total!r}")
        lo, hi, values = self.uniform_lo, self.uniform_hi, self.empirical_values
        for name, value in (("uniform_lo", lo), ("uniform_hi", hi)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if values and not all(map(math.isfinite, values)):
            raise ValueError(f"empirical_values must be finite, got {values!r}")
        if not 0.0 < self.payload_mean < math.inf:
            raise ValueError(f"payload_mean must be positive and finite, got {self.payload_mean!r}")
        if not 0.0 <= self.payload_variance < math.inf:
            raise ValueError("payload_variance must be non-negative and finite")
        fam = self.payload_family
        if fam is PayloadFamily.UNIFORM_RANGE and (lo is None or hi is None or not 0.0 <= lo < hi):
            raise ValueError("uniform-range payloads require 0 <= lo < hi")
        if fam is PayloadFamily.EMPIRICAL and (not values or any(v <= 0.0 for v in values)):
            raise ValueError("empirical payloads require a non-empty list of positive sizes")
        mean, var = _family_moments(fam, self.payload_mean, lo, hi, values)
        # A sample's variance sums rounded squares, so it also passes within
        # an absolute 1e-12 * mean**2; the closed forms must match relatively.
        if not math.isclose(self.payload_mean, mean, rel_tol=_MOMENT_RTOL) or not (
            math.isclose(self.payload_variance, var, rel_tol=_MOMENT_RTOL)
            or (fam is PayloadFamily.EMPIRICAL
                and abs(self.payload_variance - var) < 1e-12 * mean * mean)
        ):
            raise ValueError(_MOMENT_ERROR[fam])

    @classmethod
    def deterministic(cls, lambda_total: float, mean_bits: float) -> "TrafficSpec":
        family = PayloadFamily.DETERMINISTIC
        return cls(lambda_total, *_family_moments(family, mean_bits), family)

    @classmethod
    def exponential(cls, lambda_total: float, mean_bits: float) -> "TrafficSpec":
        family = PayloadFamily.EXPONENTIAL
        return cls(lambda_total, *_family_moments(family, mean_bits), family)

    @classmethod
    def uniform_range(cls, lambda_total: float, lo_bits: float, hi_bits: float) -> "TrafficSpec":
        family = PayloadFamily.UNIFORM_RANGE
        moments = _family_moments(family, lo=lo_bits, hi=hi_bits)
        return cls(lambda_total, *moments, family, uniform_lo=lo_bits, uniform_hi=hi_bits)

    @classmethod
    def empirical(cls, lambda_total: float, values_bits) -> "TrafficSpec":
        values = tuple(float(v) for v in values_bits)
        if not values:
            raise ValueError("empirical payloads require at least one value")
        family = PayloadFamily.EMPIRICAL
        moments = _family_moments(family, values=values)
        return cls(lambda_total, *moments, family, empirical_values=values)


@dataclass(frozen=True, slots=True)
class QueueMetrics:
    """One evaluation of the analytic chain at batch size ``k`` and rate ``lam``."""

    k: int
    lam: float
    erlang_wait: float
    service_mean: float
    service_variance: float
    lambda_a: float
    rho: float
    queue_wait: float
    system_time: float
    gain: float
    stable: bool


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")


def _check_rates(lam) -> None:
    """``_check_lambda`` on every rate in one numpy pass; the first bad one is named."""
    ok = ((lam := np.asarray(lam, dtype=float)) > 0.0) & (lam < math.inf)
    if not ok.all():
        _check_lambda(lam[ok.argmin()].item())


# The constants of the chain for one (profile, traffic) pair.
_Moments = namedtuple(
    "_Moments", "gamma backoff_mean backoff_var payload_mean payload_variance bit_rate bit_rate_sq"
)


def _moments(phy: PhyProfile, traffic: TrafficSpec) -> _Moments:
    backoff_mean, backoff_var = backoff_moments(phy)
    return _Moments(overhead_gamma(phy).gamma_total, backoff_mean, backoff_var,
                    traffic.payload_mean, traffic.payload_variance, phy.bit_rate, phy.bit_rate**2)


def _service(k, m: _Moments):
    """Mean and variance of a k-frame batch's service time (see service_time)."""
    mean = k * m.payload_mean / m.bit_rate + m.gamma + m.backoff_mean
    return mean, m.backoff_var + k * m.payload_variance / m.bit_rate_sq


#: The kernel's outputs: the QueueMetrics fields after ``k`` and ``lam``.
_Chain = namedtuple("_Chain", [f.name for f in fields(QueueMetrics)[2:]])


def _chain(k, lam, m: _Moments, form: PKForm) -> _Chain:
    """The chain over numpy float ``k`` and ``lam``, which broadcast.

    Returns a ``_Chain`` of numpy values; the two service moments keep
    the shape of ``k``, the others broadcast both. Each operation runs in the
    order the scalar formulas below give, and numpy rounds each one as
    Python does, so a grid point equals the point evaluated alone, bit for bit.
    """

    def system(k):
        mean, var = _service(k, m)
        lam_a = lam / k
        rho = lam_a * mean
        idle = np.maximum(1.0 - rho, 0.0)  # 0 when rho >= 1, which makes W +inf
        if form is PKForm.DETERMINISTIC_SERVICE:
            wait = lam_a * mean * mean / (2.0 * idle)
        else:
            wait = (lam_a * lam_a * var + rho * rho) / (2.0 * lam_a * idle)
        erlang = (k - 1) / (2.0 * lam)
        return erlang, mean, var, lam_a, rho, wait, erlang + mean + wait

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        erlang, mean, var, lam_a, rho, wait, total = system(k)
        # inf - finite, finite - inf and inf - inf give gain()'s +inf, -inf and NaN.
        g = np.where(k == 1, 0.0, total - system(1.0)[-1])
    return _Chain(erlang, mean, var, lam_a, rho, wait, total, g, rho < 1.0)


def _point(k: int, lam: float, phy: PhyProfile, traffic: TrafficSpec, form: PKForm) -> _Chain:
    """The kernel's outputs for one checked (k, lam) point, as numpy scalars."""
    _check_k(k)
    _check_lambda(lam)
    return _chain(np.float64(k), np.float64(lam), _moments(phy, traffic), form)


def erlang_wait(k: int, lam: float) -> float:
    """Mean buffer wait while a batch of k fills: (k-1)/(2*lam).

    The j-th frame of a batch waits for the remaining k-j Poisson
    arrivals, i.e. (k-j)/lam on average; averaging over j gives the
    closed form. Zero for k=1.
    """
    _check_k(k)
    _check_lambda(lam)
    return (k - 1) / (2.0 * lam)


def service_time(k: int, phy: PhyProfile, traffic: TrafficSpec) -> float:
    """Mean service time of a k-frame aggregate:

        1/mu(k) = k*E[P]/bit_rate + gamma + mean backoff

    with payloads in bits. The mean backoff is the profile's:
    ``backoff_override`` when set, else slot*cw/2.
    """
    _check_k(k)
    return _service(k, _moments(phy, traffic))[0]


def service_variance(k: int, phy: PhyProfile, traffic: TrafficSpec) -> float:
    """Variance of the aggregate service time.

    The aggregate is served with one backoff draw plus the sum of k
    independent payloads: Var[Y] + k*Var[P]/bit_rate^2.
    """
    _check_k(k)
    return _service(k, _moments(phy, traffic))[1]


def queue_wait(
    k: int, lam: float, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM
) -> float:
    """Mean M/G/1 queue wait of a batch at input rate lam/k.

    GENERAL_PK:            W = (lam_a^2 s^2 + rho^2) / (2 lam_a (1 - rho))
    DETERMINISTIC_SERVICE: W = lam_a (1/mu)^2 / (2 (1 - rho))

    with lam_a = lam/k, rho = lam_a/mu and s^2 the service variance.
    Returns UNBOUNDED when rho >= 1.
    """
    return _point(k, lam, phy, traffic, form).queue_wait.item()


def system_time(
    k: int, lam: float, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM
) -> float:
    """Mean total time of a frame: F(k) = (Er(k) + 1/mu(k)) + W(k)."""
    return _point(k, lam, phy, traffic, form).system_time.item()


def gain(
    k: int, lam: float, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM
) -> float:
    """Delay gain of aggregating k frames: G(k) = F(k) - F(1).

    Negative means aggregation reduces mean delay. Extended arithmetic:
    exactly 0.0 for k=1; -UNBOUNDED when only the unaggregated system is
    unstable (congestion regime, aggregation is the only viable option);
    +UNBOUNDED when only the aggregated system is unstable;
    BOTH_UNSTABLE (NaN) when neither is stable.
    """
    return _point(k, lam, phy, traffic, form).gain.item()


def evaluate(
    k: int, lam: float, phy: PhyProfile, traffic: TrafficSpec, form: PKForm = _DEFAULT_FORM
) -> QueueMetrics:
    """Evaluate the whole chain for one (k, lam) point."""
    values = _point(k, lam, phy, traffic, form)
    return QueueMetrics(k, float(lam), *(value.item() for value in values))
