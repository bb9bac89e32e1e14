"""Expected answers for the benchmark, computed apart from ``aggdelay``.

Nothing here imports the package under test. The PHY constants come from
the published preset table (README, ``presets`` docstring), the delay
chain is written out from its closed forms, the break-even rate is the
smallest root of the cubic that G(k, lam) = 0 becomes once its
denominators are cleared, and the simulator checks use queueing results
the simulator must obey: Pollaczek-Khinchine for M/G/1, Kingman's GI/G/1
upper bound, and the Erlang-k inter-batch coefficient of variation.

Units: seconds, bits, bits/second, frames/second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DET = "deterministic-service"
GENERAL = "general-pk"

RATES_B = (1e6, 2e6, 5.5e6, 11e6)
RATES_G = (6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6)


@dataclass(frozen=True)
class Link:
    """Timing of one 802.11 rate profile; durations in seconds."""

    rate: float
    slot: float
    difs: float
    preamble: float
    cw: int = 16
    sifs: float = 10e-6
    mac_bits: int = 192
    crc_bits: int = 32
    ack_bits: int = 112

    @property
    def gamma(self) -> float:
        """DIFS + 2 preambles + MAC header + CRC + SIFS + ACK (preamble + body)."""
        ack = self.preamble + self.ack_bits / self.rate
        return (
            self.difs
            + 2.0 * self.preamble
            + self.mac_bits / self.rate
            + self.crc_bits / self.rate
            + self.sifs
            + ack
        )

    @property
    def backoff(self) -> tuple[float, float]:
        """Mean and variance of slot * U{0, ..., cw}."""
        values = [self.slot * i for i in range(self.cw + 1)]
        mean = sum(values) / len(values)
        return mean, sum((v - mean) ** 2 for v in values) / len(values)


def link(standard: str, rate: float) -> Link:
    """Preset profile: 802.11b (DIFS 50 us, preamble 96 us) or g (28, 22.1)."""
    if standard == "b" and rate in RATES_B:
        return Link(rate=rate, slot=20e-6, difs=50e-6, preamble=96e-6)
    if standard == "g" and rate in RATES_G:
        return Link(rate=rate, slot=20e-6, difs=28e-6, preamble=22.1e-6)
    raise ValueError(f"no preset for 802.11{standard} at {rate:g} bit/s")


@dataclass(frozen=True)
class Payload:
    """Payload-size distribution by its first two moments, in bits."""

    mean: float
    var: float

    @classmethod
    def deterministic(cls, bits: float) -> "Payload":
        return cls(bits, 0.0)

    @classmethod
    def exponential(cls, mean_bits: float) -> "Payload":
        return cls(mean_bits, mean_bits * mean_bits)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "Payload":
        return cls((lo + hi) / 2.0, (hi - lo) ** 2 / 12.0)

    @classmethod
    def empirical(cls, values) -> "Payload":
        """Equally likely values; population variance."""
        values = [float(v) for v in values]
        mean = math.fsum(values) / len(values)
        return cls(mean, math.fsum((v - mean) ** 2 for v in values) / len(values))


def service(k, link: Link, payload: Payload):
    """Mean and variance of one k-frame transmission: payloads, gamma, one backoff."""
    b_mean, b_var = link.backoff
    mean = k * payload.mean / link.rate + link.gamma + b_mean
    var = b_var + k * payload.var / link.rate**2
    return mean, var


def chain(k, lam, link: Link, payload: Payload, form: str) -> dict:
    """F(k) = Er(k) + 1/mu(k) + W(k) and G(k) = F(k) - F(1), elementwise.

    ``k`` and ``lam`` broadcast. Unstable points give inf system times;
    G follows the package contract: +inf when only the aggregated queue
    is unstable, -inf when only the k=1 queue is, nan when both are, and
    exactly 0 for k=1.
    """
    k = np.asarray(k, dtype=float)
    lam = np.asarray(lam, dtype=float)

    def system(kk):
        s, v = service(kk, link, payload)
        q = s * s if form == DET else s * s + v
        rho = lam * s / kk
        with np.errstate(divide="ignore", invalid="ignore"):
            wait = np.where(rho < 1.0, lam * q / (2.0 * (kk - lam * s)), np.inf)
        erlang = (kk - 1.0) / (2.0 * lam)
        return erlang, s + 0.0 * lam, rho, wait, erlang + s + wait

    erlang, s, rho, wait, f_k = system(k)
    f_1 = system(np.ones_like(k))[4]
    with np.errstate(invalid="ignore"):
        g = np.where(
            np.isinf(f_k) & np.isinf(f_1),
            np.nan,
            np.where(np.isinf(f_1), -np.inf, np.where(np.isinf(f_k), np.inf, f_k - f_1)),
        )
    g = np.where(k == 1.0, 0.0, g)
    return {
        "erlang_wait": erlang,
        "service_mean": s,
        "rho": rho,
        "queue_wait": wait,
        "system_time": f_k,
        "system_time_k1": f_1,
        "gain": g,
        "stable": rho < 1.0,
    }


def system_time(k: int, lam: float, link: Link, payload: Payload, form: str) -> float:
    return float(chain(k, lam, link, payload, form)["system_time"])


def gain(k: int, lam: float, link: Link, payload: Payload, form: str) -> float:
    return float(chain(k, lam, link, payload, form)["gain"])


def k1_limit(link: Link, payload: Payload) -> float:
    """mu(1): the largest arrival rate the unaggregated queue sustains."""
    return 1.0 / service(1, link, payload)[0]


def lambda_star(k: int, link: Link, payload: Payload, form: str) -> float:
    """Smallest lam > 0 with G(k, lam) = 0, or nan if none below mu(1).

    With q_j the second service moment (s_j^2, plus Var_j in the general
    form), W_j = lam q_j / (2 (j - lam s_j)). Multiplying G by the
    positive 2 lam (k - lam s_k)(1 - lam s_1) gives the cubic

        (k-1) A + 2 (s_k - s_1) lam A + lam^2 (q_k (1 - lam s_1) - q_1 (k - lam s_k))

    with A = (k - lam s_k)(1 - lam s_1). Its smallest real root below
    both stability limits is the break-even rate; a few Newton steps on
    the cubic polish the eigenvalue-based root.
    """
    s_k, v_k = service(k, link, payload)
    s_1, v_1 = service(1, link, payload)
    q_k = s_k * s_k + (v_k if form == GENERAL else 0.0)
    q_1 = s_1 * s_1 + (v_1 if form == GENERAL else 0.0)
    a = np.array([k, -(k * s_1 + s_k), s_k * s_1])
    poly = np.zeros(4)
    poly[:3] += (k - 1) * a
    poly[1:] += 2.0 * (s_k - s_1) * a
    poly[2] += q_k - k * q_1
    poly[3] += q_1 * s_k - q_k * s_1
    p = np.polynomial.Polynomial(poly)
    limit = min(k / s_k, 1.0 / s_1)
    roots = sorted(
        r.real for r in p.roots() if abs(r.imag) <= 1e-9 * abs(r) and 0.0 < r.real < limit
    )
    if not roots:
        return math.nan
    root = roots[0]
    dp = p.deriv()
    for _ in range(3):
        slope = dp(root)
        if slope == 0.0:
            break
        root -= p(root) / slope
    return float(root)


def optimal_k(lam: float, link: Link, payload: Payload, form: str, k_max: int):
    """Brute force: (k, F(k)) minimising the finite F over k = 1..k_max."""
    f = chain(np.arange(1, k_max + 1), lam, link, payload, form)["system_time"]
    if not np.isfinite(f).any():
        return k_max, math.inf
    best = int(np.argmin(f))  # argmin returns the first (smallest k) minimum
    return best + 1, float(f[best])


def pk_sojourn(lam: float, link: Link, payload: Payload) -> tuple[float, float]:
    """Exact M/G/1 mean queue wait and sojourn of per-frame transmission.

    Pollaczek-Khinchine: Wq = lam E[S^2] / (2 (1 - rho)), T = Wq + E[S].
    """
    s, v = service(1, link, payload)
    rho = lam * s
    if rho >= 1.0:
        return math.inf, math.inf
    wq = lam * (v + s * s) / (2.0 * (1.0 - rho))
    return wq, wq + s


def kingman_bound(k: int, lam: float, link: Link, payload: Payload) -> float:
    """Kingman's GI/G/1 upper bound on the mean batch queue wait.

    Batches form every k-th Poisson arrival: inter-batch times are
    Erlang-k with mean k/lam and variance k/lam^2.
    """
    s, v = service(k, link, payload)
    lam_a = lam / k
    rho = lam_a * s
    if rho >= 1.0:
        return math.inf
    return lam_a * (k / lam**2 + v) / (2.0 * (1.0 - rho))


def buffer_wait(k: int, lam: float) -> float:
    """Mean wait of a frame for its batch of k to fill: (k-1)/(2 lam)."""
    return (k - 1) / (2.0 * lam)


def interbatch_cv(k: int) -> float:
    """Coefficient of variation of Erlang-k inter-batch times."""
    return 1.0 / math.sqrt(k)


def grid(kind: str, lo: float, hi: float, points: int) -> list[float]:
    """Arrival-rate grid with the documented semantics: ``points`` values
    from lo to hi inclusive, evenly (linear) or by a constant ratio
    (geometric), the last value exactly hi."""
    if kind == "linear":
        step = (hi - lo) / (points - 1)
        values = [lo + i * step for i in range(points)]
    else:
        ratio = (hi / lo) ** (1.0 / (points - 1))
        values = [lo * ratio**i for i in range(points)]
    values[-1] = hi
    return values
