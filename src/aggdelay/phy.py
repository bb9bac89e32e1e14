"""IEEE 802.11 physical-layer timing profiles and derived overheads.

All durations are seconds, rates bits/second, frame sizes bits. A profile
fixes the deterministic per-transmission overhead (DIFS, preambles, MAC
header, CRC, SIFS, ACK) and the backoff distribution, which is a discrete
uniform draw on {0, ..., cw} scaled by the slot time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum


class Standard(Enum):
    DOT11B = "b"
    DOT11G = "g"
    CUSTOM = "custom"


# Each standard with presets: its rates (bit/s), slot, DIFS and preamble (s).
# The 802.11g presets keep the 20 us backoff slot of the 802.11b ones.
PRESET_STANDARDS = {
    Standard.DOT11B: ((1e6, 2e6, 5.5e6, 11e6), 20e-6, 50e-6, 96e-6),
    Standard.DOT11G: ((6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6), 20e-6, 28e-6, 22.1e-6),
}


class UnsupportedRateError(ValueError):
    """Requested standard/rate pair has no preset."""


@dataclass(frozen=True)
class PhyProfile:
    """Timing constants of one physical-layer configuration.

    Preset profiles (from :func:`profile_for`) carry strictly positive
    values throughout. Custom profiles may zero out individual overhead
    fields or set ``cw=0`` to build degenerate configurations (useful for
    isolating one randomness source); only the rates and the slot time
    must stay positive. Every duration and rate must be finite.
    """

    standard_id: Standard
    bit_rate: float
    slot: float
    difs: float
    sifs: float
    preamble: float
    cw: int
    mac_header_bits: int
    crc_bits: int
    ack_bits: int
    ack_rate: float
    #: When set, the backoff time is this fixed constant (variance 0)
    #: instead of the uniform draw. Sensitivity knob, unset in presets.
    backoff_override: float | None = None
    #: When true the overhead reduces to difs + 2*preamble, bounding the
    #: effect of the MAC/CRC/SIFS/ACK terms. Off in presets.
    caption_only_overhead: bool = False

    def __post_init__(self) -> None:
        for name in ("bit_rate", "ack_rate", "slot"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        for name in ("difs", "sifs", "preamble"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not isinstance(self.cw, int) or self.cw < 0:
            raise ValueError("cw must be a non-negative integer")
        for name in ("mac_header_bits", "crc_bits", "ack_bits"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.backoff_override is not None and not 0.0 <= self.backoff_override < math.inf:
            raise ValueError("backoff_override must be non-negative and finite")

    @property
    def t_mac(self) -> float:
        """MAC header transmission time."""
        return self.mac_header_bits / self.bit_rate

    @property
    def t_crc(self) -> float:
        """CRC/FCS transmission time."""
        return self.crc_bits / self.bit_rate

    @property
    def t_ack(self) -> float:
        """ACK time: one preamble plus the ACK body at the ACK rate."""
        return self.preamble + self.ack_bits / self.ack_rate


@dataclass(frozen=True)
class OverheadBreakdown:
    """Constant per-transmission overhead, split by source.

    ``gamma_total`` is always the left-to-right sum of the six component
    fields in declaration order, so the total is bitwise reproducible.
    """

    difs: float
    preamble_x2: float
    mac: float
    crc: float
    sifs: float
    ack: float
    gamma_total: float


def profile_for(standard: Standard | str, rate: float) -> PhyProfile:
    """Preset profile for a supported standard and rate.

    ``PRESET_STANDARDS`` gives each standard's rates, slot, DIFS and
    preamble. Every preset has CW 16 and fills in SIFS 10 us, a 192-bit MAC
    header, 32-bit CRC, and a 112-bit ACK sent at the data rate behind one
    preamble.

    Raises :class:`UnsupportedRateError` for an unknown standard or a rate
    outside the standard's rate set. Each of the twelve presets is built
    once: repeated calls return the same (immutable) profile.
    """
    if not isinstance(standard, Standard):
        try:
            standard = Standard(standard)
        except ValueError:
            supported = ", ".join(repr(known.value) for known in PRESET_STANDARDS)
            raise UnsupportedRateError(
                f"unknown standard {standard!r}; supported: {supported}"
            ) from None
    if standard is Standard.CUSTOM:
        raise UnsupportedRateError(
            "no presets for the custom standard; construct PhyProfile directly"
        )
    return _preset(standard, float(rate))


@functools.cache  # holds at most the twelve presets: a failed call caches nothing
def _preset(standard: Standard, rate: float) -> PhyProfile:
    rates, slot, difs, preamble = PRESET_STANDARDS[standard]
    if rate not in rates:
        valid = ", ".join(f"{r:g}" for r in rates)
        raise UnsupportedRateError(
            f"unsupported rate {rate:g} bit/s for 802.11{standard.value}; "
            f"valid rates: {valid}"
        )
    return PhyProfile(
        standard_id=standard,
        bit_rate=rate,
        slot=slot,
        difs=difs,
        sifs=10e-6,
        preamble=preamble,
        cw=16,
        mac_header_bits=192,
        crc_bits=32,
        ack_bits=112,
        ack_rate=rate,
    )


def overhead_gamma(profile: PhyProfile) -> OverheadBreakdown:
    """Deterministic overhead of one successful transmission.

    gamma = difs + 2*preamble + t_mac + t_crc + sifs + t_ack, summed in
    exactly that order. In caption-only mode everything past the preambles
    is zeroed.
    """
    if profile.caption_only_overhead:
        mac = crc = sifs = ack = 0.0
    else:
        mac, crc, sifs, ack = profile.t_mac, profile.t_crc, profile.sifs, profile.t_ack
    difs = profile.difs
    preamble_x2 = 2.0 * profile.preamble
    total = difs + preamble_x2 + mac + crc + sifs + ack
    return OverheadBreakdown(difs, preamble_x2, mac, crc, sifs, ack, total)


def backoff_moments(profile: PhyProfile) -> tuple[float, float]:
    """Mean and variance of the backoff time slot*X with X ~ U{0,...,cw}.

    mean = slot*cw/2 and variance = slot^2 * cw*(cw+2)/12. A profile with
    a backoff override reports (override, 0.0).
    """
    if profile.backoff_override is not None:
        return profile.backoff_override, 0.0
    cw = profile.cw
    mean = profile.slot * cw / 2.0
    variance = profile.slot * profile.slot * cw * (cw + 2) / 12.0
    return mean, variance
