"""Profiles, overhead decomposition, and backoff moments.

Hand-derived anchors (re-derived independently before implementation):
802.11b @ 11 Mbps with the package defaults gives
gamma = 50 + 192 + 17.4545 + 2.9091 + 10 + 106.1818 us = 378.5455 us,
and CW=16 with a 20 us slot gives backoff mean 160 us, variance 9600 us^2.
"""

import math

import numpy as np
import pytest

from aggdelay import (
    Standard,
    UnsupportedRateError,
    backoff_moments,
    overhead_gamma,
    profile_for,
)
from conftest import custom_profile

GAMMA_B11 = 3.785454545454546e-4  # seconds, hand sum


def test_b11_preset_carries_caption_values():
    p = profile_for(Standard.DOT11B, 11e6)
    assert p.cw == 16
    assert p.slot == 20e-6
    assert p.difs == 50e-6
    assert p.preamble == 96e-6
    assert p.bit_rate == 11e6
    assert p.ack_rate == 11e6


def test_g54_preset_carries_caption_values():
    p = profile_for("g", 54e6)
    assert p.difs == 28e-6
    assert p.preamble == 22.1e-6
    assert p.cw == 16
    assert p.slot == 20e-6


def test_unsupported_rate_names_valid_set():
    with pytest.raises(UnsupportedRateError) as err:
        profile_for(Standard.DOT11B, 7e6)
    message = str(err.value)
    assert "unsupported rate" in message
    for rate in ("1e+06", "2e+06", "5.5e+06", "1.1e+07"):
        assert rate in message


def test_unknown_standard_rejected():
    with pytest.raises(UnsupportedRateError):
        profile_for("n", 54e6)
    with pytest.raises(UnsupportedRateError):
        profile_for(Standard.CUSTOM, 11e6)


def test_profile_for_is_deterministic():
    assert profile_for("b", 5.5e6) == profile_for("b", 5.5e6)


def test_profile_for_returns_one_cached_profile_per_preset():
    first = profile_for("g", 24e6)
    assert profile_for("g", 24e6) is first
    assert profile_for(Standard.DOT11G, 24_000_000) is first
    assert first.bit_rate == 24e6 and first.standard_id is Standard.DOT11G
    for _ in range(2):  # a failed call caches nothing: it fails every time
        with pytest.raises(UnsupportedRateError, match="unsupported rate"):
            profile_for("g", 11e6)
        with pytest.raises(UnsupportedRateError, match="unknown standard"):
            profile_for("n", 54e6)
        with pytest.raises(UnsupportedRateError, match="custom"):
            profile_for(Standard.CUSTOM, 11e6)


def test_gamma_b11_matches_hand_sum():
    breakdown = overhead_gamma(profile_for("b", 11e6))
    assert breakdown.gamma_total == pytest.approx(GAMMA_B11, rel=1e-12)
    assert breakdown.difs == 50e-6
    assert breakdown.preamble_x2 == 192e-6
    assert breakdown.sifs == 10e-6
    assert breakdown.ack == pytest.approx(96e-6 + 112 / 11e6, rel=1e-15)


def test_gamma_total_is_exact_field_sum():
    for profile in (profile_for("b", 1e6), profile_for("g", 6e6), custom_profile(cw=3)):
        b = overhead_gamma(profile)
        assert b.gamma_total == b.difs + b.preamble_x2 + b.mac + b.crc + b.sifs + b.ack


def test_gamma_single_term():
    p = custom_profile(
        difs=50e-6, sifs=0.0, preamble=0.0, mac_header_bits=0, crc_bits=0, ack_bits=0
    )
    assert overhead_gamma(p).gamma_total == 50e-6


def test_gamma_rate_proportionality():
    base = overhead_gamma(custom_profile(bit_rate=11e6, ack_bits=0))
    doubled = overhead_gamma(custom_profile(bit_rate=22e6, ack_bits=0))
    assert doubled.mac == pytest.approx(base.mac / 2, rel=1e-15)
    assert doubled.crc == pytest.approx(base.crc / 2, rel=1e-15)
    assert doubled.difs == base.difs
    assert doubled.sifs == base.sifs
    assert doubled.preamble_x2 == base.preamble_x2


def test_gamma_caption_only_mode():
    p = custom_profile(caption_only_overhead=True)
    b = overhead_gamma(p)
    assert b.gamma_total == 50e-6 + 2 * 96e-6
    assert b.mac == b.crc == b.sifs == b.ack == 0.0


def test_backoff_moments_b11():
    mean, var = backoff_moments(profile_for("b", 11e6))
    assert mean == pytest.approx(160e-6, rel=1e-12)
    assert var == pytest.approx(9.6e-9, rel=1e-12)


def test_backoff_moments_degenerate_cw0():
    assert backoff_moments(custom_profile(cw=0)) == (0.0, 0.0)


def test_backoff_moments_slot_scaling():
    m1, v1 = backoff_moments(custom_profile(slot=10e-6))
    m3, v3 = backoff_moments(custom_profile(slot=30e-6))
    assert m3 == pytest.approx(3 * m1, rel=1e-12)
    assert v3 == pytest.approx(9 * v1, rel=1e-12)


def test_backoff_moments_match_enumeration_up_to_cw_1024():
    for cw in range(0, 1025):
        mean, var = backoff_moments(custom_profile(cw=cw))
        values = 20e-6 * np.arange(cw + 1)
        enum_mean = float(values.mean())
        enum_var = float(values.var())
        if cw == 0:
            assert mean == 0.0 and var == 0.0
        else:
            assert abs(mean - enum_mean) <= 1e-12 * enum_mean
            assert abs(var - enum_var) <= 1e-12 * enum_var


def test_backoff_override_pins_mean_and_kills_variance():
    assert backoff_moments(custom_profile(backoff_override=20e-6)) == (20e-6, 0.0)


def test_profile_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        custom_profile(bit_rate=0.0)
    with pytest.raises(ValueError):
        custom_profile(slot=0.0)
    with pytest.raises(ValueError):
        custom_profile(difs=-1e-6)
    with pytest.raises(ValueError):
        custom_profile(cw=-1)
    with pytest.raises(ValueError):
        custom_profile(cw=2.5)
    with pytest.raises(ValueError):
        custom_profile(mac_header_bits=-8)
    with pytest.raises(ValueError):
        custom_profile(backoff_override=-1e-6)


def test_derived_times(phy_b11):
    assert phy_b11.t_mac == pytest.approx(192 / 11e6, rel=1e-15)
    assert phy_b11.t_crc == pytest.approx(32 / 11e6, rel=1e-15)
    assert phy_b11.t_ack == pytest.approx(96e-6 + 112 / 11e6, rel=1e-15)
