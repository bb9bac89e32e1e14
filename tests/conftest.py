import io
from contextlib import redirect_stdout

import pytest

from aggdelay import PhyProfile, Standard, TrafficSpec, profile_for
from aggdelay.cli import emit


@pytest.fixture
def phy_b11() -> PhyProfile:
    return profile_for(Standard.DOT11B, 11e6)


@pytest.fixture
def phy_g54() -> PhyProfile:
    return profile_for(Standard.DOT11G, 54e6)


@pytest.fixture
def det800() -> TrafficSpec:
    """Deterministic 800-bit payloads at a placeholder rate."""
    return TrafficSpec.deterministic(100.0, 800.0)


@pytest.fixture
def exp800() -> TrafficSpec:
    """Exponential payloads with an 800-bit mean."""
    return TrafficSpec.exponential(100.0, 800.0)


def custom_profile(**overrides) -> PhyProfile:
    """Degenerate-friendly profile: b11 timing, every field overridable."""
    fields = dict(
        standard_id=Standard.CUSTOM,
        bit_rate=11e6,
        slot=20e-6,
        difs=50e-6,
        sifs=10e-6,
        preamble=96e-6,
        cw=16,
        mac_header_bits=192,
        crc_bits=32,
        ack_bits=112,
        ack_rate=11e6,
    )
    fields.update(overrides)
    return PhyProfile(**fields)


def sweep_text(grid, out_format: str = "csv") -> str:
    """What ``emit`` writes to stdout for a sweep of the one chunk ``grid``."""
    out = io.StringIO()
    with redirect_stdout(out):
        emit(iter([grid]), out_format, None)
    return out.getvalue()
