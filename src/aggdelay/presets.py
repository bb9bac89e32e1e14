"""Named run presets for the built-in reproduction experiments.

Each preset is a plain mapping in the CLI's JSON config schema, so
``--preset fig3`` and ``--config fig3.json`` travel the same code path.

Pinned by the experiment definitions: the standard and data rate, CW=16,
a 20 us backoff slot, DIFS and preamble of the chosen standard, and a
deterministic 800-bit mean payload. Everything else (SIFS 10 us, 192-bit
MAC header, 32-bit CRC, 112-bit ACK at the data rate, the queue-wait
form, and the sweep grids) is a package default filling values the
experiment definitions leave open; use ``caption_only_overhead`` to
bound the influence of the filled-in overhead terms.

- ``fig3``:          gain-vs-load sweep, 802.11b at 11 Mbit/s, k = 2..10.
- ``fig4-<mbps>``:   break-even rate per k = 2..20 for one 802.11b rate of
                     ``phy.PRESET_STANDARDS`` (``fig4-1`` .. ``fig4-11``).
- ``fig5-<mbps>``:   the same for one 802.11g rate (``fig5-6`` .. ``fig5-54``).
"""

from __future__ import annotations

from .phy import PRESET_STANDARDS

# Every figure's sections; preset() copies each section, so no caller shares them.
_FIGURE = {
    "traffic": {"payload_family": "deterministic", "payload_mean_bits": 800.0},
    "form": "deterministic-service",
    "output": {"format": "csv", "path": None},
}

PRESETS: dict[str, dict] = {
    "fig3": {
        **_FIGURE,
        "phy": {"standard": "b", "rate_bps": 11e6},
        "k": "2..10",
        "lambda": {"kind": "linear", "min": 1.0, "max": 1600.0, "points": 200},
    },
}

# Figure 4 gives lambda*(k) for each 802.11b rate, figure 5 for each 802.11g rate.
PRESETS.update(
    (f"{figure}-{rate / 1e6:g}",
     {**_FIGURE, "phy": {"standard": standard.value, "rate_bps": rate}, "k": "2..20"})
    for figure, (standard, (rates, *_)) in zip(("fig4", "fig5"), PRESET_STANDARDS.items())
    for rate in rates
)


def preset(name: str) -> dict:
    """Copy of a named preset config and of each section; KeyError lists the valid names."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return {key: dict(v) if isinstance(v, dict) else v for key, v in PRESETS[name].items()}
