"""CSV text through ``%`` templates against the per-cell ``fmt`` it replaced,
and the read-only (k, lambda) columns the sweep writers format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggdelay import PKForm, TrafficSpec, gain_grid, profile_for
from aggdelay.cli import SWEEP_HEADER, _render, fmt
from conftest import custom_profile, sweep_text

SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
    1e16, -1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), 9999999999999998.0,
    999999999999.5, 999999999999.4999, 1e-5, 0.1, 1.7976931348623157e308,
)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
# Columns of one type each, and the mixed kinds the writers meet: validate's within_ci95
# ("" or a bool), and ints, floats and None side by side.
COLUMNS = st.sampled_from((
    FLOATS, st.booleans(), st.integers(), st.text(), st.one_of(st.just(""), st.booleans()),
    st.one_of(FLOATS, st.integers(), st.none()), st.one_of(st.text(), st.integers()),
))
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def per_cell_csv(rows) -> str:
    """CSV text as one ``fmt`` call per cell."""
    lines = [",".join(rows[0]), *(",".join(map(fmt, row.values())) for row in rows)]
    return "\n".join(lines) + "\n"


@st.composite
def records(draw):
    kinds = draw(st.lists(COLUMNS, min_size=1, max_size=6))
    keys = [f"c{i}" for i in range(len(kinds))]
    n = draw(st.integers(1, 6))
    return [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(n)]


@PROPERTY
@given(records())
def test_template_csv_equals_the_per_cell_fmt(rows):
    assert _render(rows, "csv") == per_cell_csv(rows)
    assert _render(rows[0], "csv") == per_cell_csv(rows[:1])


@PROPERTY
@given(FLOATS)
def test_percent_g_spells_every_float_as_fmt(x):
    assert "%.12g" % x == fmt(x) == f"{x:.12g}"


def per_cell_sweep_csv(grid) -> str:
    """The sweep CSV writer before ``%`` templates: one formatter call per cell."""
    c, number = grid.columns, "{:.12g}".format
    bool_cell = ("false", "true").__getitem__
    lam, lines = list(map(number, grid.lam_values)), [SWEEP_HEADER]
    for i, k in enumerate(grid.k_values):
        line = f"{k},%s,%s,{number(c.service_mean.item(i, 0))},%s,%s,%s,%s,%s".__mod__
        floats = (map(number, value[i].tolist())
                  for value in (c.erlang_wait, c.rho, c.queue_wait, c.system_time, c.gain))
        lines.append("\n".join(map(line, zip(lam, *floats, map(bool_cell, c.stable[i].tolist())))))
    return "\n".join(lines) + "\n"


# Past the k=1 and the k=20 stability limits: +-inf and nan cells. The overhead-free
# profile gives a +inf gain just below the limit every k shares.
BARE = custom_profile(bit_rate=1e6, difs=0.0, sifs=0.0, preamble=0.0, cw=0, mac_header_bits=0,
                      crc_bits=0, ack_bits=0, backoff_override=0.0)
GRIDS = [
    (profile_for("b", 11e6), TrafficSpec.deterministic(1.0, 800.0), (1, 2, 5, 20),
     [1.0 * 1.2**i for i in range(80)]),
    (profile_for("g", 54e6), TrafficSpec.exponential(1.0, 12000.0), (1, 3, 150),
     [10.0 * 1.3**i for i in range(60)]),
    (BARE, TrafficSpec.deterministic(1.0, 149.0), (1, 7), [math.nextafter(1e6 / 149.0, 0.0)]),
]


@pytest.mark.parametrize("form", list(PKForm))
@pytest.mark.parametrize("phy, traffic, k_values, lams", GRIDS)
def test_sweep_csv_equals_the_per_cell_writer(phy, traffic, k_values, lams, form):
    grid = gain_grid(k_values, lams, phy, traffic, form)
    assert sweep_text(grid) == per_cell_sweep_csv(grid)


def test_sweep_grids_reach_every_non_finite_cell():
    cells = set()
    for phy, traffic, k_values, lams in GRIDS:
        text = sweep_text(gain_grid(k_values, lams, phy, traffic, PKForm.GENERAL_PK))
        cells.update(text.replace("\n", ",").split(","))
    assert {"inf", "-inf", "nan", "true", "false"} <= cells


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 200), min_size=1, max_size=5),
       st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=40), st.sampled_from(list(PKForm)))
def test_sweep_csv_equals_the_per_cell_writer_on_any_grid(k_values, lams, form):
    grid = gain_grid(k_values, lams, profile_for("b", 1e6), TrafficSpec.exponential(1.0, 800.0), form)
    assert sweep_text(grid) == per_cell_sweep_csv(grid)


@pytest.mark.parametrize("k_values, lams", [((2, 5, 9), [10.0, 500.0, 1e4]), ((4,), [100.0])])
def test_grid_columns_are_read_only_k_by_lambda(k_values, lams):
    grid = gain_grid(k_values, lams, profile_for("b", 11e6), TrafficSpec.deterministic(1.0, 800.0))
    for name, column in grid.columns._asdict().items():
        assert column.shape == (len(k_values), len(lams)), name
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0, 0] = 0
    assert list(map(repr, grid.columns.gain.flat)) == [repr(np.float64(row.gain)) for row in grid]
    assert isinstance(grid.columns.stable, np.ndarray)
