"""Command-line entry point: the subcommands in ``COMMANDS`` wrap the
analytic model, the solver, and the simulator. Data goes to stdout or
``--output``, diagnostics to stderr. Exit codes: 0 success, 2 bad config
or unwritable output, 3 threshold non-convergence, 4 simulation failure.

``FLAGS`` maps each flag to a config path and ``SCHEMA`` lists the keys,
defaults and types of each config section (other keys are errors). Every
subcommand writes its records through ``emit``, as CSV or JSON under the
README's "CSV contract"; config durations use ``_us``/``_s`` keys.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .model import _DEFAULT_FORM, PKForm, TrafficSpec, _check_k
from .phy import PRESET_STANDARDS, PhyProfile, Standard, overhead_gamma, profile_for
from .presets import preset
from .sim import SimConfig, SimMode, replications, simulate, validate_against_model
from .solver import OPTIMAL_K_CHUNK, SearchParams, gain_grid, optimal_k, threshold_chunks
# lambda_threshold stays importable from this module, where profilers wrap it.
from .solver import lambda_threshold  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SIM = 4


class ConfigError(ValueError):
    """Bad command line, config file, or parameter combination."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def fmt(value) -> str:
    """Deterministic CSV cell: floats to 12 significant digits, booleans as true/false."""
    if isinstance(value, float):
        return f"{value:.12g}"  # also spells inf, -inf and nan
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_value(value):
    """``value`` with non-finite floats, in nested dicts and lists too, as their CSV literals."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(_json_value, value))
    if isinstance(value, float) and not math.isfinite(value):
        return fmt(value)
    return value


def _to_us(seconds: float) -> float:
    """Microsecond value that divides back to exactly ``seconds``."""
    us = seconds * 1e6
    for candidate in (us, math.nextafter(us, math.inf), math.nextafter(us, -math.inf)):
        if candidate / 1e6 == seconds:
            return candidate
    return us


# The values of each choice key; the first is the default, except form's.
FORMATS = ("csv", "json")  # output.format
GRID_KINDS = ("linear", "geometric")  # lambda.kind
MODES = tuple(mode.value for mode in SimMode)  # sim.mode
FORMS = tuple(form.value for form in PKForm)


@dataclass(frozen=True)
class GridSpec:
    """Arrival-rate grid: ``points`` values from min to max inclusive. ``rates`` gives
    any index range of them, so a sweep never holds more of the grid than one chunk."""

    kind: str
    min: float
    max: float
    points: int

    def __post_init__(self) -> None:
        _require(math.isfinite(self.min) and math.isfinite(self.max),
                 f"lambda grid needs a finite min and max, got {self.min}:{self.max}")
        _require(0.0 < self.min < self.max, "grid needs 0 < min < max")
        _require(self.points >= 2, "grid needs points >= 2")
        ratio = (self.max / self.min) ** (1.0 / (self.points - 1))  # as ``rates`` has it
        _require(self.kind == "linear" or math.isfinite(self.min * ratio ** (self.points - 2)),
                 f"geometric lambda grid {self.min}:{self.max}:{self.points} overflows")

    def rates(self, start: int, stop: int) -> list[float]:
        """The rates at indices ``start`` to ``stop - 1``, each from its own index, and max
        at the last index: any split of ``range(points)`` joins to ``values()`` bit for bit."""
        n = self.points
        if self.kind == "linear":
            step = (self.max - self.min) / (n - 1)
            vals = [self.min + i * step for i in range(start, stop)]
        else:
            ratio = (self.max / self.min) ** (1.0 / (n - 1))
            vals = [self.min * ratio**i for i in range(start, stop)]
        if stop == n and vals:
            vals[-1] = self.max
        return vals

    def values(self) -> list[float]:
        return self.rates(0, self.points)


def _floats(text: str) -> list[float]:
    """A flag's comma-separated floats; as a SCHEMA kind, a list or text of floats."""
    return [float(v) for v in text.split(",")]


REQUIRED = object()  # default of a key that has none
_NUMBER = (REQUIRED, float)
_PHY_TIMES = ("slot_us", "difs_us", "sifs_us", "preamble_us")
_PHY_COUNTS = ("cw", "mac_header_bits", "crc_bits", "ack_bits")
_PHY_OPTIONS = {"backoff_override_us": (None, float), "caption_only_overhead": (False, bool)}
_MEANS = {"payload_mean_bits": (None, float), "payload_mean_bytes": (None, float)}

# Key -> (default, kind) per config section; a tuple kind lists the values
# a key takes. phy and traffic have one key set per variant, named by the
# key in _VARIANT (first variant: default).
SCHEMA = {
    "phy": {
        "b": {"rate_bps": (11e6, float), **_PHY_OPTIONS},
        "g": {"rate_bps": _NUMBER, **_PHY_OPTIONS},
        "custom": {
            "bit_rate_bps": _NUMBER,
            **{key: _NUMBER for key in _PHY_TIMES},
            **{key: (REQUIRED, int) for key in _PHY_COUNTS},
            "ack_rate_bps": _NUMBER,
            **_PHY_OPTIONS,
        },
    },
    "traffic": {
        "deterministic": _MEANS,
        "exponential": _MEANS,
        "uniform-range": {"uniform_lo_bits": _NUMBER, "uniform_hi_bits": _NUMBER},
        "empirical": {"empirical_values_bits": (REQUIRED, _floats)},
    },
    "lambda": {"kind": (GRID_KINDS[0], GRID_KINDS), "min": _NUMBER, "max": _NUMBER,
               "points": (REQUIRED, int)},
    "sim": {
        "mode": (MODES[0], MODES),
        "seed": (0, int),
        "num_frames": (100_000, int),
        "warmup_frames": (1_000, int),
        "k": (1, int),  # SimConfig's default; aggregated mode needs k >= 2
        "sources": (None, _floats),
        "replications": (1, int),
    },
    "search": {
        f.name: (f.default, float if f.default is None else type(f.default))
        for f in fields(SearchParams)
    },
    "output": {"format": (FORMATS[0], FORMATS), "path": (None, str)},
}
_VARIANT = {"phy": "standard", "traffic": "payload_family"}
TOP_LEVEL_KEYS = {"form", "k", "k_max", *SCHEMA}


def _typed(name: str, value, kind, default=None):
    """``value`` read as ``kind``: bool and str take their own type only, float and int a
    number or numeric text but no bool, int no fraction, ``_floats`` a list or text of
    floats, a tuple one of its values; null only where ``default`` is None."""
    if value is None or value is REQUIRED:
        _require(default is not REQUIRED, f"missing {name}")
        _require(default is None, f"bad value for {name}: None")
        return None
    if isinstance(kind, tuple):
        _require(value in kind, f"{name} must be one of {list(kind)}, got {value!r}")
        return value
    if kind is _floats and isinstance(value, (str, list)):
        items = value.split(",") if isinstance(value, str) else value
        return [_typed(name, v, float, 0.0) for v in items]  # default 0.0: no null item
    number = isinstance(value, (int, float, str)) and not isinstance(value, bool)
    try:
        if type(value) is kind or number and (kind is float or kind is int and (
                not isinstance(value, float) or value.is_integer())):  # inf and nan are not
            return kind(value)
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"bad value for {name}: {value!r}")


def _section(name: str, section) -> dict:
    """``section`` checked against SCHEMA: typed, with defaults filled in."""
    section = {} if section is None else section
    _require(isinstance(section, dict), f"config section {name!r} must be an object")
    schema, where = SCHEMA[name], ""
    if name in _VARIANT:
        key, valid = _VARIANT[name], tuple(schema)
        variant = _typed(f"{name}.{key}", section.get(key, valid[0]), valid, valid[0])
        schema, where = {key: (variant, valid), **schema[variant]}, f" for {name}.{key} {variant!r}"
    unknown = [f"{name}.{key}" for key in section if key not in schema]
    _require(not unknown, f"unknown config keys: {', '.join(unknown)}{where}")
    out = {}
    for key, (default, kind) in schema.items():
        out[key] = _typed(f"{name}.{key}", section.get(key, default), kind, default)
    return out


# Everything one subcommand needs; ``sim``, ``phy_section`` and ``traffic_section`` are
# the checked sections, ``sim_config`` the SimConfig of ``sim`` (None without it or a rate).
RunConfig = namedtuple(
    "RunConfig", "phy traffic form k_values k_max lam grid sim search out_format out_path "
    "phy_section traffic_section sim_config", defaults=(None,))


def _phy_field(key: str) -> str:
    return "bit_rate" if key == "rate_bps" else key.removesuffix("_us").removesuffix("_bps")


def _parse_phy(section: dict) -> PhyProfile:
    values = {_phy_field(key): value / 1e6 if key.endswith("_us") and value is not None else value
              for key, value in section.items() if key != "standard"}
    if section["standard"] == "custom":
        return PhyProfile(standard_id=Standard.CUSTOM, **values)
    profile = profile_for(section["standard"], values.pop("bit_rate"))
    changed = any(section[key] != default for key, (default, _) in _PHY_OPTIONS.items())
    return replace(profile, **values) if changed else profile


def _parse_traffic(section: dict, lam: float) -> TrafficSpec:
    family = section["payload_family"]
    if family == "uniform-range":
        lo, hi = section["uniform_lo_bits"], section["uniform_hi_bits"]
        return TrafficSpec.uniform_range(lam, lo, hi)
    if family == "empirical":
        return TrafficSpec.empirical(lam, section["empirical_values_bits"])
    bits, nbytes = section["payload_mean_bits"], section["payload_mean_bytes"]
    _require(bits is None or nbytes is None,
             "payload_mean_bits and payload_mean_bytes are mutually exclusive")
    if bits is None:  # 800 bits is the package's default payload
        bits = 800.0 if nbytes is None else 8.0 * nbytes
    section.update(payload_mean_bits=bits, payload_mean_bytes=None)  # the mean, as dumped
    build = TrafficSpec.deterministic if family == "deterministic" else TrafficSpec.exponential
    return build(lam, bits)


def _parse_k_values(spec) -> tuple[int, ...] | range:
    """The k of ``--k``; ``A..B`` stays a range, so no run holds every k of it."""
    if isinstance(spec, str) and ".." in spec:
        lo, hi = (_typed("k", part, int) for part in spec.split("..", 1))
        _require(lo <= hi, f"bad k range {spec!r}")
        return range(lo, hi + 1)
    if not isinstance(spec, list):  # text "2,5,8", one k, or none
        spec = spec.split(",") if isinstance(spec, str) else [] if spec is None else [spec]
    return tuple(_typed("k", v, int, 0) for v in spec)


def _parse_lambda(spec) -> tuple[float | None, GridSpec | None]:
    if isinstance(spec, dict):
        return None, GridSpec(**_section("lambda", spec))
    lam = _typed("lambda", spec, float)
    _require(lam is None or 0.0 < lam < math.inf, f"lambda must be positive and finite, got {lam}")
    return lam, None


def _parse_sim(section) -> tuple[dict, float | None]:
    """The checked sim section and the sum of its source rates (None without them)."""
    sim = _section("sim", section)
    _require(sim["replications"] >= 1, "sim.replications must be >= 1")
    _require(sim["seed"] + sim["replications"] - 1 < 2**64,
             "sim.seed + sim.replications - 1 must fit in 64 bits")
    rates = sim["sources"]
    _require(rates is None or bool(rates) and all(0.0 < r < math.inf for r in rates),
             "every source rate must be positive and finite")
    try:  # fsum: the same on every Python version (sum of floats is compensated from 3.12 on)
        total = None if rates is None else math.fsum(rates)
    except OverflowError:
        total = math.inf
    _require(total is None or total < math.inf, f"sum of source rates {rates} must be finite")
    return sim, total


def parse_run_config(cfg: dict) -> RunConfig:
    """Build a validated RunConfig from a config mapping (JSON schema)."""
    unknown = sorted(set(cfg) - TOP_LEVEL_KEYS)
    _require(not unknown, f"unknown config keys: {', '.join(unknown)}")
    lam, grid = _parse_lambda(cfg.get("lambda"))
    sim, total = (None, None) if cfg.get("sim") is None else _parse_sim(cfg["sim"])
    lam = total if lam is None else lam
    form = _typed("form", cfg.get("form", _DEFAULT_FORM.value), FORMS, _DEFAULT_FORM.value)
    output = _section("output", cfg.get("output"))
    search = cfg.get("search")
    rc = RunConfig(
        phy=_parse_phy(phy := _section("phy", cfg.get("phy"))),
        traffic=_parse_traffic(traffic := _section("traffic", cfg.get("traffic")), lam or 1.0),
        form=PKForm(form),
        k_values=_parse_k_values(cfg.get("k")),
        k_max=_typed("k_max", cfg.get("k_max"), int),
        lam=lam,
        grid=grid,
        sim=sim,
        search=None if search is None else SearchParams(**_section("search", search)),
        out_format=output["format"],
        out_path=output["path"],
        phy_section=phy,
        traffic_section=traffic,
    )
    if sim is None:
        return rc
    config = SimConfig(mode=SimMode(sim["mode"]), phy=rc.phy, traffic=rc.traffic,
                       **{key: sim[key] for key in ("seed", "num_frames", "warmup_frames", "k")})
    if total is not None:  # the sources superpose into the one stream of rate lam
        _require(math.isclose(total, lam, rel_tol=1e-9),
                 f"sum of source rates {total:g} must equal the traffic lambda_total {lam:g}")
    # Without a rate, config has the traffic's placeholder rate: it checks the section only.
    return rc._replace(sim_config=None if lam is None else config)


def dump_run_config(rc: RunConfig) -> dict:
    """Canonical config mapping; parse_run_config inverts it exactly. Its phy and
    traffic sections are the checked ones, less a preset's default options and unset means."""
    custom = rc.phy_section["standard"] == "custom"  # all its keys; a preset, its changes
    out = {
        "phy": {k: v for k, v in rc.phy_section.items()
                if custom or k not in _PHY_OPTIONS or v != _PHY_OPTIONS[k][0]},
        "traffic": {key: value for key, value in rc.traffic_section.items() if value is not None},
        "form": rc.form.value,
        "output": {"format": rc.out_format, "path": rc.out_path},
        "k": list(rc.k_values) or None,
        "k_max": rc.k_max,
        "lambda": rc.lam if rc.grid is None else asdict(rc.grid),
        "sim": None if rc.sim is None else dict(rc.sim),
        "search": None if rc.search is None else asdict(rc.search),
    }
    return {key: value for key, value in out.items() if value is not None}


def _uniform(text: str) -> dict:
    lo, hi = map(float, text.split(":"))
    return {"payload_family": "uniform-range", "uniform_lo_bits": lo, "uniform_hi_bits": hi}


def _empirical(text: str) -> dict:
    return {"payload_family": "empirical", "empirical_values_bits": _floats(text)}


def _grid_or_rate(text: str):
    if ":" not in text:
        return float(text)
    lo, hi, points = text.split(":")
    return {"min": float(lo), "max": float(hi), "points": int(points)}


SIM = ("simulate", "validate")
RUNS = ("gain", "sweep", "threshold", "optimal-k", *SIM)

# (flag, subcommands, argparse kwargs, config path). The argparse type of
# the four composite flags parses their value; a dict merges at the path.
# Rows apply in order: --payload-family overrides a payload form's family.
FLAGS = (
    ("--config", RUNS, dict(metavar="FILE", help="JSON config file"), None),
    ("--preset", RUNS, dict(metavar="NAME", help="named preset (see README)"), None),
    ("--dump-config", RUNS, dict(action="store_true", help="print the config and exit"), None),
    ("--format", ("profiles", *RUNS), dict(choices=FORMATS), "output.format"),
    ("--output", ("profiles", *RUNS), dict(metavar="PATH"), "output.path"),
    ("--standard", RUNS, dict(choices=tuple(s.value for s in PRESET_STANDARDS)), "phy.standard"),
    ("--rate", RUNS, dict(type=float, help="PHY rate, bit/s"), "phy.rate_bps"),
    ("--form", RUNS, dict(choices=FORMS), "form"),
    ("--payload-mean-bits", RUNS, dict(type=float), "traffic.payload_mean_bits"),
    ("--payload-mean-bytes", RUNS, dict(type=float), "traffic.payload_mean_bytes"),
    ("--payload-uniform", RUNS, dict(type=_uniform, metavar="LO:HI", help="bits"), "traffic"),
    ("--payload-empirical", RUNS, dict(type=_empirical, metavar="V1,V2,...", help="bits"),
     "traffic"),
    ("--payload-family", RUNS, dict(choices=tuple(SCHEMA["traffic"])), "traffic.payload_family"),
    ("--caption-only-gamma", RUNS, dict(action="store_true", help="overhead = difs + 2*preamble"),
     "phy.caption_only_overhead"),
    ("--backoff-literal-us", RUNS, dict(type=float, help="fixed mean backoff (us)"),
     "phy.backoff_override_us"),
    ("--mode", SIM, dict(choices=MODES, help="node model"), "sim.mode"),
    ("--k", ("gain", "sweep", "threshold"), dict(help="e.g. 5, 2..10, or 2,5,8"), "k"),
    ("--k", SIM, dict(type=int, help="batch size (aggregated mode)"), "sim.k"),
    ("--lambda", ("gain", "optimal-k", *SIM), dict(type=float, help="rate (pps)"), "lambda"),
    ("--lambda", ("sweep",), dict(type=_grid_or_rate, help="MIN:MAX:POINTS or a rate"), "lambda"),
    ("--grid-kind", ("sweep",), dict(choices=GRID_KINDS), None),
    # --lambda-min, --lambda-max, --rel-tol
    *((f"--{key.replace('_', '-')}", ("threshold",), dict(type=kind), f"search.{key}")
      for key, (_, kind) in SCHEMA["search"].items()),
    ("--k-max", ("optimal-k",), dict(type=int), "k_max"),
    ("--sources", SIM, dict(type=_floats, help="per-source rates, e.g. 50,50"), "sim.sources"),
    ("--seed", SIM, dict(type=int, help="random seed"), "sim.seed"),
    ("--frames", SIM, dict(type=int, help="frames to generate"), "sim.num_frames"),
    ("--warmup", SIM, dict(type=int, help="frames left out at the start"), "sim.warmup_frames"),
    ("--replications", ("simulate",), dict(type=int, help="seeds to run"), "sim.replications"),
)

# (argparse dest, subcommands, parent keys, key) of each FLAGS row with a config path.
_FLAG_PATHS = tuple((flag[2:].replace("-", "_"), names, path.split(".")[:-1], path.split(".")[-1])
                    for flag, names, _, path in FLAGS if path)


@cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or one listing every subcommand; its
    ``commands`` maps each subcommand it lists to that subcommand's own parser.

    Built once per process for each ``command`` and shared by every later
    call, so ``main`` may run many times cheaply: do not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="aggdelay",
        description="Decide when 802.11 frame aggregation reduces mean delay.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    parser.commands = subparsers.choices
    for name, (help_text, _) in COMMANDS.items():
        if command not in (None, name):
            continue
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        for flag, names, kwargs, _ in FLAGS:
            if command in names:
                sub.add_argument(flag, **kwargs)
    return parser


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            value = _merge(out[key], value)
        out[key] = value
    return out


def _config_from_args(command: str, args: argparse.Namespace) -> dict:
    """preset < config file < command-line flags."""
    cfg: dict = {}
    if getattr(args, "preset", None):
        try:
            cfg = preset(args.preset)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        _require(isinstance(file_cfg, dict), "config file must hold a JSON object")
        for name in SCHEMA:  # each section, before flags merge into it; lambda may be a rate
            _require(name == "lambda" or isinstance(file_cfg.get(name, {}), (dict, type(None))),
                     f"config section {name!r} must be an object")
        cfg = _merge(cfg, file_cfg)
    flags: dict = {}
    for dest, names, parents, key in _FLAG_PATHS:
        value = getattr(args, dest, None)
        if command not in names or value is None or value is False:
            continue
        node = flags
        for part in parents:
            node = node.setdefault(part, {})
        if isinstance(value, dict):
            node.setdefault(key, {}).update(value)
        else:
            node[key] = value

    # Merge rules. 1: switching phy.standard or payload_family keeps the base keys it accepts.
    for name, key in _VARIANT.items():
        base = cfg.get(name) or {}
        new = flags.get(name, {}).get(key)
        if new is not None and new != base.get(key, next(iter(SCHEMA[name]))):
            cfg[name] = {k: v for k, v in base.items() if k in SCHEMA[name][new]}
    # 2: a payload mean flag drops the base mean in either unit.
    if _MEANS.keys() & flags.get("traffic", {}).keys():
        cfg["traffic"] = {k: v for k, v in (cfg.get("traffic") or {}).items() if k not in _MEANS}
    # 3: simulate and validate write JSON unless told otherwise.
    if command in SIM and not (cfg.get("output") or {}).get("format"):
        flags.setdefault("output", {}).setdefault("format", "json")
    # threshold always has a search section, simulate and validate a sim one.
    section = {"threshold": "search", "simulate": "sim", "validate": "sim"}.get(command)
    if section:
        flags.setdefault(section, {})
    cfg = _merge(cfg, flags)
    # --grid-kind retypes the merged grid; next to a single rate or no rate it does nothing.
    if getattr(args, "grid_kind", None) and isinstance(cfg.get("lambda"), dict):
        cfg["lambda"] = {**cfg["lambda"], "kind": args.grid_kind}
    return cfg


_JSON_NONFINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}
_JSON_SEP = "\n  },\n  {\n    "  # between two records of json.dumps(indent=2)
ROW, RATE = "row", "rate"  # the sweep's column kinds: one value per k-row, one per rate


def _json_numbers(values: list) -> list:
    """JSON cells of numbers for ``%s``: the numbers if their sum is finite (``str`` of a float
    is json's repr), else their repr with _json_value's strings for inf, -inf and nan."""
    if math.isfinite(sum(values)):
        return values
    cells = list(map(repr, values))
    return list(map(_JSON_NONFINITE.get, cells, cells))


# A k-row's cells of each kind as %s arguments: CSV's (a float's %.12g is in the template), JSON's.
_CELLS = {float: (iter, _json_numbers), int: (iter, iter),
          str: (iter, partial(map, encode_basestring_ascii)),
          bool: (partial(map, ("false", "true").__getitem__),) * 2}


class Table:
    """A CLI table from its column spec, (name, kind, read) per column, its header and ``%``
    templates built here, once; a lone table's JSON is one object. ``read(chunk, i)`` is the
    column's part of k-row i: its cells for kind float, int, str or bool, for ROW one number,
    each row's cell, for RATE the chunk's rates. Without RATE a chunk is one k-row of records
    (tuples): ``read`` gets their fields, or is a field's place, the column's own if left out."""

    def __init__(self, spec: tuple, lone=False, writers=None) -> None:
        self.spec = [(name, kind, read[0] if read and callable(read[0]) else
                      lambda fields, i, j=(*read, place)[0]: fields[j])
                     for place, (name, kind, *read) in enumerate(spec)]
        self.by_name, self.header = sorted(self.spec, key=itemgetter(0)), ",".join(c[0] for c in spec)
        # The rates go in once per chunk, the other cells (escaped) once per k-row.
        self.csv_row = ",".join({RATE: "%.12g", float: "%%.12g"}.get(kind, "%%s")
                                for _, kind, _ in self.spec) + "\n"
        # The ROW cells go in once per k-row, the others (escaped) once per record.
        self.json_record = (",\n  " if lone else ",\n    ").join(
            f'"{name}": ' + ("%s" if kind is ROW else "%%s") for name, kind, _ in self.by_name)
        self.ends = ((self.header + "\n", "", ""), ("{\n  ", "", "\n}\n") if lone
                     else ("[\n  {\n    ", _JSON_SEP, "\n  }\n]\n"))  # lead, separator, end
        self.writers = writers or (lambda: (self.csv, self.json))  # each (chunk, write, lead)

    def csv(self, chunk, write, lead: str) -> None:
        """Write ``lead``, then each k-row of ``chunk`` in one ``%`` call."""
        rates = [read(chunk, 0) for _, kind, read in self.spec if kind is RATE]
        n = len(rates[0]) if rates else len(chunk)
        template = "".join(map(self.csv_row.__mod__, *rates)) if rates else self.csv_row % () * n
        k_rows, chunk = range(len(chunk) // n), chunk if rates else list(zip(*chunk))
        write(lead)
        for i in k_rows:
            write(template % tuple(chain.from_iterable(zip(*[
                repeat(fmt(read(chunk, i)), n) if kind is ROW else _CELLS[kind][0](read(chunk, i))
                for _, kind, read in self.spec if kind is not RATE]))))

    def json(self, chunk, write, lead: str) -> None:
        """Write ``lead``, then the records of ``chunk``, one ``%`` call each."""
        rates = [list(map(str, _json_numbers(read(chunk, 0))))
                 for _, kind, read in self.by_name if kind is RATE]
        k_rows = range(len(chunk) // len(rates[0]) if rates else 1)
        chunk = chunk if rates else list(zip(*chunk))  # records: their fields
        for i in k_rows:
            row = _json_numbers([read(chunk, i) for _, kind, read in self.by_name if kind is ROW])
            cells = [rates[0] if kind is RATE else _CELLS[kind][1](read(chunk, i))
                     for _, kind, read in self.by_name if kind is not ROW]
            write(lead + _JSON_SEP.join(map((self.json_record % tuple(row)).__mod__, zip(*cells))))
            lead = _JSON_SEP


# A sweep chunk is a GainGrid, a k-row per k and a row per rate, its columns the kernel's
# (k, lambda) arrays. Its writers are the module's, looked up when called: profilers wrap them.
SWEEP = Table((("k", ROW, lambda grid, i: grid.k_values[i]),
               ("lambda", RATE, lambda grid, i: grid.lam_values),
               ("erlang_wait_s", float, lambda grid, i: grid.columns.erlang_wait[i].tolist()),
               ("service_mean_s", ROW, lambda grid, i: grid.columns.service_mean.item(i, 0)),
               ("rho", float, lambda grid, i: grid.columns.rho[i].tolist()),
               ("queue_wait_s", float, lambda grid, i: grid.columns.queue_wait[i].tolist()),
               ("system_time_s", float, lambda grid, i: grid.columns.system_time[i].tolist()),
               ("gain_s", float, lambda grid, i: grid.columns.gain[i].tolist()),
               ("stable", bool, lambda grid, i: grid.columns.stable[i].tolist())),
              writers=lambda: (sweep_csv, sweep_json))
sweep_csv, sweep_json, SWEEP_HEADER = SWEEP.csv, SWEEP.json, SWEEP.header
# A threshold chunk is a list of ThresholdResult: k, lambda_star, bracket, iterations, ...
THRESHOLD = Table((("k", int, 0), ("lambda_star", float, 1),
                   ("lambda_low", float, lambda fields, i: [low for low, _ in fields[2]]),
                   ("lambda_high", float, lambda fields, i: [high for _, high in fields[2]]),
                   ("iterations", int, 3), ("converged", bool, 4), ("note", str, 5)))
PROFILES = Table((("standard", str), ("rate_bps", float), *zip(_PHY_TIMES, repeat(float)),
                  *zip(_PHY_COUNTS, repeat(int)), ("ack_rate_bps", float), ("gamma_us", float)))
OPTIMAL_K = Table((("k_best", int), ("k_max", int), ("lambda", float),
                   *zip(SWEEP_HEADER.split(",")[2:-1], repeat(float)), ("stable", bool)), lone=True)


def emit(records, out_format: str, path: str | None, table: Table | None = None) -> None:
    """Write ``records`` to path or stdout: an iterator of ``table``'s chunks, each written as
    it is made (the first before the file is opened: a bad input leaves no file, but a failed
    write can leave part of one), or a dict or a list of dicts with the same keys."""
    json_out = out_format == "json"
    if table is None:  # json.dumps text, nested records too, or a row of fmt cells per dict
        rows = [records] if isinstance(records, dict) else records
        text = (json.dumps(_json_value(records), indent=2, sort_keys=True, allow_nan=False)
                if json_out else "\n".join(",".join(map(fmt, row))
                                           for row in [rows[0], *map(dict.values, rows)]))
        records, ends, writer = iter([text]), ("", "", "\n"), lambda text, write, _: write(text)
    else:
        ends, writer = table.ends[json_out], table.writers()[json_out]
    (lead, later, end), first = ends, next(records)
    try:
        with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
            for chunk in chain((first,), records):
                writer(chunk, fh.write, lead)
                lead = later
            fh.write(end)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _run_profiles(rc: RunConfig) -> int:
    records = []
    for std, (rates, *_) in PRESET_STANDARDS.items():
        for rate in rates:
            profile, record = profile_for(std, rate), [std.value]
            for key in ("rate_bps", *_PHY_TIMES, *_PHY_COUNTS, "ack_rate_bps"):
                value = getattr(profile, _phy_field(key))
                record.append(_to_us(value) if key.endswith("_us") else value)
            records.append((*record, overhead_gamma(profile).gamma_total * 1e6))
    emit(iter([records]), rc.out_format, rc.out_path, PROFILES)
    return EXIT_OK


def _run_gain(rc: RunConfig) -> int:
    _require(rc.lam is not None, "gain needs --lambda")
    _require(len(rc.k_values) == 1, "gain needs exactly one --k")
    return _run_sweep(rc)


def _run_sweep(rc: RunConfig) -> int:
    _require(bool(rc.k_values), "sweep needs --k")
    _require(rc.grid is not None or rc.lam is not None,
             "sweep needs --lambda (grid MIN:MAX:POINTS or a single rate)")
    n, rates = ((1, lambda start, stop: [rc.lam]) if rc.grid is None
                else (rc.grid.points, rc.grid.rates))
    # Kernel calls of at most OPTIMAL_K_CHUNK points, k outer: whole k-rows while they
    # fit, else one k-row's rates a chunk at a time.
    spans = [(start, min(start + OPTIMAL_K_CHUNK, n)) for start in range(0, n, OPTIMAL_K_CHUNK)]
    rows = max(OPTIMAL_K_CHUNK // n, 1)
    _check_k(min(rc.k_values))  # gain_grid's check of every k, before the first byte
    chunks = (gain_grid(rc.k_values[i:i + rows], rates(start, stop), rc.phy, rc.traffic, rc.form)
              for i in range(0, len(rc.k_values), rows) for start, stop in spans)
    emit(chunks, rc.out_format, rc.out_path, SWEEP)
    return EXIT_OK


def _run_threshold(rc: RunConfig) -> int:
    """Solve, check and write one ``OPTIMAL_K_CHUNK`` of k at a time, then name the k that
    did not converge; every k and the search range are checked before the first byte."""
    _require(bool(rc.k_values), "threshold needs --k")
    runs = []  # [first, last] of each run of consecutive k that did not converge

    def gather(chunk: list) -> list:
        for k in [r.k for r in chunk if not r.converged]:
            if not runs or runs[-1][1] != k - 1:
                runs.append([k, k])
            runs[-1][1] = k
        return chunk

    chunks = threshold_chunks(rc.k_values, rc.phy, rc.traffic, rc.form, rc.search)
    emit(map(gather, chunks), rc.out_format, rc.out_path, THRESHOLD)
    if runs:
        failed = ", ".join(f"{lo}..{hi}" if hi > lo else str(lo) for lo, hi in runs)
        print(f"threshold did not converge for k = {failed}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if runs else EXIT_OK


def _run_optimal_k(rc: RunConfig) -> int:
    _require(rc.lam is not None, "optimal-k needs --lambda")
    _require(rc.k_max is not None, "optimal-k needs --k-max")
    k_best, metrics = optimal_k(rc.lam, rc.phy, rc.traffic, rc.form, rc.k_max)
    fields = (getattr(metrics, name.removesuffix("_s")) for name in SWEEP_HEADER.split(",")[2:])
    emit(iter([[(k_best, rc.k_max, rc.lam, *fields)]]), rc.out_format, rc.out_path, OPTIMAL_K)
    return EXIT_OK


def _sim_config(rc: RunConfig) -> SimConfig:
    _require(rc.sim_config is not None, "simulation needs --lambda or --sources")
    return rc.sim_config


def _run_simulate(rc: RunConfig) -> int:
    config = _sim_config(rc)
    n = rc.sim["replications"]
    try:
        if n == 1:
            pairs = [(config.seed, simulate(config))]
        else:
            pairs = replications(config, range(config.seed, config.seed + n))
    except Exception as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIM
    if rc.out_format == "csv":
        records = [{"seed": seed, **r.to_dict()} for seed, r in pairs]
    elif n == 1:
        records = pairs[0][1].to_dict()
    else:
        records = [{"seed": seed, "result": r.to_dict()} for seed, r in pairs]
    emit(records, rc.out_format, rc.out_path)
    return EXIT_OK


def _run_validate(rc: RunConfig) -> int:
    config = _sim_config(rc)
    try:
        report = validate_against_model(config, rc.form)
    except Exception as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_SIM
    record = report.to_dict() if rc.out_format == "json" else {
        "mode": report.mode.value,
        "k": report.k,
        "lambda": report.lam,
        "form": report.form.value,
        "analytic_stable": report.analytic_stable,
        "analytic_system_time_s": report.analytic_system_time,
        "sim_sojourn_mean_s": getattr(report.sim, "sojourn_mean", math.nan),
        "ci95_halfwidth_s": getattr(report.sim, "ci95_halfwidth", math.nan),
        "abs_deviation_s": report.abs_deviation,
        "rel_deviation": report.rel_deviation,
        "within_ci95": "" if report.within_ci95 is None else report.within_ci95,
        "interbatch_cv": report.interbatch_cv,
    }
    emit(record, rc.out_format, rc.out_path)
    return EXIT_OK


COMMANDS = {
    "profiles": ("list built-in standard/rate presets", _run_profiles),
    "gain": ("evaluate one G(k, lambda) point", _run_gain),
    "sweep": ("(k, lambda) grid of the analytic chain", _run_sweep),
    "threshold": ("break-even rate lambda*(k) per k", _run_threshold),
    "optimal-k": ("best batch size at one rate", _run_optimal_k),
    "simulate": ("one seeded Monte Carlo run (or replications)", _run_simulate),
    "validate": ("simulation vs analytic side-by-side", _run_validate),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    try:
        # One pass with the subcommand's own parser; the top-level one words the errors
        # of a missing or unknown subcommand and of arguments no parser knows.
        args, extra = parser.commands[command].parse_known_args(argv[1:]) if command else (None, True)
        if extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        rc = parse_run_config(_config_from_args(command, args))
        if getattr(args, "dump_config", False):
            emit(dump_run_config(rc), "json", None)
            return EXIT_OK
        return COMMANDS[command][1](rc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
