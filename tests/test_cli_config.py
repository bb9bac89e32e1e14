"""CLI config checking (unknown keys, values of the wrong type, flag
overrides of presets, grid bounds), the subcommand help pages, and the JSON
layout of emitted records."""

import json
import math
import re

import pytest

from aggdelay.cli import (
    _VARIANT,
    EXIT_CONFIG,
    EXIT_OK,
    REQUIRED,
    SCHEMA,
    ConfigError,
    _floats,
    dump_run_config,
    emit,
    main,
    parse_run_config,
)

COMMANDS = ("profiles", "gain", "sweep", "threshold", "optimal-k", "simulate", "validate")
COMMON_FLAGS = {
    "--config", "--preset", "--dump-config", "--format", "--output", "--standard",
    "--rate", "--form", "--payload-mean-bits", "--payload-mean-bytes",
    "--payload-family", "--payload-uniform", "--payload-empirical",
    "--caption-only-gamma", "--backoff-literal-us",
}
SIM_FLAGS = {"--mode", "--k", "--lambda", "--sources", "--seed", "--frames", "--warmup"}
FLAGS = {
    "profiles": {"--format", "--output"},
    "gain": COMMON_FLAGS | {"--k", "--lambda"},
    "sweep": COMMON_FLAGS | {"--k", "--lambda", "--grid-kind"},
    "threshold": COMMON_FLAGS | {"--k", "--lambda-min", "--lambda-max", "--rel-tol"},
    "optimal-k": COMMON_FLAGS | {"--lambda", "--k-max"},
    "simulate": COMMON_FLAGS | SIM_FLAGS | {"--replications"},
    "validate": COMMON_FLAGS | SIM_FLAGS,
}
CUSTOM_PHY = {
    "standard": "custom",
    "bit_rate_bps": 2e6,
    "slot_us": 13.5,
    "difs_us": 34.0,
    "sifs_us": 9.0,
    "preamble_us": 40.25,
    "cw": 31,
    "mac_header_bits": 224,
    "crc_bits": 32,
    "ack_bits": 112,
    "ack_rate_bps": 1e6,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_file(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    listed = re.findall(r"^    (\S+)\s+\S", out, re.MULTILINE)
    assert tuple(listed) == COMMANDS  # each with its help line, simulate and validate too


@pytest.mark.parametrize("argv", [(), ("frobnicate",)])
def test_no_or_unknown_subcommand_names_them_all_and_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert all(name in err for name in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_lists_its_flags(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == EXIT_OK
    assert out.startswith(f"usage: aggdelay {command} ")
    assert set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"} == FLAGS[command]


def test_subcommand_help_keeps_the_choices(capsys):
    _, out, _ = run(capsys, "simulate", "--help")
    assert "--mode {standard,aggregated}" in out
    assert "--payload-family {deterministic,exponential,uniform-range,empirical}" in out
    assert "--form {general-pk,deterministic-service}" in out


@pytest.mark.parametrize("grid", ["1:inf:3", "1:nan:3", "-inf:10:3"])
def test_sweep_grid_needs_finite_ends(capsys, grid):
    code, out, err = run(capsys, "sweep", "--k", "2", f"--lambda={grid}")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: lambda grid needs a finite min and max")


def test_config_file_typo_names_the_key(tmp_path, capsys):
    path = config_file(tmp_path, {"traffic": {"payload_mean_bit": 12000}})
    code, out, err = run(capsys, "gain", "--config", path, "--k", "2", "--lambda", "100")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "traffic.payload_mean_bit" in err


def test_config_file_sim_typo_names_the_key(tmp_path, capsys):
    path = config_file(tmp_path, {"sim": {"frame": 5}, "lambda": 100})
    code, out, err = run(capsys, "simulate", "--config", path)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "sim.frame" in err


@pytest.mark.parametrize("key", ["max_iter", "scan_points"])
def test_removed_search_keys_are_unknown(tmp_path, capsys, key):
    path = config_file(tmp_path, {"search": {key: 10}})
    code, out, err = run(capsys, "threshold", "--config", path, "--k", "5")
    assert code == EXIT_CONFIG
    assert out == ""
    assert f"search.{key}" in err


@pytest.mark.parametrize("flag", ["--max-iter", "--scan-points"])
def test_removed_search_flags_are_rejected(capsys, flag):
    code, out, err = run(capsys, "threshold", "--k", "5", flag, "5")
    assert code == EXIT_CONFIG
    assert out == ""
    assert flag in err


def test_rate_flag_on_custom_phy_is_rejected(tmp_path, capsys):
    path = config_file(tmp_path, {"phy": CUSTOM_PHY, "k": 2, "lambda": 100})
    assert run(capsys, "gain", "--config", path)[0] == EXIT_OK
    code, out, err = run(capsys, "gain", "--config", path, "--rate", "1e6")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "phy.rate_bps" in err and "custom" in err
    code, out, _ = run(capsys, "gain", "--config", path, "--rate", "1e6", "--dump-config")
    assert code == EXIT_CONFIG and out == ""


def test_payload_keys_of_another_family_are_rejected(capsys):
    code, out, err = run(
        capsys, "gain", "--payload-uniform", "100:1500", "--payload-family", "deterministic",
        "--k", "2", "--lambda", "100",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "traffic.uniform_lo_bits" in err and "deterministic" in err


@pytest.mark.parametrize("cfg", [{"lambda": [1]}, {"k_max": [1]}, {"k": [[2]]}])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, cfg):
    code, out, err = run(capsys, "optimal-k", "--config", config_file(tmp_path, cfg))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: bad value for ")


@pytest.mark.parametrize("name, text", [("missing.json", None), ("broken.json", "{nope")])
def test_unreadable_config_file_exits_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "gain", "--config", str(path), "--k", "2", "--lambda", "100")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1


def test_unknown_grid_key_is_rejected():
    with pytest.raises(ConfigError, match="lambda.step"):
        parse_run_config({"lambda": {"min": 1, "max": 2, "points": 3, "step": 1}})


FIG3 = ("--k", "2..10", "--lambda", "1:1600:200")
GEOMETRIC = ("--grid-kind", "geometric")


@pytest.mark.parametrize(
    "cfg, argv, same_as, exit_code",
    [
        # a payload form overrides the preset's family
        (None, ("--preset", "fig3", "--payload-uniform", "400:1200"),
         (*FIG3, "--payload-uniform", "400:1200"), EXIT_OK),
        (None, ("--preset", "fig3", "--payload-empirical", "400,1200"),
         (*FIG3, "--payload-empirical", "400,1200"), EXIT_OK),
        # --grid-kind retypes a preset or config file grid
        (None, ("--preset", "fig3", *GEOMETRIC), (*FIG3, *GEOMETRIC), EXIT_OK),
        ({"lambda": {"min": 50, "max": 2e4, "points": 9}}, ("--k", "3", *GEOMETRIC),
         ("--k", "3", "--lambda", "50:20000:9", *GEOMETRIC), EXIT_OK),
        # ... and is ignored next to a single rate, from a flag or a config file, or no lambda
        (None, ("--k", "3", "--lambda", "100", *GEOMETRIC), ("--k", "3", "--lambda", "100"),
         EXIT_OK),
        ({"lambda": 100}, ("--k", "3", *GEOMETRIC), ("--k", "3", "--lambda", "100"), EXIT_OK),
        (None, ("--k", "3", *GEOMETRIC), ("--k", "3"), EXIT_CONFIG),
    ],
)
def test_sweep_flags_equal_the_run_they_spell_out(tmp_path, capsys, cfg, argv, same_as,
                                                  exit_code):
    config = () if cfg is None else ("--config", config_file(tmp_path, cfg))
    code, out, err = run(capsys, "sweep", *config, *argv)
    assert code == exit_code, err
    assert code == EXIT_OK or err.startswith("error: sweep needs --lambda")
    assert (code, out, err) == run(capsys, "sweep", *same_as)


def test_payload_family_flag_keeps_the_preset_mean(capsys):
    code, out, _ = run(
        capsys, "sweep", "--preset", "fig3", "--payload-family", "exponential", "--dump-config"
    )
    assert code == EXIT_OK
    traffic = json.loads(out)["traffic"]
    assert traffic == {"payload_family": "exponential", "payload_mean_bits": 800.0}


def test_payload_bytes_flag_replaces_the_preset_mean(capsys):
    code, with_preset, err = run(
        capsys, "gain", "--preset", "fig3", "--payload-mean-bytes", "150",
        "--k", "3", "--lambda", "500",
    )
    assert code == EXIT_OK, err
    code, in_bits, _ = run(
        capsys, "gain", "--payload-mean-bits", "1200", "--k", "3", "--lambda", "500"
    )
    assert with_preset == in_bits


@pytest.mark.parametrize(
    "records",
    [
        [{"b": 1, "a": 'say "hi"\n', "c": None, "d": True, "e": -0.0, "f": 1e300, "g": "\u00e9"}] * 2,
        [{"k": 2, "lambda_star": float("nan"), "note": ""}],
        {"k_best": 3, "gain_s": float("-inf")},
        [{"seed": 1, "result": {"x": 1.5}}],
        [],
    ],
)
def test_json_records_are_laid_out_as_json_dumps(capsys, records):
    def strict(row):  # non-finite floats become their CSV literals
        return {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in row.items()}

    emit(records, "json", None)
    data = strict(records) if isinstance(records, dict) else [strict(r) for r in records]
    assert capsys.readouterr().out == json.dumps(data, indent=2, sort_keys=True) + "\n"


# A valid section for each section and variant of SCHEMA, to put one bad value into.
VALID_SECTIONS = {
    ("phy", "b"): {"standard": "b"},
    ("phy", "g"): {"standard": "g", "rate_bps": 6e6},
    ("phy", "custom"): CUSTOM_PHY,
    ("traffic", "deterministic"): {"payload_family": "deterministic"},
    ("traffic", "exponential"): {"payload_family": "exponential"},
    ("traffic", "uniform-range"): {"payload_family": "uniform-range", "uniform_lo_bits": 100.0,
                                   "uniform_hi_bits": 200.0},
    ("traffic", "empirical"): {"payload_family": "empirical", "empirical_values_bits": [100.0]},
    ("lambda", None): {"min": 1.0, "max": 2.0, "points": 3},
    ("sim", None): {},
    ("search", None): {},
    ("output", None): {},
}


def _bad_values(path, default, kind):
    """(value, stderr) for each value that does not belong to a key of ``kind``."""
    if default is not None and default is not REQUIRED:
        yield None, f"error: bad value for {path}: None\n"
    if isinstance(kind, tuple):
        yield "nope", f"error: {path} must be one of {list(kind)}, got 'nope'\n"
        return
    bad = {bool: ("false",), str: (5, True), _floats: ([True],), float: (True,),
           int: (True, 2.5, math.inf)}[kind]
    for value in bad:
        shown = value[0] if isinstance(value, list) else value  # an item is named alone
        yield value, f"error: bad value for {path}: {shown!r}\n"


def _schema_cases():
    def case(section, variant, key, value, err):
        valid = VALID_SECTIONS.get((section, variant), {})
        cfg = {"k": 2, "lambda": VALID_SECTIONS["lambda", None], section: {**valid, key: value}}
        name = ".".join(filter(None, (section, variant, key)))
        return pytest.param(cfg, err, id=f"{name}={value!r}")

    for section, key in _VARIANT.items():  # a variant key's choices were checked before
        yield case(section, None, key, None, f"error: bad value for {section}.{key}: None\n")
    for section, variant in VALID_SECTIONS:
        schema = SCHEMA[section][variant] if variant else SCHEMA[section]
        for key, (default, kind) in schema.items():
            for value, err in _bad_values(f"{section}.{key}", default, kind):
                yield case(section, variant, key, value, err)


@pytest.mark.parametrize("cfg, err", _schema_cases())
def test_each_config_value_of_the_wrong_kind_exits_2_naming_its_key(tmp_path, capsys,
                                                                    monkeypatch, cfg, err):
    """Every key of SCHEMA: a null where the default is not null, a bool for a number or
    text, text for a bool, a number for text, a fraction or inf for an integer, and a
    string outside a key's choices. The run and --dump-config reject each alike."""
    monkeypatch.chdir(tmp_path)  # a path that was wrongly read as text stays here
    path = config_file(tmp_path, cfg)
    for extra in ((), ("--dump-config",)):
        assert run(capsys, "sweep", "--config", path, *extra) == (EXIT_CONFIG, "", err)
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("cfg, err", [
    ({"form": None}, "error: bad value for form: None\n"),
    ({"form": "nope"},
     "error: form must be one of ['general-pk', 'deterministic-service'], got 'nope'\n"),
    ({"k_max": 2.5}, "error: bad value for k_max: 2.5\n"),
    ({"k": [True]}, "error: bad value for k: True\n"),
    ({"k": [2, None]}, "error: bad value for k: None\n"),
    ({"k": 2.5}, "error: bad value for k: 2.5\n"),
    ({"lambda": True}, "error: bad value for lambda: True\n"),
], ids=["form-null", "form-nope", "k_max-fraction", "k-bool", "k-null", "k-fraction",
        "lambda-bool"])
def test_top_level_value_of_the_wrong_kind_exits_2(tmp_path, capsys, cfg, err):
    path = config_file(tmp_path, {"k": 2, "lambda": 100.0, **cfg})
    for extra in ((), ("--dump-config",)):
        assert run(capsys, "gain", "--config", path, *extra) == (EXIT_CONFIG, "", err)


@pytest.mark.parametrize("flag", [("--standard", "g", "--rate", "6e6"),
                                  ("--payload-mean-bits", "100"), ("--format", "json")])
def test_config_file_section_that_is_not_an_object_exits_2_before_flags_merge(
        tmp_path, capsys, flag):
    for section in ("phy", "traffic", "output"):
        path = config_file(tmp_path, {section: 5})
        assert run(capsys, "gain", "--config", path, "--k", "2", "--lambda", "100", *flag) == (
            EXIT_CONFIG, "", f"error: config section {section!r} must be an object\n")


@pytest.mark.parametrize("cfg", [
    {},
    {"phy": {"standard": "b", "rate_bps": "11e6"}, "lambda": "100"},  # numeric text
    {"lambda": {"min": 1, "max": 2, "points": 3.0}, "sim": {"seed": 7.0}, "k": 2.0},  # whole
    {"traffic": {"payload_family": "exponential", "payload_mean_bytes": 125}},
    {"phy": {"standard": "g", "rate_bps": 6e6, "caption_only_overhead": False}},
    {"phy": {**CUSTOM_PHY, "cw": 31.0}, "lambda": {"min": 1, "max": 5, "points": 3}},
])
def test_dumped_config_parses_back_to_the_same_run_config(cfg):
    rc = parse_run_config({"k": 2, **cfg})
    assert parse_run_config(dump_run_config(rc)) == rc


def test_dump_config_prints_microseconds_as_given(capsys):
    # 30.75 us is 3.075e-05 s, and 3.075e-05 * 1e6 is 30.750000000000004
    code, out, _ = run(capsys, "gain", "--backoff-literal-us", "30.75", "--k", "2",
                       "--lambda", "100", "--dump-config")
    assert code == EXIT_OK
    assert json.loads(out)["phy"]["backoff_override_us"] == 30.75
