"""CLI config checking (unknown keys, flag overrides of presets, grid
bounds), the subcommand help pages, and the JSON layout of emitted records."""

import json
import math
import re

import pytest

from aggdelay.cli import EXIT_CONFIG, EXIT_OK, ConfigError, emit, main, parse_run_config

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
