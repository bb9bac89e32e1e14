"""CLI contract: subcommands, exit codes, CSV/JSON determinism, config
round-trip."""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from aggdelay.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    SWEEP_HEADER,
    build_parser,
    dump_run_config,
    main,
    parse_run_config,
)
import aggdelay.cli as cli_module
from aggdelay.presets import PRESETS, preset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profiles_lists_all_presets(capsys):
    code, out, err = run(capsys, "profiles")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("standard,rate_bps,slot_us")
    assert len(lines) == 1 + 4 + 8  # header + 802.11b rates + 802.11g rates
    assert err == ""
    # the same table from the module run as a script
    package_root = str(Path(cli_module.__file__).parents[1])
    script = subprocess.run([sys.executable, "-m", "aggdelay.cli", "profiles"], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": package_root})
    assert (script.returncode, script.stdout, script.stderr) == (EXIT_OK, out, "")


def test_profiles_json(capsys):
    code, out, _ = run(capsys, "profiles", "--format", "json")
    assert code == EXIT_OK
    entries = json.loads(out)
    assert len(entries) == 12
    assert entries[0]["standard"] == "b"


def test_gain_k1_is_exactly_zero(capsys):
    code, out, _ = run(capsys, "gain", "--k", "1", "--lambda", "500")
    assert code == EXIT_OK
    header, row = out.strip().splitlines()
    assert header == SWEEP_HEADER
    cells = row.split(",")
    assert cells[0] == "1"
    assert cells[header.split(",").index("gain_s")] == "0"
    assert cells[-1] == "true"


def test_sweep_matches_contract_and_is_deterministic(capsys):
    argv = (
        "sweep",
        "--standard",
        "b",
        "--rate",
        "11e6",
        "--k",
        "2..4",
        "--lambda",
        "1:1600:10",
    )
    code, first, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, second, _ = run(capsys, *argv)
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 3 * 10
    # row-major order: k outer, lambda inner
    ks = [line.split(",")[0] for line in lines[1:]]
    assert ks == ["2"] * 10 + ["3"] * 10 + ["4"] * 10


def test_sweep_emits_inf_literals_for_unstable_points(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--k",
        "1,5",
        "--lambda",
        "2500:3000:2",
    )
    assert code == EXIT_OK
    body = out.strip().splitlines()[1:]
    k1_rows = [line for line in body if line.startswith("1,")]
    k5_rows = [line for line in body if line.startswith("5,")]
    for line in k1_rows:
        assert ",inf," in line and line.endswith(",false")
    for line in k5_rows:
        assert ",-inf," in line and line.endswith(",true")


def test_threshold_g54_rows_nondecreasing(capsys):
    code, out, _ = run(
        capsys, "threshold", "--standard", "g", "--rate", "54e6", "--k", "2..20"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,lambda_star")
    assert len(lines) == 1 + 19
    stars = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a <= b for a, b in zip(stars, stars[1:]))


def test_threshold_nonconvergence_exits_3(capsys):
    code, out, err = run(
        capsys,
        "threshold",
        "--k",
        "5",
        "--lambda-min",
        "1",
        "--lambda-max",
        "100",
    )
    assert code == EXIT_NO_CONVERGENCE
    assert "did not converge" in err
    row = out.strip().splitlines()[1]
    assert ",false," in row
    assert row.split(",")[1] == "nan"


def test_threshold_nonconvergence_lists_runs_of_k_as_ranges(capsys):
    # With the default search range, every k from 797 on fails.
    code, out, err = run(capsys, "threshold", "--k", "2,795,797,798,799,4,1000,1001,1003")
    assert code == EXIT_NO_CONVERGENCE
    assert err == "threshold did not converge for k = 797..799, 1000..1001, 1003\n"
    converged = [line.split(",")[5] for line in out.splitlines()[1:]]
    assert converged == ["true", "true", "false", "false", "false", "true", "false", "false", "false"]
    code, out, err = run(capsys, "threshold", "--k", "790..5000")
    assert code == EXIT_NO_CONVERGENCE
    assert err == "threshold did not converge for k = 797..5000\n"
    code, out, err = run(capsys, "threshold", "--k", "799,798,797,797,798")
    assert code == EXIT_NO_CONVERGENCE
    assert err == "threshold did not converge for k = 799, 798, 797, 797..798\n"


def test_unknown_rate_exits_2(capsys):
    code, out, err = run(capsys, "gain", "--rate", "7e6", "--k", "2", "--lambda", "100")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "unsupported rate" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_unknown_flag_exits_2(capsys):
    assert main(["gain", "--bogus", "1"]) == EXIT_CONFIG


def test_missing_required_value_exits_2(capsys):
    code, _, err = run(capsys, "gain", "--k", "2")
    assert code == EXIT_CONFIG
    assert "lambda" in err


def test_no_subcommand_exits_2(capsys):
    assert main([]) == EXIT_CONFIG


# Every subcommand, argparse's error and help exits, and flags that must not outlive
# their call (a payload form, a search bound, a dump) followed by calls without them.
REUSE_SEQUENCE = (
    ("profiles",),
    ("profiles", "--format", "json"),
    ("gain", "--k", "5", "--lambda", "1000"),
    ("sweep", "--k", "2..3", "--lambda", "100:1000:4", "--format", "json"),
    ("threshold", "--preset", "fig4-11", "--k", "2,5", "--lambda-max", "900"),
    ("threshold", "--preset", "fig4-11", "--k", "2,5"),
    ("optimal-k", "--lambda", "1500", "--k-max", "10"),
    ("optimal-k", "--lambda", "1500", "--k-max", "10", "--dump-config"),
    ("simulate", "--lambda", "300", "--frames", "3000", "--payload-uniform", "400:1200"),
    ("simulate", "--lambda", "300", "--frames", "3000"),
    ("validate", "--lambda", "300", "--frames", "3000", "--format", "csv"),
    ("gain", "--bogus", "1"),
    ("sweep", "--k", "2", "--lambda", "1:2:x"),
    ("simulate", "--seed", "one"),
    ("threshold", "--help"),
    ("validate", "--help"),
    ("--help",),
    ("frobnicate",),
    (),
)


def test_main_reuses_one_parser_per_subcommand_without_leaking_state(capsys, monkeypatch):
    built, init = Counter(), argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        built[kwargs.get("prog")] += 1
        init(parser, *args, **kwargs)

    def calls():
        return [run(capsys, *argv) for argv in REUSE_SEQUENCE]

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = calls()
    top_level = built["aggdelay"]
    again = calls()
    fresh = []
    for argv in REUSE_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    build_parser.cache_clear()

    assert first == again == fresh
    codes = [code for code, _, _ in first]
    assert codes[:11] == [EXIT_OK] * 4 + [EXIT_NO_CONVERGENCE] + [EXIT_OK] * 6
    assert codes[11:14] == [EXIT_CONFIG] * 3
    assert codes[14:] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_CONFIG, EXIT_CONFIG]
    assert first[8][1] != first[9][1] and first[4][1] != first[5][1]
    # One top-level parser per distinct subcommand, or none named: none built on the rerun.
    assert top_level == len(set(COMMANDS) | {None}) == 8
    assert built["aggdelay"] == top_level + len(REUSE_SEQUENCE)  # the fresh pass, one each


def test_mutually_exclusive_payload_means_exit_2(capsys):
    code, _, err = run(
        capsys,
        "gain",
        "--k",
        "2",
        "--lambda",
        "100",
        "--payload-mean-bits",
        "800",
        "--payload-mean-bytes",
        "100",
    )
    assert code == EXIT_CONFIG
    assert "mutually exclusive" in err


def test_payload_bytes_converts_to_bits(capsys):
    code_bits, out_bits, _ = run(
        capsys, "gain", "--k", "2", "--lambda", "100", "--payload-mean-bits", "800"
    )
    code_bytes, out_bytes, _ = run(
        capsys, "gain", "--k", "2", "--lambda", "100", "--payload-mean-bytes", "100"
    )
    assert code_bits == code_bytes == EXIT_OK
    assert out_bits == out_bytes


def test_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--preset", "fig99")
    assert code == EXIT_CONFIG
    assert "unknown preset" in err


def test_presets_cover_figures():
    assert "fig3" in PRESETS
    for name in ("fig4-1", "fig4-2", "fig4-5.5", "fig4-11"):
        assert name in PRESETS
    for mbps in (6, 9, 12, 18, 24, 36, 48, 54):
        assert f"fig5-{mbps}" in PRESETS


def test_dump_config_roundtrip_fig3(capsys):
    code, out, _ = run(capsys, "sweep", "--preset", "fig3", "--dump-config")
    assert code == EXIT_OK
    cfg = json.loads(out)
    rc = parse_run_config(cfg)
    assert dump_run_config(rc) == cfg
    assert parse_run_config(dump_run_config(rc)) == rc


def test_dump_config_roundtrip_custom_phy(tmp_path, capsys):
    config = {
        "phy": {
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
            "backoff_override_us": 20.0,
            "caption_only_overhead": True,
        },
        "traffic": {"payload_family": "exponential", "payload_mean_bytes": 125},
        "form": "general-pk",
        "k": [2, 4, 8],
        "lambda": 321.5,
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "gain", "--config", str(path), "--k", "4", "--dump-config")
    assert code == EXIT_OK
    dumped = json.loads(out)
    assert dumped["phy"]["slot_us"] == 13.5
    assert dumped["k"] == [4]
    rc = parse_run_config(dumped)
    assert dump_run_config(rc) == dumped
    assert rc.traffic.payload_mean == 1000.0  # 125 bytes


def test_flags_override_preset(capsys):
    code, out, _ = run(
        capsys, "sweep", "--preset", "fig3", "--k", "2", "--lambda", "100:200:2",
        "--dump-config",
    )
    assert code == EXIT_OK
    cfg = json.loads(out)
    assert cfg["k"] == [2]
    assert cfg["lambda"]["min"] == 100.0
    assert cfg["lambda"]["points"] == 2
    assert cfg["phy"] == {"rate_bps": 11e6, "standard": "b"}


def test_output_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, err = run(
        capsys, "gain", "--k", "2", "--lambda", "100", "--output", str(target)
    )
    assert code == EXIT_OK
    assert out == "" and err == ""
    content = target.read_text()
    assert content.startswith(SWEEP_HEADER)
    assert content.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--preset", "fig3"),
        ("gain", "--k", "2", "--lambda", "100"),
        ("simulate", "--lambda", "100", "--frames", "1000", "--warmup", "0"),
    ],
)
@pytest.mark.parametrize("target", ["missing/rows.out", "."])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, argv, target):
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / target))
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_simulate_seed_range_past_64_bits_exits_2_before_running(capsys, monkeypatch):
    import aggdelay.cli as cli_mod

    def never(*args):
        raise AssertionError("no replication may run")

    monkeypatch.setattr(cli_mod, "simulate", never)
    monkeypatch.setattr(cli_mod, "replications", never)
    argv = ("simulate", "--lambda", "100", "--frames", "1000", "--warmup", "0",
            "--seed", str(2**64 - 1))
    code, out, err = run(capsys, *argv, "--replications", "2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "64 bits" in err
    code, _, err = run(capsys, *argv)
    assert code == 4 and "no replication may run" in err  # one seed still fits


def test_simulate_json_default_and_determinism(capsys):
    argv = (
        "simulate",
        "--mode",
        "aggregated",
        "--k",
        "5",
        "--lambda",
        "100",
        "--seed",
        "7",
        "--frames",
        "5000",
        "--warmup",
        "100",
    )
    code, first, _ = run(capsys, *argv)
    assert code == EXIT_OK
    payload = json.loads(first)
    assert payload["frames_measured"] == 4900
    code, second, _ = run(capsys, *argv)
    assert first == second


def test_simulate_replications_csv_rows(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--lambda",
        "100",
        "--seed",
        "3",
        "--frames",
        "2000",
        "--warmup",
        "10",
        "--replications",
        "3",
        "--format",
        "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("seed,frames_generated")
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5"]


def test_simulate_sources_flag(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--sources",
        "60,40",
        "--seed",
        "1",
        "--frames",
        "1000",
        "--warmup",
        "0",
    )
    assert code == EXIT_OK
    assert json.loads(out)["frames_measured"] == 1000


def test_sources_superpose_into_one_stream(capsys):
    frames = ("--seed", "64", "--frames", "20000")
    merged = run(capsys, "simulate", "--lambda", "100", *frames)
    assert merged[0] == EXIT_OK
    assert run(capsys, "simulate", "--sources", "60,40", *frames) == merged


@pytest.mark.parametrize(
    "argv, config, err",
    [
        (("--lambda", "100", "--sources", "10,20"), None,
         "error: sum of source rates 30 must equal the traffic lambda_total 100\n"),
        (("--lambda", "100", "--sources", "60,50"), None,
         "error: sum of source rates 110 must equal the traffic lambda_total 100\n"),
        (("--sources", "100,-0.5"), None, "error: every source rate must be positive and finite\n"),
        ((), {"sim": {"sources": []}}, "error: every source rate must be positive and finite\n"),
        # each rate is finite, their sum is not
        (("--sources", "1e308,1e308"), None,
         "error: sum of source rates [1e+308, 1e+308] must be finite\n"),
        # a fault SimConfig finds is named before a wrong sum of the sources
        (("--lambda", "100", "--sources", "60,50", "--seed", "-1"), None,
         "error: seed must fit in 64 bits\n"),
    ],
    ids=["sum-30", "sum-110", "negative", "empty", "sum-overflow", "seed-first"],
)
def test_source_rates_are_checked_against_the_rate(tmp_path, capsys, argv, config, err):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ("--config", str(path), *argv)
    for command in ("simulate", "validate"):
        assert run(capsys, command, *argv, "--frames", "2000") == (EXIT_CONFIG, "", err)


SOURCE_RATE = "error: every source rate must be positive and finite\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--lambda", "100", "--frames", "10", "--warmup", "20"),
         "error: need num_frames > warmup_frames >= 0\n"),
        # every given value is checked before a missing rate is reported
        (("--frames", "10", "--warmup", "20"), "error: need num_frames > warmup_frames >= 0\n"),
        (("--lambda", "100", "--seed", "-5"), "error: seed must fit in 64 bits\n"),
        (("--lambda", "100", "--mode", "standard", "--k", "3"),
         "error: standard mode uses k = 1\n"),
        (("--lambda", "100", "--mode", "aggregated", "--k", "1"),
         "error: aggregated mode needs an integer k >= 2\n"),
        (("--sources", "0"), SOURCE_RATE),
        (("--sources", "100,-0.5"), SOURCE_RATE),
        (("--sources", "100,nan"), SOURCE_RATE),
        (("--lambda", "100", "--sources", "100,nan"), SOURCE_RATE),
        (("--lambda", "100", "--sources", "60,50"),
         "error: sum of source rates 110 must equal the traffic lambda_total 100\n"),
    ],
    ids=["frames", "frames-no-rate", "seed", "standard-k", "aggregated-k", "sources-zero",
         "sources-negative", "sources-nan", "sources-nan-lambda", "sources-sum"],
)
def test_dump_config_rejects_what_the_run_rejects(capsys, argv, err):
    for command in ("simulate", "validate"):
        assert run(capsys, command, *argv) == (EXIT_CONFIG, "", err)
        assert run(capsys, command, *argv, "--dump-config") == (EXIT_CONFIG, "", err)


@pytest.mark.parametrize(
    "sim, err",
    [
        ({"num_frames": 10, "warmup_frames": 20}, "error: need num_frames > warmup_frames >= 0\n"),
        ({"frames": 10}, "error: unknown config keys: sim.frames\n"),
        ({"replications": 0}, "error: sim.replications must be >= 1\n"),
    ],
    ids=["frames", "unknown-key", "replications"],
)
def test_sim_section_is_checked_whole_by_every_command(tmp_path, capsys, sim, err):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sim": sim}))
    for extra in ((), ("--dump-config",)):
        argv = ("gain", "--config", str(path), "--k", "2", "--lambda", "100", *extra)
        assert run(capsys, *argv) == (EXIT_CONFIG, "", err)


def test_simulate_invalid_config_exits_2(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--mode",
        "aggregated",
        "--k",
        "1",
        "--lambda",
        "100",
        "--frames",
        "100",
        "--warmup",
        "0",
    )
    assert code == EXIT_CONFIG
    assert "k >= 2" in err


def test_simulation_runtime_failure_exits_4(capsys, monkeypatch):
    import aggdelay.cli as cli_mod

    def boom(*args):
        raise RuntimeError("induced failure")

    for command, target, words in (("simulate", "simulate", "simulation failed: "),
                                   ("validate", "validate_against_model", "validation failed: ")):
        monkeypatch.setattr(cli_mod, target, boom)
        code, out, err = run(
            capsys, command, "--lambda", "100", "--frames", "100", "--warmup", "0"
        )
        assert code == 4
        assert out == ""
        assert "induced failure" in err
        assert err.startswith(words)


def test_validate_json_report(capsys):
    code, out, _ = run(
        capsys,
        "validate",
        "--mode",
        "aggregated",
        "--k",
        "5",
        "--lambda",
        "100",
        "--seed",
        "7",
        "--frames",
        "20000",
        "--warmup",
        "500",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["analytic_stable"] is True
    assert report["k"] == 5
    assert report["sim"]["frames_measured"] == 19500
    assert 0.3 < report["interbatch_cv"] < 0.6  # Erlang-5 regularity


def test_validate_csv_single_row(capsys):
    code, out, _ = run(
        capsys,
        "validate",
        "--lambda",
        "100",
        "--frames",
        "5000",
        "--warmup",
        "100",
        "--format",
        "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("mode,k,lambda,form")
    assert len(lines) == 2


def test_csv_formatting_uses_12_significant_digits(capsys):
    code, out, _ = run(capsys, "gain", "--k", "2", "--lambda", "1067")
    row = out.strip().splitlines()[1].split(",")
    # erlang_wait = 1/(2*1067): 12 significant digits
    assert row[2] == "0.000468603561387"


@pytest.mark.parametrize(
    "argv",
    [
        ("gain", "--k", "2", "--lambda", "inf"),
        ("optimal-k", "--lambda", "inf", "--k-max", "3"),
        ("simulate", "--mode", "standard", "--lambda", "inf", "--frames", "100000"),
        ("simulate", "--mode", "standard", "--sources", "100,inf", "--frames", "100000"),
        ("simulate", "--mode", "standard", "--sources", "100,nan", "--frames", "100000"),
        ("simulate", "--lambda", "100", "--sources", "100,nan", "--frames", "100000"),
        ("threshold", "--k", "2", "--lambda-max", "inf"),
    ],
)
def test_non_finite_rate_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err and "Traceback" not in err
    if "--sources" in argv:  # a bad source rate is named before the rate they sum to
        assert err == SOURCE_RATE


@pytest.mark.parametrize(
    "argv, field",
    [
        (("gain", "--k", "2", "--lambda", "100", "--payload-mean-bits", "nan"), "payload_mean"),
        (("gain", "--k", "2", "--lambda", "100", "--payload-mean-bits", "inf"), "payload_mean"),
        (("gain", "--k", "2", "--lambda", "100", "--payload-mean-bytes", "nan"), "payload_mean"),
        (("gain", "--k", "2", "--lambda", "100", "--payload-uniform", "0:inf"), "uniform_hi"),
        (("gain", "--k", "2", "--lambda", "100", "--payload-uniform", "nan:800"), "uniform_lo"),
        (("gain", "--k", "2", "--lambda", "100", "--payload-empirical", "800,inf"),
         "empirical_values"),
        (("gain", "--k", "2", "--lambda", "100", "--backoff-literal-us", "nan"),
         "backoff_override"),
        (("gain", "--k", "2", "--lambda", "100", "--backoff-literal-us", "inf"),
         "backoff_override"),
        (("threshold", "--k", "2", "--payload-mean-bits", "inf"), "payload_mean"),
        (("threshold", "--k", "2", "--rel-tol", "nan"), "rel_tol"),
        (("threshold", "--k", "2", "--rel-tol", "inf"), "rel_tol"),
        (("threshold", "--k", "2", "--rel-tol", "1"), "rel_tol"),
    ],
)
def test_bad_model_input_names_its_field_and_exits_2(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "payload",
    [
        ("--payload-family", "exponential", "--payload-mean-bits", "1e200"),
        ("--payload-uniform", "0:1e308"),
        ("--payload-empirical", "1e308,1"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ("gain", "--k", "2", "--lambda", "5"),
        ("threshold", "--k", "2"),
        ("simulate", "--lambda", "10", "--frames", "1000"),
    ],
)
def test_payload_moment_overflow_exits_2(capsys, command, payload):
    """Deterministic payloads are left out: their variance is 0 and cannot overflow."""
    code, out, err = run(capsys, *command, *payload)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "payload moments" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["bit_rate_bps", "ack_rate_bps", "slot_us", "difs_us",
                                 "sifs_us", "preamble_us"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_custom_phy_exits_2(tmp_path, capsys, key, bad):
    phy = {
        "standard": "custom", "bit_rate_bps": 2e6, "slot_us": 20.0, "difs_us": 50.0,
        "sifs_us": 10.0, "preamble_us": 96.0, "cw": 16, "mac_header_bits": 192,
        "crc_bits": 32, "ack_bits": 112, "ack_rate_bps": 2e6,
    }
    path = tmp_path / "phy.json"
    path.write_text(json.dumps({"phy": {**phy, key: bad}}))  # the config reads "nan" as NaN
    code, out, err = run(capsys, "gain", "--config", str(path), "--k", "2", "--lambda", "100")
    assert code == EXIT_CONFIG
    assert out == ""
    field = key.removesuffix("_us").removesuffix("_bps")
    assert err.startswith(f"error: {field} must be ") and "finite" in err


def test_source_rates_sum_the_same_on_every_python_version(capsys):
    """The builtin sum of floats is compensated from Python 3.12 on: 0.1 + 0.2 + 0.3 is
    0.6000000000000001 before and 0.6 after. math.fsum gives 0.6 on each."""
    code, out, _ = run(capsys, "simulate", "--sources", "0.1,0.2,0.3", "--dump-config")
    assert code == EXIT_OK and json.loads(out)["lambda"] == 0.6


def test_sweep_json_spells_an_overflowing_service_mean_as_a_string(capsys):
    """A service mean past the float range is a cell like the others, not a bare inf."""
    code, out, _ = run(capsys, "sweep", "--k", "2,10", "--lambda", "1",
                       "--payload-mean-bits", "1e308", "--format", "json")
    assert code == EXIT_OK
    assert [row["service_mean_s"] for row in json.loads(out)] == ["inf", "inf"]
