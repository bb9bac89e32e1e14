"""Command-line parsing and config assembly: what ``main`` prints for good and
bad argvs, the precomputed flag table, preset copies and the PHY profile a
config builds."""

import hashlib
import json

import pytest

from aggdelay import profile_for
from aggdelay.cli import (
    _FLAG_PATHS,
    _VARIANT,
    COMMANDS,
    FLAGS,
    SCHEMA,
    TOP_LEVEL_KEYS,
    build_parser,
    main,
    parse_run_config,
)
from aggdelay.presets import PRESETS, preset

# argv -> exit code, sha256 prefix of stdout, last line of stderr, sha256 prefix of
# stderr, as an 80-column terminal shows them. e3b0c442... is the empty text.
ARGV_TABLE = (
    ((), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: the following arguments are required: command", "17ee253903efbb94f833"),
    (("frobnicate",), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: argument command: invalid choice: 'frobnicate' (choose from 'profiles', "
     "'gain', 'sweep', 'threshold', 'optimal-k', 'simulate', 'validate')", "5affe68212aac5c5f8b7"),
    (("--help",), 0, "ca0bf74a7f45b4ed8f88", "", "e3b0c44298fc1c149afb"),
    (("-h", "gain"), 0, "ca0bf74a7f45b4ed8f88", "", "e3b0c44298fc1c149afb"),
    (("gain", "-h"), 0, "9e355928d931586cf3b3", "", "e3b0c44298fc1c149afb"),
    (("gain", "--h"), 0, "9e355928d931586cf3b3", "", "e3b0c44298fc1c149afb"),
    (("gain", "--bogus", "1"), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: unrecognized arguments: --bogus 1", "3d0abd2300cc6ffc3a55"),
    (("gain", "--k", "2", "--lambda", "100", "extra"), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: unrecognized arguments: extra", "19fff7713aafcb2fa3f0"),
    (("gain", "--k"), 2, "e3b0c44298fc1c149afb",
     "aggdelay gain: error: argument --k: expected one argument", "3a2709fc38783681455f"),
    (("gain", "--lambda", "100", "--k"), 2, "e3b0c44298fc1c149afb",
     "aggdelay gain: error: argument --k: expected one argument", "3a2709fc38783681455f"),
    (("gain", "--standard", "n"), 2, "e3b0c44298fc1c149afb",
     "aggdelay gain: error: argument --standard: invalid choice: 'n' (choose from 'b', 'g')",
     "ce142a7efd05f26cdcab"),
    (("simulate", "--seed", "one"), 2, "e3b0c44298fc1c149afb",
     "aggdelay simulate: error: argument --seed: invalid int value: 'one'", "6b700defcbd5c998366f"),
    (("threshold", "--lambda-m", "5", "--k", "2"), 2, "e3b0c44298fc1c149afb",
     "aggdelay threshold: error: ambiguous option: --lambda-m could match --lambda-min, "
     "--lambda-max", "477ebd7a41cfc911b4ae"),
    (("sweep", "--la", "100:200:3", "--k", "2"), 0, "a45f5494e78c371f73b5", "", "e3b0c44298fc1c149afb"),
    (("gain", "--k=2", "--lambda", "100"), 0, "8f6c30eb7eb1bb2a68fd", "", "e3b0c44298fc1c149afb"),
    (("gain", "--k", "2", "--k", "3", "--lambda", "100"), 0, "c41bdb90a53789f93d58", "",
     "e3b0c44298fc1c149afb"),
    (("gain", "--", "--k", "2"), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: unrecognized arguments: -- --k 2", "d7d8db465f16d0d98028"),
    (("gain", "--k", "2", "--lambda", "100", "--"), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: unrecognized arguments: --", "0cdea259921d0a2d35e4"),
    (("--", "gain"), 2, "e3b0c44298fc1c149afb",
     "aggdelay: error: argument command: invalid choice: '--' (choose from 'profiles', 'gain', "
     "'sweep', 'threshold', 'optimal-k', 'simulate', 'validate')", "4bb66346369bf53cc292"),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@pytest.mark.parametrize("argv, code, out_digest, err_line, err_digest", ARGV_TABLE)
def test_argv_gives_the_pinned_exit_code_and_text(capsys, monkeypatch, argv, code, out_digest,
                                                  err_line, err_digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert (err.splitlines() or [""])[-1] == err_line
    assert (digest(out), digest(err)) == (out_digest, err_digest)


def test_every_flag_path_names_a_config_key():
    for flag, _, _, path in FLAGS:
        if path is None:
            continue
        *parents, key = path.split(".")
        if not parents:
            assert key in TOP_LEVEL_KEYS, flag
            continue
        (section,) = parents
        schema = SCHEMA[section]
        keys = set(schema)
        if section in _VARIANT:
            keys = {_VARIANT[section]}.union(*schema.values())
        assert key in keys, flag


def test_every_precomputed_dest_is_a_flag_of_its_subcommands():
    assert [(parents, key) for _, _, parents, key in _FLAG_PATHS] == [
        (path.split(".")[:-1], path.split(".")[-1]) for *_, path in FLAGS if path]
    for dest, names, _, _ in _FLAG_PATHS:
        assert set(names) <= set(COMMANDS), dest
        for name in names:
            parser = build_parser(name).commands[name]
            assert hasattr(parser.parse_args([]), dest), (name, dest)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_copies_stay_independent(name):
    first = preset(name)
    assert first == PRESETS[name]
    pristine = json.loads(json.dumps(PRESETS[name]))
    for section in ("phy", "lambda", "traffic"):
        if section in first:
            first[section]["rate_bps" if section == "phy" else "extra"] = 1.0
            first[section].clear()
    first["k"] = "99"
    assert PRESETS[name] == pristine
    assert preset(name) == pristine


def test_preset_phy_is_the_profile_for_its_rate():
    assert parse_run_config(preset("fig4-2")).phy == profile_for("b", 2e6)
    assert parse_run_config(preset("fig5-54")).phy == profile_for("g", 54e6)


@pytest.mark.parametrize("flags, field, value", [
    (("--backoff-literal-us", "0"), "backoff_override_us", 0.0),
    (("--caption-only-gamma",), "caption_only_overhead", True),
])
def test_phy_options_change_gain_and_round_trip(tmp_path, capsys, flags, field, value):
    argv = ("gain", "--preset", "fig3", "--k", "5", "--lambda", "1000")
    assert main(list(argv)) == 0
    plain = capsys.readouterr().out
    assert main([*argv, *flags]) == 0
    changed = capsys.readouterr().out
    assert changed != plain
    assert main([*argv, *flags, "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["phy"][field] == value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dumped))
    assert main(["gain", "--config", str(path)]) == 0
    assert capsys.readouterr().out == changed
