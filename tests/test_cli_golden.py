"""Golden CLI output: the sha256 of stdout and the exit code per argv.

The digests pin every byte the paper's runs write: CSV and JSON tables,
non-finite literals, the exit code of a non-converging threshold, the
simulator's seeded output and the ``--dump-config`` canonical form. A
change that moves any of these bytes must re-pin the digest here and
say so.
"""

import hashlib
import json

import pytest

from aggdelay.cli import main

SIM = ("--seed", "7", "--frames", "20000", "--warmup", "500")
AGG = ("--mode", "aggregated", "--k", "5", "--lambda", "100", *SIM)

CASES = {
    "profiles-csv": ("profiles",),
    "profiles-json": ("profiles", "--format", "json"),
    "gain-csv": ("gain", "--k", "2", "--lambda", "1067"),
    "gain-json-g54-exp": (
        "gain", "--standard", "g", "--rate", "54e6", "--payload-family", "exponential",
        "--payload-mean-bytes", "100", "--form", "general-pk", "--k", "4",
        "--lambda", "2000", "--format", "json",
    ),
    "gain-uniform-caption": (
        "gain", "--payload-uniform", "400:1200", "--caption-only-gamma", "--k", "3",
        "--lambda", "900",
    ),
    "gain-empirical-backoff": (
        "gain", "--payload-empirical", "400,800,1500", "--backoff-literal-us", "150",
        "--k", "3", "--lambda", "700", "--format", "json",
    ),
    "sweep-fig3-csv": ("sweep", "--preset", "fig3"),
    "sweep-fig3-json": ("sweep", "--preset", "fig3", "--format", "json"),
    "sweep-nonfinite-csv": ("sweep", "--k", "1,2", "--lambda", "1e9"),
    "sweep-nonfinite-json": ("sweep", "--k", "1,2", "--lambda", "1e9", "--format", "json"),
    "sweep-unstable-grid-csv": ("sweep", "--k", "1,5", "--lambda", "2500:3000:2"),
    "sweep-unstable-grid-json": (
        "sweep", "--k", "1,5", "--lambda", "2500:3000:2", "--format", "json",
    ),
    "sweep-geometric-uniform-csv": (
        "sweep", "--k", "1,3,8", "--lambda", "50:20000:9", "--grid-kind", "geometric",
        "--form", "general-pk", "--payload-uniform", "400:1200",
    ),
    "sweep-geometric-json": (
        "sweep", "--preset", "fig3", "--k", "2..4", "--lambda", "10:1500:7",
        "--grid-kind", "geometric", "--format", "json",
    ),
    "threshold-fig4-11": ("threshold", "--preset", "fig4-11"),
    "threshold-fig5-54-json": ("threshold", "--preset", "fig5-54", "--format", "json"),
    "threshold-nonconverging": (
        "threshold", "--k", "5", "--lambda-min", "1", "--lambda-max", "100",
    ),
    "threshold-nonconverging-json": (
        "threshold", "--k", "2,5", "--lambda-min", "1", "--lambda-max", "100",
        "--format", "json",
    ),
    "optimal-k-csv": ("optimal-k", "--preset", "fig3", "--lambda", "1500", "--k-max", "20"),
    "optimal-k-json": (
        "optimal-k", "--preset", "fig3", "--lambda", "1500", "--k-max", "20",
        "--format", "json",
    ),
    "simulate-json": ("simulate", *AGG),
    "simulate-csv": ("simulate", *AGG, "--format", "csv"),
    "simulate-reps-json": ("simulate", "--lambda", "300", *SIM, "--replications", "4"),
    "simulate-reps-csv": (
        "simulate", "--lambda", "300", *SIM, "--replications", "4", "--format", "csv",
    ),
    "simulate-sources-exp": (
        "simulate", "--sources", "60,40", "--payload-family", "exponential",
        "--payload-mean-bits", "800", "--seed", "1", "--frames", "5000", "--warmup", "0",
    ),
    "simulate-uniform-csv": (
        "simulate", "--mode", "aggregated", "--k", "3", "--lambda", "800",
        "--payload-uniform", "400:1200", *SIM, "--format", "csv",
    ),
    "simulate-empirical-json": (
        "simulate", "--lambda", "600", "--payload-empirical", "400,800,1500", *SIM,
    ),
    "validate-json": ("validate", *AGG, "--form", "general-pk"),
    "validate-csv": ("validate", *AGG, "--format", "csv"),
    "validate-unstable-json": ("validate", "--mode", "standard", "--lambda", "3000", *SIM),
    "validate-unstable-csv": (
        "validate", "--mode", "standard", "--lambda", "3000", *SIM, "--format", "csv",
    ),
    # One measured frame: NaN spreads and CIs inside nested JSON records.
    "simulate-reps-one-frame-json": (
        "simulate", "--lambda", "300", "--seed", "7", "--frames", "3", "--warmup", "2",
        "--replications", "2",
    ),
    "validate-one-frame-json": (
        "validate", "--lambda", "300", "--seed", "7", "--frames", "3", "--warmup", "2",
    ),
    "dump-config-fig3": ("sweep", "--preset", "fig3", "--dump-config"),
    "dump-config-threshold": ("threshold", "--preset", "fig5-6", "--dump-config"),
    "dump-config-simulate": ("simulate", *AGG, "--dump-config"),
}

CUSTOM_PHY = {
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

# (exit code, sha256 of stdout)
DIGESTS = {
    "dump-config-fig3": (0, "a17cac5a885687861218ebaeea9ad2949dd8b88103936f767412e25714e0f5e5"),
    "dump-config-simulate": (0, "35e830980ae817e7424a87f3189f6a58cfcf8de225504be95f24ecd59baf4526"),
    "dump-config-threshold": (0, "c94d87efb1b6c86f98685e25bd5697ba9ffafa9b333e48f83748b9edc3dd2441"),
    "gain-csv": (0, "f05a586f2913936b655b6bf35a02b309cb3aa7410833943d73b258324288b99d"),
    "gain-empirical-backoff": (0, "3a9980240eb222f498edeaf9aa05174ed1431bd7c66f74683480a78cb4bccd26"),
    "gain-json-g54-exp": (0, "a6d93639e5e3c8def0085b9e33ed3fd97bc99cfd6a87f52dc77f88e3602843ff"),
    "gain-uniform-caption": (0, "b518d34b0ea77b173797d5e8ae814adfb8351f7ef93dfdc2b95b2268996655b0"),
    "optimal-k-csv": (0, "8b722834a32598bd8c0301396583b7f59d8e10f4e4d250eaffde20213c44e4b0"),
    "optimal-k-json": (0, "bfd27a2717f22f0dcdf18295d2c493c69bb66b98222f83344dd1372e8df7fe92"),
    "profiles-csv": (0, "f415bf8f7c6e0f19b29ec7078dd25580687cdf1ce62cca77024a8613aab9012e"),
    "profiles-json": (0, "bb59fbc87247ff7ac2da442fd6147e0a2ce38810f67b2148f50d29f83f073940"),
    "simulate-csv": (0, "98051ba006d796f299a79df707f434f29806879210aefbc6e8e3f96a2b99c777"),
    "simulate-empirical-json": (0, "29da2985fb3a3675449f5a28a481335494d0096b6bda67d0c3b179b1f86e5c3f"),
    "simulate-json": (0, "febe08b888fc28a7e35760efa298119a69277fe008fac4caed78c09236ef306c"),
    "simulate-reps-csv": (0, "a5fe306af71b580e5b51136acc5191233b88a6c7fadb4312c554d3ca0a1558d9"),
    "simulate-reps-json": (0, "23c5b87cbbf3e3e8006ade3c5385e38dcb686f152df254360a7e603f5c421be8"),
    "simulate-sources-exp": (0, "319cc0770b8c845560a52ce5805273f3194074561d6f5a3256d2e0405e5c7eab"),
    "simulate-uniform-csv": (0, "b05829c9b0b0716a87e80c22744ce1739abffe1afd8037a1f10c6f0fdda84dfc"),
    "sweep-fig3-csv": (0, "437a8faf4f1784e7c56fc3e7c8ed148d5f7128a16534b63826990a5312ee2424"),
    "sweep-fig3-json": (0, "191e55c0f77aa587c295c93f6e996f06e5d76870f23e649071b907d988a1fcce"),
    "sweep-geometric-json": (0, "0334674c604ceeac20c05dbc5a334c61d405ec3716344eb378fda5273360a1b1"),
    "sweep-nonfinite-csv": (0, "2c4b1defd9e701a161099ed429373c725a8555eab148b9263d420a83fa45bbff"),
    "sweep-nonfinite-json": (0, "503473be4c20d177da1017ebf9433df3cc4bb1360217bb9a49d19f85fb91730c"),
    "sweep-unstable-grid-csv": (0, "fa9ea3109fded44915ee737fc5ed9fa082ac26fdb279b3234f750ff2d000bda2"),
    "sweep-unstable-grid-json": (0, "33ada0bd9f9421fa394614ca94aee8b9f87025eb2ba331fbebacb7f56f5ff616"),
    "sweep-geometric-uniform-csv": (0, "60d85fe62ae03ac4e5cd82cf8d2a7bb7687097820cae4f5dff92ae0c4b14b46f"),
    "threshold-fig4-11": (0, "fb7f51595ccbcc7e6183dea0527252152b395ea94293ff4fe52716c166fc834c"),
    "threshold-fig5-54-json": (0, "66bc0f8de92ba6e366ae05e11a55cf98a03f587cb2c4484ce9f5c763a271b444"),
    "threshold-nonconverging": (3, "9cc11bcdf15f4031651fc7fef1b347ae5ee7a9a1bc61ca4f82fb42c0c5eb8bb0"),
    "threshold-nonconverging-json": (3, "3d1e6b3cec018a1b2fe2a300ddc7631da4a60ce5aca6dae6040bc06d5db30eaf"),
    "validate-csv": (0, "38f0c4f6bd7781db0f9c54d07d480c2514ba36f90c4c76cefe8ce28302839218"),
    "validate-json": (0, "32b2930177bf5a337871c0ddedb4e719bbcb588965e230fad9372483687dc584"),
    "validate-unstable-csv": (0, "e10200fa0c5a080e253a7523f32b05976b648c19a7d8de84fa2e149bebfc1b9d"),
    "validate-unstable-json": (0, "cef639f2f3764b8062750f201542d024e2dd6c6543bc3706e0397020a1b154ba"),
    "simulate-reps-one-frame-json": (0, "1d25a2fcd09343b64a5f97b11c0152fc575f7954850e88ce7db0e940b15e2d2a"),
    "validate-one-frame-json": (0, "91dc2428c4c874ac6c3d220459c9499d58907c77ecf2d75d0af8a83163991a70"),
    "dump-config-custom": (0, "ba9d5d7f0cb32d8f23e5016b01ef4f9c21c782c901047b8e47a06d2fbb155573"),
    "dump-config-custom-k4": (0, "ee620a97ad9a34c7bf5fbf68c4bbe9c64d5fd0d2a4c29555364e0f0f72bd552d"),
    "gain-custom": (0, "1af1ff8f1915d677bdbed2e95907a613dec7bfdceaf95cf0ac860dce83c3a00f"),
}


def _digest(capsys, argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    assert _digest(capsys, CASES[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(
    name for name, argv in CASES.items() if argv[0] != "profiles" and "--dump-config" not in argv))
def test_dumped_config_reloads_to_the_same_run(tmp_path, capsys, name):
    argv = CASES[name]
    assert main([*argv, "--dump-config"]) == 0
    path = tmp_path / "config.json"
    path.write_text(capsys.readouterr().out)
    assert _digest(capsys, (argv[0], "--config", str(path))) == DIGESTS[name]


def _writes_json(argv) -> bool:
    sim_default = argv[0] in ("simulate", "validate") and "csv" not in argv
    return "--dump-config" in argv or "json" in argv or sim_default


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items() if _writes_json(argv)))
def test_json_output_is_strict(capsys, name):
    main(list(CASES[name]))
    out = capsys.readouterr().out
    assert out[0] in "[{"
    json.loads(out, parse_constant=_reject_constant)


def test_undefined_statistics_in_nested_records_are_nan_strings(capsys):
    main(list(CASES["simulate-reps-one-frame-json"]))
    records = [item["result"] for item in json.loads(capsys.readouterr().out)]
    main(list(CASES["validate-one-frame-json"]))
    records.append(json.loads(capsys.readouterr().out)["sim"])
    for record in records:
        assert record["frames_measured"] == 1
        assert record["sojourn_stddev_s"] == record["ci95_halfwidth_s"] == "nan"


@pytest.mark.parametrize("extra", [(), ("--k", "4")], ids=["file", "flag-override"])
def test_golden_dump_config_custom_phy(tmp_path, capsys, extra):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(CUSTOM_PHY))
    argv = ("gain", "--config", str(path), *extra, "--dump-config")
    assert _digest(capsys, argv) == DIGESTS[f"dump-config-custom{'-k4' if extra else ''}"]


def test_golden_custom_phy_gain(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(CUSTOM_PHY))
    argv = ("gain", "--config", str(path), "--k", "4")
    assert _digest(capsys, argv) == DIGESTS["gain-custom"]
