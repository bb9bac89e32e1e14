"""A sweep is evaluated and written a chunk at a time: chunk boundaries change
no byte, memory does not grow with the grid, and a write that fails part way
through still ends in exit 2."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aggdelay import cli
from aggdelay.cli import GridSpec, main

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}

# Overhead-free 149-bit payloads: k = 7 turns unstable just below the limit every k
# shares while k = 1 does not, the one way to a +inf gain (as in tests/test_kernel.py).
BARE = {
    "phy": {"standard": "custom", "bit_rate_bps": 1e6, "slot_us": 20.0, "difs_us": 0.0,
            "sifs_us": 0.0, "preamble_us": 0.0, "cw": 0, "mac_header_bits": 0, "crc_bits": 0,
            "ack_bits": 0, "ack_rate_bps": 1e6, "backoff_override_us": 0.0},
    "traffic": {"payload_family": "deterministic", "payload_mean_bits": 149.0},
    "k": [1, 7],
    "lambda": {"kind": "linear", "min": 6000.0, "max": math.nextafter(1e6 / 149.0, 0.0),
               "points": 23},
}
SWEEPS = [
    ["--k", "5", "--lambda", "1:3000:1000"],  # one k, many rates
    ["--k", "5", "--lambda", "1:3000:1000", "--grid-kind", "geometric"],
    ["--k", "1,2,5,20,150", "--lambda", "10:20000:40", "--grid-kind", "geometric"],  # many k
    ["--k", "2,9,30", "--lambda", "1:5000:700"],
    # 0 at k = 1, -inf past the k = 1 limit, nan past every limit
    ["--k", "1,2,5,20", "--lambda", "1:1.8e6:80", "--grid-kind", "geometric"],
]


def sweep_output(capsys, argv) -> str:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.fixture
def bare_config(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(BARE), encoding="utf-8")
    return ["--config", str(path)]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_chunk_boundaries_change_no_byte(monkeypatch, capsys, bare_config, out_format):
    sweeps = [["sweep", *args, "--format", out_format] for args in [*SWEEPS, bare_config]]
    monkeypatch.setattr(cli, "OPTIMAL_K_CHUNK", 10**9)  # every sweep in one kernel call
    whole = [sweep_output(capsys, argv) for argv in sweeps]
    for chunk in (1, 7, 300):
        monkeypatch.setattr(cli, "OPTIMAL_K_CHUNK", chunk)
        for argv, want in zip(sweeps, whole):
            assert sweep_output(capsys, argv) == want, (chunk, argv)
    if out_format == "csv":
        gains = {line.split(",")[7] for text in whole for line in text.splitlines()[1:]}
        assert {"0", "inf", "-inf", "nan"} <= gains


def test_every_chunk_is_one_kernel_call_of_at_most_the_chunk_constant(monkeypatch, capsys):
    sizes = []

    def gain_grid(k_set, lambda_grid, *args):
        sizes.append((len(k_set), len(lambda_grid)))
        return real(k_set, lambda_grid, *args)

    real = cli.gain_grid
    monkeypatch.setattr(cli, "gain_grid", gain_grid)
    monkeypatch.setattr(cli, "OPTIMAL_K_CHUNK", 300)
    sweep_output(capsys, ["sweep", "--k", "2..9", "--lambda", "1:5000:100"])
    sweep_output(capsys, ["sweep", "--k", "2,9", "--lambda", "1:5000:700"])
    # whole k-rows while they fit, else one k-row's rates a chunk at a time
    assert sizes == [(3, 100), (3, 100), (2, 100)] + [(1, 300), (1, 300), (1, 100)] * 2


@pytest.mark.parametrize("kind", ["linear", "geometric"])
@pytest.mark.parametrize("points", [2, 3, 17, 1000])
def test_grid_rates_over_any_index_range_equal_values(kind, points):
    spec = GridSpec(kind, 0.37, 91234.5, points)
    values = list(map(float.hex, spec.values()))
    assert values[-1] == float.hex(spec.max)
    rng = random.Random(points)
    ranges = [(0, points), (points - 1, points), (0, 1)]
    ranges += [sorted(rng.sample(range(points + 1), 2)) for _ in range(20)]
    for start, stop in ranges:
        assert list(map(float.hex, spec.rates(start, stop))) == values[start:stop], (start, stop)


def peak_rss_kb(points: int, out_format: str) -> int:
    """The peak RSS of a fresh process that ran one k = 5 sweep of ``points`` rates. It is
    the process's own VmHWM: its ``ru_maxrss`` would start at the RSS of whatever spawned it."""
    code = (
        "import os\n"
        "from aggdelay.cli import main\n"
        f"code = main(['sweep', '--k', '5', '--lambda', '1:100000:{points}',\n"
        f"             '--format', '{out_format}', '--output', os.devnull])\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(code, status.split()[0])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                         check=True, timeout=120)
    code, rss = map(int, run.stdout.split())
    assert code == 0
    return rss


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_memory_does_not_grow_with_the_grid(out_format):
    growth_kb = peak_rss_kb(200_000, out_format) - peak_rss_kb(2_000, out_format)
    assert growth_kb < 10 * 1024, growth_kb


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_a_failed_write_mid_stream_exits_2(out_format):
    points = 2 * cli.OPTIMAL_K_CHUNK + 3  # three kernel calls per k
    argv = ["sweep", "--k", "2,3", "--lambda", f"1:5000:{points}", "--format", out_format,
            "--output", "/dev/full"]
    run = subprocess.run([sys.executable, "-m", "aggdelay.cli", *argv], env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("chunk", [1, 2, 10**9])
def test_a_bad_rate_is_named_before_the_first_byte(monkeypatch, capsys, tmp_path, chunk):
    """max / min overflows, so every geometric rate after the first is inf: with a chunk
    of one point the first span is good and the second is not. An --output file is left
    as it was, also when the one chunk's own kernel call would find the rate, and
    --dump-config rejects the grid as the run does."""
    monkeypatch.setattr(cli, "OPTIMAL_K_CHUNK", chunk)
    argv = ["sweep", "--k", "2,3", "--lambda", "1e-300:1e300:5", "--grid-kind", "geometric"]
    (out := tmp_path / "out.csv").write_text("earlier\n")
    for extra in ([], ["--output", str(out)], ["--dump-config"]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == ("", "error: geometric lambda grid 1e-300:1e+300:5 overflows\n")
    assert out.read_text() == "earlier\n"


def test_rates_are_checked_in_numpy_not_one_by_one(monkeypatch, capsys):
    calls, check = [], sys.modules["aggdelay.model"]._check_lambda
    for name in ("aggdelay.model", "aggdelay.solver", "aggdelay.cli"):  # wherever it is looked up
        monkeypatch.setattr(sys.modules[name], "_check_lambda",
                            lambda lam: calls.append(lam) or check(lam), raising=False)
    monkeypatch.setattr(cli, "OPTIMAL_K_CHUNK", 300)
    sweep_output(capsys, ["sweep", "--k", "2,9", "--lambda", "1:5000:700"])
    assert calls == []
