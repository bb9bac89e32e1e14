"""threshold is solved, checked and written a chunk of k at a time: chunk boundaries
change no byte of stdout or stderr nor the exit code, memory does not grow with the
number of k, and a write that fails part way through still ends in exit 2."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from aggdelay import solver
from aggdelay.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}

THRESHOLDS = [
    ["--k", "2..1200"],  # k from 797 on do not converge
    ["--k", "2..1200", "--format", "json"],
    ["--k", "790..5000"],  # one run of failures across every chunk boundary
    ["--preset", "fig5-54", "--format", "json"],
    # converged, already non-positive at lambda_min, and no root in range
    ["--k", "2,9,3,5000,4,10,11", "--lambda-min", "1400", "--lambda-max", "1600"],
]


def run(capsys, argv) -> tuple:
    code = main(["threshold", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chunk_boundaries_change_no_byte(monkeypatch, capsys):
    whole = [run(capsys, argv) for argv in THRESHOLDS]
    assert [code for code, _, _ in whole] == [3, 3, 3, 0, 3]
    assert whole[2][2] == "threshold did not converge for k = 797..5000\n"
    for chunk in (1, 7, 300):
        monkeypatch.setattr(solver, "OPTIMAL_K_CHUNK", chunk)
        for argv, want in zip(THRESHOLDS, whole):
            assert run(capsys, argv) == want, (chunk, argv)


def test_every_check_runs_before_the_first_byte(monkeypatch, capsys):
    monkeypatch.setattr(solver, "OPTIMAL_K_CHUNK", 2)
    assert run(capsys, ["--k", "2,3,4,5,1"]) == (
        2, "", "error: threshold search needs an integer k >= 2, got 1\n")
    code, out, err = run(capsys, ["--k", "2..9", "--lambda-min", "5000"])
    assert (code, out) == (2, "") and err.startswith("error: empty search range: lambda_max")


def peak_rss_kb(k_max: int, out_format: str) -> int:
    """The VmHWM of a fresh process that ran ``threshold --k 2..k_max``; see
    tests/test_sweep_chunks.py for why not ``ru_maxrss``."""
    code = (
        "import os\n"
        "from aggdelay.cli import main\n"
        f"code = main(['threshold', '--preset', 'fig4-11', '--k', '2..{k_max}',\n"
        f"             '--format', '{out_format}', '--output', os.devnull])\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(code, status.split()[0])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                         check=True, timeout=120)
    code, rss = map(int, run.stdout.split())
    assert code == 3  # k from 797 on do not converge
    return rss


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_threshold_memory_does_not_grow_with_the_k_range(out_format):
    """Holding every result and record took 130 MB more (CSV) and 430 MB more (JSON)."""
    growth_kb = peak_rss_kb(200_000, out_format) - peak_rss_kb(2_000, out_format)
    assert growth_kb < 25 * 1024, growth_kb


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_a_failed_write_mid_stream_exits_2(out_format):
    argv = ["threshold", "--k", f"2..{2 * solver.OPTIMAL_K_CHUNK + 3}", "--format", out_format,
            "--output", "/dev/full"]
    run = subprocess.run([sys.executable, "-m", "aggdelay.cli", *argv], env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: cannot write output: [Errno 28] No space left on device\n"
