"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Set-up time is measured by launching fresh interpreters that
import ``aggdelay.cli``; the workload itself runs in one more fresh,
single-threaded process (``worker.py``). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The last line of stdout is the result; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 8  # before and again after the workload
WORKER_TIMEOUT_S = 120

# Imports numpy, then the CLI, and reports both times; exits 3 if the
# package resolves anywhere but this checkout's src/.
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import aggdelay.cli
t2 = time.perf_counter()
if not aggdelay.cli.__file__.startswith(sys.argv[1]):
    sys.exit(3)
print(t1 - t0, t2 - t1, flush=True)
"""


def child_env() -> dict:
    """Environment of every child: this checkout's src/ first, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch_once() -> tuple[float, float]:
    """Interpreter launch until ``import aggdelay.cli`` is done, and the
    part of it spent importing aggdelay after numpy."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"import probe exited {proc.returncode}")
    return ready, float(line.split()[1])


def launches() -> list[tuple[float, float]]:
    return [launch_once() for _ in range(SETUP_LAUNCHES)]


def worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def with_units(metrics: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(metrics) != set(declared):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": declared[name]} for name in sorted(metrics)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "aggdelay" / "cli.py").is_file():
        print(f"no aggdelay sources under {SRC}", file=sys.stderr)
        return 2
    common = ("--workload", args.workload, "--seed", str(args.seed))
    try:
        launch_once()  # fills the bytecode cache; not counted
        samples = launches()
        result = worker(*common, "--seconds", str(args.seconds), "--trace", str(args.trace))
        samples += launches()
        setup_s = statistics.median(s for s, _ in samples)
        import_s = statistics.median(i for _, i in samples)
        if args.trace:
            result["metrics"].update(worker(*common, "--rss-probe"))
            result["metrics"]["cli.import_ms"] = import_s * 1e3
            section = "per_layer"
        else:
            result["metrics"]["setup_s"] = setup_s
            section = "end_to_end"
        result["metrics"] = with_units(result["metrics"], section)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"rounds: {result.pop('rounds')} {result.pop('trace_file', '')}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
