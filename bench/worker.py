"""One workload in one fresh process: rounds of in-process CLI calls.

Run by ``run.py``; prints one JSON object on its last stdout line. Each
round makes every call of the workload once through
``aggdelay.cli.main(argv)`` with stdout and stderr captured. The first
round's outputs are checked against the reference; later rounds must
repeat them byte for byte. With ``--trace 1`` untraced and traced rounds
alternate and the result holds the layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import aggdelay.cli as cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"aggdelay imported from {cli.__file__}, not from {SRC}")


class Sink:
    """Write-only text stream that keeps the written strings uncopied."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def invoke(argv) -> tuple[int, str, str, float]:
    """``aggdelay.cli.main(argv)``: exit code, stdout, stderr, seconds."""
    out, err = Sink(), Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - t0
    return code, out.text(), err.text(), seconds


class Run:
    """Counts, correctness and per-call timings of one workload run."""

    def __init__(self, calls) -> None:
        self.calls = calls
        self.digests: list[bytes | None] = [None] * len(calls)
        self.iterations: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _fail(self, call, message: str, ops: int = 1, wrong: bool = False) -> None:
        self.failed += ops
        self.correct = self.correct and not wrong
        print(f"{'WRONG' if wrong else 'FAILED'}: {' '.join(call.argv)}: {message}", file=sys.stderr)

    def round(self, invoke_call) -> list[float]:
        """Make every call once; returns each call's seconds (inf if it failed)."""
        times = []
        for i, call in enumerate(self.calls):
            self.attempted += 2  # the call and the check of its output
            times.append(math.inf)
            try:
                code, text, err, seconds = invoke_call(call.argv)
            except Exception:
                self._fail(call, traceback.format_exc(), ops=2)
                continue
            if code != 0:
                self._fail(call, f"exit {code}: {err.strip()}", ops=2)
                continue
            times[-1] = seconds
            digest = hashlib.sha256(text.encode()).digest()
            if self.digests[i] is None:
                self.digests[i] = digest
                try:
                    result = checks.check(call, text)
                except checks.CheckError as exc:
                    self._fail(call, str(exc), wrong=True)
                    continue
                if call.command == "threshold":
                    self.iterations += result
            elif digest != self.digests[i]:
                self._fail(call, "output differs from the first round's", wrong=True)
        return times

    def pass_metrics(self, rounds: list[list[float]]) -> dict:
        """One pass over the distinct calls, each at its fastest time in the
        run, and the work rates of that pass."""
        samples: dict = {}
        for call, times in zip(self.calls, zip(*rounds)):
            samples.setdefault(call, []).extend(times)
        fastest = {call: min(times) for call, times in samples.items()}
        done = [(call, t) for call, t in fastest.items() if math.isfinite(t)]
        metrics = {"wall_s": sum(t for _, t in done)}
        for kind in ("points", "solves", "frames"):
            spent = sum(t for call, t in done if getattr(call, kind))
            metrics[f"{kind}_per_s"] = sum(getattr(call, kind) for call, _ in done) / spent if spent else 0.0
        return metrics


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Rounds until ``seconds`` have passed (at least two untraced; with
    tracing, traced rounds alternate with untraced ones)."""
    run = Run(workloads.calls(workload, seed))
    plain, layered, traced_rounds = [], [], []
    tracer = spans.Tracer()
    modules = {name: sys.modules[name] for name in ("aggdelay.cli", "aggdelay.solver", "aggdelay.sim", "aggdelay.model")}
    trace_file = HERE / "out" / f"trace-{workload}-{seed}.npz"
    t0 = time.perf_counter()
    while len(plain) < 2 or (traced and not traced_rounds) or time.perf_counter() - t0 < seconds:
        if traced and len(plain) > len(traced_rounds):
            tracer.clear()
            with tracer.installed(modules):
                traced_rounds.append(run.round(tracer.wrap(invoke, spans.ROOT)))
            layered.append(spans.layer_metrics(tracer))
            if len(layered) == 1:
                trace_file.parent.mkdir(exist_ok=True)
                tracer.save(trace_file)
        else:
            plain.append(run.round(invoke))
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed}
    untraced = run.pass_metrics(plain)
    if not traced:
        untraced["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {**result, "metrics": untraced, "rounds": len(plain)}
    metrics = {key: statistics.median(m[key] for m in layered) for key in layered[0]}
    metrics["solver.iterations_per_solve"] = statistics.fmean(run.iterations) if run.iterations else 0.0
    metrics["trace.overhead_s"] = run.pass_metrics(traced_rounds)["wall_s"] - untraced["wall_s"]
    rounds = len(plain) + len(traced_rounds)
    return {**result, "metrics": metrics, "rounds": rounds, "trace_file": str(trace_file)}


def rss_probe(workload: str, seed: int) -> dict:
    """Peak-RSS growth of the workload's largest simulation, per frame."""
    call = max(workloads.calls(workload, seed), key=lambda c: c.frames)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code, _, err, _ = invoke(call.argv)
    if code != 0:
        raise SystemExit(f"probe call failed with exit {code}: {err}")
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    return {"sim.bytes_per_frame": grown * 1024.0 / call.frames}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true")
    args = parser.parse_args()
    if args.rss_probe:
        result = rss_probe(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
