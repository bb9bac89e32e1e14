"""Seed-to-seed spread of the simulation statistics the checks test.

    python3 bench/tolerances.py --seeds 30

Runs every simulation call of the workloads under ``--seeds`` workload
seeds and prints, per statistic, the standard deviation and the largest
absolute value of ``sqrt(frames) * relative error`` against the exact
mean. ``checks.SPREAD`` holds the largest of these standard deviations
(rounded up); the checks allow ``checks.Z`` times it. Also prints how
close the aggregated queue wait came to Kingman's bound.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics

import checks
import reference as ref
import workloads
from worker import invoke

FIRST_SEED = 1000  # apart from the seeds the benchmark runs are usually given


def samples(call, text: str):
    """(statistic, sqrt(n) * relative error) pairs and Kingman ratios of one output."""
    sim = call.sim
    if call.command == "validate":
        report = json.loads(text)
        records = [report["sim"]]
        marks = sim.frames // sim.k
        yield "cv", math.sqrt(marks) * (report["interbatch_cv"] / ref.interbatch_cv(sim.k) - 1.0)
    else:
        records = [rec for _, rec in checks._sim_records(call, text)]
    for rec in records:
        n = rec["frames_measured"]
        for name, err in checks.sim_errors(sim, rec, call.link, call.payload).items():
            yield name, math.sqrt(n) * err
        if sim.mode == "aggregated":
            yield "kingman_ratio", rec["queue_wait_mean_s"] / ref.kingman_bound(sim.k, sim.lam, call.link, call.payload)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=30)
    args = parser.parse_args()
    found: dict[tuple[str, str], list[float]] = {}
    for workload in workloads.WORKLOADS:
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            sims = list(dict.fromkeys(c for c in workloads.calls(workload, seed) if c.sim))
            for i, call in enumerate(sims):
                code, text, err, _ = invoke(call.argv)
                if code != 0:
                    raise SystemExit(f"{call.argv}: exit {code}: {err}")
                label = f"{workload}#{i} {call.command} {call.sim.mode} k={call.sim.k} n={call.sim.frames:.0e}"
                for name, value in samples(call, text):
                    found.setdefault((name, label), []).append(value)
    for (name, label), values in sorted(found.items()):
        sd = statistics.stdev(values) if len(values) > 1 else math.nan
        worst = max(values, key=abs)
        print(f"{name:20s} {label:55s} samples {len(values):3d}  sd {sd:8.3f}  worst {worst:+8.3f}")


if __name__ == "__main__":
    main()
