"""Spans around the calls between ``aggdelay`` modules, and the layer metrics.

The tracer replaces a module attribute where the *caller* looks the name
up (``aggdelay.solver.evaluate``, not ``aggdelay.model.evaluate``), so
calls inside a module stay untraced and the program itself is not
changed. Each span is (name, start, end, parent); they are kept in
compact arrays while a round runs and written to an ``.npz`` file.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

import numpy as np



def _sim_work(args, result) -> dict:
    return {"mode": args[0].mode.value, "frames": args[0].num_frames}


# (module, attribute, span name, work recorded on the span)
BOUNDARIES = (
    ("aggdelay.cli", "gain_grid", "solver.gain_grid", lambda args, res: {"points": len(res)}),
    ("aggdelay.cli", "lambda_threshold", "solver.lambda_threshold", None),
    ("aggdelay.cli", "optimal_k", "solver.optimal_k", None),
    ("aggdelay.cli", "simulate", "sim.simulate", _sim_work),
    ("aggdelay.cli", "replications", "sim.replications", lambda args, res: {"seeds": len(res)}),
    ("aggdelay.cli", "validate_against_model", "sim.validate",
     lambda args, res: {"frames": args[0].num_frames}),
    ("aggdelay.cli", "sweep_csv", "cli.sweep_csv", lambda args, res: {"rows": len(args[0])}),
    ("aggdelay.cli", "sweep_json", "cli.sweep_json", lambda args, res: {"rows": len(args[0])}),
    ("aggdelay.solver", "evaluate", "model.evaluate", None),
    ("aggdelay.solver", "gain", "model.gain", None),
    ("aggdelay.sim", "evaluate", "model.evaluate", None),
    ("aggdelay.sim", "simulate", "sim.simulate", _sim_work),
    ("aggdelay.sim", "overhead_gamma", "phy.overhead_gamma", None),
    ("aggdelay.model", "overhead_gamma", "phy.overhead_gamma", None),
    ("aggdelay.model", "backoff_moments", "phy.backoff_moments", None),
)
ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, attrs=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if attrs is not None:
                self.attrs[i] = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every boundary for the duration of the block."""
        saved = []
        for module, attr, name, attrs in BOUNDARIES:
            mod = modules[module]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, attrs))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.attrs.clear()

    def arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start),
            np.array(self.end),
        )

    def save(self, path) -> None:
        """Spans as arrays, times in seconds from the first span's start."""
        name, parent, start, end = self.arrays()
        origin = start.min() if start.size else 0.0
        index = sorted(self.attrs)
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start - origin,
            end=end - origin,
            attr_index=np.array(index, dtype=np.int64),
            attr_json=np.array([json.dumps(self.attrs[i]) for i in index]),
        )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from one traced round's spans."""
    name, parent, start, end = tracer.arrays()
    dur = end - start
    n = dur.size
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - children
    ids = {s: i for i, s in enumerate(tracer.names)}

    def mask(span: str):
        return name == ids.get(span, -1)

    def attr_sum(span: str, key: str) -> float:
        return float(sum(tracer.attrs[i][key] for i in np.flatnonzero(mask(span))))

    # Nearest solver-level ancestor of every span, for per-point/per-solve counts.
    grid, solve = ids.get("solver.gain_grid", -1), ids.get("solver.lambda_threshold", -1)
    owner = np.full(n, -1)
    up = parent.astype(np.int64)
    for _ in range(8):
        live = (up >= 0) & (owner < 0)
        if not live.any():
            break
        hit = live & np.isin(name[np.maximum(up, 0)], (grid, solve))
        owner[hit] = name[up[hit]]
        up = np.where(live & ~hit, parent[np.maximum(up, 0)], -1)

    def count_under(span: str, anchor: int) -> int:
        return int(np.count_nonzero(mask(span) & (owner == anchor))) if anchor >= 0 else 0

    points = attr_sum("solver.gain_grid", "points")
    solves = int(np.count_nonzero(mask("solver.lambda_threshold")))
    csv_rows = attr_sum("cli.sweep_csv", "rows")
    json_rows = attr_sum("cli.sweep_json", "rows")

    def mean_time(span: str, scale: float) -> float:
        m = mask(span)
        return float(dur[m].sum() / max(np.count_nonzero(m), 1) * scale)

    def sim_rate(mode: str) -> float:
        m = np.flatnonzero(mask("sim.simulate"))
        sel = [i for i in m if tracer.attrs[i]["mode"] == mode]
        frames = sum(tracer.attrs[i]["frames"] for i in sel)
        return float(frames / dur[sel].sum()) if sel else 0.0

    sim_spans = mask("sim.simulate")
    validate = np.flatnonzero(mask("sim.validate"))
    nested_sim = np.bincount(
        parent[sim_spans & has_parent], weights=dur[sim_spans & has_parent], minlength=n
    )
    validate_frames = attr_sum("sim.validate", "frames")
    cli_calls = max(np.count_nonzero(mask(ROOT)), 1)
    return {
        "cli.self_ms_per_call": float(self_time[mask(ROOT)].sum() / cli_calls * 1e3),
        "cli.csv_us_per_row": float(dur[mask("cli.sweep_csv")].sum() / max(csv_rows, 1) * 1e6),
        "cli.json_us_per_row": float(dur[mask("cli.sweep_json")].sum() / max(json_rows, 1) * 1e6),
        "solver.grid_us_per_point": float(dur[mask("solver.gain_grid")].sum() / max(points, 1) * 1e6),
        "solver.grid_self_us_per_point": float(
            self_time[mask("solver.gain_grid")].sum() / max(points, 1) * 1e6
        ),
        "solver.threshold_ms_per_solve": mean_time("solver.lambda_threshold", 1e3),
        "solver.gain_calls_per_solve": count_under("model.gain", solve) / max(solves, 1),
        "solver.optimal_k_us_per_call": mean_time("solver.optimal_k", 1e6),
        "model.evaluate_us_per_call": mean_time("model.evaluate", 1e6),
        "model.gain_us_per_call": mean_time("model.gain", 1e6),
        "phy.gamma_calls_per_point": count_under("phy.overhead_gamma", grid) / max(points, 1),
        "phy.backoff_calls_per_point": count_under("phy.backoff_moments", grid) / max(points, 1),
        "phy.gamma_calls_per_solve": count_under("phy.overhead_gamma", solve) / max(solves, 1),
        "sim.standard_frames_per_s": sim_rate("standard"),
        "sim.aggregated_frames_per_s": sim_rate("aggregated"),
        "sim.validate_extra_ms_per_mframe": float(
            (dur[validate] - nested_sim[validate]).sum() / max(validate_frames / 1e6, 1e-12) * 1e3
        ),
        "sim.replication_ms_per_seed": float(
            dur[mask("sim.replications")].sum() / max(attr_sum("sim.replications", "seeds"), 1) * 1e3
        ),
    }
