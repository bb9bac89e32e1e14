"""The benchmark's tracer patches module attributes by name; every name it
patches must still exist, or ``bench/run.py --trace 1`` breaks silently."""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attribute", [b[:2] for b in load_spans().BOUNDARIES])
def test_traced_boundary_exists_and_is_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


def test_sweep_calls_each_traced_grid_name_once_with_the_whole_grid(monkeypatch, capsys):
    """``solver.grid_us_per_point`` and ``cli.*_us_per_row`` divide by the
    ``len()`` of what these names pass on, so each must see the whole grid."""
    cli = importlib.import_module("aggdelay.cli")
    sizes = {}
    for name in ("gain_grid", "sweep_csv", "sweep_json"):
        def shim(*args, _name=name, _fn=getattr(cli, name)):
            result = _fn(*args)
            sizes.setdefault(_name, []).append(len(result if _name == "gain_grid" else args[0]))
            return result
        monkeypatch.setattr(cli, name, shim)
    sweep = ["sweep", "--k", "2,5,9", "--lambda", "100:1500:7"]
    assert cli.main(sweep) == 0
    assert cli.main([*sweep, "--format", "json"]) == 0
    assert cli.main(["gain", "--k", "4", "--lambda", "900"]) == 0
    assert sizes == {"gain_grid": [21, 21, 1], "sweep_csv": [21, 1], "sweep_json": [21]}


def test_tracer_runs_over_a_threshold_call(capsys):
    """``--trace 1`` on the threshold path: the tracer wraps a preset threshold call
    as ``bench/worker.py`` does, and the per-layer figures come out of its spans."""
    spans = load_spans()
    names = ("aggdelay.cli", "aggdelay.solver", "aggdelay.sim", "aggdelay.model")
    modules = {name: importlib.import_module(name) for name in names}
    cli, tracer = modules["aggdelay.cli"], spans.Tracer()
    with tracer.installed(modules):
        assert tracer.wrap(cli.main, spans.ROOT)(["threshold", "--preset", "fig4-11"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 19  # the header and k = 2..20
    assert cli.lambda_threshold is modules["aggdelay.solver"].lambda_threshold  # unwrapped
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.self_ms_per_call"] > 0.0
    assert all(math.isfinite(value) for value in metrics.values())
