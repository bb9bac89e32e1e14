"""The benchmark's tracer patches module attributes by name; every name it
patches must still exist, or ``bench/run.py --trace 1`` breaks silently."""

import importlib
import importlib.util
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
