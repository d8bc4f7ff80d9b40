"""Checks on the files around the package: the benchmark's layer names and
the demos."""

import functools
import importlib
import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _layer_targets():
    """The ``<module>.<qualname>`` each non-``trace.`` per-layer metric names."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = (m["name"] for m in metrics if not m["name"].startswith("trace."))
    return sorted({name.rsplit(".", 1)[0] for name in names})


@pytest.mark.parametrize("target", _layer_targets())
def test_benchmark_layer_names_resolve(target):
    # a traced benchmark pass wraps these by name; a rename must not pass silently
    module_name, qualname = target.split(".", 1)
    obj = importlib.import_module(f"cyclic_wonderful.{module_name}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert callable(obj) or isinstance(obj, functools.cached_property), target


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
