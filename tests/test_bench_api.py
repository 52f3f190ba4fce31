"""The benchmark's per-layer metrics name dp2 functions by layer; each named
function must stay a public function of a module the tracer wraps for that
layer, or the metric silently reads nothing."""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

SUFFIXES = ("calls", "self_s", "raised")


def _traced_names():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = []
    for metric in doc["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[0] in spans.LAYERS and parts[2] in SUFFIXES:
            out.append((parts[0], parts[1]))
    return sorted(set(out))


def test_benchmark_names_dp2_functions():
    assert len(_traced_names()) > 20


@pytest.mark.parametrize("layer,func", _traced_names())
def test_traced_function_exists(layer, func):
    assert not func.startswith("_"), "the tracer wraps public functions only"
    defined = []
    for modname in spans.LAYERS[layer]:
        obj = getattr(importlib.import_module(modname), func, None)
        if inspect.isfunction(obj) and obj.__module__ == modname:
            defined.append(modname)
    assert defined, f"{layer}.{func} is not a public function of {spans.LAYERS[layer]}"
