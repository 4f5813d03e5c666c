"""Every name the package exports, and every layer the benchmark tracer wraps, exists."""

import importlib
import importlib.util
from pathlib import Path

import tko_distill

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_names_exist():
    missing = [name for name in tko_distill.__all__ if not hasattr(tko_distill, name)]
    assert missing == []


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("_tko_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr in tracer.LAYERS.values()
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.LAYERS and missing == []
