"""The benchmark's tracer (perfbench/tracing.py) must still find every layer
it times: a renamed or deleted function would otherwise only show up when the
benchmark runs."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _resolve(qualname):
    modname, fname = qualname.rsplit(".", 1)
    return getattr(importlib.import_module(f"optbias.{modname}"), fname)


def test_tracer_wraps_and_restores_every_layer():
    tracing = _load_tracing()
    originals = {layer.qualname: _resolve(layer.qualname) for layer in tracing.LAYERS}
    with tracing.Recorder(trace=True):
        for name, fn in originals.items():
            wrapped = _resolve(name)
            assert wrapped is not fn and inspect.unwrap(wrapped) is fn
    for name, fn in originals.items():
        assert _resolve(name) is fn
