"""The benchmark's tracer (perfbench/tracing.py) must still find every layer
it times: a renamed or deleted function would otherwise only show up when the
benchmark runs."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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


class _Arg:
    """Any argument a rows function reads: its len(), .size, .n and int() are 3."""

    size = n = 3

    def __len__(self):
        return 3

    def __int__(self):
        return 3


_STALE_KEYWORD = pytest.mark.xfail(
    raises=KeyError, strict=True,
    reason="perfbench/tracing.py reads 'dpred'; the parameter is djvp (ROADMAP item 7)")


@pytest.mark.parametrize("qualname", [
    pytest.param(layer.qualname, marks=_STALE_KEYWORD)
    if layer.qualname == "surrogate.backward_params_jvp" else layer.qualname
    for layer in _load_tracing().LAYERS if layer.rows is not None
])
def test_row_counts_read_the_wrapped_function_parameters(qualname):
    # a keyword call must find every argument the tracer counts rows from
    layer = next(la for la in _load_tracing().LAYERS if la.qualname == qualname)
    params = inspect.signature(_resolve(qualname)).parameters
    assert layer.rows(**{name: _Arg() for name in params}) == 3
