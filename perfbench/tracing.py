"""Instrumentation the benchmark installs from outside the program.

Every layer function is wrapped where its callers look it up: in its own
module and in every ``optbias`` module that imported it by name (for example
``bench.generate_tasks`` as well as ``sim4opt.generate_tasks``). Nothing in
``src/`` is edited.

Two kinds of wrapper exist:

* probes, installed on every run: they capture the few results the
  correctness checks need and count numerical fallbacks; they cost a few
  microseconds per cell;
* spans, installed only on traced runs: one (name, start, end, parent, cell,
  rows) record per call of a traced layer function, kept in memory and
  aggregated per cell when the cell ends.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "unit"


def _rows_arg(pos: int, name: str):
    """Row count of the array passed as positional ``pos`` or keyword ``name``."""

    def rows(*args, **kwargs):
        x = args[pos] if len(args) > pos else kwargs[name]
        return len(x)

    return rows


def _count_arg(*args, **kwargs):  # build_pairs(t, rng, count)
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _pairs_arg(*args, **kwargs):  # match_loss(net, pairs, ...)
    return (args[1] if len(args) > 1 else kwargs["pairs"]).size


def _mse_rows(*args, **kwargs):  # mse_loss(net, ds, batch_idx=None, ...)
    idx = args[2] if len(args) > 2 else kwargs.get("batch_idx")
    return (args[1] if len(args) > 1 else kwargs["ds"]).n if idx is None else len(idx)


@dataclass(frozen=True)
class Layer:
    """A traced function and the per-layer statistics reported for it.

    ``self_s`` is reported only for functions that call other traced
    functions; for a leaf it equals ``s``.
    """

    qualname: str  # "<module>.<function>" inside the optbias package
    stats: tuple[str, ...] = ("calls", "s")
    rows: Callable | None = None
    span_name: Callable | None = None  # name from the call's arguments


_CALLS_S_SELF = ("calls", "s", "self_s")

LAYERS = (
    Layer("numerics.cholesky_factor"),
    Layer("gp.fit_hyperparams", _CALLS_S_SELF),
    Layer("gp.posterior", _CALLS_S_SELF),
    Layer("gp.kernel_matrix", ("calls", "s", "rows"), _rows_arg(1, "A")),
    Layer("gp.posterior_mean_batch", _CALLS_S_SELF + ("rows",), _rows_arg(1, "X")),
    Layer("gp.posterior_mean_grad_batch", _CALLS_S_SELF + ("rows",), _rows_arg(1, "X")),
    Layer("sim4opt.generate_tasks", _CALLS_S_SELF),
    Layer("sim4opt.evolve", _CALLS_S_SELF + ("rows",), _rows_arg(1, "X0")),
    Layer("sim4opt.build_pairs", ("calls", "s", "rows"), _count_arg),
    Layer("sim4opt.save_bundle"),
    Layer("sim4opt.load_bundle"),
    Layer("surrogate.forward", ("calls", "s", "rows"), _rows_arg(1, "X")),
    Layer("surrogate.forward_jvp", ("calls", "s", "rows"), _rows_arg(1, "X")),
    Layer("surrogate.backward_params", ("calls", "s", "rows"), _rows_arg(2, "dL_dpred")),
    Layer("surrogate.backward_params_jvp", ("calls", "s", "rows"), _rows_arg(2, "dpred")),
    Layer("surrogate.input_grad_batch", _CALLS_S_SELF + ("rows",), _rows_arg(1, "X")),
    Layer("surrogate.apply_update"),
    Layer("surrogate.save_checkpoint"),
    Layer("surrogate.load_checkpoint"),
    Layer("matchloss.match_loss", _CALLS_S_SELF + ("rows",), _pairs_arg),
    Layer("matchloss.mse_loss", _CALLS_S_SELF + ("rows",), _mse_rows),
    Layer("metatrain.meta_train", _CALLS_S_SELF),
    Layer("metatrain.meta_epoch", _CALLS_S_SELF),
    Layer("metatrain.finetune", _CALLS_S_SELF),
    Layer("search.init_candidates", _CALLS_S_SELF),
    Layer("search.gradient_search", _CALLS_S_SELF),
    Layer("bench.make_benchmark"),
    Layer("bench.run_method", _CALLS_S_SELF),
    Layer("dataio.load_dataset"),
    Layer("dataio.standardize"),
    # cli.main hands each subcommand to cli.dispatch; one span per subcommand
    Layer("cli.dispatch", (), span_name=lambda command, *a, **k: f"cli.main.{command}"),
)
CLI_SUBCOMMANDS = ("gen-tasks", "meta-train", "finetune", "search", "bench")

# counters and derived values reported next to the layer statistics:
# name -> unit
EXTRA_METRICS = {
    "numerics.jitter_escalations": "count",
    "sim4opt.retries": "count",
    "sim4opt.bundle_mb": "MB",
    "search.flagged": "count",
    "cli.bench.cpu_over_wall": "ratio",
    "score_p100": "score",
    "fail_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows": "rows"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        for stat in layer.stats:
            units[f"{layer.qualname}.{stat}"] = _STAT_UNITS[stat]
    for cmd in CLI_SUBCOMMANDS:
        units[f"cli.main.{cmd}.s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class _JitterCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if record.getMessage().startswith("cholesky jitter escalated"):
            self.counts["numerics.jitter_escalations"] += 1


class Recorder:
    """Probes for every run, plus spans when ``trace`` is true.

    Use as a context manager: wrappers are installed on entry and the
    original functions restored on exit. Recording happens only between
    ``begin_cell`` and ``end_cell``, so the benchmark's own checks are
    neither traced nor captured.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.active = False
        self.cell = None
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)
        self._patches: list = []
        self._logger = logging.getLogger("optbias.numerics")
        self._handler = _JitterCounter(self.counts)
        self._old_level = None

    # -- installation -------------------------------------------------------

    def __enter__(self):
        importlib.import_module("optbias.cli")  # loads every optbias module
        self._patch("search.gradient_search", self._capture_wrapper)
        self._patch("sim4opt.generate_tasks", self._capture_wrapper)
        self._patch("sim4opt.load_bundle", self._capture_wrapper)
        self._patch("sim4opt.sample_task_params", self._count_wrapper)
        self._old_level = self._logger.level
        self._logger.setLevel(logging.DEBUG)
        self._logger.addHandler(self._handler)
        if self.trace:
            for layer in LAYERS:
                self._patch(layer.qualname, functools.partial(self._span_wrapper, layer))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._logger.removeHandler(self._handler)
        self._logger.setLevel(self._old_level)
        return False

    def _patch(self, qualname: str, make_wrapper):
        modname, fname = qualname.rsplit(".", 1)
        current = getattr(importlib.import_module(f"optbias.{modname}"), fname)
        wrapper = functools.update_wrapper(make_wrapper(qualname, current), current)
        modules = [m for k, m in list(sys.modules.items())
                   if k == "optbias" or k.startswith("optbias.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is current:
                    self._patches.append((module, attr, current))
                    setattr(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _capture_wrapper(self, qualname, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.captured[qualname].append((args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, qualname, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, layer: Layer, qualname, fn):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = layer.span_name(*args, **kwargs) if layer.span_name else qualname
            rows = layer.rows(*args, **kwargs) if layer.rows else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.cell, rows)

        return wrapper

    # -- cells ----------------------------------------------------------------

    def begin_cell(self, cell):
        """Start recording one unit of work; its spans share the id ``cell``."""
        self.cell = cell
        self.counts.clear()
        self.captured.clear()
        self.spans.clear()
        self.spans.append(None)  # the root span, closed by end_cell
        self._stack[:] = [0]
        self.active = True
        self._t0 = time.perf_counter()

    def add_span(self, name: str, t0: float, t1: float, rows: int = 0):
        """Record a span timed by the benchmark itself, such as a subprocess."""
        if self.active:
            self.spans.append((name, t0, t1, self._stack[-1], self.cell, rows))

    def end_cell(self) -> dict:
        """Stop recording and return the cell's per-layer aggregates.

        Keys are ``<span name>.{calls,s,self_s,rows}`` plus the probe counters;
        ``unit.s`` is the root span, i.e. the traced wall time of the cell.
        """
        t1 = time.perf_counter()
        self.active = False
        self.spans[0] = (ROOT_SPAN, self._t0, t1, -1, self.cell, 0)
        out = aggregate(self.spans)
        out.update(self.counts)
        self.spans.clear()
        self._stack.clear()
        return out


def aggregate(spans) -> dict:
    """Per-name calls, total, self time and rows of a list of span records.

    A span's self time is its duration minus the durations of its direct
    children; children of one parent never overlap (one thread).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _cell, _rows in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for i, (name, t0, t1, _parent, _cell, rows) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += t1 - t0
        out[f"{name}.self_s"] += t1 - t0 - child[i]
        out[f"{name}.rows"] += rows
    return dict(out)
