"""Run one workload of the optbias benchmark and print its metrics.

    python3 perfbench/run.py --workload optbias-cell --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Units of work repeat until ``--seconds`` have passed (at least one unit, at
least two for grid-jobs2). Prints the facts the numbers depend on, one line
per metric with its unit, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no spans.
``--trace 1`` reports the per-layer metrics of a traced pass and the tracing
overhead: the traced unit's wall time minus that of one untraced unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Recorder, per_layer_units
from workloads import DIM, INSTANCE_SEED, ORACLE, WORKLOADS, Outcome, env_with_src

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 7
THREAD_VARS = re.compile(r"^(OMP|OPENBLAS|GOTO|MKL|BLIS|VECLIB|NUMEXPR)_|THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def measure_setup(seed: int, reps: int = SETUP_REPS) -> list[float]:
    """Set-up seconds of ``reps`` fresh interpreters (see setup_probe.py)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), ORACLE, str(DIM),
            str(INSTANCE_SEED + seed)]
    times = []
    for _ in range(reps):
        proc = subprocess.run(argv, env=env_with_src(SRC), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_unit(wl, state, rec, index) -> dict:
    """Time one unit of work, then check its outputs (untimed)."""
    rec.begin_cell(index)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        outcome = wl.unit(state, rec, index)
    except Exception:  # a failed unit is counted, and the run goes on
        traceback.print_exc()
        outcome = Outcome(attempted=1, failed=1)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    layers = rec.end_cell()
    cpu_kids = _cpu(kids1) - _cpu(kids0)
    try:
        checks = wl.check(state, rec, outcome)
    except Exception:
        traceback.print_exc()
        checks = [("check_raised", False)]
    if rec.trace:
        checks.append(("self_times_within_wall", self_time_total(layers) <= wall))
    values = dict(layers)
    values.update(outcome.extra)
    values["score_p100"] = statistics.fmean(outcome.scores) if outcome.scores else 0.0
    if not wl.in_process:
        values["cli.bench.cpu_over_wall"] = cpu_kids / wall
    print(f"{wl.name} unit {index}: wall {wall:.3f} s", file=sys.stderr)
    for name, ok in checks:
        if not ok:
            print(f"check failed: {wl.name} unit {index}: {name}", file=sys.stderr)
    return {
        "wall": wall,
        "cpu": _cpu(self1) - _cpu(self0) + cpu_kids,
        "attempted": outcome.attempted + len(checks),
        "failed": outcome.failed + sum(not ok for _, ok in checks),
        "values": values,
    }


def self_time_total(layers: dict) -> float:
    """Sum of the self times of every traced layer below the unit's root span."""
    return sum(v for k, v in layers.items() if k.endswith(".self_s") and k != "unit.self_s")


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the units of one workload and return the result object."""
    setup = [] if trace else measure_setup(seed)
    with Recorder(trace=trace) as rec:
        rec.begin_cell("setup")
        state = wl.prepare(seed, work)
        setup_layers = rec.end_cell()
    units = []
    start = time.perf_counter()
    if trace:
        with Recorder(trace=False) as rec:
            units.append(run_unit(wl, state, rec, 0))
    first = len(units)  # units from here on are traced on a traced run
    with Recorder(trace=trace) as rec:
        while (len(units) == first or len(units) < wl.min_units
               or time.perf_counter() - start < seconds):
            units.append(run_unit(wl, state, rec, len(units)))
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    if trace:
        metrics = per_layer_metrics(units[first:], setup_layers, units[0]["wall"],
                                    failed / attempted)
    else:
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        values = {
            "wall_s": statistics.median(u["wall"] for u in units),
            "cpu_s": statistics.median(u["cpu"] for u in units),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_metrics(traced, setup_layers, untraced_wall, fail_frac) -> dict:
    """Mean per traced unit of every per-layer metric; set-up spans count once."""
    metrics = {}
    for name, unit in per_layer_units().items():
        value = statistics.fmean(u["values"].get(name, 0.0) for u in traced)
        metrics[name] = {"value": value + setup_layers.get(name, 0.0), "unit": unit}
    wall = statistics.fmean(u["wall"] for u in traced)
    metrics["trace.wall_s"]["value"] = wall
    metrics["trace.overhead_s"]["value"] = wall - untraced_wall
    metrics["fail_frac"]["value"] = fail_frac
    return metrics


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def facts() -> dict:
    """What every number depends on; thread variables are reported as found."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if THREAD_VARS.search(k)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optbias" / "__init__.py").is_file():
        print(f"error: no optbias sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            WORK.rmdir()
    emit(result)
    return 0


def emit(result: dict) -> None:
    """Print the facts, one line per metric, and the result object last."""
    print(json.dumps({"facts": facts()}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
