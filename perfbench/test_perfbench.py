"""Self-tests of the benchmark at toy scale.

    python3 -m pytest perfbench -q

Every workload runs with the acceptance suite's determinism config, so the
whole file takes seconds. The tests show that every metric is printed with
its unit, that traced self times fit inside the traced wall time, and that
each correctness check fails on a deliberately broken result.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "sim4opt": {"n_functions": 3, "evolve_steps": 4, "fit_gp": "false"},
    "surrogate": {"hidden": "12,6"},
    "meta": {"epochs": 2, "tasks_per_batch": 2},
    "finetune": {"epochs": 1},
    "search": {"steps": 5},
    "bench": {"n_full": 150, "frac": 0.1, "supervised_epochs": 4, "matchopt_epochs": 4},
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy(name):
    return workloads.WORKLOADS[name](TOY)


def run_one(wl, tmp_path, seed=0):
    """prepare and one unit; returns the state, the recorder and the outcome."""
    with tracing.Recorder(trace=False) as rec:
        state = wl.prepare(seed, tmp_path / wl.name)
        rec.begin_cell(0)
        outcome = wl.unit(state, rec, 0)
        rec.end_cell()
        return state, rec, outcome


def failed_checks(checks):
    return {name for name, ok in checks if not ok}


def test_benchmark_json_matches_the_code():
    steady = [name for name, cls in workloads.WORKLOADS.items() if cls.steady]
    assert [w["name"] for w in SPEC["workloads"]] == steady
    assert [w["why"] for w in SPEC["workloads"]] == [workloads.WORKLOADS[n].why for n in steady]
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.per_layer_units())
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(name, trace, tmp_path, capsys):
    result = run.run_workload(toy(name), 0, 0.0, bool(trace), tmp_path / "work")
    run.emit(result)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines
        if not trace:
            assert got["value"] > 0


def test_traced_self_times_fit_in_wall_time(tmp_path):
    wl = toy("cli-chain")
    with tracing.Recorder(trace=True) as rec:
        state = wl.prepare(0, tmp_path)
        unit = run.run_unit(wl, state, rec, 0)
    layers = unit["values"]
    assert unit["failed"] == 0
    assert layers["sim4opt.generate_tasks.calls"] == 1
    assert layers["cli.main.meta-train.calls"] == 1
    assert 0.0 < run.self_time_total(layers) <= unit["wall"] <= layers["unit.s"]
    for key, value in layers.items():
        if key.endswith(".self_s"):
            assert -1e-9 <= value <= layers[key[: -len("self_s")] + "s"] + 1e-9


def test_aggregate_subtracts_direct_children_only():
    spans = [
        ("unit", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 6.0, 0, 0, 0),
        ("b", 2.0, 3.0, 1, 0, 4),
        ("b", 3.5, 5.0, 1, 0, 6),
        ("c", 4.0, 4.5, 3, 0, 0),
    ]
    agg = tracing.aggregate(spans)
    assert agg["a.self_s"] == pytest.approx(2.5)
    assert agg["b.calls"] == 2 and agg["b.rows"] == 10
    assert agg["b.s"] == pytest.approx(2.5) and agg["b.self_s"] == pytest.approx(2.0)
    assert agg["unit.self_s"] == pytest.approx(5.0)


def test_recorder_restores_the_program(tmp_path):
    from optbias import bench, gp, sim4opt

    before = (bench.generate_tasks, sim4opt.generate_tasks, gp.kernel_matrix)
    with tracing.Recorder(trace=True):
        assert bench.generate_tasks is sim4opt.generate_tasks
        assert gp.kernel_matrix is not before[2]
    assert (bench.generate_tasks, sim4opt.generate_tasks, gp.kernel_matrix) == before


def test_out_of_bounds_or_nonfinite_design_fails(tmp_path):
    state, rec, outcome = run_one(toy("optbias-cell"), tmp_path)
    captured = rec.captured["search.gradient_search"]
    assert failed_checks(workloads.check_designs(captured)) == set()
    args, kwargs, result = captured[0]
    bounds = args[4]
    outside = result.designs.copy()
    outside[0, 0] = bounds[0, 1] + 1e-6
    broken = [(args, kwargs, replace(result, designs=outside))]
    assert failed_checks(workloads.check_designs(broken)) == {"designs_finite_in_bounds"}
    nan = result.designs.copy()
    nan[1, 1] = np.nan
    broken = [(args[:4], kwargs, replace(result, designs=nan))]  # no bounds given
    assert failed_checks(workloads.check_designs(broken)) == {"designs_finite_in_bounds"}


def test_oracle_use_outside_scoring_fails(tmp_path, monkeypatch):
    from optbias import bench

    original = bench.run_method

    def peeking(method, b, cfg, seed):
        b.oracle.eval_batch(b.offline_subset.X[:1])  # one query the method must not make
        return original(method, b, cfg, seed)

    wl = toy("baseline-cells")
    state, rec, outcome = run_one(wl, tmp_path)
    assert failed_checks(wl.check(state, rec, outcome)) == set()
    monkeypatch.setattr(bench, "run_method", peeking)
    state, rec, outcome = run_one(wl, tmp_path)
    assert failed_checks(wl.check(state, rec, outcome)) == {"oracle_calls_equal_scored"}


def test_wrong_sim4opt_labels_fail(tmp_path):
    wl = toy("optbias-cell")
    state, rec, outcome = run_one(wl, tmp_path)
    captured = rec.captured["sim4opt.generate_tasks"]
    assert failed_checks(workloads.check_labels(captured, 0)) == set()
    args, kwargs, tasks = captured[0]
    shifted = [
        replace(t, trajectories=tuple(replace(tr, labels=tr.labels + 1e-8)
                                      for tr in t.trajectories))
        for t in tasks
    ]
    broken = [(args, kwargs, shifted)]
    assert failed_checks(workloads.check_labels(broken, 0)) == {"sim4opt_labels"}


def test_broken_designs_csv_or_bundle_fails(tmp_path):
    wl = toy("cli-chain")
    state, rec, outcome = run_one(wl, tmp_path)
    designs = outcome.extra["out_dir"] / "designs.csv"
    lines = designs.read_text(encoding="utf-8").splitlines(keepends=True)
    designs.write_text("".join(lines[:-1]), encoding="utf-8")  # one candidate missing
    tasks = rec.captured["sim4opt.load_bundle"][0][2]
    rec.captured["sim4opt.load_bundle"][0] = ((), {}, tasks[:-1])  # one task missing
    assert failed_checks(wl.check(state, rec, outcome)) == {
        "designs_csv_one_finite_row_per_candidate", "bundle_reload"}


def test_changed_scores_csv_fails(tmp_path):
    wl = toy("grid-jobs2")
    with tracing.Recorder(trace=False) as rec:
        state = wl.prepare(0, tmp_path)
        first = wl.unit(state, rec, 0)
        assert failed_checks(wl.check(state, rec, first)) == set()
        second = wl.unit(state, rec, 1)
        scores = second.extra["out_dir"] / "scores.csv"
        scores.write_text(scores.read_text(encoding="utf-8").replace("0.", "1.", 1),
                          encoding="utf-8")
        assert failed_checks(wl.check(state, rec, second)) == {"scores_csv_identical"}


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "optbias-cell", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
