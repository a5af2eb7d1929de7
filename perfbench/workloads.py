"""The benchmark's four workloads and their correctness checks.

A workload builds its inputs from the seed in ``prepare`` (untimed), runs
one unit of work in ``unit`` (timed) and judges that unit's outputs in
``check`` (untimed). The seed gives the method seed ``seed`` and the
instance seed ``INSTANCE_SEED + seed``, so seed 0 is the cell that
``optbias bench`` runs for seed 0.

Every workload takes its program settings from an INI config, the same
format the ``optbias`` command reads; keys not set keep the program's
defaults. ``overrides`` replaces keys, which the self-tests use to run
every workload at toy scale.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INSTANCE_SEED = 1_000_003  # the instance seed of cli._bench_cell
ORACLE, DIM = "ackley", 4
LABEL_TOL = 1e-10  # the acceptance gate's Sim4Opt label tolerance
SUBPROCESS_TIMEOUT_S = 170


@dataclass
class Outcome:
    """What one unit produced; ``attempted``/``failed`` count its cells or stages."""

    scores: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # (oracle calls made during a cell, number of candidates it scored)
    oracle_calls: list[tuple[int, int]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def check_designs(captured) -> list[tuple[str, bool]]:
    """Every design gradient_search returned is finite and inside its bounds."""
    if not captured:
        return [("designs_finite_in_bounds", False)]
    out = []
    for args, kwargs, result in captured:
        bounds = args[4] if len(args) > 4 else kwargs.get("bounds")
        X = result.designs
        ok = bool(np.isfinite(X).all())
        if bounds is not None:
            ok = ok and bool(((X >= bounds[:, 0]) & (X <= bounds[:, 1])).all())
        out.append(("designs_finite_in_bounds", ok))
    return out


def check_oracle_calls(outcome: Outcome) -> list[tuple[str, bool]]:
    """The oracle was used only to score the final candidates."""
    return [("oracle_calls_equal_scored", calls == scored)
            for calls, scored in outcome.oracle_calls]


def check_labels(captured, seed: int, n_tasks: int = 4, n_traj: int = 4):
    """Sampled trajectory labels equal the task GP's posterior mean."""
    from optbias import gp

    if not captured:
        return [("sim4opt_labels", False)]
    rng = np.random.default_rng(seed)
    out = []
    for args, kwargs, tasks in captured:
        ds = args[0] if args else kwargs["ds"]
        worst = 0.0
        for ti in rng.choice(len(tasks), min(n_tasks, len(tasks)), replace=False):
            task = tasks[ti]
            model = gp.posterior(ds, task.params)
            n = len(task.trajectories)
            for j in rng.choice(n, min(n_traj, n), replace=False):
                traj = task.trajectories[j]
                err = np.abs(gp.posterior_mean_batch(model, traj.states) - traj.labels)
                worst = max(worst, float(err.max()))
        out.append(("sim4opt_labels", worst <= LABEL_TOL))
    return out


def count_fallbacks(rec, outcome: Outcome, n_functions: int):
    """Sim4Opt retries (parameter draws beyond one per task) and frozen candidates."""
    n_gen = len(rec.captured["sim4opt.generate_tasks"])
    draws = rec.counts["sim4opt.sample_task_params"]
    outcome.extra["sim4opt.retries"] = draws - n_gen * n_functions
    outcome.extra["search.flagged"] = sum(
        int(np.count_nonzero(r.flagged))
        for _, _, r in rec.captured["search.gradient_search"] if r.flagged is not None
    )


def env_with_src(src: Path) -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def write_ini(path: Path, config: dict) -> None:
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in config.items()
    )
    path.write_text(text, encoding="utf-8")


class Workload:
    name = ""
    why = ""
    in_process = True
    steady = True  # listed in BENCHMARK.json
    min_units = 1
    config: dict = {}

    def __init__(self, overrides: dict | None = None):
        merged = {s: dict(keys) for s, keys in self.config.items()}
        for section, keys in (overrides or {}).items():
            merged.setdefault(section, {}).update(keys)
        self.config = merged

    def resolved(self, work: Path) -> dict:
        """The config as the program resolves it, after writing it to work/run.ini."""
        from optbias import cli

        work.mkdir(parents=True, exist_ok=True)
        write_ini(work / "run.ini", self.config)
        return cli.parse_config(str(work / "run.ini"))

    def instance(self, cfg: dict, seed: int):
        from optbias import bench
        from optbias.numerics import RngState

        return bench.make_benchmark(bench.Oracle(ORACLE, DIM), RngState(INSTANCE_SEED + seed),
                                    cfg["bench"]["n_full"], cfg["bench"]["frac"])

    def prepare(self, seed: int, work: Path):
        raise NotImplementedError

    def unit(self, state, rec, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, state, rec, outcome: Outcome) -> list[tuple[str, bool]]:
        raise NotImplementedError


class _CellWorkload(Workload):
    """In-process ``bench.run_method`` cells on one ackley instance."""

    methods: tuple[str, ...] = ()

    def prepare(self, seed, work):
        from optbias import cli

        cfg = self.resolved(work)
        return {"seed": seed, "instance": self.instance(cfg, seed),
                "pcfg": cli.build_pipeline_config(cfg)}

    def unit(self, state, rec, index):
        from optbias import bench

        inst = state["instance"]
        out = Outcome()
        for method in self.methods:
            out.attempted += 1
            before = inst.oracle.calls
            report = bench.run_method(method, inst, state["pcfg"], state["seed"])
            out.oracle_calls.append((inst.oracle.calls - before, len(report.candidate_scores)))
            out.scores.append(report.percentile100)
        return out

    def check(self, state, rec, outcome):
        checks = check_oracle_calls(outcome)
        checks += check_designs(rec.captured["search.gradient_search"])
        count_fallbacks(rec, outcome, state["pcfg"].sim.n_functions)
        return checks


class OptbiasCell(_CellWorkload):
    name = "optbias-cell"
    why = ("one full optbias cell, ackley d=4, 80 offline points: the only workload "
           "where the GP and Sim4Opt layers do most of the work")
    methods = ("optbias",)

    def check(self, state, rec, outcome):
        checks = super().check(state, rec, outcome)
        return checks + check_labels(rec.captured["sim4opt.generate_tasks"], state["seed"])


class BaselineCells(_CellWorkload):
    name = "baseline-cells"
    why = ("ga then matchopt on the same instance: bypasses gp, sim4opt and metatrain, "
           "and drives the surrogate with 512-row JVP batches and train-mode backward")
    methods = ("ga", "matchopt")


class CliChain(Workload):
    name = "cli-chain"
    why = ("gen-tasks, meta-train, finetune, search through optbias.cli.main with K=32: "
           "the only workload that writes and rereads the task bundle and checkpoints")
    config = {"sim4opt": {"n_functions": 32}}

    def prepare(self, seed, work):
        from optbias.dataio import save_dataset

        cfg = self.resolved(work)
        inst = self.instance(cfg, seed)
        save_dataset(inst.offline_subset, work / "offline.csv")
        return {"seed": seed, "instance": inst, "work": work, "cfg": cfg}

    def unit(self, state, rec, index):
        from optbias import cli

        work = state["work"]
        out_dir = work / f"unit{index}"
        s, data = str(state["seed"]), str(work / "offline.csv")
        stages = (
            ["gen-tasks", "--data", data, "--seed", s],
            ["meta-train", "--data", data, "--tasks", str(out_dir / "tasks.json"), "--seed", s],
            ["finetune", "--data", data, "--checkpoint", str(out_dir / "meta.ckpt"), "--seed", s],
            ["search", "--data", data, "--checkpoint", str(out_dir / "finetuned.ckpt"),
             "--seed", s],
        )
        out = Outcome()
        out.extra["out_dir"] = out_dir
        for argv in stages:
            out.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", str(work / "run.ini"), "--output-dir",
                                 str(out_dir)] + argv)
            if code != 0:
                out.failed += 1
                print(f"cli-chain: {argv[0]} exited {code}", file=sys.stderr)
                break
        return out

    def check(self, state, rec, outcome):
        cfg = state["cfg"]
        out_dir = outcome.extra.pop("out_dir")
        checks = check_designs(rec.captured["search.gradient_search"])
        designs = _read_designs(out_dir / "designs.csv")
        n_expected = min(state["instance"].offline_subset.n, cfg["search"]["n_candidates"])
        finite = (designs is not None and designs.shape[0] == n_expected
                  and bool(np.isfinite(designs).all()))
        checks.append(("designs_csv_one_finite_row_per_candidate", finite))
        bundles = rec.captured["sim4opt.load_bundle"]
        k, kappa = cfg["sim4opt"]["n_functions"], 2 * cfg["sim4opt"]["evolve_steps"] + 1
        checks.append(("bundle_reload", len(bundles) == 1 and len(bundles[0][2]) == k
                       and all(t.kappa == kappa for t in bundles[0][2])))
        bundle = out_dir / "tasks.json"
        outcome.extra["sim4opt.bundle_mb"] = bundle.stat().st_size / 1e6 if bundle.exists() else 0.0
        if finite:
            outcome.scores.append(_score_designs(state["instance"], outcome, designs))
            checks += check_oracle_calls(outcome)
        count_fallbacks(rec, outcome, k)
        shutil.rmtree(out_dir, ignore_errors=True)
        return checks


def _read_designs(path: Path):
    """Design columns of designs.csv (every column before provenance)."""
    if not path.exists():
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    d = rows[0].index("provenance")
    return np.array([[float(v) for v in row[:d]] for row in rows[1:]], dtype=np.float64)


def _score_designs(inst, outcome: Outcome, designs) -> float:
    # `optbias search` writes designs in standardized units, so they are
    # mapped back through the offline subset's scaler before scoring.
    from optbias.dataio import normalized_score, standardize

    scaler = standardize(inst.offline_subset)[1]
    before = inst.oracle.calls
    values = inst.oracle.eval_batch(scaler.inverse_x(designs))
    outcome.oracle_calls.append((inst.oracle.calls - before, len(values)))
    y_min, y_max = inst.y_bounds
    return max(normalized_score(v, y_min, y_max) for v in values)


class GridJobs2(Workload):
    name = "grid-jobs2"
    why = ("the optbias bench subprocess with --jobs 2 over ga,matchopt x sphere,ackley: "
           "the only workload that uses the process pool")
    # Not in BENCHMARK.json: each pool worker's BLAS threads oversubscribe the
    # cores, and identical grids then take anywhere from 1x to 4x as long.
    steady = False
    in_process = False
    min_units = 2  # the scores.csv of two units are compared byte for byte
    # 25 instead of 200 training epochs per cell keep a slow grid inside the
    # subprocess timeout
    config = {"bench": {"oracles": "sphere,ackley", "methods": "ga,matchopt",
                        "supervised_epochs": 25, "matchopt_epochs": 25}}

    def prepare(self, seed, work):
        self.config.setdefault("run", {})["seeds"] = seed
        cfg = self.resolved(work)
        env = env_with_src(Path(sys.modules["optbias"].__file__).resolve().parents[1])
        n_cells = len(cfg["bench"]["oracles"]) * len(cfg["bench"]["methods"])
        return {"work": work, "env": env, "n_cells": n_cells, "first_scores": None}

    def unit(self, state, rec, index):
        work = state["work"]
        out_dir = work / f"unit{index}"
        argv = [sys.executable, "-c",
                "import sys; from optbias.cli import main; sys.exit(main())",
                "--config", str(work / "run.ini"), "--output-dir", str(out_dir),
                "bench", "--jobs", "2"]
        t0 = time.perf_counter()
        # a session of its own, so a timeout also ends the pool's workers
        with subprocess.Popen(argv, env=state["env"], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        rec.add_span("cli.main.bench", t0, time.perf_counter())
        out = Outcome(attempted=1)
        out.extra["out_dir"] = out_dir
        if proc.returncode != 0:
            out.failed = 1
            sys.stderr.write(err.decode("utf-8", "replace"))
        return out

    def check(self, state, rec, outcome):
        out_dir = outcome.extra.pop("out_dir")
        path = out_dir / "scores.csv"
        blob = path.read_bytes() if path.exists() else b""
        rows = list(csv.DictReader(io.StringIO(blob.decode("utf-8"), newline="")))
        checks = [("scores_csv_cells", len(rows) == state["n_cells"])]
        if state["first_scores"] is None:
            state["first_scores"] = blob
        else:
            checks.append(("scores_csv_identical", blob == state["first_scores"]))
        if rows:
            outcome.scores.append(float(np.mean([float(r["percentile100"]) for r in rows])))
        shutil.rmtree(out_dir, ignore_errors=True)
        return checks


WORKLOADS = {w.name: w for w in (OptbiasCell, BaselineCells, CliChain, GridJobs2)}
