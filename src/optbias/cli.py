"""Command-line entry point: reproducible pipeline stages over a sectioned
key-value config file (INI syntax).

Subcommands: gen-tasks, meta-train, finetune, search, bench, grad-error,
ablate, inspect. Exit codes: 0 success, 2 config error, 3 numerical failure,
4 I/O error.

Every stage writes a JSON manifest (resolved config, seeds, input hashes) next
to its outputs so a run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import bench, sim4opt, surrogate as sg
from .dataio import content_hash, load_dataset, standardize, write_csv, write_manifest
from .errors import ConfigError, DataError, NumericalError
from .numerics import RngState
from .search import write_designs_csv


def _parse_bool(raw: str) -> bool:
    """The boolean spellings configparser accepts, and nothing else."""
    key, states = raw.strip().lower(), configparser.ConfigParser.BOOLEAN_STATES
    if key not in states:
        raise ValueError(f"not a boolean; use one of {sorted(states)}")
    return states[key]


def _finite_float(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError("not a finite number")
    return value


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",")]


def _parse(raw: str, default):
    """raw as a value of default's type; a tuple is split on commas."""
    if isinstance(default, tuple):
        return tuple(_parse(v, default[0]) for v in raw.split(","))
    if isinstance(default, bool):
        return _parse_bool(raw)
    return _finite_float(raw) if isinstance(default, float) else type(default)(raw)


# section -> key -> the PipelineConfig field that the key sets, as a dotted
# path. The key's default is that field's default, and _parse reads its value
# as the default's type.
_FIELDS = {
    "sim4opt": {
        "n_functions": "sim.n_functions",
        "evolve_steps": "sim.evolve_steps",
        "step_size": "sim.step_size",
        "delta_frac": "sim.delta_frac",
        "evolution_mode": "sim.evolution_mode",
        "ucb_beta": "sim.ucb_beta",
        "kernel": "sim.base_params.family",
        "lengthscale": "sim.base_params.lengthscale",
        "signal_variance": "sim.base_params.signal_variance",
        "noise": "sim.base_params.noise_variance",
        "fit_gp": "fit_gp",
    },
    "surrogate": {"hidden": "hidden", "slope": "slope", "norm": "norm"},
    "meta": {
        "epochs": "meta.epochs",
        "tasks_per_batch": "meta.tasks_per_batch",
        "inner_lr": "meta.inner_lr",
        "outer_lr": "meta.outer_lr",
        "context_pairs": "meta.context_pairs",
        "target_pairs": "meta.target_pairs",
        "integral": "meta.integral_mode.kind",
        "quadrature_nodes": "meta.integral_mode.nodes",
    },
    "finetune": {"epochs": "finetune_epochs", "lr": "finetune_lr", "batch": "finetune_batch"},
    "search": {"steps": "search_steps", "gamma": "search_gamma", "top_k": "top_k",
               "n_candidates": "n_candidates"},
    "bench": {"supervised_epochs": "supervised_epochs", "matchopt_epochs": "matchopt_epochs",
              "batch_size": "batch_size"},
}
# The keys that lay out the bench grid, which no pipeline stage reads, and their defaults.
_GRID = {
    "bench": {"oracles": ("sphere", "ackley", "shekel4"), "dim": 4, "n_full": 8000,
              "frac": 0.01, "methods": bench.METHODS},
    "run": {"seeds": (0, 1, 2, 3), "output_dir": "runs", "jobs": 1},
}


def _field(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def parse_config(path: str | None) -> dict:
    """Resolve a config file against the key tables; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from None
        if not read:
            raise DataError(f"cannot read config file {path}")
    root = bench.PipelineConfig()
    resolved = {s: {k: _field(root, p) for k, p in keys.items()} for s, keys in _FIELDS.items()}
    for section, defaults in _GRID.items():
        resolved[section] = {**defaults, **resolved.get(section, {})}
    for section in parser.sections():
        if section not in resolved:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in resolved[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section, keys in resolved.items():
        for key, default in keys.items():
            if parser.has_option(section, key):
                try:
                    keys[key] = _parse(raw := parser.get(section, key), default)
                except configparser.InterpolationError as exc:
                    raise ConfigError(f"{section}.{key}: {exc}") from None
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from None
    return resolved


def _with_fields(default, values: dict):
    """default with values set; a nested dict builds its nested dataclass first, once."""
    return replace(default, **{k: _with_fields(getattr(default, k), v)
                               if isinstance(v, dict) else v for k, v in values.items()})


def build_pipeline_config(cfg: dict) -> bench.PipelineConfig:
    """Build the typed pipeline config; invalid values raise ConfigError."""
    values: dict = {}
    for section, keys in _FIELDS.items():
        for key, path in keys.items():
            *parents, name = path.split(".")
            node = values
            for parent in parents:
                node = node.setdefault(parent, {})
            node[name] = cfg[section][key]
    try:
        return _with_fields(bench.PipelineConfig(), values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _seeds(seeds) -> list[int]:
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be non-negative, got {list(seeds)}")
    return list(seeds)


def _outdir(cfg: dict, override: str | None) -> Path:
    out = Path(override or cfg["run"]["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _stage(cfg: dict, args, name: str, *inputs: str):
    """The output dir, typed config and standardized --data of one pipeline
    stage; the dir is made only once the config and --data are good. When the
    stage's body succeeds, <name>_manifest.json records the config, the seed
    and the hashes of --data and of the named file args."""
    seeds = _seeds([args.seed])
    pcfg = build_pipeline_config(cfg)
    std_ds, _ = standardize(load_dataset(args.data))
    out = _outdir(cfg, args.output_dir)
    yield out, pcfg, std_ds
    hashes = {k: content_hash(getattr(args, k)) for k in ("data",) + inputs}
    write_manifest(out / f"{name}_manifest.json", cfg, seeds, hashes)


def cmd_gen_tasks(cfg, args) -> int:
    with _stage(cfg, args, "gen_tasks") as (out, pcfg, std_ds):
        tasks = bench.stage_gen_tasks(std_ds, pcfg, args.seed)
        sim4opt.save_bundle(tasks, out / "tasks.json", config=cfg["sim4opt"])
    print(f"wrote {len(tasks)} tasks to {out / 'tasks.json'}")
    return 0


def cmd_meta_train(cfg, args) -> int:
    if args.pretrain:
        cfg["meta"]["inner_lr"] = 0.0
    with _stage(cfg, args, "meta_train", "tasks") as (out, pcfg, std_ds):
        tasks = sim4opt.load_bundle(args.tasks)
        net, stats = bench.stage_meta_train(std_ds.dim, tasks, pcfg, args.seed)
        sg.save_checkpoint(net, out / "meta.ckpt")
        stats.write_csv(out / "train_log.csv")
    print(f"wrote checkpoint {out / 'meta.ckpt'}")
    return 0


def cmd_finetune(cfg, args) -> int:
    with _stage(cfg, args, "finetune", "checkpoint") as (out, pcfg, std_ds):
        net = sg.load_checkpoint(args.checkpoint)
        bench.stage_finetune(net, std_ds, pcfg, args.seed)
        sg.save_checkpoint(net, out / "finetuned.ckpt")
    print(f"wrote checkpoint {out / 'finetuned.ckpt'}")
    return 0


def cmd_search(cfg, args) -> int:
    with _stage(cfg, args, "search", "checkpoint") as (out, pcfg, std_ds):
        net = sg.load_checkpoint(args.checkpoint)
        final = bench.stage_search(net, std_ds, pcfg, args.seed)
        write_designs_csv(out / "designs.csv", final, names=std_ds.names)
    print(f"wrote {out / 'designs.csv'}")
    return 0


def _check_grid(cfg: dict, jobs: int) -> None:
    """Reject a bad [bench] section, seed list, pipeline config or job count
    before any cell starts."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    b = cfg["bench"]
    for key, values in (("methods", b["methods"]), ("oracles", b["oracles"]),
                        ("seeds", _seeds(cfg["run"]["seeds"]))):
        if len(set(values)) < len(values):
            raise ConfigError(f"repeated entry in {key}: {list(values)}")
    if unknown := sorted(set(b["methods"]) - set(bench.METHODS)):
        raise ConfigError(f"unknown methods {unknown}; choose from {bench.METHODS}")
    for name in b["oracles"]:
        bench.Oracle(name, b["dim"])
    if not 0.0 < b["frac"] <= 1.0 or b["n_full"] * b["frac"] < 2:
        raise ConfigError(f"need 0 < frac <= 1 and n_full*frac >= 2, got frac "
                          f"{b['frac']} and n_full {b['n_full']}")
    build_pipeline_config(cfg)


def _bench_cell(payload):
    cfg, label, method, overrides, oracle_name, seed = payload
    b = cfg["bench"]
    instance = bench.make_benchmark(bench.Oracle(oracle_name, b["dim"]), RngState(1_000_003),
                                    b["n_full"], b["frac"])
    pcfg = build_pipeline_config({**cfg, "sim4opt": {**cfg["sim4opt"], **overrides}})
    report = bench.run_method(method, instance, pcfg, seed)
    return report.percentile100, report.best_raw


def _run_grid(cfg, variants, jobs):
    """Check the grid, then run every (variant, oracle, seed) cell; a variant is
    (row label, method, [sim4opt] overrides). Returns the sorted oracles, the
    sorted seeds and each cell's (percentile100, best_raw) at [variant, oracle, seed]."""
    jobs = cfg["run"]["jobs"] if jobs is None else jobs
    _check_grid(cfg, jobs)
    oracles, seeds = sorted(cfg["bench"]["oracles"]), sorted(cfg["run"]["seeds"])
    # seconds of one ackley cell on 2 cores (ga 0.9): the longest cells go first
    cell_s = {"optbias": 5.3, "optbias_pretrain": 4.3, "optbias_random_gen": 3.6, "matchopt": 2.1}
    cells = sorted(np.ndindex(len(variants), len(oracles), len(seeds)),
                   key=lambda c: -cell_s.get(variants[c[0]][1], 0.0))
    payloads = [(cfg, *variants[v], oracles[o], seeds[s]) for v, o, s in cells]
    if jobs > 1:  # numpy reads these when it loads: spawned workers run one BLAS thread each
        parent_env = dict(os.environ)
        os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        try:
            with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
                results = list(pool.map(_bench_cell, payloads))
        finally:
            os.environ.clear()
            os.environ.update(parent_env)
    else:
        results = [_bench_cell(p) for p in payloads]
    scores = np.empty((len(variants), len(oracles), len(seeds), 2))
    for cell, result in zip(cells, results):
        scores[cell] = result
    return oracles, seeds, scores


def _write_grid(cfg, args, variants, scores, summary, manifest):
    """Run the grid of variants; <scores> holds one row per cell, <summary> one per
    (variant, oracle)."""
    oracles, seeds, p = _run_grid(cfg, variants, args.jobs)
    labels = [label for label, _, _ in variants]
    out = _outdir(cfg, args.output_dir)
    # runtime_s is kept as a column of zeros, so scores.csv keeps its layout
    write_csv(out / scores, ["method", "benchmark", "seed", "percentile100", "best_raw",
                             "runtime_s"],
              ([labels[v], oracles[o], seeds[s], *p[v, o, s], 0.0]
               for v, o, s in np.ndindex(p.shape[:3])))
    names, mean, std, rank, mean_rank = bench.summarize(labels, p[..., 0])
    write_csv(out / summary, ["method", "benchmark", "mean", "std", "rank", "mean_rank"],
              ([m, b, mean[i, o], std[i, o], rank[i, o], mean_rank[i]]
               for i, m in enumerate(names) for o, b in enumerate(oracles)))
    write_manifest(out / manifest, cfg, cfg["run"]["seeds"], {})
    print(f"wrote {out / scores} and {out / summary}")


def cmd_bench(cfg, args) -> int:
    _write_grid(cfg, args, [(m, m, {}) for m in sorted(cfg["bench"]["methods"])],
                "scores.csv", "summary.csv", "bench_manifest.json")
    return 0


def cmd_grad_error(cfg, args) -> int:
    seeds = _seeds(cfg["run"]["seeds"])
    pcfg = build_pipeline_config(cfg)
    oracle = bench.Oracle(args.oracle, 4 if args.oracle == "shekel4" else cfg["bench"]["dim"])
    rows = bench.grad_error_curve(oracle, args.fractions, pcfg, seeds)
    out = _outdir(cfg, args.output_dir)
    path = out / "grad_error.csv"
    write_csv(path, ["fraction", "mean_grad_error", "std"], rows)
    write_manifest(out / "grad_error_manifest.json", cfg, seeds, {},
                   {"oracle": args.oracle, "fractions": args.fractions})
    print(f"wrote {path}")
    return 0


# ablation axis -> its variants: (row label, method, [sim4opt] overrides)
_ABLATIONS = {
    "meta": [(m, m, {}) for m in ("optbias", "optbias_pretrain")],
    "generator": [(m, m, {}) for m in ("optbias", "optbias_random_gen")],
    "gp": [(f"optbias[{label}]", "optbias", overrides) for label, overrides in (
        ("rbf", {"kernel": "rbf"}),
        ("matern", {"kernel": "matern52"}),
        ("ucb", {"evolution_mode": "ucb"}),
        ("ls1.5", {"lengthscale": 1.5, "fit_gp": False}),
        ("ls2.0", {"lengthscale": 2.0, "fit_gp": False}),
    )],
    "K": [(f"optbias[K={k}]", "optbias", {"n_functions": k}) for k in (8, 16, 32, 64, 128)],
}


def cmd_ablate(cfg, args) -> int:
    stem = f"ablate_{args.axis}"
    _write_grid(cfg, args, _ABLATIONS[args.axis], f"{stem}.csv", f"{stem}_summary.csv",
                f"{stem}_manifest.json")
    return 0


def cmd_inspect(cfg, args) -> int:
    path = Path(args.file)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if path.suffix == ".ckpt":
        net = sg.load_checkpoint(path)
        print(f"surrogate checkpoint: {path}")
        print(f"  arch: input_dim={net.arch.input_dim} hidden={list(net.arch.hidden)} "
              f"slope={net.arch.slope} norm={net.arch.norm}")
        print(f"  params: {net.params.shape[0]} values")
        print(f"  param stats: mean={net.params.mean():.6g} std={net.params.std():.6g}")
        return 0
    tasks = sim4opt.load_bundle(path)
    print(f"task bundle: {path}")
    print(f"  tasks: {len(tasks)}")
    for t in tasks[:5]:
        p = t.params
        print(
            f"  task {t.task_id}: {len(t.trajectories)} trajectories of length "
            f"{t.kappa}, kernel={p.family} ls={p.lengthscale:.4g} var={p.signal_variance:.4g}"
        )
    if len(tasks) > 5:
        print(f"  ... and {len(tasks) - 5} more")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optbias")
    parser.add_argument("--config", help="path to the INI config file")
    parser.add_argument("--output-dir", help="override [run] output_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="generate a synthetic task bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("meta-train", help="meta-train a surrogate on a task bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretrain", action="store_true", help="pretrain: [meta] inner_lr = 0")

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on offline data")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="gradient search from a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run the full method x oracle x seed grid")
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("grad-error", help="gradient-error vs data-fraction diagnostic")
    p.add_argument("--oracle", default="shekel4")
    p.add_argument("--fractions", default="0.01,0.1,0.5,1.0", type=_float_list)

    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("--axis", required=True, choices=_ABLATIONS)
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("inspect", help="dump a bundle or checkpoint")
    p.add_argument("--file", required=True)
    return parser


_COMMANDS = {
    "gen-tasks": cmd_gen_tasks,
    "meta-train": cmd_meta_train,
    "finetune": cmd_finetune,
    "search": cmd_search,
    "bench": cmd_bench,
    "grad-error": cmd_grad_error,
    "ablate": cmd_ablate,
    "inspect": cmd_inspect,
}


def dispatch(command: str, cfg: dict, args) -> int:
    return _COMMANDS[command](cfg, args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        return dispatch(args.command, cfg, args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
