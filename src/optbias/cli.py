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
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import bench, gp, sim4opt, surrogate as sg
from .dataio import (
    content_hash,
    load_dataset,
    standardize,
    write_manifest,
    write_score_csv,
)
from .errors import ConfigError, DataError, NumericalError, OptBiasError
from .matchloss import IntegralMode
from .metatrain import MetaConfig, TrainStats, finetune, meta_train
from .numerics import RngState
from .search import gradient_search, init_candidates, write_designs_csv
from .sim4opt import InvalidDelta, Sim4OptConfig


def _parse_bool(raw: str) -> bool:
    """The boolean spellings configparser accepts, and nothing else."""
    key, states = raw.strip().lower(), configparser.ConfigParser.BOOLEAN_STATES
    if key not in states:
        raise ValueError(f"not a boolean; use one of {sorted(states)}")
    return states[key]


# section -> key -> (default string, parser)
_SCHEMA = {
    "sim4opt": {
        "n_functions": ("128", int),
        "evolve_steps": ("100", int),
        "step_size": ("0.05", float),
        "delta_frac": ("0.5", float),
        "evolution_mode": ("posterior_mean", str),
        "ucb_beta": ("2.0", float),
        "kernel": ("rbf", str),
        "lengthscale": ("1.0", float),
        "signal_variance": ("1.0", float),
        "noise": ("0.01", float),
        "fit_gp": ("true", _parse_bool),
    },
    "surrogate": {
        "hidden": ("512,128,32", lambda s: tuple(int(v) for v in s.split(","))),
        "slope": ("0.01", float),
        "norm": ("batch_stat", str),
    },
    "meta": {
        "epochs": ("50", int),
        "tasks_per_batch": ("8", int),
        "inner_lr": ("0.1", float),
        "outer_lr": ("0.001", float),
        "context_pairs": ("16", int),
        "target_pairs": ("64", int),
        "integral": ("quadrature", str),
        "quadrature_nodes": ("4", int),
    },
    "finetune": {
        "epochs": ("20", int),
        "lr": ("0.01", float),
        "batch": ("128", int),
    },
    "search": {
        "steps": ("300", int),
        "gamma": ("0.001", float),
        "top_k": ("256", int),
        "n_candidates": ("128", int),
    },
    "bench": {
        "oracles": ("sphere,ackley,shekel4", lambda s: tuple(s.split(","))),
        "dim": ("4", int),
        "n_full": ("8000", int),
        "frac": ("0.01", float),
        "methods": (
            "ga,matchopt,optbias,optbias_pretrain,optbias_random_gen",
            lambda s: tuple(s.split(",")),
        ),
        "supervised_epochs": ("200", int),
        "matchopt_epochs": ("200", int),
        "batch_size": ("128", int),
    },
    "run": {
        "seeds": ("0,1,2,3", lambda s: tuple(int(v) for v in s.split(","))),
        "output_dir": ("runs", str),
        "jobs": ("1", int),
    },
}


def parse_config(path: str | None) -> dict:
    """Resolve a config file against the schema; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    if path is not None:
        read = parser.read(path, encoding="utf-8")
        if not read:
            raise DataError(f"cannot read config file {path}")
    resolved: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section, keys in _SCHEMA.items():
        resolved[section] = {}
        for key, (default, cast) in keys.items():
            raw = parser.get(section, key, fallback=default)
            try:
                resolved[section][key] = cast(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from None
    return resolved


def _config_snapshot(cfg: dict) -> dict:
    out = {}
    for section, keys in cfg.items():
        out[section] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in keys.items()
        }
    return out


def build_pipeline_config(cfg: dict) -> bench.PipelineConfig:
    """Build the typed pipeline config; invalid values raise ConfigError."""
    if cfg["search"]["top_k"] < cfg["search"]["n_candidates"]:
        raise ConfigError(
            f"search.top_k ({cfg['search']['top_k']}) must be >= "
            f"search.n_candidates ({cfg['search']['n_candidates']})"
        )
    try:
        return _pipeline_config(cfg)
    except (ValueError, InvalidDelta) as exc:
        raise ConfigError(str(exc)) from None


def _pipeline_config(cfg: dict) -> bench.PipelineConfig:
    sim = Sim4OptConfig(
        n_functions=cfg["sim4opt"]["n_functions"],
        evolve_steps=cfg["sim4opt"]["evolve_steps"],
        step_size=cfg["sim4opt"]["step_size"],
        delta_frac=cfg["sim4opt"]["delta_frac"],
        evolution_mode=cfg["sim4opt"]["evolution_mode"],
        ucb_beta=cfg["sim4opt"]["ucb_beta"],
        base_params=gp.KernelParams(
            cfg["sim4opt"]["kernel"],
            cfg["sim4opt"]["lengthscale"],
            cfg["sim4opt"]["signal_variance"],
            cfg["sim4opt"]["noise"],
        ),
    )
    meta = MetaConfig(
        epochs=cfg["meta"]["epochs"],
        tasks_per_batch=cfg["meta"]["tasks_per_batch"],
        inner_lr=cfg["meta"]["inner_lr"],
        outer_lr=cfg["meta"]["outer_lr"],
        context_pairs=cfg["meta"]["context_pairs"],
        target_pairs=cfg["meta"]["target_pairs"],
        integral_mode=IntegralMode(cfg["meta"]["integral"], cfg["meta"]["quadrature_nodes"]),
    )
    return bench.PipelineConfig(
        sim=sim,
        meta=meta,
        hidden=cfg["surrogate"]["hidden"],
        slope=cfg["surrogate"]["slope"],
        norm=cfg["surrogate"]["norm"],
        fit_gp=cfg["sim4opt"]["fit_gp"],
        finetune_epochs=cfg["finetune"]["epochs"],
        finetune_lr=cfg["finetune"]["lr"],
        finetune_batch=cfg["finetune"]["batch"],
        search_steps=cfg["search"]["steps"],
        search_gamma=cfg["search"]["gamma"],
        top_k=cfg["search"]["top_k"],
        n_candidates=cfg["search"]["n_candidates"],
        supervised_epochs=cfg["bench"]["supervised_epochs"],
        matchopt_epochs=cfg["bench"]["matchopt_epochs"],
        batch_size=cfg["bench"]["batch_size"],
    )


def _outdir(cfg: dict, override: str | None) -> Path:
    out = Path(override or cfg["run"]["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_hash(path) -> str:
    return content_hash(Path(path).read_bytes())


# rng stream indices shared between run_method and the file-mediated stages so
# a chained gen-tasks -> meta-train -> finetune -> search replays bench exactly
STREAM_NET, STREAM_BASELINE, STREAM_TASKS, STREAM_META, STREAM_FT, STREAM_CAND = range(1, 7)


def cmd_gen_tasks(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    pcfg = build_pipeline_config(cfg)
    ds = load_dataset(args.data)
    std_ds, _ = standardize(ds)
    seed = args.seed
    rng = RngState(seed)
    base = bench._fit_base_params(std_ds, pcfg)
    sim_cfg = replace(pcfg.sim, base_params=base)
    tasks = sim4opt.generate_tasks(std_ds, sim_cfg, rng.split(STREAM_TASKS))
    bundle = out / "tasks.json"
    sim4opt.save_bundle(tasks, bundle, config=_config_snapshot(cfg)["sim4opt"])
    write_manifest(
        out / "gen_tasks_manifest.json",
        _config_snapshot(cfg),
        [seed],
        {"data": _file_hash(args.data)},
    )
    print(f"wrote {len(tasks)} tasks to {bundle}")
    return 0


def cmd_meta_train(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    pcfg = build_pipeline_config(cfg)
    ds = load_dataset(args.data)
    std_ds, _ = standardize(ds)
    tasks = sim4opt.load_bundle(args.tasks)
    seed = args.seed
    rng = RngState(seed)
    net = bench._make_net(std_ds.dim, pcfg, rng.split(STREAM_NET))
    variant = "pretrain" if args.pretrain else "meta"
    stats = meta_train(net, tasks, pcfg.meta, rng.split(STREAM_META), variant=variant)
    ckpt = out / "meta.ckpt"
    sg.save_checkpoint(net, ckpt)
    stats.write_csv(out / "train_log.csv")
    write_manifest(
        out / "meta_train_manifest.json",
        _config_snapshot(cfg),
        [seed],
        {"data": _file_hash(args.data), "tasks": _file_hash(args.tasks)},
    )
    print(f"wrote checkpoint {ckpt}")
    return 0


def cmd_finetune(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    pcfg = build_pipeline_config(cfg)
    ds = load_dataset(args.data)
    std_ds, _ = standardize(ds)
    net = sg.load_checkpoint(args.checkpoint)
    seed = args.seed
    finetune(
        net,
        std_ds,
        pcfg.finetune_epochs,
        RngState(seed).split(STREAM_FT),
        lr=pcfg.finetune_lr,
        batch_size=pcfg.finetune_batch,
        mode=pcfg.meta.integral_mode,
    )
    ckpt = out / "finetuned.ckpt"
    sg.save_checkpoint(net, ckpt)
    write_manifest(
        out / "finetune_manifest.json",
        _config_snapshot(cfg),
        [seed],
        {"data": _file_hash(args.data), "checkpoint": _file_hash(args.checkpoint)},
    )
    print(f"wrote checkpoint {ckpt}")
    return 0


def cmd_search(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    pcfg = build_pipeline_config(cfg)
    ds = load_dataset(args.data)
    std_ds, _ = standardize(ds)
    net = sg.load_checkpoint(args.checkpoint)
    net.eval()
    seed = args.seed
    cands = init_candidates(
        net, std_ds, RngState(seed).split(STREAM_CAND), pcfg.top_k, pcfg.n_candidates
    )
    final = gradient_search(net, cands, pcfg.search_gamma, pcfg.search_steps)
    designs = out / "designs.csv"
    write_designs_csv(designs, final, pcfg.search_steps, names=ds.names)
    write_manifest(
        out / "search_manifest.json",
        _config_snapshot(cfg),
        [seed],
        {"data": _file_hash(args.data), "checkpoint": _file_hash(args.checkpoint)},
    )
    print(f"wrote {designs}")
    return 0


def _bench_cell(payload):
    cfg, method, oracle_name, dim, n_full, frac, seed = payload
    pcfg = build_pipeline_config(cfg)
    oracle = bench.Oracle(oracle_name, dim)
    instance = bench.make_benchmark(oracle, RngState(1_000_003), n_full, frac)
    report = bench.run_method(method, instance, pcfg, seed)
    return report


def _run_bench_grid(cfg, methods, oracles, seeds, jobs):
    payloads = [
        (cfg, m, o, cfg["bench"]["dim"], cfg["bench"]["n_full"], cfg["bench"]["frac"], s)
        for m in methods
        for o in oracles
        for s in seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_bench_cell, payloads))
    else:
        reports = [_bench_cell(p) for p in payloads]
    reports.sort(key=lambda r: (r.method, r.benchmark, r.seed))
    return reports


def _write_summary_csv(path, summary):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,benchmark,mean,std,rank,mean_rank\n")
        for m in summary["methods"]:
            for b in summary["benchmarks"]:
                fh.write(
                    f"{m},{b},{summary['mean'][(m, b)]!r},{summary['std'][(m, b)]!r},"
                    f"{summary['rank'][(m, b)]!r},{summary['mean_rank'][m]!r}\n"
                )


def _score_rows(reports):
    return [
        {
            "method": r.method,
            "benchmark": r.benchmark,
            "seed": r.seed,
            "percentile100": r.percentile100,
            "best_raw": r.best_raw,
            "runtime_s": 0.0,  # zeroed so artifacts are byte-reproducible
        }
        for r in reports
    ]


def cmd_bench(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    seeds = list(cfg["run"]["seeds"])
    jobs = args.jobs or cfg["run"]["jobs"]
    reports = _run_bench_grid(
        cfg, cfg["bench"]["methods"], cfg["bench"]["oracles"], seeds, jobs
    )
    write_score_csv(out / "scores.csv", _score_rows(reports))
    _write_summary_csv(out / "summary.csv", bench.summarize(reports))
    write_manifest(out / "bench_manifest.json", _config_snapshot(cfg), seeds, {})
    print(f"wrote {out / 'scores.csv'} and {out / 'summary.csv'}")
    return 0


def cmd_grad_error(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    pcfg = build_pipeline_config(cfg)
    oracle = bench.Oracle(args.oracle, 4 if args.oracle == "shekel4" else cfg["bench"]["dim"])
    fractions = [float(v) for v in args.fractions.split(",")]
    seeds = list(cfg["run"]["seeds"])
    rows = bench.grad_error_curve(oracle, fractions, pcfg, seeds)
    path = out / "grad_error.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("fraction,mean_grad_error,std\n")
        for f, mean, std in rows:
            fh.write(f"{f!r},{mean!r},{std!r}\n")
    write_manifest(out / "grad_error_manifest.json", _config_snapshot(cfg), seeds, {})
    print(f"wrote {path}")
    return 0


_ABLATE_AXES = ("meta", "generator", "gp", "K")


def cmd_ablate(cfg, args) -> int:
    out = _outdir(cfg, args.output_dir)
    seeds = list(cfg["run"]["seeds"])
    jobs = args.jobs or cfg["run"]["jobs"]
    oracles = cfg["bench"]["oracles"]
    axis = args.axis
    if axis == "meta":
        reports = _run_bench_grid(cfg, ("optbias", "optbias_pretrain"), oracles, seeds, jobs)
    elif axis == "generator":
        reports = _run_bench_grid(cfg, ("optbias", "optbias_random_gen"), oracles, seeds, jobs)
    elif axis == "gp":
        reports = []
        variants = {
            "rbf": {},
            "matern": {"kernel": "matern52"},
            "ucb": {"evolution_mode": "ucb"},
            "ls1.5": {"lengthscale": 1.5, "fit_gp": False},
            "ls2.0": {"lengthscale": 2.0, "fit_gp": False},
        }
        for label, overrides in variants.items():
            vcfg = json.loads(json.dumps(_config_snapshot(cfg)))
            for k, v in overrides.items():
                vcfg["sim4opt"][k] = v
            vcfg = _restore_tuples(vcfg)
            for r in _run_bench_grid(vcfg, ("optbias",), oracles, seeds, jobs):
                reports.append(replace(r, method=f"optbias[{label}]"))
    elif axis == "K":
        reports = []
        for k in (8, 16, 32, 64, 128):
            vcfg = json.loads(json.dumps(_config_snapshot(cfg)))
            vcfg["sim4opt"]["n_functions"] = k
            vcfg = _restore_tuples(vcfg)
            for r in _run_bench_grid(vcfg, ("optbias",), oracles, seeds, jobs):
                reports.append(replace(r, method=f"optbias[K={k}]"))
    else:
        raise ConfigError(f"unknown ablation axis {axis!r}; choose from {_ABLATE_AXES}")
    write_score_csv(out / f"ablate_{axis}.csv", _score_rows(reports))
    _write_summary_csv(out / f"ablate_{axis}_summary.csv", bench.summarize(reports))
    write_manifest(out / f"ablate_{axis}_manifest.json", _config_snapshot(cfg), seeds, {})
    print(f"wrote {out / f'ablate_{axis}.csv'}")
    return 0


def _restore_tuples(cfg_json: dict) -> dict:
    out = {}
    for section, keys in cfg_json.items():
        out[section] = {k: tuple(v) if isinstance(v, list) else v for k, v in keys.items()}
    return out


def cmd_inspect(cfg, args) -> int:
    path = Path(args.file)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if path.suffix == ".ckpt" or path.read_bytes()[:4] == sg.CHECKPOINT_MAGIC:
        net = sg.load_checkpoint(path)
        print(f"surrogate checkpoint: {path}")
        print(f"  arch: input_dim={net.arch.input_dim} hidden={list(net.arch.hidden)} "
              f"slope={net.arch.slope} norm={net.arch.norm}")
        print(f"  params: {net.params.shape[0]} values, mode={net.mode}")
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
    p.add_argument("--pretrain", action="store_true", help="use the pretraining variant")

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
    p.add_argument("--fractions", default="0.01,0.1,0.5,1.0")

    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("--axis", required=True, choices=_ABLATE_AXES)
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
    except OptBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
