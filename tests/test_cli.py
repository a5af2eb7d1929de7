import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbias import bench, cli, gp
from optbias.dataio import OfflineDataset, save_dataset
from optbias.errors import ConfigError, NumericalError
from optbias.numerics import RngState
from optbias.sim4opt import SyntheticTask, save_bundle

SMALL_CFG = """
[sim4opt]
n_functions = 3
evolve_steps = 4
fit_gp = false

[surrogate]
hidden = 12,6

[meta]
epochs = 2
tasks_per_batch = 2

[finetune]
epochs = 1

[search]
steps = 5

[bench]
oracles = sphere
dim = 2
n_full = 120
frac = 0.1
methods = ga,optbias
supervised_epochs = 4

[run]
seeds = 0,1
"""


@pytest.fixture
def data_csv(tmp_path):
    r = RngState(0)
    X = r.normal(size=(15, 2))
    z = -np.sum(X * X, axis=1)
    p = tmp_path / "data.csv"
    save_dataset(OfflineDataset(X, z), p)
    return p


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SMALL_CFG)
    return p


def test_defaults_without_config():
    cfg = cli.parse_config(None)
    assert cfg["sim4opt"]["evolve_steps"] == 100
    assert cfg["sim4opt"]["n_functions"] == 128
    assert cfg["search"]["gamma"] == 0.001
    assert cfg["meta"]["epochs"] == 50
    assert cfg["meta"]["inner_lr"] == 0.1
    assert cfg["meta"]["outer_lr"] == 0.001
    assert cfg["meta"]["context_pairs"] == 16
    assert cfg["meta"]["target_pairs"] == 64
    assert cfg["finetune"]["epochs"] == 20
    assert cfg["run"]["seeds"] == (0, 1, 2, 3)


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    cfg = cli.parse_config(str(p))
    assert cfg == cli.parse_config(None)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[metaa]\nalpha = 1\n")
    with pytest.raises(ConfigError, match="metaa"):
        cli.parse_config(str(p))


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[meta]\nalpha = 1\n")
    with pytest.raises(ConfigError, match="meta.alpha"):
        cli.parse_config(str(p))


def test_unparseable_value(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[meta]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        cli.parse_config(str(p))


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "nope.ini"), "bench"])
    assert rc == 4


def test_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[meta]\nalpha = 1\n")
    rc = cli.main(["--config", str(p), "bench"])
    assert rc == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("section, body", [
    ("sim4opt", "evolution_mode = bogus"),
    ("sim4opt", "fit_gp = maybe"),
    ("sim4opt", "kernel = cosine"),
    ("sim4opt", "delta_frac = 1.5"),
    ("search", "top_k = 10\nn_candidates = 20"),
    ("search", "steps = -1"),
    ("search", "gamma = 0"),
    ("finetune", "epochs = -3"),
    ("finetune", "batch = 0"),
    ("surrogate", "hidden = 0,5"),
    ("surrogate", "norm = bogus"),
    ("bench", "batch_size = 0"),
    ("bench", "matchopt_epochs = -1"),
    ("finetune", "lr = nan"),
    ("finetune", "lr = -0.5"),
    ("search", "gamma = nan"),
    ("meta", "outer_lr = inf"),
    ("sim4opt", "lengthscale = nan"),
    ("sim4opt", "step_size = inf"),
    ("sim4opt", "ucb_beta = -3"),
    ("bench", "frac = nan"),
    ("meta", "epochs = 50%"),  # a bare % is an interpolation error
    ("meta", "epochs = 2\nepochs = 3"),  # a duplicate key
    ("meta", "epochs = 2\n[meta]\nepochs = 3"),  # a duplicate section
])
def test_invalid_config_values_exit_2(tmp_path, data_csv, capsys, section, body):
    p = tmp_path / "bad.ini"
    p.write_text(f"[{section}]\n{body}\n")
    rc = cli.main(["--config", str(p), "--output-dir", str(tmp_path / "out"),
                   "gen-tasks", "--data", str(data_csv)])
    assert rc == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [b"epochs = 2\n", b"[meta]\nepochs = 2\xff\n"],
                         ids=["no section header", "not UTF-8"])
def test_unparsable_config_file_exits_2(tmp_path, data_csv, capsys, raw):
    p = tmp_path / "bad.ini"
    p.write_bytes(raw)
    rc = cli.main(["--config", str(p), "--output-dir", str(tmp_path / "out"),
                   "gen-tasks", "--data", str(data_csv)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config" in err and str(p) in err and "Traceback" not in err


def _with_bench_key(line: str) -> str:
    """SMALL_CFG with one of its [bench] or [run] keys set as in ``line``."""
    key = line.split(" = ")[0]
    return "".join(line + "\n" if ln.startswith(f"{key} = ") else ln
                   for ln in SMALL_CFG.splitlines(keepends=True))


@pytest.mark.parametrize("line", [
    "frac = 1.5",
    "dim = 0",
    "frac = 0.001",  # n_full * frac < 2
    "oracles = sphere,bogus",
    "oracles = shekel4",  # with dim = 2
    "methods = ga,bogus",
    "methods = ga,ga",
    "oracles = sphere,sphere",
    "seeds = 0,0",
    "seeds = 1,-1",
])
@pytest.mark.parametrize("command", [["bench"], ["ablate", "--axis", "meta"]])
def test_bad_bench_section_exits_2_before_any_cell(tmp_path, capsys, monkeypatch, line,
                                                   command):
    monkeypatch.setattr(bench, "run_method", lambda *a: pytest.fail("a cell ran"))
    p = tmp_path / "bad.ini"
    p.write_text(_with_bench_key(line))
    rc = cli.main(["--config", str(p), "--output-dir", str(tmp_path / "out")] + command)
    assert rc == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("run_jobs, flag", [
    ("", ["--jobs", "0"]),  # used to fall back to [run] jobs
    ("", ["--jobs", "-2"]),  # used to run serially
    ("jobs = 0\n", []),
    ("jobs = -3\n", []),
    ("jobs = 0\n", ["--jobs", "-1"]),
])
@pytest.mark.parametrize("command", [["bench"], ["ablate", "--axis", "meta"]])
def test_jobs_below_one_exits_2_before_any_cell(tmp_path, capsys, monkeypatch, run_jobs, flag,
                                                command):
    monkeypatch.setattr(bench, "run_method", lambda *a: pytest.fail("a cell ran"))
    p = tmp_path / "bad.ini"
    p.write_text(SMALL_CFG + run_jobs)
    rc = cli.main(["--config", str(p), "--output-dir", str(tmp_path / "out")] + command + flag)
    assert rc == 2
    assert "config: jobs must be at least 1" in capsys.readouterr().err


def test_grad_error_bad_dim_or_fractions_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text(_with_bench_key("dim = 0"))
    out = ["--output-dir", str(tmp_path / "out")]
    assert cli.main(["--config", str(p)] + out + ["grad-error", "--oracle", "sphere"]) == 2
    assert "config" in capsys.readouterr().err
    for fractions in ("0.5,nan", "1.5"):
        assert cli.main(out + ["grad-error", "--oracle", "sphere", "--fractions", fractions]) == 2
    p.write_text(_with_bench_key("seeds = -1"))
    assert cli.main(["--config", str(p)] + out + ["grad-error", "--oracle", "sphere"]) == 2
    assert "config: seeds must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no check runs after the output dir is made
    with pytest.raises(SystemExit) as exc:  # argparse rejects a non-number
        cli.main(out + ["grad-error", "--fractions", "abc"])
    assert exc.value.code == 2


STAGE_COMMANDS = [
    ["gen-tasks"],
    ["meta-train", "--tasks", "tasks.json"],
    ["meta-train", "--tasks", "tasks.json", "--pretrain"],
    ["finetune", "--checkpoint", "meta.ckpt"],
    ["search", "--checkpoint", "finetuned.ckpt"],
]


def _no_stage_runs(monkeypatch):
    for stage in ("stage_gen_tasks", "stage_meta_train", "stage_finetune", "stage_search"):
        monkeypatch.setattr(bench, stage, lambda *a: pytest.fail("a stage ran"))


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_negative_seed_exits_2_before_the_stage(tmp_path, data_csv, capsys, monkeypatch,
                                                command):
    _no_stage_runs(monkeypatch)
    rc = cli.main(["--output-dir", str(tmp_path / "out"), command[0], "--data", str(data_csv),
                   "--seed", "-1"] + command[1:])
    assert rc == 2
    assert "config: seeds must be non-negative, got [-1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", STAGE_COMMANDS)
@pytest.mark.parametrize("config, data, code", [
    ("[sim4opt]\nn_functions = 0\n", None, 2),
    ("", "no/such.csv", 4),
], ids=["bad config", "missing data"])
def test_failed_stage_set_up_leaves_no_output_dir(tmp_path, data_csv, capsys, monkeypatch,
                                                  command, config, data, code):
    _no_stage_runs(monkeypatch)
    (tmp_path / "run.ini").write_text(config)
    rc = cli.main(["--config", str(tmp_path / "run.ini"), "--output-dir", str(tmp_path / "out"),
                   command[0], "--data", str(tmp_path / data if data else data_csv)]
                  + command[1:])
    assert rc == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_defaults_match_pipeline_defaults():
    assert cli.build_pipeline_config(cli.parse_config(None)) == bench.PipelineConfig()


def _leaf_paths(obj, prefix=""):
    """The dotted path of every field of a (nested) config dataclass that is
    not itself a dataclass."""
    if not dataclasses.is_dataclass(obj):
        return [prefix]
    return [p for f in dataclasses.fields(obj)
            for p in _leaf_paths(getattr(obj, f.name), f"{prefix}.{f.name}".lstrip("."))]


def test_every_pipeline_field_is_set_by_exactly_one_key():
    # the kernel mean is fit per task from the data, never configured
    paths = [path for keys in cli._FIELDS.values() for path in keys.values()]
    leaves = set(_leaf_paths(bench.PipelineConfig())) - {"sim.base_params.mean"}
    assert sorted(paths) == sorted(leaves)
    assert sum(len(keys) for keys in cli.parse_config(None).values()) == 40


def _as_ini(config: dict) -> str:
    """A manifest's config snapshot written back as an INI file."""
    return "".join(
        f"[{section}]\n" + "".join(
            f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
            for k, v in keys.items())
        for section, keys in config.items())


@pytest.mark.parametrize("text", [None, SMALL_CFG])
def test_config_snapshot_replays_every_key(tmp_path, text):
    p = tmp_path / "run.ini"
    if text is not None:
        p.write_text(text)
    cfg = cli.parse_config(None if text is None else str(p))
    snapshot = json.loads(json.dumps(cfg))  # as a manifest stores it
    p.write_text(_as_ini(snapshot))
    assert cli.parse_config(str(p)) == cfg


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    p = tmp_path / "readme.ini"
    p.write_text(example)
    cfg = cli.parse_config(str(p))
    cli.build_pipeline_config(cfg)
    cli._check_grid(cfg, cfg["run"]["jobs"])


_FLOAT_KEYS = [(section, key) for section, keys in cli.parse_config(None).items()
               for key, value in keys.items() if isinstance(value, float)]


def _floats(obj):
    """Every float field of a (nested) config dataclass."""
    if isinstance(obj, float):
        return [obj]
    if dataclasses.is_dataclass(obj):
        return [v for f in dataclasses.fields(obj) for v in _floats(getattr(obj, f.name))]
    return []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FLOAT_KEYS), st.floats(allow_nan=True, allow_infinity=True))
def test_config_floats_are_finite_or_rejected(key, value):
    section, name = key
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "run.ini"
        p.write_text(f"[{section}]\n{name} = {value!r}\n")
        try:
            cfg = cli.parse_config(str(p))
            pcfg = cli.build_pipeline_config(cfg)
        except ConfigError:
            return
    assert all(np.isfinite(v) for keys in cfg.values() for v in keys.values()
               if isinstance(v, float))
    assert all(np.isfinite(v) for v in _floats(pcfg))


def test_fit_gp_parses_strictly(tmp_path):
    p = tmp_path / "b.ini"
    for raw, want in (("no", False), ("Off", False), ("0", False), ("TRUE", True), ("on", True)):
        p.write_text(f"[sim4opt]\nfit_gp = {raw}\n")
        assert cli.parse_config(str(p))["sim4opt"]["fit_gp"] is want


def test_gen_tasks_and_inspect(tmp_path, data_csv, cfg_file, capsys):
    out = tmp_path / "out"
    rc = cli.main([
        "--config", str(cfg_file), "--output-dir", str(out),
        "gen-tasks", "--data", str(data_csv), "--seed", "0",
    ])
    assert rc == 0
    assert (out / "tasks.json").exists()
    manifest = json.loads((out / "gen_tasks_manifest.json").read_text())
    assert manifest["seeds"] == [0]
    assert "data" in manifest["input_hashes"]
    rc = cli.main(["inspect", "--file", str(out / "tasks.json")])
    assert rc == 0
    assert "3" in capsys.readouterr().out


def test_gen_tasks_writes_identical_bytes(tmp_path, data_csv, cfg_file):
    bundles = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(out),
                         "gen-tasks", "--data", str(data_csv), "--seed", "3"]) == 0
        bundles.append((out / "tasks.json").read_bytes())
    assert bundles[0] == bundles[1]


def test_meta_train_writes_identical_bytes(tmp_path, data_csv, cfg_file):
    base = ["--config", str(cfg_file), "--output-dir"]
    assert cli.main(base + [str(tmp_path), "gen-tasks", "--data", str(data_csv)]) == 0
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(base + [str(out), "meta-train", "--data", str(data_csv),
                                "--tasks", str(tmp_path / "tasks.json"), "--seed", "3"]) == 0
        blobs.append([(out / f).read_bytes() for f in ("train_log.csv", "meta.ckpt")])
    assert blobs[0] == blobs[1]


def test_pretrain_manifest_replays_without_the_flag(tmp_path, data_csv, cfg_file):
    base = ["--config", str(cfg_file), "--output-dir"]
    assert cli.main(base + [str(tmp_path), "gen-tasks", "--data", str(data_csv)]) == 0
    stage = ["meta-train", "--data", str(data_csv), "--tasks", str(tmp_path / "tasks.json"),
             "--seed", "3"]
    assert cli.main(base + [str(tmp_path / "a")] + stage + ["--pretrain"]) == 0
    config = json.loads((tmp_path / "a" / "meta_train_manifest.json").read_text())["config"]
    assert config["meta"]["inner_lr"] == 0.0
    replay = tmp_path / "replay.ini"
    replay.write_text(_as_ini(config))
    assert cli.main(["--config", str(replay), "--output-dir", str(tmp_path / "b")] + stage) == 0
    for name in ("meta.ckpt", "train_log.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_v1_bundle_exit_3(tmp_path, data_csv, cfg_file, capsys):
    p = tmp_path / "tasks.json"
    for version in (1, 2):  # JSON bundles, from before the sealed framing
        p.write_text(json.dumps({"version": version, "config": {}, "tasks": []}) + "\n")
        assert cli.main(["inspect", "--file", str(p)]) == 3
        rc = cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path / "out"),
                       "meta-train", "--data", str(data_csv), "--tasks", str(p)])
        assert rc == 3
        assert "gen-tasks" in capsys.readouterr().err


def test_single_state_trajectories_exit_3(tmp_path, data_csv, cfg_file, capsys):
    # a sealed bundle whose trajectories hold one state each (kappa = 1) has
    # no consecutive pair to train on
    X = RngState(1).normal(size=(15, 2))
    z = -np.sum(X * X, axis=1)
    tasks = [SyntheticTask(i, gp.KernelParams(), X[:, None, :], z[:, None]) for i in range(3)]
    p = tmp_path / "tasks.json"
    save_bundle(tasks, p)
    assert cli.main(["inspect", "--file", str(p)]) == 0
    capsys.readouterr()
    for extra in ([], ["--pretrain"]):
        rc = cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path / "out"),
                       "meta-train", "--data", str(data_csv), "--tasks", str(p)] + extra)
        assert rc == 3
        err = capsys.readouterr().err
        assert "2 or more states" in err and "Traceback" not in err


def test_truncated_bundle_exit_4(tmp_path, data_csv, cfg_file):
    out = tmp_path / "out"
    base = ["--config", str(cfg_file), "--output-dir", str(out)]
    assert cli.main(base + ["gen-tasks", "--data", str(data_csv)]) == 0
    bundle = out / "tasks.json"
    bundle.write_bytes(bundle.read_bytes()[: bundle.stat().st_size // 2])
    assert cli.main(["inspect", "--file", str(bundle)]) == 4
    assert cli.main(base + ["meta-train", "--data", str(data_csv),
                            "--tasks", str(bundle)]) == 4


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Bytes of a valid task bundle and of a valid checkpoint from the CLI."""
    work = tmp_path_factory.mktemp("artifacts")
    r = RngState(0)
    X = r.normal(size=(15, 2))
    save_dataset(OfflineDataset(X, -np.sum(X * X, axis=1)), work / "data.csv")
    (work / "run.ini").write_text(SMALL_CFG)
    base = ["--config", str(work / "run.ini"), "--output-dir", str(work)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(base + ["gen-tasks", "--data", str(work / "data.csv")]) == 0
        assert cli.main(base + ["meta-train", "--data", str(work / "data.csv"),
                                "--tasks", str(work / "tasks.json")]) == 0
    return {"tasks.json": (work / "tasks.json").read_bytes(),
            "meta.ckpt": (work / "meta.ckpt").read_bytes()}


def _inspect_exit_code(name: str, data: bytes) -> int:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["inspect", "--file", str(path)])


def test_v1_checkpoint_exit_3(tmp_path, artifacts, cfg_file, data_csv, capsys):
    v2 = artifacts["meta.ckpt"]
    p = tmp_path / "meta.ckpt"
    p.write_bytes(v2[:4] + b"\x01" + v2[5:-32])  # version-1 framing: no sha256 trailer
    assert cli.main(["inspect", "--file", str(p)]) == 3
    rc = cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path / "out"),
                   "finetune", "--data", str(data_csv), "--checkpoint", str(p)])
    assert rc == 3
    assert "rerun the stage" in capsys.readouterr().err


_HYP = settings(max_examples=150, deadline=None)


@_HYP
@given(st.sampled_from(["tasks.json", "meta.ckpt"]), st.data())
def test_truncated_artifact_exit_3_or_4(artifacts, name, data):
    full = artifacts[name]
    assert _inspect_exit_code(name, full) == 0
    cut = data.draw(st.integers(0, len(full) - 1), label="cut")
    assert _inspect_exit_code(name, full[:cut]) in (3, 4)


@_HYP
@given(st.data())
def test_flipped_bundle_byte_exit_3_or_4(artifacts, data):
    full = artifacts["tasks.json"]
    at = data.draw(st.integers(0, len(full) - 1), label="at")
    mask = data.draw(st.integers(1, 255), label="mask")
    bad = bytearray(full)
    bad[at] ^= mask
    assert _inspect_exit_code("tasks.json", bytes(bad)) in (3, 4)


@_HYP
@given(st.data())
def test_flipped_checkpoint_byte(artifacts, data):
    # the sha256 trailer covers every byte before it
    full = artifacts["meta.ckpt"]
    at = data.draw(st.integers(0, len(full) - 1), label="at")
    mask = data.draw(st.integers(1, 255), label="mask")
    bad = bytearray(full)
    bad[at] ^= mask
    assert _inspect_exit_code("meta.ckpt", bytes(bad)) in (3, 4)


def test_bench_row_count_and_summary(tmp_path, cfg_file, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["--config", str(cfg_file), "--output-dir", str(out), "bench"])
    assert rc == 0
    rows = (out / "scores.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 1 * 2  # header + methods x oracles x seeds
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "method,benchmark,mean,std,rank,mean_rank"


def test_bench_determinism_and_jobs(tmp_path, cfg_file):
    outs = []
    for name, jobs in (("a", None), ("b", None), ("c", "2")):
        out = tmp_path / name
        argv = ["--config", str(cfg_file), "--output-dir", str(out), "bench"]
        if jobs:
            argv += ["--jobs", jobs]
        assert cli.main(argv) == 0
        outs.append((out / "scores.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_bench_pool_spawns_one_blas_thread_workers(tmp_path, cfg_file, monkeypatch):
    # the pool's workers are spawned while the BLAS thread variables are pinned,
    # get the longest cells first, and leave the parent's environment as it was
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            seen.append(("pool", max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            payloads = list(payloads)
            seen.append(("env", os.environ.get("OPENBLAS_NUM_THREADS"),
                         os.environ.get("OMP_NUM_THREADS")))
            seen.append(("methods", [p[1] for p in payloads]))
            if fail:
                raise NumericalError("a cell failed")
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    argv = ["--config", str(cfg_file), "--output-dir", str(tmp_path / "a"), "bench", "--jobs", "2"]
    for fail, rc in ((False, 0), (True, 3)):
        seen.clear()
        assert cli.main(argv) == rc
        assert seen == [("pool", 2, "spawn"), ("env", "1", "1"),
                        ("methods", ["optbias", "optbias", "ga", "ga"])]
        assert dict(os.environ) == before
    serial = tmp_path / "serial"
    assert cli.main(["--config", str(cfg_file), "--output-dir", str(serial), "bench"]) == 0
    assert (tmp_path / "a" / "scores.csv").read_bytes() == (serial / "scores.csv").read_bytes()


def test_pipeline_composability(tmp_path, cfg_file):
    # the chained gen-tasks -> meta-train -> finetune -> search replays
    # bench.run_method: mapped back through the scaler, its designs score
    # exactly as run_method's candidates
    from optbias.dataio import load_dataset, normalized_score, standardize

    cfg = cli.parse_config(str(cfg_file))
    b = bench.make_benchmark(bench.Oracle("sphere", cfg["bench"]["dim"]), RngState(11),
                             cfg["bench"]["n_full"], cfg["bench"]["frac"])
    data = tmp_path / "offline.csv"
    save_dataset(b.offline_subset, data)
    scaler = standardize(load_dataset(data))[1]
    bounds = bench._search_bounds(b, scaler)
    for method, flags in (("optbias", []), ("optbias_pretrain", ["--pretrain"])):
        out = tmp_path / method
        base = ["--config", str(cfg_file), "--output-dir", str(out)]
        common = ["--data", str(data), "--seed", "7"]
        assert cli.main(base + ["gen-tasks"] + common) == 0
        assert cli.main(base + ["meta-train", "--tasks", str(out / "tasks.json")]
                        + common + flags) == 0
        assert cli.main(base + ["finetune", "--checkpoint", str(out / "meta.ckpt")]
                        + common) == 0
        assert cli.main(base + ["search", "--checkpoint", str(out / "finetuned.ckpt")]
                        + common) == 0
        lines = (out / "designs.csv").read_text().strip().splitlines()[1:]
        designs = np.array([[float(v) for v in ln.split(",")[:2]] for ln in lines])
        # the CLI searches unbounded; run_method's domain box must not bind here
        assert ((designs > bounds[:, 0]) & (designs < bounds[:, 1])).all()
        values = b.oracle.eval_batch(scaler.inverse_x(designs))
        got = np.array([normalized_score(v, *b.y_bounds) for v in values])
        want = bench.run_method(method, b, cli.build_pipeline_config(cfg), 7).candidate_scores
        assert np.array_equal(got, want)


def test_grad_error_command(tmp_path, cfg_file):
    out = tmp_path / "ge"
    rc = cli.main([
        "--config", str(cfg_file), "--output-dir", str(out),
        "grad-error", "--oracle", "sphere", "--fractions", "0.5,1.0",
    ])
    assert rc == 0
    lines = (out / "grad_error.csv").read_text().strip().splitlines()
    assert lines[0] == "fraction,mean_grad_error,std"
    assert len(lines) == 3


def test_grad_error_manifest_replays_the_run(tmp_path, cfg_file):
    argv = ["grad-error", "--oracle", "sphere", "--fractions", "0.5,1.0"]
    assert cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path / "a")] + argv) == 0
    manifest = json.loads((tmp_path / "a" / "grad_error_manifest.json").read_text())
    replay = tmp_path / "replay.ini"
    replay.write_text(_as_ini(manifest["config"]))
    args = manifest["args"]
    assert cli.main(["--config", str(replay), "--output-dir", str(tmp_path / "b"), "grad-error",
                     "--oracle", args["oracle"],
                     "--fractions", ",".join(map(repr, args["fractions"]))]) == 0
    for name in ("grad_error.csv", "grad_error_manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ablate_axis_k(tmp_path, cfg_file):
    out = tmp_path / "abl"
    rc = cli.main(["--config", str(cfg_file), "--output-dir", str(out),
                   "ablate", "--axis", "K"])
    assert rc == 0
    rows = (out / "ablate_K.csv").read_text().strip().splitlines()[1:]
    labels = {r.split(",")[0] for r in rows}
    assert labels == {f"optbias[K={k}]" for k in (8, 16, 32, 64, 128)}


def test_ablate_axis_gp_rows_in_variant_order_under_jobs(tmp_path, cfg_file):
    # all five variants share one pool; the rows come back in variant order
    outs = []
    for name, jobs in (("j1", "1"), ("j2", "2")):
        out = tmp_path / name
        assert cli.main(["--config", str(cfg_file), "--output-dir", str(out),
                         "ablate", "--axis", "gp", "--jobs", jobs]) == 0
        outs.append([(out / f).read_bytes() for f in ("ablate_gp.csv", "ablate_gp_summary.csv")])
    assert outs[0] == outs[1]
    rows = outs[0][0].decode().strip().splitlines()[1:]
    labels = list(dict.fromkeys(r.split(",")[0] for r in rows))
    assert labels == [f"optbias[{v}]" for v in ("rbf", "matern", "ucb", "ls1.5", "ls2.0")]
    assert len(rows) == 5 * 1 * 2  # variants x oracles x seeds


def test_ablate_gp_rbf_row_runs_rbf_under_a_matern_config(tmp_path, monkeypatch):
    p = tmp_path / "matern.ini"
    p.write_text(SMALL_CFG.replace("fit_gp = false", "fit_gp = false\nkernel = matern52"))
    cfg = cli.parse_config(str(p))
    pcfgs = []

    def run_method(method, b, pcfg, seed):
        pcfgs.append(pcfg)
        return bench.ScoreReport(method, b.oracle.name, seed, 0.0, 0.0, np.zeros(1))

    monkeypatch.setattr(bench, "run_method", run_method)
    variants = cli._ABLATIONS["gp"]
    for variant in variants:
        cli._bench_cell((cfg, *variant, "sphere", 0))
    family = {label: pcfg.sim.base_params.family for (label, _, _), pcfg in zip(variants, pcfgs)}
    assert family["optbias[rbf]"] == "rbf"
    assert family["optbias[matern]"] == "matern52"


def test_run_grid_puts_each_cell_at_its_own_index(tmp_path, monkeypatch):
    # oracles and seeds listed out of sorted order, variants not in dispatch
    # order: every cell's result still lands at [variant, sorted oracle, sorted seed]
    p = tmp_path / "grid.ini"
    p.write_text(SMALL_CFG.replace("oracles = sphere", "oracles = sphere,ackley")
                 .replace("seeds = 0,1", "seeds = 2,0,1"))
    cfg = cli.parse_config(str(p))
    variants = [("g", "ga", {}), ("o", "optbias", {}), ("m", "matchopt", {})]
    calls = []

    def value(method, oracle, seed):
        return (100 * ("ga", "optbias", "matchopt").index(method)
                + 10 * ("sphere", "ackley").index(oracle) + seed)

    def run_method(method, b, pcfg, seed):
        calls.append(method)
        v = value(method, b.oracle.name, seed)
        return bench.ScoreReport(method, b.oracle.name, seed, v, -v, np.zeros(1))

    monkeypatch.setattr(bench, "run_method", run_method)
    oracles, seeds, scores = cli._run_grid(cfg, variants, 1)
    assert (oracles, seeds) == (["ackley", "sphere"], [0, 1, 2])
    assert calls == ["optbias"] * 6 + ["matchopt"] * 6 + ["ga"] * 6  # longest first
    for v, o, s in np.ndindex(scores.shape[:3]):
        want = value(variants[v][1], oracles[o], seeds[s])
        assert scores[v, o, s].tolist() == [want, -want]


def test_inspect_missing_file(capsys):
    rc = cli.main(["inspect", "--file", "/no/such/file"])
    assert rc == 4
