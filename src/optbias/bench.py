"""Analytic oracles, offline benchmark construction, the pipeline stages that
both the method runners and the CLI subcommands call, the method runners, and
the diagnostics (gradient-error-vs-data-fraction curve, pseudo-value
distribution, score aggregation).

Every method runs init -> stage_finetune -> stage_search; stage_finetune is
the one place that knows each method's training recipe.

All oracles are oriented for maximization: textbook minimization functions
(sphere, ackley, rastrigin) are negated so higher is always better. The oracle
is touched only to score final candidates (and in explicitly invoked
diagnostics); a per-oracle call counter makes that auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import gp, surrogate as sg
from .dataio import OfflineDataset, Scaler, normalized_score, select_bottom_fraction, standardize
from .errors import ConfigError, DataError, NumericalError
from .metatrain import MetaConfig, TrainStats, finetune, meta_train
from .numerics import RngState
from .search import CandidateSet, gradient_search, init_candidates
from .sim4opt import Sim4OptConfig, SyntheticTask, generate_tasks

METHODS = ("ga", "matchopt", "optbias", "optbias_pretrain", "optbias_random_gen")
ORACLES = ("sphere", "ackley", "rastrigin", "shekel4")


# canonical Shekel m=10 tables
_SHEKEL_A = np.array(
    [
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.6, 7.0, 3.6],
    ]
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


class Oracle:
    """Analytic maximization objective with a call counter."""

    def __init__(self, name: str, dim: int):
        if name not in ORACLES:
            raise ConfigError(f"unknown oracle {name!r}")
        if dim < 1 or name == "shekel4" and dim != 4:
            raise ConfigError(f"{name} cannot take dim {dim}: need dim >= 1, and 4 for shekel4")
        self.name = name
        self.dim = dim
        self.calls = 0
        if name in ("sphere", "rastrigin"):
            self.domain = np.tile([-5.12, 5.12], (dim, 1))
            self.known_max = (np.zeros(dim), 0.0)
        elif name == "ackley":
            self.domain = np.tile([-32.768, 32.768], (dim, 1))
            self.known_max = (np.zeros(dim), 0.0)
        else:  # shekel4
            self.domain = np.tile([0.0, 10.0], (4, 1))
            self.known_max = (np.array([4.0, 4.0, 4.0, 4.0]), None)

    def sample(self, rng: RngState, n: int) -> np.ndarray:
        """n points drawn uniformly from the domain, one row each."""
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        return rng.uniform(0.0, 1.0, size=(n, self.dim)) * (hi - lo) + lo

    def _query(self, X) -> np.ndarray:
        """X as a 2-d f64 array whose rows have the oracle's dim."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.dim:
            raise NumericalError(f"query dim {X.shape[1]} != {self.dim}")
        return X

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = self._query(X)
        self.calls += X.shape[0]
        return self._value(X)

    def grad_batch(self, X: np.ndarray) -> np.ndarray:
        return self._grad(self._query(X))

    def _value(self, X):
        if self.name == "sphere":
            return -np.sum(X * X, axis=1)
        if self.name == "rastrigin":
            return -(
                10.0 * self.dim
                + np.sum(X * X - 10.0 * np.cos(2.0 * np.pi * X), axis=1)
            )
        if self.name == "ackley":
            a, b, c = 20.0, 0.2, 2.0 * np.pi
            s = np.sqrt(np.mean(X * X, axis=1))
            m = np.mean(np.cos(c * X), axis=1)
            return a * np.exp(-b * s) + np.exp(m) - a - np.e
        # shekel4 (already a maximization problem in this orientation)
        diff = X[:, None, :] - _SHEKEL_A[None, :, :]
        denom = _SHEKEL_C[None, :] + np.sum(diff * diff, axis=2)
        return np.sum(1.0 / denom, axis=1)

    def _grad(self, X):
        if self.name == "sphere":
            return -2.0 * X
        if self.name == "rastrigin":
            return -(2.0 * X + 20.0 * np.pi * np.sin(2.0 * np.pi * X))
        if self.name == "ackley":
            a, b, c = 20.0, 0.2, 2.0 * np.pi
            s = np.sqrt(np.mean(X * X, axis=1))
            m = np.mean(np.cos(c * X), axis=1)
            safe = np.where(s > 0.0, s, 1.0)
            term1 = np.where(
                s > 0.0, a * b * np.exp(-b * s) / (self.dim * safe), 0.0
            )[:, None] * X
            term2 = (np.exp(m) * c / self.dim)[:, None] * np.sin(c * X)
            return -term1 - term2
        diff = X[:, None, :] - _SHEKEL_A[None, :, :]
        denom = _SHEKEL_C[None, :] + np.sum(diff * diff, axis=2)
        return np.sum(-2.0 * diff / (denom**2)[:, :, None], axis=1)


@dataclass(frozen=True)
class BenchmarkInstance:
    oracle: Oracle
    full_data: OfflineDataset
    offline_subset: OfflineDataset
    y_bounds: tuple[float, float]


def make_benchmark(
    o: Oracle, rng: RngState, n_full: int = 8000, frac: float = 0.01
) -> BenchmarkInstance:
    """Uniform domain samples labeled by the oracle; subset = bottom fraction."""
    if n_full * frac < 2:
        raise DataError(f"n_full*frac = {n_full * frac} < 2")
    X = o.sample(rng, n_full)
    z = o.eval_batch(X)
    full = OfflineDataset(X, z)
    subset = select_bottom_fraction(full, frac)
    return BenchmarkInstance(o, full, subset, (float(z.min()), float(z.max())))


@dataclass(frozen=True)
class PipelineConfig:
    """One place for every knob a method run needs; defaults are the
    continuous-task settings."""

    sim: Sim4OptConfig = field(default_factory=Sim4OptConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    hidden: tuple[int, ...] = (512, 128, 32)
    slope: float = 0.01
    norm: str = sg.NORM_BATCH
    fit_gp: bool = True
    finetune_epochs: int = 20
    finetune_lr: float = 0.01
    finetune_batch: int = 128
    search_steps: int = 300
    search_gamma: float = 0.001
    top_k: int = 256
    n_candidates: int = 128
    supervised_epochs: int = 200  # GA baseline and diagnostics
    matchopt_epochs: int = 200
    batch_size: int = 128

    def __post_init__(self):
        sg.Architecture(1, self.hidden, self.slope, self.norm)
        least = {"finetune_epochs": 0, "search_steps": 0, "supervised_epochs": 0,
                 "matchopt_epochs": 0, "finetune_batch": 1, "batch_size": 1, "n_candidates": 1}
        for name, lo in least.items():
            if getattr(self, name) < lo:
                raise ValueError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if min(self.search_gamma, self.finetune_lr) <= 0:
            raise ValueError("search_gamma and finetune_lr must be positive, got "
                             f"{self.search_gamma} and {self.finetune_lr}")
        if self.top_k < self.n_candidates:
            raise ValueError(
                f"top_k ({self.top_k}) must be >= n_candidates ({self.n_candidates})"
            )


@dataclass(frozen=True)
class ScoreReport:
    method: str
    benchmark: str
    seed: int
    percentile100: float
    best_raw: float
    candidate_scores: np.ndarray


def _search_bounds(b: BenchmarkInstance, scaler: Scaler) -> np.ndarray:
    """Standardized bounding box of the full benchmark domain, expanded 10%."""
    lo = scaler.transform_x(b.oracle.domain[:, 0])
    hi = scaler.transform_x(b.oracle.domain[:, 1])
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    pad = 0.1 * (hi - lo)
    return np.stack([lo - pad, hi + pad], axis=1)


def _make_net(dim: int, cfg: PipelineConfig, rng: RngState) -> sg.SurrogateNet:
    arch = sg.Architecture(dim, cfg.hidden, cfg.slope, cfg.norm)
    return sg.init_net(arch, rng)


def _fit_base_params(ds: OfflineDataset, cfg: PipelineConfig) -> gp.KernelParams:
    base = cfg.sim.base_params.with_mean(float(ds.z.mean()))
    if not cfg.fit_gp:
        return base
    return gp.fit_hyperparams(ds, gp.default_grid(base))


EXPT_PARAM_RANGE = (0.1, 10.0)


def expt_style_generate(
    ds: OfflineDataset, cfg: PipelineConfig, rng: RngState
) -> list[SyntheticTask]:
    """Comparison generator: kernel params drawn log-uniform from the wide
    EXPT_PARAM_RANGE, the offline inputs labeled with that GP's posterior mean,
    and no evolution: each task is one trajectory, the n offline inputs sorted
    ascending by label, with states (1, n, d) and labels (1, n)."""
    lo, hi = EXPT_PARAM_RANGE
    tasks = []
    mean = float(ds.z.mean())
    for i in range(cfg.sim.n_functions):
        task_rng = rng.split(i)
        ell = float(np.exp(task_rng.uniform(np.log(lo), np.log(hi))))
        var = float(np.exp(task_rng.uniform(np.log(lo), np.log(hi))))
        params = gp.KernelParams(
            cfg.sim.base_params.family, ell, var, cfg.sim.base_params.noise_variance, mean
        )
        model = gp.posterior(ds, params)
        labels = gp.posterior_mean_batch(model, ds.X)
        order = np.argsort(labels, kind="stable")
        tasks.append(SyntheticTask(i, params, ds.X[order][None], labels[order][None]))
    return tasks


# The rng stream of each pipeline stage. RngState.split ignores the parent's
# state, so a stage's draws depend only on (seed, stream), and the chained CLI
# stages replay run_method exactly.
STREAM_NET, STREAM_BASELINE, STREAM_TASKS, STREAM_META, STREAM_FT, STREAM_CAND = range(1, 7)


def stage_gen_tasks(
    std_ds: OfflineDataset, cfg: PipelineConfig, seed: int, random_gen: bool = False
) -> list[SyntheticTask]:
    """Sim4Opt tasks around the fitted base GP, or the comparison generator's."""
    rng = RngState(seed).split(STREAM_TASKS)
    if random_gen:
        return expt_style_generate(std_ds, cfg, rng)
    sim_cfg = replace(cfg.sim, base_params=_fit_base_params(std_ds, cfg))
    return generate_tasks(std_ds, sim_cfg, rng)


def stage_meta_train(
    dim: int, tasks: list[SyntheticTask], cfg: PipelineConfig, seed: int
) -> tuple[sg.SurrogateNet, TrainStats]:
    """A fresh surrogate, meta-trained on the tasks (pretrained at inner_lr 0)."""
    net = _make_net(dim, cfg, RngState(seed).split(STREAM_NET))
    return net, meta_train(net, tasks, cfg.meta, RngState(seed).split(STREAM_META))


BASELINE_LR = 1e-3  # the fine-tune lr of ga and matchopt


def stage_finetune(
    net, std_ds: OfflineDataset, cfg: PipelineConfig, seed: int, method: str = "optbias"
):
    """Train net in place on the offline data with the method's recipe: ga fits
    squared error; matchopt warms the norm statistics once on the offline
    inputs, then matches gradients; the optbias methods match gradients with
    the [finetune] settings."""
    mode = None if method == "ga" else cfg.meta.integral_mode
    if method not in ("ga", "matchopt"):
        return finetune(net, std_ds, cfg.finetune_epochs, RngState(seed).split(STREAM_FT),
                        cfg.finetune_lr, cfg.finetune_batch, mode)
    if method == "matchopt":
        sg.forward(net, std_ds.X, train=True)
    epochs = cfg.supervised_epochs if method == "ga" else cfg.matchopt_epochs
    return finetune(net, std_ds, epochs, RngState(seed).split(STREAM_BASELINE), BASELINE_LR,
                    cfg.batch_size, mode)


def stage_search(
    net, std_ds: OfflineDataset, cfg: PipelineConfig, seed: int,
    bounds: np.ndarray | None = None,
) -> CandidateSet:
    """Candidates from the offline pool, ascended on the surrogate; designs
    stay in standardized units."""
    cands = init_candidates(
        net, std_ds, RngState(seed).split(STREAM_CAND), cfg.top_k, cfg.n_candidates
    )
    return gradient_search(net, cands, cfg.search_gamma, cfg.search_steps, bounds)


def run_method(
    method: str, b: BenchmarkInstance, cfg: PipelineConfig, seed: int
) -> ScoreReport:
    """Execute a full pipeline for one method on the offline subset only; the
    oracle is queried solely to score the final candidates."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    std_ds, scaler = standardize(b.offline_subset)
    if method in ("ga", "matchopt"):
        net = _make_net(std_ds.dim, cfg, RngState(seed).split(STREAM_NET))
    else:
        if method == "optbias_pretrain":
            cfg = replace(cfg, meta=replace(cfg.meta, inner_lr=0.0))
        tasks = stage_gen_tasks(std_ds, cfg, seed, random_gen=method == "optbias_random_gen")
        net, _ = stage_meta_train(std_ds.dim, tasks, cfg, seed)
    stage_finetune(net, std_ds, cfg, seed, method)
    final = stage_search(net, std_ds, cfg, seed, _search_bounds(b, scaler))
    raw = scaler.inverse_x(final.designs)
    values = b.oracle.eval_batch(raw)
    scores = normalized_score(values, *b.y_bounds)
    return ScoreReport(
        method=method,
        benchmark=b.oracle.name,
        seed=seed,
        percentile100=float(scores.max()),
        best_raw=float(values.max()),
        candidate_scores=scores,
    )


def grad_error_curve(
    o: Oracle, fractions: list[float], cfg: PipelineConfig, seeds: list[int],
    n_train: int = 8000, n_test: int = 2000
):
    """Mean L2 gradient-estimation error of a supervised surrogate vs training
    fraction. Rows: (fraction, mean_grad_error, std) aggregated over seeds."""
    if not fractions:
        raise ConfigError("fraction list is empty")
    if any(not (0.0 < f <= 1.0) for f in fractions):
        raise ConfigError(f"fractions must be in (0, 1]: {fractions}")
    errs = {f: [] for f in fractions}
    for seed in seeds:
        rng = RngState(seed)
        X_train = o.sample(rng, n_train)
        z_train = o.eval_batch(X_train)
        X_test = o.sample(rng, n_test)
        g_true = o.grad_batch(X_test)
        for fi, f in enumerate(fractions):
            k = max(2, int(round(f * n_train)))
            idx = np.sort(rng.choice(n_train, k))
            sub = OfflineDataset(X_train[idx], z_train[idx])
            std_ds, scaler = standardize(sub)
            net = _make_net(o.dim, cfg, rng.split(1000 + fi))
            finetune(net, std_ds, cfg.supervised_epochs, rng, lr=BASELINE_LR,
                     batch_size=cfg.batch_size, mode=None)
            g_hat = sg.input_grad_batch(net, scaler.transform_x(X_test))
            # map the gradient back to raw input/output units
            g_hat = g_hat * (scaler.z_std / scaler.std)[None, :]
            errs[f].append(float(np.mean(np.linalg.norm(g_hat - g_true, axis=1))))
    return [(f, float(np.mean(errs[f])), float(np.std(errs[f]))) for f in fractions]


def pseudo_value_distribution(
    tasks: list[SyntheticTask],
    o: Oracle,
    scaler: Scaler,
    subset_max_raw: float,
    y_bounds: tuple[float, float],
    bins: int = 30,
):
    """Oracle-value histogram of each trajectory's top pseudo-label design.

    Returns (bin_edges, counts, exceed_fraction) where exceed_fraction is the
    share of designs whose true value beats the offline subset's best.
    """
    if not tasks:
        raise NumericalError("no tasks")
    # trajectories are sorted ascending: the last state holds the top label
    raw = scaler.inverse_x(np.concatenate([t.states[:, -1] for t in tasks]))
    values = o.eval_batch(raw)
    y_min, y_max = y_bounds
    hi = y_max + 0.1 * (y_max - y_min)
    edges = np.linspace(y_min, hi, bins + 1)
    clipped = np.clip(values, y_min, hi)
    counts, _ = np.histogram(clipped, bins=edges)
    exceed = float(np.mean(values > subset_max_raw))
    return edges, counts, exceed


def summarize(labels: list[str], p100: np.ndarray):
    """The summary of a [variant, oracle, seed] array of percentile100 scores:
    the labels in sorted order, then in their order the mean and population std
    over seeds [label, oracle], the per-oracle average ranks (ties share the
    mean rank) and each label's mean rank over oracles."""
    from scipy.stats import rankdata  # here, not at the top: scipy.stats is slow to import

    order = sorted(range(len(labels)), key=labels.__getitem__)
    p100 = p100[order]
    mean = p100.mean(axis=2)
    rank = rankdata(-mean, axis=0, method="average")
    return [labels[i] for i in order], mean, p100.std(axis=2), rank, rank.mean(axis=1)
