"""Synthetic task generation: sample perturbed kernel parameters, fit a GP
posterior on the standardized offline data, walk every offline input down and
up the posterior-mean (or UCB) field, and pseudo-label all visited states.

Each offline start point yields one trajectory assembled as
[reversed descent states | start | ascent states] (length 2M+1), then sorted
ascending by pseudo-label so consecutive pairs always have dz >= 0. A task
holds its trajectories as dense (T, kappa, d) states and (T, kappa) labels.
Tasks are walked in chunks, all starts, directions and tasks of a chunk at
once. Training pairs are drawn the same way from every task, including the
comparison generator's, whose one trajectory is the offline inputs sorted
by label; a task with kappa < 2 has no pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain

import numpy as np

from . import gp
from .dataio import OfflineDataset, read_sealed, write_sealed
from .errors import DataError, NumericalError
from .numerics import RngState, cholesky_solve

DIVERGENCE_LIMIT = 1e6
MAX_TASK_RETRIES = 3


MODE_MEAN = "posterior_mean"
MODE_UCB = "ucb"

# Budget for one (c, 2, n, n) f64 kernel block: generate_tasks evolves tasks
# in chunks of c so that the block and its few same-sized temporaries stay in
# cache.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class Sim4OptConfig:
    n_functions: int = 128
    evolve_steps: int = 100
    step_size: float = 0.05
    delta_frac: float = 0.5
    evolution_mode: str = MODE_MEAN
    ucb_beta: float = 2.0
    base_params: gp.KernelParams = field(default_factory=gp.KernelParams)

    def __post_init__(self):
        if self.n_functions < 1 or self.evolve_steps < 1:
            raise ValueError("n_functions and evolve_steps must be >= 1")
        if self.step_size <= 0 or self.ucb_beta < 0:
            raise ValueError("step_size must be positive and ucb_beta non-negative")
        if not (0.0 <= self.delta_frac < 1.0):
            raise ValueError(f"delta_frac must be in [0, 1), got {self.delta_frac}")
        if self.evolution_mode not in (MODE_MEAN, MODE_UCB):
            raise ValueError(f"unknown evolution mode {self.evolution_mode!r}")


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # kappa x d
    labels: np.ndarray  # kappa, nondecreasing


@dataclass(frozen=True)
class SyntheticTask:
    """T trajectories of kappa states, each sorted ascending by pseudo-label.

    ``trajectories`` are views of the dense blocks unless given. ``flat_X``
    and ``flat_z`` are all states sorted ascending by label (stable),
    computed on each access.
    """

    task_id: int
    params: gp.KernelParams
    states: np.ndarray  # T x kappa x d
    labels: np.ndarray  # T x kappa, each row nondecreasing
    trajectories: tuple[Trajectory, ...] | None = None

    def __post_init__(self):
        if self.trajectories is None:
            trajs = tuple(map(Trajectory, self.states, self.labels))
            object.__setattr__(self, "trajectories", trajs)

    @property
    def kappa(self) -> int:
        return self.states.shape[1]

    @property
    def flat_z(self) -> np.ndarray:
        return np.sort(self.labels, axis=None, kind="stable")

    @property
    def flat_X(self) -> np.ndarray:
        order = np.argsort(self.labels, axis=None, kind="stable")
        return self.states.reshape(-1, self.states.shape[-1])[order]


def sample_task_params(
    base: gp.KernelParams, delta_frac: float, rng: RngState
) -> gp.KernelParams:
    """Lengthscale and signal variance drawn uniformly from base*(1 +/- delta)."""
    if not (0.0 <= delta_frac < 1.0):
        raise ValueError(f"delta_frac must be in [0, 1), got {delta_frac}")
    ell = rng.uniform(base.lengthscale * (1 - delta_frac), base.lengthscale * (1 + delta_frac))
    var = rng.uniform(
        base.signal_variance * (1 - delta_frac), base.signal_variance * (1 + delta_frac)
    )
    return replace(base, lengthscale=float(ell), signal_variance=float(var))


def evolve(
    models: list[gp.GpModel],
    X0: np.ndarray,
    steps: int,
    step_size: float,
    mode: str = MODE_MEAN,
    beta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step gradient walk of X0 down and up the field of every model.

    The c models share their training inputs. All walks move as one
    (c, 2, n, d) block, descent first. Each step computes one kernel block,
    uses it for the labels of the current states (the field value: posterior
    mean, or UCB) and then, in place, for the step's gradient. The block and
    the scratch for its cross term are allocated once per call, and an RBF
    kernel is computed in the distances' buffer.

    Returns states (c, n, 2M+1, d) and labels (c, n, 2M+1), each start's walk
    laid out [descent reversed | start | ascent], and a (c,) mask of the
    models whose walk left the guard radius; their rows are not meaningful.
    The records are transposed views of step-major (2M+1, c, n, ...) buffers,
    so that each step stores two contiguous blocks.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    X0 = np.atleast_2d(np.asarray(X0, dtype=np.float64))
    if X0.shape[0] == 0:
        raise ValueError("X0 is empty")
    n, d = X0.shape
    c, M = len(models), steps
    family, X_train = models[0].params.family, models[0].X_train
    h = gp._stacked_hyper([m.params for m in models], ndim=4)
    alpha = np.stack([m.alpha for m in models])[:, None, None, :]  # c x 1 x 1 x n_train
    mean = np.array([m.params.mean for m in models])[:, None, None]
    ucb = mode == MODE_UCB
    # (c, 2, n, d) rather than (c, 2n, d): every matmul then sees the n-row
    # operands of one walk, as a per-task gp call does. OpenBLAS rounds the
    # rows past the last multiple of 4 differently, so a 2n-row product would
    # move the last bit of some states and labels.
    start = np.stack([X0, X0])
    signed_step = np.array([-step_size, step_size])[:, None, None]
    X = np.repeat(start[None], c, axis=0)
    states = np.empty((2 * M + 1, c, n, d))
    labels = np.empty((2 * M + 1, c, n))
    block, work = np.empty((2, c, 2, n, X_train.shape[0]))
    diverged = np.zeros(c, dtype=bool)
    for t in range(M + 1):
        d2 = gp._sqdist(X, X_train, out=block, work=work)
        K, matern = gp._kernel_from_sqdist(family, d2, h)
        z = mean + (K @ alpha.swapaxes(-1, -2))[..., 0]
        if ucb:
            rows = K.reshape(c, 2 * n, -1)
            C = [cholesky_solve(m.chol_L, Ki.T) for m, Ki in zip(models, rows)]
            var = np.stack([gp._clamped_var(m.params.signal_variance, Ki, Ci)
                            for m, Ki, Ci in zip(models, rows, C)]).reshape(c, 2, n)
            z += beta * np.sqrt(var)
        states[M - t], states[M + t] = X[:, 0], X[:, 1]
        labels[M - t], labels[M + t] = z[:, 0], z[:, 1]
        if t == M:
            break
        W = gp._grad_weights(family, K, matern, h)
        if ucb:
            WC = np.stack([Wi * Ci.T.reshape(2, n, -1) for Wi, Ci in zip(W, C)])
            gvar = -2.0 * gp._grad_from_weights(X, WC, X_train)
        W *= alpha
        grad = gp._grad_from_weights(X, W, X_train)
        if ucb:
            grad += gp._ucb_scale(var, beta)[..., None] * gvar
        X = X + signed_step * grad
        walk_axes = (1, 2, 3)
        bad = ~np.isfinite(X).all(axis=walk_axes) | (
            np.abs(X).max(axis=walk_axes) > DIVERGENCE_LIMIT)
        if bad.any():
            diverged |= bad
            X[diverged] = start  # keep the block finite; these rows are discarded
    return states.transpose(1, 2, 0, 3), labels.transpose(1, 2, 0), diverged


def generate_tasks(
    ds: OfflineDataset, cfg: Sim4OptConfig, rng: RngState
) -> list[SyntheticTask]:
    """Run the full generator: one task per sampled parameter draw.

    Tasks evolve in chunks. A task whose posterior fit fails or whose walk
    diverges is regenerated with a fresh parameter draw from its own stream,
    at most MAX_TASK_RETRIES times.
    """
    if ds.n < 2:
        raise DataError(f"need at least 2 offline points, got {ds.n}")
    n_tasks = cfg.n_functions
    rngs = [rng.split(i) for i in range(n_tasks)]
    tasks: list[SyntheticTask | None] = [None] * n_tasks
    errors: list[Exception | None] = [None] * n_tasks
    chunk = max(1, CHUNK_BYTES // (2 * ds.n * ds.n * 8))
    pending = list(range(n_tasks))
    for _attempt in range(1 + MAX_TASK_RETRIES):
        for lo in range(0, len(pending), chunk):
            fitted = []
            for i in pending[lo : lo + chunk]:
                params = sample_task_params(cfg.base_params, cfg.delta_frac, rngs[i])
                try:
                    fitted.append((i, gp.posterior(ds, params)))
                except NumericalError as exc:
                    errors[i] = exc
            if not fitted:
                continue
            states, labels, diverged = evolve(
                [m for _, m in fitted], ds.X, cfg.evolve_steps, cfg.step_size,
                cfg.evolution_mode, cfg.ucb_beta,
            )
            # sort each walk by label with one flat gather from the step-major buffers
            c, n, _ = labels.shape
            flat = (np.argsort(labels, axis=-1, kind="stable") * (c * n)
                    + np.arange(c * n).reshape(c, n, 1))
            labels = np.take(labels.transpose(2, 0, 1), flat)
            states = np.take(states.transpose(2, 0, 1, 3).reshape(-1, ds.dim), flat, axis=0)
            for j, (i, model) in enumerate(fitted):
                if diverged[j]:
                    errors[i] = NumericalError("evolution diverged beyond the guard radius")
                else:
                    tasks[i] = SyntheticTask(i, model.params, states[j], labels[j])
        pending = [i for i in pending if tasks[i] is None]
        if not pending:
            return tasks
    i = pending[0]
    raise NumericalError(f"task {i} failed after {MAX_TASK_RETRIES} retries: {errors[i]}")


def build_pairs(t: SyntheticTask, rng: RngState, count: int):
    """Uniformly sampled consecutive pairs from sorted trajectories; dz >= 0.

    Returns (starts, ends, dz) arrays suitable for a PairBatch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if t.labels.size == 0 or t.kappa < 2:
        raise NumericalError(f"task {t.task_id} has no trajectory of 2 or more states")
    ti = rng.integers(t.labels.shape[0], size=count)
    r = rng.integers(t.kappa - 1, size=count)
    return t.states[ti, r], t.states[ti, r + 1], t.labels[ti, r + 1] - t.labels[ti, r]


BUNDLE_MAGIC = b"OBTB"
BUNDLE_VERSION = 3
_RETIRED = (b"{", "a JSON task bundle from before version 3; rerun gen-tasks to rewrite it")


def save_bundle(tasks: list[SyntheticTask], path, config: dict | None = None) -> None:
    """Write a version-3 bundle (dataio.write_sealed): a header of the ``config``
    snapshot, one ``params`` record per task and ``shape = [K, T, kappa, d]``, then
    every task's labels and every task's states, straight from the task arrays."""
    shape = tasks[0].states.shape if tasks else ()
    if len(shape) != 3 or any(t.states.shape != shape or t.labels.shape != shape[:2]
                              for t in tasks):
        raise ValueError(f"cannot save an empty task list or tasks of unequal shapes: {shape}")
    header = {"config": config or {}, "shape": [len(tasks), *shape],
              "params": [{"task_id": t.task_id, **asdict(t.params)} for t in tasks]}
    write_sealed(path, BUNDLE_MAGIC, BUNDLE_VERSION, header,
                 chain((t.labels for t in tasks), (t.states for t in tasks)))


def load_bundle(path) -> list[SyntheticTask]:
    """Read a bundle written by save_bundle; tasks are views of the one payload
    array. Raises NumericalError for a JSON bundle or another version and
    DataError for a malformed file or one whose sha256 does not match its bytes."""
    header, values = read_sealed(path, BUNDLE_MAGIC, BUNDLE_VERSION, "task bundle", _RETIRED)
    try:
        K, T, kappa, d = (int(v) for v in header["shape"])
        names = [f.name for f in fields(gp.KernelParams)]
        params = [(rec["task_id"], gp.KernelParams(**{n: rec[n] for n in names}))
                  for rec in header["params"]]
        if values.size != K * T * kappa * (d + 1) or len(params) != K:
            raise ValueError(f"{len(params)} params records and {8 * values.size} bytes "
                             f"do not hold shape {[K, T, kappa, d]}")
        labels = values[: K * T * kappa].reshape(K, T, kappa)
        states = values[K * T * kappa :].reshape(K, T, kappa, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed task bundle ({exc!r})") from None
    return [SyntheticTask(task_id, p, states[k], labels[k])
            for k, (task_id, p) in enumerate(params)]
