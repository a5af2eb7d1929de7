"""Synthetic task generation: sample perturbed kernel parameters, fit a GP
posterior on the standardized offline data, walk every offline input down and
up the posterior-mean (or UCB) field, and pseudo-label all visited states.

Each offline start point yields one trajectory assembled as
[reversed descent states | start | ascent states] (length 2M+1), then sorted
ascending by pseudo-label so consecutive pairs always have dz >= 0. Each task
also exposes the flat per-function dataset sorted the same way.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import gp
from .dataio import OfflineDataset
from .errors import DataError, NumericalError
from .numerics import RngState

DIVERGENCE_LIMIT = 1e6
MAX_TASK_RETRIES = 3


class InvalidDelta(NumericalError):
    pass


class NonFiniteState(NumericalError):
    pass


class TaskGenerationFailed(NumericalError):
    pass


class EmptyTask(NumericalError):
    pass


MODE_MEAN = "posterior_mean"
MODE_UCB = "ucb"


@dataclass(frozen=True)
class Sim4OptConfig:
    n_functions: int = 128
    evolve_steps: int = 100
    step_size: float = 0.05
    delta_frac: float = 0.5
    evolution_mode: str = MODE_MEAN
    ucb_beta: float = 2.0
    base_params: gp.KernelParams = field(default_factory=gp.KernelParams)
    start_subsample: int | None = None  # cap on start points; None = all

    def __post_init__(self):
        if self.n_functions < 1 or self.evolve_steps < 1:
            raise ValueError("n_functions and evolve_steps must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not (0.0 <= self.delta_frac < 1.0):
            raise InvalidDelta(f"delta_frac must be in [0, 1), got {self.delta_frac}")
        if self.evolution_mode not in (MODE_MEAN, MODE_UCB):
            raise ValueError(f"unknown evolution mode {self.evolution_mode!r}")


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # kappa x d
    labels: np.ndarray  # kappa, nondecreasing


@dataclass(frozen=True)
class SyntheticTask:
    task_id: int
    params: gp.KernelParams
    trajectories: tuple[Trajectory, ...]
    flat_X: np.ndarray  # all states sorted ascending by label
    flat_z: np.ndarray

    @property
    def kappa(self) -> int:
        return self.trajectories[0].states.shape[0]


def sample_task_params(
    base: gp.KernelParams, delta_frac: float, rng: RngState
) -> gp.KernelParams:
    """Lengthscale and signal variance drawn uniformly from base*(1 +/- delta)."""
    if not (0.0 <= delta_frac < 1.0):
        raise InvalidDelta(f"delta_frac must be in [0, 1), got {delta_frac}")
    ell = rng.uniform(base.lengthscale * (1 - delta_frac), base.lengthscale * (1 + delta_frac))
    var = rng.uniform(
        base.signal_variance * (1 - delta_frac), base.signal_variance * (1 + delta_frac)
    )
    return replace(base, lengthscale=float(ell), signal_variance=float(var))


def _field_value(g: gp.GpModel, X: np.ndarray, mode: str, beta: float) -> np.ndarray:
    if mode == MODE_UCB:
        return gp.ucb_batch(g, X, beta)
    return gp.posterior_mean_batch(g, X)


def _field_grad(g: gp.GpModel, X: np.ndarray, mode: str, beta: float) -> np.ndarray:
    if mode == MODE_UCB:
        return gp.ucb_grad_batch(g, X, beta)
    return gp.posterior_mean_grad_batch(g, X)


def evolve(
    g: gp.GpModel,
    X0: np.ndarray,
    sign: int,
    steps: int,
    step_size: float,
    mode: str = MODE_MEAN,
    beta: float = 0.0,
) -> list[np.ndarray]:
    """Fixed-step gradient evolution; returns the M intermediate batches in order."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    X = np.atleast_2d(np.asarray(X0, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("X0 is empty")
    out = []
    for _ in range(steps):
        X = X + sign * step_size * _field_grad(g, X, mode, beta)
        if not np.isfinite(X).all() or np.abs(X).max() > DIVERGENCE_LIMIT:
            raise NonFiniteState("evolution diverged beyond the guard radius")
        out.append(X)
    return out


def _generate_one(ds: OfflineDataset, cfg: Sim4OptConfig, params: gp.KernelParams, task_id: int):
    model = gp.posterior(ds, params)
    starts = ds.X
    desc = evolve(model, starts, -1, cfg.evolve_steps, cfg.step_size, cfg.evolution_mode, cfg.ucb_beta)
    asc = evolve(model, starts, +1, cfg.evolve_steps, cfg.step_size, cfg.evolution_mode, cfg.ucb_beta)
    # states per start: [descent reversed | start | ascent], length 2M+1
    stacks = desc[::-1] + [starts] + asc
    all_states = np.stack(stacks, axis=1)  # n_starts x kappa x d
    n_starts, kappa, d = all_states.shape
    labels = _field_value(
        model, all_states.reshape(-1, d), cfg.evolution_mode, cfg.ucb_beta
    ).reshape(n_starts, kappa)
    trajectories = []
    for i in range(n_starts):
        order = np.argsort(labels[i], kind="stable")
        trajectories.append(Trajectory(all_states[i][order], labels[i][order]))
    flat_z = labels.ravel()
    flat_order = np.argsort(flat_z, kind="stable")
    flat_X = all_states.reshape(-1, d)[flat_order]
    return SyntheticTask(task_id, params, tuple(trajectories), flat_X, flat_z[flat_order])


def generate_tasks(
    ds: OfflineDataset, cfg: Sim4OptConfig, rng: RngState
) -> list[SyntheticTask]:
    """Run the full generator: one task per sampled parameter draw.

    A diverged task is regenerated with a fresh parameter draw (same per-task
    stream), at most MAX_TASK_RETRIES times.
    """
    if ds.n < 2:
        raise EmptyTask(f"need at least 2 offline points, got {ds.n}")
    tasks = []
    for i in range(cfg.n_functions):
        task_rng = rng.split(i)
        if cfg.start_subsample is not None and cfg.start_subsample < ds.n:
            idx = np.sort(task_rng.choice(ds.n, cfg.start_subsample))
            sub = OfflineDataset(ds.X[idx], ds.z[idx], ds.names)
        else:
            sub = ds
        last_err = None
        for _attempt in range(1 + MAX_TASK_RETRIES):
            params = sample_task_params(cfg.base_params, cfg.delta_frac, task_rng)
            try:
                tasks.append(_generate_one(sub, cfg, params, i))
                break
            except NumericalError as exc:
                last_err = exc
        else:
            raise TaskGenerationFailed(
                f"task {i} failed after {MAX_TASK_RETRIES} retries: {last_err}"
            )
    return tasks


def build_pairs(t: SyntheticTask, rng: RngState, count: int):
    """Uniformly sampled consecutive pairs from sorted trajectories; dz >= 0.

    Returns (starts, ends, dz) arrays suitable for a PairBatch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not t.trajectories:
        raise EmptyTask(f"task {t.task_id} has no trajectories")
    kappa = t.kappa
    if kappa < 2:
        # degenerate length-1 trajectories: pair over the flat sorted set
        n = t.flat_z.shape[0]
        if n < 2:
            raise EmptyTask(f"task {t.task_id} has fewer than 2 states")
        r = rng.integers(n - 1, size=count)
        return t.flat_X[r], t.flat_X[r + 1], t.flat_z[r + 1] - t.flat_z[r]
    ti = rng.integers(len(t.trajectories), size=count)
    r = rng.integers(kappa - 1, size=count)
    starts = np.empty((count, t.flat_X.shape[1]))
    ends = np.empty_like(starts)
    dz = np.empty(count)
    for b in range(count):
        traj = t.trajectories[ti[b]]
        starts[b] = traj.states[r[b]]
        ends[b] = traj.states[r[b] + 1]
        dz[b] = traj.labels[r[b] + 1] - traj.labels[r[b]]
    return starts, ends, dz


BUNDLE_VERSION = 2
# The digest covers every byte of the file, its own 64 hex digits read as
# zeros. Keys are sorted, so only "shape" (integers), "states" (base64) and
# "version" follow the top-level "sha256" key, and none of them can contain
# it: that key is the last match in the file, whatever the config holds.
_SHA_KEY = b'"sha256":"'
_SHA_ZEROS = b"0" * 64


def _sha_offset(data: bytes) -> int:
    at = data.rfind(_SHA_KEY)
    return -1 if at < 0 else at + len(_SHA_KEY)


def _file_digest(data: bytes, at: int) -> str:
    view = memoryview(data)
    h = hashlib.sha256(view[:at])
    h.update(_SHA_ZEROS)
    h.update(view[at + len(_SHA_ZEROS):])
    return h.hexdigest()


def save_bundle(tasks: list[SyntheticTask], path, config: dict | None = None) -> None:
    """Write a version-2 bundle: one JSON document (sorted keys) holding the
    per-task params, ``shape = [K, T, kappa, d]``, all states and labels as
    base64 blocks of little-endian f64, and a sha256 of the whole file.

    Raises ValueError when the tasks do not share one (T, kappa, d) shape.
    """
    if not tasks:
        raise ValueError("cannot save an empty task list")
    try:
        states = np.stack([np.stack([tr.states for tr in t.trajectories]) for t in tasks])
        labels = np.stack([np.stack([tr.labels for tr in t.trajectories]) for t in tasks])
    except ValueError as exc:
        raise ValueError(f"tasks must share one (T, kappa, d) shape: {exc}") from None
    if states.ndim != 4 or labels.shape != states.shape[:3]:
        raise ValueError(
            f"states {states.shape} and labels {labels.shape} are not (K, T, kappa, d) "
            "and (K, T, kappa)"
        )
    doc = {
        "version": BUNDLE_VERSION,
        "config": config or {},
        "params": [{"task_id": t.task_id, **asdict(t.params)} for t in tasks],
        "shape": list(states.shape),
        "states": base64.b64encode(states.astype("<f8", copy=False).tobytes()).decode("ascii"),
        "labels": base64.b64encode(labels.astype("<f8", copy=False).tobytes()).decode("ascii"),
        "sha256": _SHA_ZEROS.decode("ascii"),
    }
    data = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
    at = _sha_offset(data)
    with open(path, "wb") as fh:
        fh.write(memoryview(data)[:at])
        fh.write(_file_digest(data, at).encode("ascii"))
        fh.write(memoryview(data)[at + len(_SHA_ZEROS):])


def _decode_block(b64: str, shape: tuple[int, ...]) -> np.ndarray:
    raw = base64.b64decode(b64, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise DataError(f"{len(raw)} bytes do not hold a {shape} f64 block")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_bundle(path) -> list[SyntheticTask]:
    """Read a bundle written by save_bundle; tasks are views of two arrays.

    Raises TaskGenerationFailed for another bundle version and DataError for
    a malformed file or one whose sha256 does not match its bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except ValueError as exc:
        raise DataError(f"{path}: not a task bundle ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a task bundle")
    if doc.get("version") != BUNDLE_VERSION:
        raise TaskGenerationFailed(
            f"{path}: bundle version {doc.get('version')!r}, expected {BUNDLE_VERSION}; "
            "rerun gen-tasks to rewrite it"
        )
    at = _sha_offset(data)
    if at < 0 or data[at : at + len(_SHA_ZEROS)] != _file_digest(data, at).encode("ascii"):
        raise DataError(f"{path}: bundle checksum mismatch")
    del data
    try:
        K, T, kappa, d = (int(v) for v in doc["shape"])
        states = _decode_block(doc["states"], (K, T, kappa, d))
        labels = _decode_block(doc["labels"], (K, T, kappa))
        names = [f.name for f in fields(gp.KernelParams)]
        params = [
            (rec["task_id"], gp.KernelParams(**{n: rec[n] for n in names}))
            for rec in doc["params"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed task bundle ({exc!r})") from None
    if len(params) != K:
        raise DataError(f"{path}: {len(params)} params records for {K} tasks")
    tasks = []
    for k, (task_id, p) in enumerate(params):
        trajs = tuple(Trajectory(states[k, t], labels[k, t]) for t in range(T))
        flat_z = labels[k].reshape(-1)
        order = np.argsort(flat_z, kind="stable")
        tasks.append(
            SyntheticTask(task_id, p, trajs, states[k].reshape(-1, d)[order], flat_z[order])
        )
    return tasks
