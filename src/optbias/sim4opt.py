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

import binascii
import hashlib
import io
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain, pairwise

import numpy as np

from . import gp
from .dataio import OfflineDataset
from .errors import DataError, NumericalError
from .numerics import RngState, cholesky_solve

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
            raise InvalidDelta(f"delta_frac must be in [0, 1), got {self.delta_frac}")
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
        raise InvalidDelta(f"delta_frac must be in [0, 1), got {delta_frac}")
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
    mean, or UCB) and then, in place, for the step's gradient.

    Returns states (c, n, 2M+1, d) and labels (c, n, 2M+1), each start's walk
    laid out [descent reversed | start | ascent], and a (c,) mask of the
    models whose walk left the guard radius; their rows are not meaningful.
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
    states = np.empty((c, n, 2 * M + 1, d))
    labels = np.empty((c, n, 2 * M + 1))
    diverged = np.zeros(c, dtype=bool)
    for t in range(M + 1):
        d2 = gp._sqdist(X, X_train)
        K = gp._kernel_from_sqdist(family, d2, h)
        z = mean + (K @ alpha.swapaxes(-1, -2))[..., 0]
        if ucb:
            rows = K.reshape(c, 2 * n, -1)
            C = [cholesky_solve(m.chol_L, Ki.T) for m, Ki in zip(models, rows)]
            var = np.stack([gp._clamped_var(m.params.signal_variance, Ki, Ci)
                            for m, Ki, Ci in zip(models, rows, C)]).reshape(c, 2, n)
            z += beta * np.sqrt(var)
        states[:, :, M - t], states[:, :, M + t] = X[:, 0], X[:, 1]
        labels[:, :, M - t], labels[:, :, M + t] = z[:, 0], z[:, 1]
        if t == M:
            break
        W = gp._grad_weights(family, K, d2, h)
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
    return states, labels, diverged


def generate_tasks(
    ds: OfflineDataset, cfg: Sim4OptConfig, rng: RngState
) -> list[SyntheticTask]:
    """Run the full generator: one task per sampled parameter draw.

    Tasks evolve in chunks. A task whose posterior fit fails or whose walk
    diverges is regenerated with a fresh parameter draw from its own stream,
    at most MAX_TASK_RETRIES times.
    """
    if ds.n < 2:
        raise EmptyTask(f"need at least 2 offline points, got {ds.n}")
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
            order = np.argsort(labels, axis=-1, kind="stable")
            labels = np.take_along_axis(labels, order, axis=-1)
            states = np.take_along_axis(states, order[..., None], axis=-2)
            for j, (i, model) in enumerate(fitted):
                if diverged[j]:
                    errors[i] = NonFiniteState("evolution diverged beyond the guard radius")
                else:
                    tasks[i] = SyntheticTask(i, model.params, states[j], labels[j])
        pending = [i for i in pending if tasks[i] is None]
        if not pending:
            return tasks
    i = pending[0]
    raise TaskGenerationFailed(f"task {i} failed after {MAX_TASK_RETRIES} retries: {errors[i]}")


def build_pairs(t: SyntheticTask, rng: RngState, count: int):
    """Uniformly sampled consecutive pairs from sorted trajectories; dz >= 0.

    Returns (starts, ends, dz) arrays suitable for a PairBatch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if t.labels.size == 0 or t.kappa < 2:
        raise EmptyTask(f"task {t.task_id} has no trajectory of 2 or more states")
    ti = rng.integers(t.labels.shape[0], size=count)
    r = rng.integers(t.kappa - 1, size=count)
    return t.states[ti, r], t.states[ti, r + 1], t.labels[ti, r + 1] - t.labels[ti, r]


BUNDLE_VERSION = 2
_SHA_ZEROS = b"0" * 64
_B64_BLOCK = 3 << 16  # raw bytes per base64 block; a multiple of 3, so blocks concatenate


def _spans(fh) -> list[tuple[int, int] | None]:
    """(start, end) of the top-level "labels", "sha256" and "states" string values in ``fh``,
    or None, read backwards a block at a time. Keys are sorted, and no value after one of
    these keys can hold its '"key":"' text: the last match before the next key's is it."""
    spans, stop, step = [], fh.seek(0, 2), _B64_BLOCK // 3 * 4
    for key in (b'"states":"', b'"sha256":"', b'"labels":"'):
        at, quote, hi, over = -1, -1, stop, len(key) - 1  # quote: the first '"' from hi + over
        while at < 0 and hi > 0:
            lo = max(hi - step, 0)
            fh.seek(lo)
            buf = fh.read(hi + over - lo)  # and the next block's head: keys cross cuts
            at = buf.rfind(key, 0, min(hi + over, stop) - lo)
            q = buf.find(b'"', over if at < 0 else at + len(key))
            at, quote, hi = (at if at < 0 else lo + at), (quote if q < 0 else lo + q), lo
        spans.insert(0, None if min(at, quote) < 0 else (at + len(key), quote))
        stop = stop if at < 0 else at
    return spans


def _b64_blocks(arrays):
    """Base64 of the f64 bytes of ``arrays`` laid end to end, block by block."""
    rest = b""
    for a in arrays:
        raw = memoryview(np.ascontiguousarray(a, dtype="<f8")).cast("B")
        for lo in range(0, len(raw), _B64_BLOCK):
            block = rest + raw[lo : lo + _B64_BLOCK]
            rest = block[len(block) // 3 * 3 :]
            yield binascii.b2a_base64(memoryview(block)[: len(block) - len(rest)], newline=False)
    yield binascii.b2a_base64(rest, newline=False)


def save_bundle(tasks: list[SyntheticTask], path, config: dict | None = None) -> None:
    """Write a version-2 bundle: one sorted-key JSON document of the per-task params,
    ``shape = [K, T, kappa, d]``, all labels and states as base64 of little-endian
    f64 (encoded and hashed block by block), and the sha256 of the file with its
    own 64 hex digits as zeros."""
    shape = tasks[0].states.shape if tasks else ()
    if len(shape) != 3 or any(t.states.shape != shape or t.labels.shape != shape[:2]
                              for t in tasks):
        raise ValueError(f"cannot save an empty task list or tasks of unequal shapes: {shape}")
    doc = {"version": BUNDLE_VERSION, "config": config or {}, "shape": [len(tasks), *shape],
           "params": [{"task_id": t.task_id, **asdict(t.params)} for t in tasks],
           "labels": "", "sha256": "", "states": ""}
    skeleton = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
    (lab, _), (sha, _), (sta, _) = _spans(io.BytesIO(skeleton))
    pieces = chain([skeleton[:lab]], _b64_blocks(t.labels for t in tasks),
                   [skeleton[lab:sha], _SHA_ZEROS, skeleton[sha:sta]],
                   _b64_blocks(t.states for t in tasks), [skeleton[sta:]])
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            if piece is _SHA_ZEROS:
                at = fh.tell()
            digest.update(piece)
            fh.write(piece)
        fh.seek(at)
        fh.write(digest.hexdigest().encode("ascii"))


def _read(fh, lo: int, hi: int, digest):
    """The file's bytes [lo, hi) in base64 blocks of whole quads, each fed to ``digest``."""
    fh.seek(lo)
    for at in range(lo, hi, step := _B64_BLOCK // 3 * 4):
        block = fh.read(min(step, hi - at))
        digest.update(block)
        yield block


def _b64_decode(fh, lo: int, hi: int, digest) -> np.ndarray | binascii.Error:
    """The bytes of the strict base64 text at [lo, hi), or the error; every block goes to
    ``digest``. Padding may only end the text, so where blocks are cut never matters."""
    blocks, out, n, pad = _read(fh, lo, hi, digest), np.empty((hi - lo) // 4 * 3, "u1"), 0, False
    try:
        for block in blocks:
            if pad:
                raise binascii.Error("padding before the end of the base64 text")
            chunk = binascii.a2b_base64(block, strict_mode=True)
            memoryview(out)[n : n + len(chunk)] = chunk
            n, pad = n + len(chunk), block.endswith(b"=")
        if pad and n % 3 == 0:
            raise binascii.Error("excess padding after a whole quad")
    except binascii.Error as exc:
        deque(blocks, 0)  # hash what the error left unread
        return exc
    return out[:n]


def _decoded(span, value, raw, shape: tuple[int, ...]) -> np.ndarray:
    """The f64 block decoded as ``raw`` from ``span``, which the document holds as ``value``."""
    if span is None or value != "":
        raise ValueError("no base64 block at its key")
    if isinstance(raw, binascii.Error):
        raise raw
    if len(raw) != 8 * math.prod(shape):
        raise DataError(f"{len(raw)} bytes do not hold a {shape} f64 block")
    return raw.view("<f8").reshape(shape)


def load_bundle(path) -> list[SyntheticTask]:
    """Read a bundle written by save_bundle; tasks are views of two arrays decoded
    block by block from the file, so it holds the arrays and one block, never the
    file. Raises TaskGenerationFailed for another bundle version and DataError for a
    malformed file or one whose sha256 does not match its bytes."""
    with open(path, "rb") as fh:
        lab, sha, sta = _spans(fh)
        digest, text, raw, stored = hashlib.sha256(), [], {}, None
        for lo, hi in pairwise([0, *chain(*filter(None, (lab, sha, sta))), fh.seek(0, 2)]):
            if (lo, hi) == sha:  # hashed as zeros
                text.append(stored := fh.read(hi - lo))
                digest.update(_SHA_ZEROS)
            elif (lo, hi) in (lab, sta):  # a decoding error waits for the version and checksum
                raw[lo, hi] = _b64_decode(fh, lo, hi, digest)
            else:
                text.extend(_read(fh, lo, hi, digest))
    try:
        doc = json.loads(b"".join(text))
        version = doc.get("version")
    except (ValueError, AttributeError) as exc:
        raise DataError(f"{path}: not a task bundle ({exc})") from None
    if version != BUNDLE_VERSION:
        raise TaskGenerationFailed(f"{path}: bundle version {version!r}, expected "
                                   f"{BUNDLE_VERSION}; rerun gen-tasks to rewrite it")
    if stored != digest.hexdigest().encode("ascii"):
        raise DataError(f"{path}: bundle checksum mismatch")
    try:
        K, T, kappa, d = (int(v) for v in doc["shape"])
        labels = _decoded(lab, doc["labels"], raw.get(lab), (K, T, kappa))
        states = _decoded(sta, doc["states"], raw.get(sta), (K, T, kappa, d))
        names = [f.name for f in fields(gp.KernelParams)]
        params = [(rec["task_id"], gp.KernelParams(**{n: rec[n] for n in names}))
                  for rec in doc["params"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed task bundle ({exc!r})") from None
    if len(params) != K:
        raise DataError(f"{path}: {len(params)} params records for {K} tasks")
    return [SyntheticTask(task_id, p, states[k], labels[k])
            for k, (task_id, p) in enumerate(params)]
