"""Training phases: first-order meta-learning over synthetic tasks, and
finetune, the one Adam loop over the real offline data.

The meta-gradient is first-order: the outer loss is evaluated at the fast
weights phi' = phi - alpha * grad l_i(phi) and its gradient (taken at phi') is
applied to phi directly, ignoring the Jacobian of the inner step. With
inner_lr = 0 it is pooled pretraining, the optbias_pretrain ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import surrogate as sg
from .dataio import OfflineDataset, write_csv
from .errors import DataError, NumericalError
from .matchloss import DEFAULT_MODE, IntegralMode, PairBatch, match_loss, mse_loss, offline_pairs
from .numerics import RngState
from .sim4opt import SyntheticTask, build_pairs


@dataclass(frozen=True)
class MetaConfig:
    epochs: int = 50
    tasks_per_batch: int = 8
    inner_lr: float = 0.1
    outer_lr: float = 0.001
    context_pairs: int = 16
    target_pairs: int = 64
    integral_mode: IntegralMode = DEFAULT_MODE

    def __post_init__(self):
        if min(self.epochs, self.tasks_per_batch, self.context_pairs, self.target_pairs) < 1:
            raise ValueError("all counts must be >= 1")
        if self.inner_lr < 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive (inner may be 0: pretraining)")


@dataclass
class TrainStats:
    epoch: list[int] = field(default_factory=list)
    pre_loss: list[float] = field(default_factory=list)
    post_loss: list[float] = field(default_factory=list)

    def append(self, epoch, pre, post):
        self.epoch.append(epoch)
        self.pre_loss.append(pre)
        self.post_loss.append(post)

    def write_csv(self, path):
        write_csv(path, ["epoch", "mean_pre_loss", "mean_post_loss"],
                  zip(self.epoch, self.pre_loss, self.post_loss))


def _task_batch(t: SyntheticTask, rng: RngState, count: int) -> PairBatch:
    starts, ends, dz = build_pairs(t, rng, count)
    return PairBatch(starts, ends, dz)


def inner_adapt(net, task: SyntheticTask, cfg: MetaConfig, rng: RngState):
    """One fast-weight SGD step on a context batch; never changes the params.

    The norm running statistics are first refreshed from the context batch.
    Returns (fast_params, pre_loss, post_loss, post_grad) where post_loss and
    its gradient are evaluated at the fast weights on a fresh target batch.
    With inner_lr = 0 the context loss is not computed: the fast weights are
    net.params and pre_loss is post_loss.
    """
    context = _task_batch(task, rng, cfg.context_pairs)
    if net.arch.norm == sg.NORM_BATCH:
        # Track activation statistics from the pair endpoints; loss gradients
        # flow through the frozen statistics, keeping second derivatives well-posed.
        sg.forward(net, np.concatenate([context.starts, context.ends], axis=0), train=True)
    fast = net.params
    if cfg.inner_lr:
        pre_loss, grad = match_loss(net, context, cfg.integral_mode)
        fast = fast - cfg.inner_lr * grad
    target = _task_batch(task, rng, cfg.target_pairs)
    post_loss, post_grad = match_loss(net, target, cfg.integral_mode, params=fast)
    if not cfg.inner_lr:
        pre_loss = post_loss
    return fast, pre_loss, post_loss, post_grad


def _sample_task_indices(n_tasks: int, k: int, rng: RngState) -> np.ndarray:
    if k >= n_tasks:
        return np.arange(n_tasks)
    return np.sort(rng.choice(n_tasks, k))


def meta_epoch(net, tasks, cfg: MetaConfig, rng: RngState, opt: sg.AdamState):
    """One pass: per sampled task, inner-adapt then accumulate the outer
    (first-order) gradient at the fast weights; one Adam step at the outer lr.
    Returns the mean (pre_loss, post_loss) over the sampled tasks."""
    if not tasks:
        raise NumericalError("no tasks")
    idx = _sample_task_indices(len(tasks), cfg.tasks_per_batch, rng)
    total_grad = np.zeros_like(net.params)
    pres, posts = [], []
    for i in idx:
        _, pre_loss, post_loss, post_grad = inner_adapt(net, tasks[i], cfg, rng)
        total_grad += post_grad
        pres.append(pre_loss)
        posts.append(post_loss)
    sg.apply_update(net, total_grad / len(idx), cfg.outer_lr, opt)
    return float(np.mean(pres)), float(np.mean(posts))


def meta_train(net, tasks, cfg: MetaConfig, rng: RngState) -> TrainStats:
    """Run cfg.epochs of meta_epoch under one Adam state."""
    opt = sg.AdamState.for_net(net)
    stats = TrainStats()
    for epoch in range(1, cfg.epochs + 1):
        stats.append(epoch, *meta_epoch(net, tasks, cfg, rng, opt))
    return stats


def finetune(net, ds: OfflineDataset, epochs: int, rng: RngState,
             lr: float = 0.01, batch_size: int = 128,
             mode: IntegralMode | None = DEFAULT_MODE):
    """epochs Adam steps on the real offline data, in place. With an integral
    mode each step matches gradients on batch_size offline pairs under frozen
    norm running statistics, so the subsequent search field is stationary.
    mode=None fits squared error on min(batch_size, n) distinct rows with batch
    statistics, which moves the running statistics."""
    if ds.n < 2:
        raise DataError(f"need at least 2 offline points, got {ds.n}")
    opt = sg.AdamState.for_net(net)
    for _ in range(epochs):
        if mode is None:
            _, grad = mse_loss(net, ds, rng.choice(ds.n, min(batch_size, ds.n)))
        else:
            _, grad = match_loss(net, offline_pairs(ds, batch_size, rng), mode)
        sg.apply_update(net, grad, lr, opt)
    return net
