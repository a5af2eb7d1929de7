"""Gradient-matching and plain MSE training objectives.

The gradient-matching residual for a pair (x, x') with output difference dz is
dz minus the path integral of the surrogate's input gradient along the segment
from x to x'. Two interchangeable integral evaluations are provided:

* exact: g(x') - g(x), the telescoped value (fundamental theorem of calculus
  along the segment; valid for the piecewise-smooth surrogate);
* quadrature: midpoint rule with S nodes over the segment, differentiating
  through the S input-gradient evaluations.

Both use the frozen running norm statistics, so the norm layers are fixed
affine maps; mse_loss normalizes with batch statistics, as supervised
training does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import surrogate as sg
from .dataio import OfflineDataset
from .errors import DataError, NumericalError
from .numerics import RngState


@dataclass(frozen=True)
class PairBatch:
    starts: np.ndarray  # b x d
    ends: np.ndarray  # b x d
    dz: np.ndarray  # b

    def __post_init__(self):
        starts = np.atleast_2d(np.asarray(self.starts, dtype=np.float64))
        ends = np.atleast_2d(np.asarray(self.ends, dtype=np.float64))
        dz = np.asarray(self.dz, dtype=np.float64).ravel()
        if starts.shape != ends.shape or starts.shape[0] != dz.shape[0]:
            raise NumericalError(
                f"inconsistent pair batch: {starts.shape}, {ends.shape}, {dz.shape}"
            )
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "dz", dz)

    @property
    def size(self) -> int:
        return self.dz.shape[0]


@dataclass(frozen=True)
class IntegralMode:
    kind: str = "quadrature"
    nodes: int = 4

    def __post_init__(self):
        if self.kind not in ("exact", "quadrature"):
            raise ValueError(f"unknown integral mode {self.kind!r}")
        if self.kind == "quadrature" and self.nodes < 1:
            raise ValueError("quadrature needs at least one node")


EXACT = IntegralMode("exact")
DEFAULT_MODE = IntegralMode("quadrature", 4)


def offline_pairs(ds: OfflineDataset, b: int, rng: RngState) -> PairBatch:
    """b uniform ordered pairs of distinct rows; dz = z_end - z_start."""
    if ds.n < 2:
        raise DataError(f"need at least 2 rows, got {ds.n}")
    i = rng.integers(ds.n, size=b)
    j = rng.integers(ds.n - 1, size=b)
    j = np.where(j >= i, j + 1, j)  # uniform over rows distinct from i
    return PairBatch(ds.X[i], ds.X[j], ds.z[j] - ds.z[i])


def _quadrature_terms(net, batch: PairBatch, S: int):
    """Per-pair quadrature value q_b = dx_b . mean_s grad g(x_b + t_s dx_b)."""
    b, d = batch.starts.shape
    dx = batch.ends - batch.starts
    t = (np.arange(S) + 0.5) / S
    # nodes laid out (s, b, d) then flattened to one big batch
    nodes = batch.starts[None, :, :] + t[:, None, None] * dx[None, :, :]
    nodes = nodes.reshape(S * b, d)
    dirs = np.broadcast_to(dx[None, :, :], (S, b, d)).reshape(S * b, d)
    jvp, cache = sg.forward_jvp(net, nodes, dirs)
    q = jvp.reshape(S, b).mean(axis=0)
    return q, cache


def path_integral(net, x, x2, mode: IntegralMode = DEFAULT_MODE) -> float:
    """Integral of dx . grad g along the segment from x to x2."""
    x = np.asarray(x, dtype=np.float64).ravel()
    x2 = np.asarray(x2, dtype=np.float64).ravel()
    batch = PairBatch(x[None, :], x2[None, :], np.zeros(1))
    if mode.kind == "exact":
        pred, _ = sg.forward(net, np.stack([x, x2]))
        return float(pred[1] - pred[0])
    q, _ = _quadrature_terms(net, batch, mode.nodes)
    return float(q[0])


def match_loss(net, pairs: PairBatch,
               mode: IntegralMode = DEFAULT_MODE) -> tuple[float, np.ndarray]:
    """Mean squared gradient-matching residual and its flat-parameter gradient."""
    if pairs.size == 0:
        raise NumericalError("empty pair batch")
    b = pairs.size
    if mode.kind == "exact":
        stacked = np.concatenate([pairs.starts, pairs.ends], axis=0)
        pred, cache = sg.forward(net, stacked)
        integral = pred[b:] - pred[:b]
        resid = pairs.dz - integral
        loss = float(np.mean(resid**2))
        dpred = np.concatenate([2.0 * resid / b, -2.0 * resid / b])
        grad = sg.backward_params(net, cache, dpred)
    else:
        q, cache = _quadrature_terms(net, pairs, mode.nodes)
        resid = pairs.dz - q
        loss = float(np.mean(resid**2))
        djvp = np.broadcast_to(
            (-2.0 * resid / (b * mode.nodes))[None, :], (mode.nodes, b)
        ).ravel()
        grad = sg.backward_params_jvp(net, cache, djvp)
    return loss, grad


def mse_loss(net, ds: OfflineDataset, batch_idx=None) -> tuple[float, np.ndarray]:
    """Supervised squared-error loss (the GA baseline objective) on batch norm statistics."""
    idx = np.arange(ds.n) if batch_idx is None else np.asarray(batch_idx)
    if idx.size == 0:
        raise NumericalError("empty index batch")
    pred, cache = sg.forward(net, ds.X[idx], train=True)
    resid = pred - ds.z[idx]
    loss = float(np.mean(resid**2))
    grad = sg.backward_params(net, cache, 2.0 * resid / idx.size)
    return loss, grad
