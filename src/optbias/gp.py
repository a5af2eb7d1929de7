"""Gaussian-process machinery: RBF / Matern-5/2 kernels, posterior mean and
variance, analytic input-gradient of the posterior mean, and grid-based
marginal-likelihood hyperparameter selection. A model is always fitted to
data; there is no prior-only model. The batched UCB walk lives in
sim4opt.evolve, built from the private helpers here.

The posterior here is deliberately lightweight: it drives synthetic trajectory
generation, not high-fidelity prediction, so the hyperparameter fit is a small
deterministic grid search rather than gradient-based MLL.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataio import OfflineDataset
from .errors import NumericalError
from .numerics import cholesky_factor, cholesky_solve

log = logging.getLogger(__name__)

RBF = "rbf"
MATERN52 = "matern52"

SQRT5 = np.sqrt(5.0)


@dataclass(frozen=True)
class KernelParams:
    family: str = RBF
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 0.01
    mean: float = 0.0

    def __post_init__(self):
        if self.family not in (RBF, MATERN52):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.lengthscale <= 0 or self.signal_variance <= 0 or self.noise_variance < 0:
            raise ValueError(f"invalid kernel parameters: {self}")

    def with_mean(self, m: float) -> "KernelParams":
        return replace(self, mean=float(m))


def _sq_offsets(sa: np.ndarray, sb: np.ndarray, out=None) -> np.ndarray:
    """sa[..., :, None] + sb as the K = 2 product [sa, 1] . [1; sb]. Each
    entry is one rounded sum of two exact terms, so for non-negative inputs it
    equals the broadcast add bit for bit; on a (10, 2, 80, 80) block it takes a
    third of the broadcast add's time."""
    left = np.stack([sa, np.ones_like(sa)], axis=-1)
    return np.matmul(left, np.stack([np.ones_like(sb), sb]), out=out)


def _sqdist(A: np.ndarray, B: np.ndarray, out=None, work=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A (..., m, d) and B
    (n, d), clipped at 0; written into ``out``, with ``work`` as scratch for
    the cross term, when they are given."""
    d2 = _sq_offsets(np.sum(A * A, axis=-1), np.sum(B * B, axis=1), out=out)
    d2 -= np.matmul(2.0 * A, B.T, out=work)
    return np.maximum(d2, 0.0, out=d2)


@dataclass(frozen=True)
class _Hyper:
    """Kernel hyperparameters as floats, or as arrays that broadcast against a
    block of several models' kernels. ``ls2`` is always squared with Python's
    float power: numpy's ``x**2`` is ``x*x``, which differs from it in the
    last bit for about one lengthscale in a thousand."""

    lengthscale: float | np.ndarray
    ls2: float | np.ndarray
    signal_variance: float | np.ndarray


def _hyper(p: KernelParams) -> _Hyper:
    return _Hyper(p.lengthscale, p.lengthscale**2, p.signal_variance)


def _stacked_hyper(ps: list[KernelParams], ndim: int) -> _Hyper:
    """Hyperparameters of c models as (c, 1, ..., 1) arrays that broadcast
    against an ndim block whose leading axis runs over the models."""

    def col(values):
        return np.array(values).reshape((-1,) + (1,) * (ndim - 1))

    return _Hyper(
        col([p.lengthscale for p in ps]),
        col([p.lengthscale**2 for p in ps]),
        col([p.signal_variance for p in ps]),
    )


def _kernel_from_sqdist(family: str, d2: np.ndarray, h: _Hyper) -> tuple[np.ndarray, tuple | None]:
    """The kernel block from squared distances, plus what _grad_weights needs
    besides it: None for RBF, whose block is computed in d2's buffer, and
    (s, exp(-s)) with s = sqrt(5 d2) / lengthscale for Matern."""
    if family == RBF:
        # signal_variance * exp(-0.5 * d2 / ls2): -2 ls2 is exact, so one
        # division rounds the same real quotient as (d2 * -0.5) / ls2
        K = np.divide(d2, -2.0 * h.ls2, out=d2)
        np.exp(K, out=K)
        K *= h.signal_variance
        return K, None
    s = SQRT5 * np.sqrt(d2) / h.lengthscale
    es = np.exp(-s)
    return h.signal_variance * (1.0 + s + s * s / 3.0) * es, (s, es)


def _grad_weights(family: str, K: np.ndarray, matern: tuple | None, h: _Hyper) -> np.ndarray:
    """w such that grad_x k(x_i, x_j) = w[..., i, j] * (x_i - x_j), from the
    kernel block K and _kernel_from_sqdist's Matern terms; may overwrite K."""
    if family == RBF:
        K /= -h.ls2  # bit-identical to -K / ls2
        return K
    s, es = matern
    return -(5.0 * h.signal_variance / (3.0 * h.ls2)) * (1.0 + s) * es


def _grad_from_weights(X: np.ndarray, W: np.ndarray, X_train: np.ndarray) -> np.ndarray:
    """Rows sum_j W[..., i, j] (x_i - x_j)."""
    return X * W.sum(axis=-1)[..., None] - W @ X_train


def kernel_matrix(p: KernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise NumericalError(f"dim mismatch: {A.shape[1]} vs {B.shape[1]}")
    return _kernel_from_sqdist(p.family, _sqdist(A, B), _hyper(p))[0]


@dataclass(frozen=True)
class GpModel:
    params: KernelParams
    X_train: np.ndarray
    alpha: np.ndarray
    chol_L: np.ndarray

    @property
    def dim(self) -> int:
        return self.X_train.shape[1]


def posterior(ds: OfflineDataset, p: KernelParams) -> GpModel:
    """Fit alpha = (K + noise*I)^-1 (z - mean) with the jitter escalation policy."""
    K = kernel_matrix(p, ds.X, ds.X)
    L = cholesky_factor(K + p.noise_variance * np.eye(ds.n))
    alpha = cholesky_solve(L, ds.z - p.mean)
    return GpModel(p, ds.X.copy(), alpha, L)


def _kstar(g: GpModel, X: np.ndarray) -> np.ndarray:
    return kernel_matrix(g.params, X, g.X_train)


def posterior_mean(g: GpModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    return float(posterior_mean_batch(g, x[None, :])[0])


def posterior_mean_batch(g: GpModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_query(g, X)
    return g.params.mean + _kstar(g, X) @ g.alpha


def _check_query(g: GpModel, X: np.ndarray) -> None:
    if X.shape[-1] != g.dim:
        raise NumericalError(f"query dim {X.shape[-1]} != train dim {g.dim}")


def _clamped_var(signal_variance, Ks: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Posterior variance from k* rows Ks and C = (K + noise I)^-1 Ks^T,
    clamped at 0."""
    var = signal_variance - np.sum(Ks * C.T, axis=1)
    worst = var.min() if var.size else 0.0
    if worst < -1e-8:
        log.warning("posterior variance clamped from %g", worst)
    return np.maximum(var, 0.0)


def posterior_var_batch(g: GpModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_query(g, X)
    Ks = _kstar(g, X)
    return _clamped_var(g.params.signal_variance, Ks, cholesky_solve(g.chol_L, Ks.T))


def posterior_mean_grad(g: GpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    return posterior_mean_grad_batch(g, x[None, :])[0]


def posterior_mean_grad_batch(g: GpModel, X: np.ndarray) -> np.ndarray:
    """Rows of grad_x mu at each query: sum_j alpha_j grad_x k(x, x_j)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_query(g, X)
    h = _hyper(g.params)
    K, matern = _kernel_from_sqdist(g.params.family, _sqdist(X, g.X_train), h)
    W = _grad_weights(g.params.family, K, matern, h)
    W *= g.alpha
    return _grad_from_weights(X, W, g.X_train)


def _ucb_scale(var: np.ndarray, beta: float) -> np.ndarray:
    """beta / (2 sqrt var), 0 below var 1e-12."""
    safe = var > 1e-12
    return np.where(safe, beta / (2.0 * np.sqrt(np.where(safe, var, 1.0))), 0.0)


def log_marginal_likelihood(ds: OfflineDataset, p: KernelParams) -> float:
    g = posterior(ds, p)
    logdet = 2.0 * np.sum(np.log(np.diag(g.chol_L)))
    return float(-0.5 * (ds.z - p.mean) @ g.alpha - 0.5 * logdet
                 - 0.5 * ds.n * np.log(2.0 * np.pi))


def fit_hyperparams(ds: OfflineDataset, grid: list[KernelParams]) -> KernelParams:
    """Grid point maximizing the Gaussian marginal log-likelihood; ties -> first."""
    if not grid:
        raise NumericalError("hyperparameter grid is empty")
    best, best_mll = None, -np.inf
    for p in grid:
        mll = log_marginal_likelihood(ds, p)
        if mll > best_mll:
            best, best_mll = p, mll
    return best


def default_grid(
    base: KernelParams, factors=(0.25, 0.5, 1.0, 2.0, 4.0)
) -> list[KernelParams]:
    """Small log-spaced grid of (lengthscale, signal variance) around base."""
    return [replace(base, lengthscale=base.lengthscale * fl,
                    signal_variance=base.signal_variance * fv)
            for fl in factors for fv in factors]
