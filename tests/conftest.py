import numpy as np
import pytest

from optbias import gp
from optbias import surrogate as sg
from optbias.dataio import OfflineDataset
from optbias.numerics import RngState, cholesky_solve


@pytest.fixture
def rng():
    return RngState(0)


def small_net(dim=2, hidden=(6, 5), norm=sg.NORM_BATCH, seed=0):
    """A tiny surrogate with warmed norm statistics, ready for gradient checks."""
    arch = sg.Architecture(dim, hidden, 0.01, norm)
    net = sg.init_net(arch, RngState(seed))
    # nonzero biases/shifts so gradient checks exercise every block
    r = RngState(seed + 1)
    net.params = net.params + 0.05 * r.normal(size=net.params.shape)
    if norm == sg.NORM_BATCH:
        sg.forward(net, r.normal(size=(32, dim)), train=True)
    return net


def toy_dataset(n=20, dim=2, seed=3):
    r = RngState(seed)
    X = r.normal(size=(n, dim))
    z = np.sin(X).sum(axis=1) + 0.1 * r.normal(size=n)
    return OfflineDataset(X, z)


def fd_param_grad(loss_fn, params, h=1e-6):
    """Central finite differences of a scalar loss over a flat parameter vector."""
    grad = np.zeros_like(params)
    for k in range(params.size):
        up = params.copy()
        up[k] += h
        dn = params.copy()
        dn[k] -= h
        grad[k] = (loss_fn(up) - loss_fn(dn)) / (2.0 * h)
    return grad


# UCB of one GP, row by row: the reference for sim4opt's batched UCB walk.

def ucb(g, x, beta):
    x = np.asarray(x, dtype=np.float64).ravel()
    return float(ucb_batch(g, x[None, :], beta)[0])


def ucb_batch(g, X, beta):
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return gp.posterior_mean_batch(g, X) + beta * np.sqrt(gp.posterior_var_batch(g, X))


def ucb_grad_batch(g, X, beta):
    """grad mu + beta * grad var / (2 sqrt var); sqrt term dropped below var 1e-12."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if beta == 0:
        return gp.posterior_mean_grad_batch(g, X)
    gp._check_query(g, X)
    h = gp._hyper(g.params)
    Ks, matern = gp._kernel_from_sqdist(g.params.family, gp._sqdist(X, g.X_train), h)
    C = cholesky_solve(g.chol_L, Ks.T)  # n_train x n_query
    var = gp._clamped_var(g.params.signal_variance, Ks, C)
    W = gp._grad_weights(g.params.family, Ks, matern, h)
    gm = gp._grad_from_weights(X, W * g.alpha, g.X_train)
    # grad var_i = -2 sum_j C_ji grad_x k(x_i, x_j)
    gvar = -2.0 * gp._grad_from_weights(X, W * C.T, g.X_train)
    return gm + gp._ucb_scale(var, beta)[:, None] * gvar
