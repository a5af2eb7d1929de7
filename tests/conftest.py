import numpy as np
import pytest

from optbias import surrogate as sg
from optbias.dataio import OfflineDataset
from optbias.numerics import RngState


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
