import numpy as np
import pytest

from optbias import matchloss as ml
from optbias import surrogate as sg
from optbias.dataio import OfflineDataset
from optbias.errors import DataError
from optbias.numerics import RngState
from conftest import fast_net, fd_param_grad, small_net, toy_dataset


def linear_net(w, dim):
    """Single hidden layer with slope ~1 is awkward; build exact linearity with
    an identity-free trick: no-norm net whose composed weights realize w^T x."""
    arch = sg.Architecture(dim, (dim,), slope=0.5, norm=sg.NORM_NONE)
    net = sg.SurrogateNet(arch, np.zeros(arch.n_params()), [])
    # positive and negative pass through W0 = I, head = w; LeakyReLU breaks
    # exact linearity, so instead route through a large positive offset
    net.view("W0")[:] = np.eye(dim)
    net.view("b0")[:] = 100.0  # keeps pre-activations positive on test data
    net.view("Wh")[:] = np.asarray(w, dtype=float)[:, None]
    net.view("bh")[:] = -100.0 * np.sum(w)
    return net


def test_offline_pairs_basic():
    ds = toy_dataset(n=10)
    batch = ml.offline_pairs(ds, 64, RngState(0))
    assert batch.size == 64
    # dz consistency: every pair's dz equals the z difference of its rows
    for b in range(64):
        i = np.flatnonzero((ds.X == batch.starts[b]).all(axis=1))[0]
        j = np.flatnonzero((ds.X == batch.ends[b]).all(axis=1))[0]
        assert i != j
        assert batch.dz[b] == pytest.approx(ds.z[j] - ds.z[i], abs=1e-12)


def test_offline_pairs_uniform_two_rows():
    ds = OfflineDataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    batch = ml.offline_pairs(ds, 10_000, RngState(1))
    forward_frac = np.mean(batch.dz > 0)
    assert abs(forward_frac - 0.5) <= 0.02


def test_offline_pairs_too_few():
    ds = OfflineDataset(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DataError, match="need at least 2 rows, got 1"):
        ml.offline_pairs(ds, 4, RngState(0))


def test_integral_mode_validation():
    with pytest.raises(ValueError):
        ml.IntegralMode("simpson")
    with pytest.raises(ValueError):
        ml.IntegralMode("quadrature", 0)


def test_path_integral_zero_length():
    net = small_net()
    x = np.array([0.2, -0.1])
    assert ml.path_integral(net, x, x, ml.EXACT) == pytest.approx(0.0, abs=1e-12)
    assert ml.path_integral(net, x, x, ml.DEFAULT_MODE) == pytest.approx(0.0, abs=1e-12)


def test_path_integral_linear_exact_any_s():
    w = np.array([2.0, -1.5])
    net = linear_net(w, 2)
    x = np.array([0.1, 0.2])
    x2 = np.array([-0.3, 0.5])
    want = float(w @ (x2 - x))
    for mode in (ml.EXACT, ml.IntegralMode("quadrature", 1), ml.IntegralMode("quadrature", 7)):
        assert ml.path_integral(net, x, x2, mode) == pytest.approx(want, rel=1e-10)


def test_quadrature_converges_to_exact():
    # Midpoint quadrature error at the activation kinks scales with segment
    # length and with the size of individual slope jumps, so this check uses
    # the wide default architecture (many small kinks that average out) and
    # unit-cube segments, the regime the matching losses operate in.
    r = RngState(4)
    net = sg.init_net(sg.Architecture(3, (512, 128, 32)), RngState(3))
    sg.forward(net, r.normal(size=(32, 3)), train=True)
    worst = 0.0
    for _ in range(100):
        x = r.uniform(size=3)
        x2 = r.uniform(size=3)
        exact = ml.path_integral(net, x, x2, ml.EXACT)
        quad = ml.path_integral(net, x, x2, ml.IntegralMode("quadrature", 64))
        worst = max(worst, abs(quad - exact) / (1.0 + abs(exact)))
    assert worst <= 1e-3


def test_match_loss_perfect_surrogate():
    w = np.array([2.0])
    net = linear_net(w, 1)
    r = RngState(5)
    X = r.normal(size=(20, 1))
    z = 2.0 * X.ravel()
    ds = OfflineDataset(X, z)
    batch = ml.offline_pairs(ds, 32, RngState(6))
    for mode in (ml.EXACT, ml.DEFAULT_MODE):
        loss, _ = ml.match_loss(net, batch, mode)
        assert loss == pytest.approx(0.0, abs=1e-16)


def test_match_loss_constant_shift_invariance():
    net = small_net(dim=2, hidden=(6, 5), seed=4)
    ds = toy_dataset(n=15)
    batch = ml.offline_pairs(ds, 24, RngState(7))
    for mode in (ml.EXACT, ml.DEFAULT_MODE):
        base, _ = ml.match_loss(net, batch, mode)
        shifted = net.copy()
        shifted.view("bh")[:] += 37.5  # output bias shift
        after, _ = ml.match_loss(shifted, batch, mode)
        assert abs(after - base) <= 1e-10
        # shifting all generating outputs by a constant leaves dz untouched
        batch2 = ml.PairBatch(batch.starts, batch.ends, batch.dz)
        again, _ = ml.match_loss(net, batch2, mode)
        assert again == base


def test_match_loss_closed_form_linear():
    # pairs from z = 2x against a linear surrogate of slope w
    r = RngState(8)
    X = r.normal(size=(30, 1))
    ds = OfflineDataset(X, 2.0 * X.ravel())
    batch = ml.offline_pairs(ds, 64, RngState(9))
    dx = (batch.ends - batch.starts).ravel()
    for w in (0.0, 1.0, 3.0):
        net = linear_net(np.array([w]), 1)
        loss, _ = ml.match_loss(net, batch, ml.EXACT)
        want = float(np.mean((dx * (2.0 - w)) ** 2))
        assert loss == pytest.approx(want, rel=1e-8, abs=1e-12)
    loss2, _ = ml.match_loss(linear_net(np.array([2.0]), 1), batch, ml.EXACT)
    assert loss2 == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("mode", [ml.EXACT, ml.DEFAULT_MODE])
def test_match_loss_grad_vs_finite_differences(mode):
    net = small_net(dim=2, hidden=(5, 4), seed=6)
    ds = toy_dataset(n=12, seed=13)
    batch = ml.offline_pairs(ds, 8, RngState(14))

    def loss(p):
        val, _ = ml.match_loss(fast_net(net, p), batch, mode)
        return val

    _, grad = ml.match_loss(net, batch, mode)
    fd = fd_param_grad(loss, net.params)
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-4


def test_match_loss_empty_batch():
    net = small_net()
    with pytest.raises(Exception):
        ml.match_loss(net, ml.PairBatch(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)))


def test_match_loss_training_signal():
    # full-batch Adam on pairs from a 1D linear function: loss drops >= 100x
    reductions = []
    for seed in range(5):
        r = RngState(200 + seed)
        X = r.normal(size=(40, 1))
        ds = OfflineDataset(X, 3.0 * X.ravel())
        batch = ml.offline_pairs(ds, 128, RngState(300 + seed))
        net = small_net(dim=1, hidden=(8, 6), seed=seed)
        loss0, _ = ml.match_loss(net, batch, ml.EXACT)
        opt = sg.AdamState.for_net(net)
        for _ in range(200):
            _, grad = ml.match_loss(net, batch, ml.EXACT)
            sg.apply_update(net, grad, 0.01, opt)
        loss1, _ = ml.match_loss(net, batch, ml.EXACT)
        reductions.append(loss0 / max(loss1, 1e-300))
    assert np.median(reductions) >= 100.0


def test_mse_loss_values_and_grad():
    net = small_net(dim=2, hidden=(5, 4), seed=7)
    ds = toy_dataset(n=10, seed=17)
    pred, _ = sg.forward(net.copy(), ds.X, train=True)
    perfect = OfflineDataset(ds.X, pred)
    loss, _ = ml.mse_loss(net, perfect)
    assert loss == pytest.approx(0.0, abs=1e-20)

    def loss_fn(p):
        val, _ = ml.mse_loss(fast_net(net, p), ds)
        return val

    _, grad = ml.mse_loss(net, ds)
    fd = fd_param_grad(loss_fn, net.params)
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-4


def test_mse_loss_constant_zero_net_unit_variance():
    arch = sg.Architecture(2, (4,), norm=sg.NORM_NONE)
    net = sg.SurrogateNet(arch, np.zeros(arch.n_params()), [])
    r = RngState(19)
    z = r.normal(size=500)
    z = (z - z.mean()) / z.std()
    ds = OfflineDataset(r.normal(size=(500, 2)), z)
    loss, _ = ml.mse_loss(net, ds)
    assert loss == pytest.approx(1.0, abs=1e-10)
