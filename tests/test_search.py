import numpy as np
import pytest

from optbias import search
from optbias import surrogate as sg
from optbias.dataio import OfflineDataset
from optbias.numerics import RngState
from conftest import small_net


class QuadraticNet:
    """Stand-in surrogate g(x) = -||x - target||^2 with exact gradients."""

    params = None  # read only by the stubbed _fold

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)


def _patch_quadratic(monkeypatch, net):
    def fake_forward(n, X, params_override=None):
        X = np.atleast_2d(X)
        return -np.sum((X - net.target) ** 2, axis=1), None

    def fake_input_grad_batch(n, X, params_override=None, folded=None):
        return -2.0 * (np.atleast_2d(X) - net.target)

    monkeypatch.setattr(search.sg, "forward", fake_forward)
    monkeypatch.setattr(search.sg, "input_grad_batch", fake_input_grad_batch)
    monkeypatch.setattr(search.sg, "_fold", lambda n, p: None)


def test_init_candidates_small_pool_returns_all():
    net = small_net()
    pool = OfflineDataset(RngState(0).normal(size=(100, 2)), np.zeros(100))
    c = search.init_candidates(net, pool, RngState(1), top_k=256, n_out=128)
    assert c.designs.shape == (100, 2)
    assert np.array_equal(c.provenance, np.arange(100))


def test_init_candidates_empty_pool():
    net = small_net()
    with pytest.raises(Exception):
        search.init_candidates(
            net, OfflineDataset(np.zeros((0, 2)), np.zeros(0)), RngState(0)
        )


def test_init_candidates_top_quantile(monkeypatch):
    # surrogate = true z: every pick comes from the top_k slice of the pool
    net = QuadraticNet([0.0, 0.0])
    _patch_quadratic(monkeypatch, net)
    r = RngState(2)
    X = r.normal(size=(500, 2))
    z = -np.sum(X * X, axis=1)
    pool = OfflineDataset(X, z)
    c = search.init_candidates(net, pool, RngState(3), top_k=50, n_out=20)
    cutoff = np.sort(z)[-50]
    assert np.all(z[c.provenance] >= cutoff)


def test_init_candidates_tie_rule(monkeypatch):
    net = QuadraticNet([0.0])

    def const_forward(n, X, params_override=None):
        return np.zeros(np.atleast_2d(X).shape[0]), None

    monkeypatch.setattr(search.sg, "forward", const_forward)
    pool = OfflineDataset(np.arange(300)[:, None].astype(float), np.zeros(300))
    c = search.init_candidates(net, pool, RngState(4), top_k=256, n_out=128)
    # constant predictions: ties resolve to the lowest indices
    assert c.provenance.max() < 256


def test_gradient_search_zero_steps():
    net = small_net()
    c = search.CandidateSet(RngState(5).normal(size=(4, 2)), np.arange(4))
    out = search.gradient_search(net, c, 0.01, 0)
    assert np.array_equal(out.designs, c.designs)


def test_gradient_search_quadratic_contraction(monkeypatch):
    target = np.array([0.7, -0.3])
    net = QuadraticNet(target)
    _patch_quadratic(monkeypatch, net)
    c = search.CandidateSet(RngState(6).normal(size=(8, 2)), np.arange(8))
    out = search.gradient_search(net, c, gamma=0.1, steps=300)
    assert np.abs(out.designs - target).max() <= 1e-6


def test_gradient_search_value_monotone(monkeypatch):
    target = np.zeros(2)
    net = QuadraticNet(target)
    _patch_quadratic(monkeypatch, net)
    X = RngState(7).normal(size=(5, 2))
    vals = [-np.sum(X * X, axis=1)]
    c = search.CandidateSet(X, np.arange(5))
    for _ in range(20):
        c = search.gradient_search(net, c, gamma=0.1, steps=1)
        vals.append(-np.sum(c.designs**2, axis=1))
    vals = np.array(vals)
    assert np.all(np.diff(vals, axis=0) >= -1e-12)


def test_gradient_search_bounds_clamped():
    net = small_net()
    c = search.CandidateSet(RngState(8).normal(size=(6, 2)), np.arange(6))
    bounds = np.array([[-0.1, 0.1], [-0.2, 0.2]])
    out = search.gradient_search(net, c, 0.5, 50, bounds)
    assert np.all(out.designs[:, 0] >= -0.1) and np.all(out.designs[:, 0] <= 0.1)
    assert np.all(out.designs[:, 1] >= -0.2) and np.all(out.designs[:, 1] <= 0.2)


def test_gradient_search_permutation_independence():
    net = small_net()
    X = RngState(9).normal(size=(7, 2))
    c = search.CandidateSet(X, np.arange(7))
    out = search.gradient_search(net, c, 0.01, 25)
    perm = np.array([3, 1, 6, 0, 5, 2, 4])
    out_p = search.gradient_search(
        net, search.CandidateSet(X[perm], perm), 0.01, 25
    )
    assert np.allclose(out_p.designs, out.designs[perm])


def _reference_gradient_search(net, c, gamma, steps, bounds=None):
    """Reference ascent: a fold inside every input_grad_batch call, a mask of
    active rows, and the clamp before the finiteness check."""
    X = c.designs.copy()
    flagged = np.zeros(X.shape[0], dtype=bool)
    for _ in range(steps):
        active = ~flagged
        if not active.any():
            break
        grad = sg.input_grad_batch(net, X[active])
        nxt = X[active] + gamma * grad
        if bounds is not None:
            nxt = np.clip(nxt, bounds[:, 0], bounds[:, 1])
        bad = ~np.isfinite(nxt).all(axis=1)
        nxt[bad] = X[active][bad]
        X[active] = nxt
        if bad.any():
            idx = np.flatnonzero(active)
            flagged[idx[bad]] = True
    return X, flagged


@pytest.mark.parametrize("norm", [sg.NORM_BATCH, sg.NORM_NONE])
@pytest.mark.parametrize("n", [1, 7, 80, 257])
@pytest.mark.parametrize("bounded", [False, True])
def test_gradient_search_is_bit_equal_to_the_reference(monkeypatch, norm, n, bounded):
    net = small_net(dim=3, hidden=(16, 8), norm=norm)
    c = search.CandidateSet(RngState(10).normal(size=(n, 3)), np.arange(n))
    bounds = np.array([[-1.0, 1.0], [-0.5, 0.5], [-2.0, 0.25]]) if bounded else None
    real = sg.input_grad_batch
    calls = []

    def nan_mid_run(net, X, *args, **kwargs):
        # the last live row's gradient turns NaN at step 12
        grad = real(net, X, *args, **kwargs)
        calls.append(len(X))
        if len(calls) == 12:
            grad[-1, 1] = np.nan
        return grad

    monkeypatch.setattr(search.sg, "input_grad_batch", nan_mid_run)
    ref_X, ref_flagged = _reference_gradient_search(net, c, 0.05, 30, bounds)
    ref_calls, calls[:] = calls[:], []
    out = search.gradient_search(net, c, 0.05, 30, bounds)
    assert calls == ref_calls
    assert out.designs.tobytes() == ref_X.tobytes()
    assert np.array_equal(out.flagged, ref_flagged) and out.flagged[-1]
    assert out.flagged.sum() == 1


@pytest.mark.parametrize("bounded", [False, True])
def test_gradient_search_flags_an_infinite_step_under_bounds(monkeypatch, bounded):
    net = QuadraticNet([0.3, -0.2])
    _patch_quadratic(monkeypatch, net)
    fake = search.sg.input_grad_batch
    start = np.array([[0.1, 0.1], [0.5, -0.5]])

    def inf_at_first_start(n, X, params_override=None, folded=None):
        grad = fake(n, X)
        grad[(X == start[0]).all(axis=1)] = np.inf
        return grad

    monkeypatch.setattr(search.sg, "input_grad_batch", inf_at_first_start)
    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]]) if bounded else None
    out = search.gradient_search(net, search.CandidateSet(start, np.arange(2)), 0.1, 5, bounds)
    assert out.flagged.tolist() == [True, False]
    assert np.array_equal(out.designs[0], start[0])


def test_gradient_search_folds_once(monkeypatch):
    net = small_net()
    real_fold, real_grad = sg._fold, sg.input_grad_batch
    folds, grads = [], []

    def counting_fold(*args, **kwargs):
        folds.append(args)
        return real_fold(*args, **kwargs)

    def recording_grad(*args, **kwargs):
        grads.append((len(args), sorted(kwargs)))
        return real_grad(*args, **kwargs)

    monkeypatch.setattr(sg, "_fold", counting_fold)
    monkeypatch.setattr(sg, "input_grad_batch", recording_grad)
    c = search.CandidateSet(RngState(11).normal(size=(5, 2)), np.arange(5))
    out = search.gradient_search(net, c, 0.01, 17)
    assert not out.flagged.any()
    assert len(folds) == 1
    # X is positional: the benchmark counts input_grad_batch's rows from argument 1
    assert grads == [(2, ["folded"])] * 17


def test_gradient_search_invalid_args():
    net = small_net()
    c = search.CandidateSet(np.zeros((1, 2)), np.zeros(1, dtype=int))
    with pytest.raises(ValueError):
        search.gradient_search(net, c, 0.0, 10)
    with pytest.raises(ValueError):
        search.gradient_search(net, c, 0.1, -1)


def test_write_designs_csv(tmp_path):
    c = search.CandidateSet(np.array([[1.0, 2.0]]), np.array([7]),
                            np.array([False]))
    p = tmp_path / "designs.csv"
    search.write_designs_csv(p, c, steps_taken=300)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,provenance,steps_taken,flagged"
    assert lines[1] == "1.0,2.0,7,300,0"
