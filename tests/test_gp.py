import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from optbias import gp
from optbias.dataio import OfflineDataset
from optbias.errors import NumericalError
from optbias.numerics import cholesky_factor, cholesky_solve
from conftest import ucb, ucb_grad_batch


def random_model(rng, n=10, d=2, family=gp.RBF, noise=0.1):
    X = rng.standard_normal((n, d))
    z = rng.standard_normal(n)
    p = gp.KernelParams(family, 1.0 + rng.uniform(), 0.5 + rng.uniform(), noise,
                        mean=float(rng.uniform(-1, 1)))
    return gp.posterior(OfflineDataset(X, z), p), OfflineDataset(X, z), p


def dense_mean_var(ds, p, Xq):
    """Reference posterior via an explicit dense inverse."""
    K = gp.kernel_matrix(p, ds.X, ds.X) + p.noise_variance * np.eye(ds.n)
    Kinv = np.linalg.inv(K)
    Ks = gp.kernel_matrix(p, Xq, ds.X)
    mean = p.mean + Ks @ Kinv @ (ds.z - p.mean)
    var = p.signal_variance - np.sum((Ks @ Kinv) * Ks, axis=1)
    return mean, var


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        gp.KernelParams("rbf", -1.0, 1.0)
    with pytest.raises(ValueError):
        gp.KernelParams("cubic", 1.0, 1.0)


def k11(p, x, x2):
    """The kernel between two points, as a 1x1 kernel matrix."""
    K = gp.kernel_matrix(p, [x], [x2])
    assert K.shape == (1, 1)
    return float(K[0, 0])


def test_kernel_zero_distance():
    p = gp.KernelParams(signal_variance=2.5)
    x = np.array([1.0, 2.0])
    assert k11(p, x, x) == pytest.approx(2.5)


def test_kernel_rbf_unit_distance():
    p = gp.KernelParams("rbf", 1.0, 1.0)
    assert k11(p, [0.0], [1.0]) == pytest.approx(np.exp(-0.5), abs=1e-8)


def test_kernel_decay_at_large_distance():
    for fam in (gp.RBF, gp.MATERN52):
        p = gp.KernelParams(fam, 1.0, 1.0)
        assert k11(p, [0.0], [100.0]) < 1e-10


def test_kernel_matern52_formula():
    p = gp.KernelParams(gp.MATERN52, 2.0, 1.5)
    r = 0.7
    s = np.sqrt(5) * r / 2.0
    want = 1.5 * (1 + s + s * s / 3.0) * np.exp(-s)
    assert k11(p, [0.0], [r]) == pytest.approx(want, rel=1e-12)


# non-negative offsets: zero, subnormals, the extremes, +inf and any finite value
_OFFSET = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                                     1e300, 1.7976931348623157e308, np.inf]),
                    st.floats(0.0, 1e308, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 97)).flatmap(
           lambda shape: arrays(np.float64, shape, elements=_OFFSET)),
       st.integers(1, 97).flatmap(lambda n: arrays(np.float64, n, elements=_OFFSET)))
def test_sq_offsets_are_the_broadcast_add_bit_for_bit(sa, sb):
    with np.errstate(over="ignore", invalid="ignore"):  # +inf rows, and the BLAS's padding
        want = (sa[..., None] + sb).tobytes()
        assert gp._sq_offsets(sa, sb).tobytes() == want
        assert gp._sq_offsets(sa[0], sb).tobytes() == (sa[0][:, None] + sb).tobytes()
        out = np.empty(sa.shape + sb.shape)
        assert gp._sq_offsets(sa, sb, out=out) is out and out.tobytes() == want


def test_kernel_dimension_mismatch():
    p = gp.KernelParams()
    with pytest.raises(NumericalError, match="dim mismatch: 1 vs 2"):
        k11(p, [0.0], [0.0, 1.0])


def test_posterior_single_point_alpha():
    p = gp.KernelParams("rbf", 1.0, 2.0, 0.0)
    ds = OfflineDataset(np.array([[0.5]]), np.array([3.0]))
    g = gp.posterior(ds, p)
    assert g.alpha[0] == pytest.approx(3.0 / 2.0, rel=1e-6)


def test_posterior_duplicate_rows_jitter():
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.0)
    X = np.array([[0.0], [0.0], [1.0]])
    g = gp.posterior(OfflineDataset(X, np.array([1.0, 1.0, 2.0])), p)
    assert np.isfinite(g.alpha).all()


def test_posterior_mean_var_vs_dense_inverse():
    rng = np.random.default_rng(0)
    for i in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 9))
        fam = gp.RBF if i % 2 == 0 else gp.MATERN52
        g, ds, p = random_model(rng, n, d, fam)
        Xq = rng.standard_normal((5, d))
        mean, var = dense_mean_var(ds, p, Xq)
        assert np.allclose(gp.posterior_mean_batch(g, Xq), mean, atol=1e-8)
        assert np.allclose(gp.posterior_var_batch(g, Xq), np.maximum(var, 0), atol=1e-8)


def test_noiseless_interpolation():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 2))
    z = rng.standard_normal(8)
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.0)
    g = gp.posterior(OfflineDataset(X, z), p)
    for i in range(8):
        assert gp.posterior_mean(g, X[i]) == pytest.approx(z[i], abs=1e-6)
        assert gp.posterior_var_batch(g, X[i])[0] == pytest.approx(0.0, abs=1e-6)


def test_prior_reversion_far_from_data():
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.01, mean=0.3)
    ds = OfflineDataset(np.zeros((3, 2)) + [[0, 0], [1, 0], [0, 1]], np.array([1.0, 2.0, 3.0]))
    g = gp.posterior(ds, p)
    far = np.array([25.0, 25.0])
    assert gp.posterior_mean(g, far) == pytest.approx(0.3, abs=1e-8)
    assert np.linalg.norm(gp.posterior_mean_grad(g, far)) < 1e-10


def test_mean_grad_symmetry_zero():
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.0)
    ds = OfflineDataset(np.array([[-1.0], [1.0]]), np.array([2.0, 2.0]))
    g = gp.posterior(ds, p)
    assert abs(gp.posterior_mean_grad(g, [0.0])[0]) < 1e-10


def test_mean_grad_vs_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for i in range(100):
        d = [1, 2, 4, 8][i % 4]
        fam = gp.RBF if i % 2 == 0 else gp.MATERN52
        g, _, _ = random_model(rng, 12, d, fam)
        x = rng.standard_normal(d)
        grad = gp.posterior_mean_grad(g, x)
        fd = np.zeros(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd[k] = (gp.posterior_mean(g, x + e) - gp.posterior_mean(g, x - e)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(grad - fd) / denom <= 1e-5


def test_variance_bounds_and_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g, ds, p = random_model(rng, 10, 3)
        Xq = rng.standard_normal((6, 3))
        var = gp.posterior_var_batch(g, Xq)
        assert (var <= p.signal_variance + 1e-8).all()
        assert (var >= 0).all()
        # adding a training point never increases variance at fixed queries
        extra = OfflineDataset(
            np.vstack([ds.X, rng.standard_normal(3)[None, :]]),
            np.append(ds.z, 0.0),
        )
        var2 = gp.posterior_var_batch(gp.posterior(extra, p), Xq)
        assert (var2 <= var + 1e-8).all()


def test_ucb_composition():
    rng = np.random.default_rng(4)
    g, _, _ = random_model(rng, 10, 2)
    x = rng.standard_normal(2)
    want = gp.posterior_mean(g, x) + 2.0 * np.sqrt(gp.posterior_var_batch(g, x)[0])
    assert ucb(g, x, 2.0) == pytest.approx(want, rel=1e-12)
    assert ucb(g, x, 0.0) == pytest.approx(gp.posterior_mean(g, x), rel=1e-12)


def test_ucb_grad_vs_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        g, _, _ = random_model(rng, 10, 3)
        x = rng.standard_normal(3)
        if gp.posterior_var_batch(g, x)[0] < 1e-6:
            continue
        grad = ucb_grad_batch(g, x[None, :], 1.5)[0]
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (ucb(g, x + e, 1.5) - ucb(g, x - e, 1.5)) / (2 * h)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8) <= 1e-4


def test_fit_hyperparams_single_and_tie():
    ds = OfflineDataset(np.random.default_rng(6).standard_normal((10, 2)),
                        np.random.default_rng(7).standard_normal(10))
    p = gp.KernelParams("rbf", 2.0, 1.0)
    assert gp.fit_hyperparams(ds, [p]) is p
    p2 = gp.KernelParams("rbf", 2.0, 1.0)
    assert gp.fit_hyperparams(ds, [p, p2]) is p


def _reference_mll(ds, p):
    """The likelihood from its own kernel matrix and Cholesky, without gp.posterior."""
    K = gp.kernel_matrix(p, ds.X, ds.X)
    L = cholesky_factor(K + p.noise_variance * np.eye(ds.n))
    resid = ds.z - p.mean
    alpha = cholesky_solve(L, resid)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return float(-0.5 * resid @ alpha - 0.5 * logdet - 0.5 * ds.n * np.log(2.0 * np.pi))


@pytest.mark.parametrize("family", [gp.RBF, gp.MATERN52])
def test_log_marginal_likelihood_is_bit_equal_to_the_reference(family):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 3))
    ds = OfflineDataset(X, rng.standard_normal(40))
    dup = OfflineDataset(np.concatenate([X[:5], X[:5]]), rng.standard_normal(10))
    for data, noise in ((ds, 0.01), (dup, 0.0)):  # duplicate rows, no noise: jitter
        for p in gp.default_grid(gp.KernelParams(family, 1.0, 1.0, noise, 0.3)):
            assert gp.log_marginal_likelihood(data, p) == _reference_mll(data, p)


def test_fit_hyperparams_empty_grid():
    ds = OfflineDataset(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(NumericalError, match="hyperparameter grid is empty"):
        gp.fit_hyperparams(ds, [])


def test_fit_hyperparams_recovers_lengthscale():
    hits = 0
    grid = [gp.KernelParams("rbf", ell, 1.0, 0.01) for ell in (0.1, 1.0, 10.0)]
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.uniform(-2, 2, size=(50, 2))
        true = gp.KernelParams("rbf", 1.0, 1.0, 1e-6)
        K = gp.kernel_matrix(true, X, X) + 1e-6 * np.eye(50)
        z = np.linalg.cholesky(K) @ rng.standard_normal(50)
        best = gp.fit_hyperparams(OfflineDataset(X, z), grid)
        if best.lengthscale == 1.0:
            hits += 1
    assert hits >= 9


def test_default_grid_shape():
    base = gp.KernelParams("rbf", 1.0, 1.0)
    grid = gp.default_grid(base)
    assert len(grid) == 25
    assert any(p.lengthscale == 0.25 for p in grid)
