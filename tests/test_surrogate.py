import hashlib
import inspect
import platform

import numpy as np
import pytest

from optbias import matchloss as ml
from optbias import surrogate as sg
from optbias.errors import NumericalError
from optbias.numerics import RngState
from conftest import fast_net, fd_param_grad, small_net


def test_param_count_formula():
    arch = sg.Architecture(4, (512, 128, 32))
    linear = 4 * 512 + 512 + 512 * 128 + 128 + 128 * 32 + 32 + 32 * 1 + 1
    norm = 2 * (512 + 128 + 32)
    assert arch.n_params() == linear + norm
    arch2 = sg.Architecture(4, (512, 128, 32), norm=sg.NORM_NONE)
    assert arch2.n_params() == linear


def test_invalid_architectures():
    with pytest.raises(ValueError, match=r"bad hidden widths: \(\)"):
        sg.Architecture(4, ())
    with pytest.raises(ValueError, match="bad input dim: 0"):
        sg.Architecture(0, (8,))
    with pytest.raises(ValueError, match=r"slope must be in \(0, 1\): 1.5"):
        sg.Architecture(4, (8,), slope=1.5)


def test_init_deterministic():
    arch = sg.Architecture(3, (16, 8))
    a = sg.init_net(arch, RngState(9))
    b = sg.init_net(arch, RngState(9))
    assert np.array_equal(a.params, b.params)


def test_forward_zero_weights():
    arch = sg.Architecture(2, (4, 3), norm=sg.NORM_NONE)
    net = sg.SurrogateNet(arch, np.zeros(arch.n_params()), [])
    pred, _ = sg.forward(net, np.ones((5, 2)))
    assert np.allclose(pred, 0.0)


def test_forward_repeated_row_eval():
    net = small_net()
    X = np.tile([0.3, -0.7], (6, 1))
    pred, _ = sg.forward(net, X)
    assert np.allclose(pred, pred[0])


def test_forward_reference_reimplementation():
    net = small_net(dim=3, hidden=(5, 4), seed=2)
    X = RngState(5).normal(size=(4, 3))
    pred, _ = sg.forward(net, X)
    # independent layer-by-layer evaluation
    h = X
    for i, w in enumerate(net.arch.hidden):
        s = h @ net.view(f"W{i}") + net.view(f"b{i}")
        rm, rv = net.norm_stats[i]
        xhat = (s - rm) / np.sqrt(rv + sg.EPS)
        u = net.view(f"g{i}") * xhat + net.view(f"s{i}")
        h = np.where(u > 0, u, net.arch.slope * u)
    want = (h @ net.view("Wh") + net.view("bh")).ravel()
    assert np.allclose(pred, want, atol=1e-10)


def test_forward_override_purity_eval():
    net = small_net()
    before = net.params.copy()
    stats_before = [(m.copy(), v.copy()) for m, v in net.norm_stats]
    p1, _ = sg.forward(fast_net(net, net.params + 0.5), np.ones((3, 2)))
    assert np.array_equal(net.params, before)
    for (m0, v0), (m1, v1) in zip(stats_before, net.norm_stats):
        assert np.array_equal(m0, m1) and np.array_equal(v0, v1)
    p2, _ = sg.forward(net, np.ones((3, 2)))
    assert not np.allclose(p1, p2)


def test_only_a_train_forward_moves_norm_stats():
    net = small_net(dim=3, hidden=(6, 5), seed=31)
    r = RngState(32)
    X, V = r.normal(size=(7, 3)), r.normal(size=(7, 3))
    before = [(m.copy(), v.copy()) for m, v in net.norm_stats]
    sg.forward(net, X)
    sg.forward_jvp(net, X, V)
    sg.input_grad_batch(net, X)
    for mode in (ml.EXACT, ml.DEFAULT_MODE):
        ml.match_loss(net, ml.PairBatch(X, V, r.normal(size=7)), mode)
    for (m0, v0), (m1, v1) in zip(before, net.norm_stats):
        assert np.array_equal(m0, m1) and np.array_equal(v0, v1)

    assert sg.RUNNING_MOMENTUM == 0.9
    _, cache = sg.forward(net, X, train=True)
    for (m0, v0), (m1, v1), lay in zip(before, net.norm_stats, cache["layers"]):
        s = lay["s"]  # the batch the layer normalized with its own statistics
        assert np.array_equal(m1, m0 * 0.9 + (1.0 - 0.9) * s.mean(axis=0))
        assert np.array_equal(v1, v0 * 0.9 + (1.0 - 0.9) * s.var(axis=0))
        assert not np.array_equal(m0, m1)


def test_backward_params_zero_and_linearity():
    net = small_net()
    X = RngState(7).normal(size=(4, 2))
    _, cache = sg.forward(net, X)
    z = sg.backward_params(net, cache, np.zeros(4))
    assert np.allclose(z, 0.0)
    d = RngState(8).normal(size=4)
    g1 = sg.backward_params(net, cache, d)
    g2 = sg.backward_params(net, cache, 2.0 * d)
    assert np.allclose(g2, 2.0 * g1, rtol=1e-12)


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_backward_params_vs_finite_differences(mode):
    train = mode == "train"
    for seed in range(5):
        net = small_net(dim=2, hidden=(6, 5), seed=seed)
        r = RngState(50 + seed)
        X = r.normal(size=(5, 2))
        d = r.normal(size=5)
        if train:
            # freeze a stats snapshot so repeated forwards see the same state
            stats = [(m.copy(), v.copy()) for m, v in net.norm_stats]

        def loss(p):
            if train:
                net.norm_stats = [(m.copy(), v.copy()) for m, v in stats]
            pred, _ = sg.forward(fast_net(net, p), X, train=train)
            return float(d @ pred)

        if train:
            net.norm_stats = [(m.copy(), v.copy()) for m, v in stats]
        _, cache = sg.forward(net, X, train=train)
        assert cache["train"] is train
        grad = sg.backward_params(net, cache, d)
        fd = fd_param_grad(loss, net.params)
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() / denom <= 1e-4


def test_input_grad_vs_finite_differences():
    h = 1e-6
    for seed in range(5):
        net = small_net(dim=3, hidden=(6, 5), seed=seed)
        x = RngState(70 + seed).normal(size=3)
        grad = sg.input_grad(net, x)
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up, _ = sg.forward(net, (x + e)[None, :])
            dn, _ = sg.forward(net, (x - e)[None, :])
            fd[k] = (up[0] - dn[0]) / (2 * h)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-5


def test_forward_jvp_matches_input_grad():
    net = small_net(dim=3, hidden=(6, 5), seed=11)
    r = RngState(12)
    X = r.normal(size=(4, 3))
    V = r.normal(size=(4, 3))
    jvp, _ = sg.forward_jvp(net, X, V)
    G = sg.input_grad_batch(net, X)
    assert np.allclose(jvp, np.sum(G * V, axis=1), atol=1e-12)


def test_backward_params_jvp_vs_finite_differences():
    for seed in range(3):
        net = small_net(dim=2, hidden=(5, 4), seed=seed)
        r = RngState(90 + seed)
        X = r.normal(size=(3, 2))
        V = r.normal(size=(3, 2))
        djvp = r.normal(size=3)

        def loss(p):
            jvp, _ = sg.forward_jvp(fast_net(net, p), X, V)
            return float(djvp @ jvp)

        _, cache = sg.forward_jvp(net, X, V)
        grad = sg.backward_params_jvp(net, cache, djvp)
        fd = fd_param_grad(loss, net.params)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-4


def test_forward_jvp_rejects_a_wrong_input_dim():
    net = small_net(dim=2)
    with pytest.raises(NumericalError, match=r"input \(3, 3\) and tangent \(3, 3\) need one shape"):
        sg.forward_jvp(net, np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(NumericalError, match=r"input \(3, 2\) and tangent \(4, 2\) need one shape"):
        sg.forward_jvp(net, np.ones((3, 2)), np.ones((4, 2)))


def _unfolded_reference(net, p, X, V, dpred, djvp):
    """Textbook frozen-statistics passes that normalize (s - mu) / sigma * gamma
    + beta layer by layer, never folding the norm into the weights. Returns
    (pred, jvp, input grads, backward_params grad, backward_params_jvp grad)."""
    batch = net.arch.norm == sg.NORM_BATCH
    h, th, saved = X, V, []
    for i in range(len(net.arch.hidden)):
        W = net.view(f"W{i}", p)
        s, ts = h @ W + net.view(f"b{i}", p), th @ W
        if batch:
            mu, var = net.norm_stats[i]
            std, gam = np.sqrt(var + sg.EPS), net.view(f"g{i}", p)
            xhat = (s - mu) / std
            u, tu = xhat * gam + net.view(f"s{i}", p), ts / std * gam
        else:
            std, gam, xhat, u, tu = 1.0, 1.0, None, s, ts
        mask = np.where(u > 0.0, 1.0, net.arch.slope)
        saved.append((h, th, ts, xhat, std, gam, mask))
        h, th = u * mask, tu * mask
    Wh = net.view("Wh", p).ravel()
    pred, jvp = h @ Wh + net.view("bh", p), th @ Wh
    grad, grad_jvp = np.zeros_like(p), np.zeros_like(p)
    net.view("Wh", grad)[:] = (h.T @ dpred)[:, None]
    net.view("bh", grad)[:] = dpred.sum()
    net.view("Wh", grad_jvp)[:] = (th.T @ djvp)[:, None]
    dh, dth, dx = np.outer(dpred, Wh), np.outer(djvp, Wh), np.tile(Wh, (X.shape[0], 1))
    for i in reversed(range(len(net.arch.hidden))):
        a, ta, ts, xhat, std, gam, mask = saved[i]
        du, dtu = dh * mask, dth * mask
        if batch:
            net.view(f"g{i}", grad)[:] = (du * xhat).sum(axis=0)
            net.view(f"s{i}", grad)[:] = du.sum(axis=0)
            net.view(f"g{i}", grad_jvp)[:] = (dtu * ts / std).sum(axis=0)
        ds, dts, dxs = du * gam / std, dtu * gam / std, dx * mask * gam / std
        net.view(f"W{i}", grad)[:] = a.T @ ds
        net.view(f"b{i}", grad)[:] = ds.sum(axis=0)
        net.view(f"W{i}", grad_jvp)[:] = ta.T @ dts
        W = net.view(f"W{i}", p)
        dh, dth, dx = ds @ W.T, dts @ W.T, dxs @ W.T
    return pred, jvp, dx, grad, grad_jvp


def _frozen_net(norm):
    """A net with scales, shifts and running statistics far from (1, 0, 0, 1),
    plus inputs, tangents, upstream gradients and distinct fast weights."""
    net = small_net(dim=3, hidden=(7, 5), norm=norm, seed=41)
    r = RngState(42)
    net.params = net.params + 0.3 * r.normal(size=net.params.shape)
    net.norm_stats = [(r.normal(size=m.shape), r.uniform(0.2, 3.0, size=v.shape))
                      for m, v in net.norm_stats]
    X, V = r.normal(size=(9, 3)), r.normal(size=(9, 3))
    dpred, djvp = r.normal(size=9), r.normal(size=9)
    fast = net.params + 0.2 * r.normal(size=net.params.shape)
    return net, X, V, dpred, djvp, fast


@pytest.mark.parametrize("norm", [sg.NORM_BATCH, sg.NORM_NONE])
def test_frozen_statistics_passes_match_unfolded_reference(norm):
    base, X, V, dpred, djvp, fast = _frozen_net(norm)
    for net in (base, fast_net(base, fast)):
        want = _unfolded_reference(base, net.params, X, V, dpred, djvp)
        pred, cache = sg.forward(net, X)
        jvp, jvp_cache = sg.forward_jvp(net, X, V)
        got = (pred, jvp, sg.input_grad_batch(net, X),
               sg.backward_params(net, cache, dpred),
               sg.backward_params_jvp(net, jvp_cache, djvp))
        names = ("forward", "forward_jvp", "input_grad_batch", "backward_params",
                 "backward_params_jvp")
        for name, g, w in zip(names, got, want):
            assert g.shape == w.shape, name
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), (name, net is base)


@pytest.mark.parametrize("norm", [sg.NORM_BATCH, sg.NORM_NONE])
def test_frozen_statistics_passes_mutate_nothing(norm):
    base, X, V, dpred, djvp, fast = _frozen_net(norm)
    inputs = [X, V, dpred, djvp, fast, base.params] + [a for st in base.norm_stats for a in st]
    before = [a.tobytes() for a in inputs]
    for net in (base, fast_net(base, fast)):
        _, cache = sg.forward(net, X)
        _, jvp_cache = sg.forward_jvp(net, X, V)
        calls = {
            "forward": lambda: sg.forward(net, X)[0],
            "forward_jvp": lambda: sg.forward_jvp(net, X, V)[0],
            "input_grad_batch": lambda: sg.input_grad_batch(net, X),
            # the same cache twice: a reverse pass must not write into it
            "backward_params": lambda: sg.backward_params(net, cache, dpred),
            "backward_params_jvp": lambda: sg.backward_params_jvp(net, jvp_cache, djvp),
        }
        for name, call in calls.items():
            first = call().tobytes()
            assert call().tobytes() == first, name
            assert [a.tobytes() for a in inputs] == before, name


def test_parameters_live_only_in_the_net():
    # a fast-weight vector is scored on its own net; no pass takes a second
    # parameter vector, and no cache carries one
    for mod in (sg, ml):
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name[0] != "_":
                args = inspect.signature(fn).parameters
                assert "params_override" not in args, name
                assert "net" not in args or "params" not in args, name
    assert not hasattr(sg, "_check_override")
    net = small_net()
    X = RngState(3).normal(size=(4, 2))
    for _, cache in (sg.forward(net, X), sg.forward(net, X, train=True),
                     sg.forward_jvp(net, X, X)):
        assert "params" not in cache


@pytest.mark.parametrize("slope", [0.01, 0.2, 0.5, 0.999, 5e-324])
def test_leaky_mask_is_np_where_bit_for_bit(slope):
    tiny = np.finfo(np.float64).smallest_subnormal
    u = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                  np.finfo(np.float64).tiny, -1.0, 1.0, 1e308, -1e308, 3.5])
    for x in (u, u.reshape(4, 4), u.reshape(4, 4).T, u[::3]):
        want = np.where(x > 0.0, 1.0, slope)
        got = sg._leaky_mask(x, slope)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# Reference frozen-statistics passes: a lookup mask and an out-of-place chain
# rule through the fold, in copies that share no helper with the module but
# _fold.

def _reference_leaky_mask(u, slope):
    return np.array([slope, 1.0]).take((u > 0.0).view(np.uint8))


def _reference_unfold_grad(net, grad, p, i, fold, dWf, dbf=0.0):
    _, _, std, centered = fold
    scale = 1.0 if std is None else net.view(f"g{i}", p) / std
    net.view(f"W{i}", grad)[:] = dWf * scale
    net.view(f"b{i}", grad)[:] = dbf * scale
    if std is not None:
        net.view(f"s{i}", grad)[:] = dbf
        dg = (net.view(f"W{i}", p) * dWf).sum(axis=0) + centered * dbf
        net.view(f"g{i}", grad)[:] = dg / std


def _reference_frozen_passes(net, X, V, dpred, djvp, params_override):
    """(pred, jvp, backward_params grad, backward_params_jvp grad) of the
    reference frozen-statistics passes."""
    p = net.params if params_override is None else params_override
    folded = sg._fold(net, p)
    h, th, layers = X, V, []
    for Wf, bf, _, _ in folded:
        u = h @ Wf
        u += bf
        tu = th @ Wf
        mask = _reference_leaky_mask(u, net.arch.slope)
        u *= mask
        tu *= mask
        layers.append((h, th, mask))
        h, th = u, tu
    pred = (h @ net.view("Wh", p) + net.view("bh", p)).ravel()
    jvp = (th @ net.view("Wh", p)).ravel()
    grad, grad_jvp = np.zeros_like(p), np.zeros_like(p)
    net.view("Wh", grad)[:] = h.T @ dpred[:, None]
    net.view("bh", grad)[:] = dpred.sum()
    net.view("Wh", grad_jvp)[:] = th.T @ djvp[:, None]
    dh = dpred[:, None] * net.view("Wh", p).ravel()[None, :]
    dth = djvp[:, None] * net.view("Wh", p).ravel()[None, :]
    for i in reversed(range(len(net.arch.hidden))):
        a, ta, mask = layers[i]
        du = dh * mask
        _reference_unfold_grad(net, grad, p, i, folded[i], a.T @ du, du.sum(axis=0))
        dth *= mask
        _reference_unfold_grad(net, grad_jvp, p, i, folded[i], ta.T @ dth)
        if i:
            dh = du @ folded[i][0].T
            dth = dth @ folded[i][0].T
    return pred, jvp, grad, grad_jvp


@pytest.mark.parametrize("norm", [sg.NORM_BATCH, sg.NORM_NONE])
@pytest.mark.parametrize("rows", [1, 7, 64, 257])
def test_frozen_passes_are_bit_equal_to_the_reference(norm, rows):
    net = sg.init_net(sg.Architecture(4, (512, 128, 32), norm=norm), RngState(5))
    r = np.random.default_rng(rows)
    net.params = net.params + 0.05 * r.normal(size=net.params.shape)
    net.norm_stats = [(r.normal(size=m.shape), r.uniform(0.2, 3.0, size=v.shape))
                      for m, v in net.norm_stats]
    X, V = r.normal(size=(rows, 4)), r.normal(size=(rows, 4))
    dpred, djvp = r.normal(size=rows), r.normal(size=rows)
    for p in (None, net.params + 0.1 * r.normal(size=net.params.shape)):
        want = _reference_frozen_passes(net, X, V, dpred, djvp, p)
        passes = net if p is None else fast_net(net, p)
        pred, cache = sg.forward(passes, X)
        jvp, jvp_cache = sg.forward_jvp(passes, X, V)
        got = (pred, jvp, sg.backward_params(passes, cache, dpred),
               sg.backward_params_jvp(passes, jvp_cache, djvp))
        for name, g, w in zip(("forward", "forward_jvp", "backward_params",
                               "backward_params_jvp"), got, want):
            assert g.tobytes() == w.tobytes(), (name, p is None)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_surrogate_passes_reuse_resident_buffers():
    """Freed activation buffers stay on the heap, so a pass faults in almost no fresh
    pages (over 2,000 minor faults per pair when glibc unmaps each buffer on free)."""
    import resource

    net = sg.init_net(sg.Architecture(4, (512, 128, 32)), RngState(0))
    r = np.random.default_rng(0)
    X, V, djvp = r.normal(size=(512, 4)), r.normal(size=(512, 4)), r.normal(size=512)

    def pair():
        _, cache = sg.forward_jvp(net, X, V)
        sg.backward_params_jvp(net, cache, djvp)

    for _ in range(3):
        pair()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        pair()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 16 * 50, f"{faults / 50:.1f} minor faults per pair"


def _adam_reference(params, grad, lr, state):
    """adam_step as it was written out of place; the in-place one must match it bit for bit."""
    assert (sg.ADAM_BETA1, sg.ADAM_BETA2, sg.ADAM_EPS) == (0.9, 0.999, 1e-8)
    state.t += 1
    state.m = sg.ADAM_BETA1 * state.m + (1.0 - sg.ADAM_BETA1) * grad
    state.v = sg.ADAM_BETA2 * state.v + (1.0 - sg.ADAM_BETA2) * grad * grad
    mhat = state.m / (1.0 - sg.ADAM_BETA1**state.t)
    vhat = state.v / (1.0 - sg.ADAM_BETA2**state.t)
    return params - lr * mhat / (np.sqrt(vhat) + sg.ADAM_EPS)


def test_adam_in_place_matches_reference_bit_for_bit():
    r = np.random.default_rng(3)
    p = q = r.normal(size=257)
    state = sg.AdamState(np.zeros(257), np.zeros(257))
    ref = sg.AdamState(np.zeros(257), np.zeros(257))
    for lr in (1e-3, 1e-2, 0.1, 1e-3, 5.0):
        g = r.normal(size=257) * r.choice([1e-12, 1.0, 1e6], size=257)
        p, q = sg.adam_step(p, g, lr, state), _adam_reference(q, g, lr, ref)
        assert p.tobytes() == q.tobytes()
        assert (state.m.tobytes(), state.v.tobytes()) == (ref.m.tobytes(), ref.v.tobytes())
    assert state.t == ref.t == 5


def test_adam_one_step_oracle():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.5])
    state = sg.AdamState(np.zeros(2), np.zeros(2))
    out = sg.adam_step(p, g, 0.01, state)
    # first-step bias correction: mhat = g, vhat = g^2
    want = p - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(out, want, atol=1e-10)


def test_adam_zero_grad_zero_state():
    p = np.array([1.0, 2.0])
    state = sg.AdamState(np.zeros(2), np.zeros(2))
    out = sg.adam_step(p, np.zeros(2), 0.01, state)
    assert np.allclose(out, p)


def test_apply_update_shape_mismatch():
    net = small_net()
    with pytest.raises(NumericalError, match=r"vs \(3,\)"):
        sg.apply_update(net, np.zeros(3), 0.1, sg.AdamState.for_net(net))


def test_checkpoint_round_trip(tmp_path):
    net = small_net(dim=3, hidden=(7, 4), seed=21)
    p = tmp_path / "net.ckpt"
    sg.save_checkpoint(net, p)
    back = sg.load_checkpoint(p)
    assert back.arch == net.arch
    assert np.array_equal(back.params, net.params)
    for (m0, v0), (m1, v1) in zip(net.norm_stats, back.norm_stats):
        assert np.array_equal(m0, m1) and np.array_equal(v0, v1)
    X = RngState(22).normal(size=(5, 3))
    assert np.array_equal(sg.forward(net, X)[0], sg.forward(back, X)[0])


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(Exception):
        sg.load_checkpoint(p)


def _resealed(data: bytes) -> bytes:
    """A checkpoint body with a fresh sha256 trailer, as save_checkpoint writes."""
    return data + hashlib.sha256(data).digest()


@pytest.mark.parametrize("norm", [sg.NORM_BATCH, sg.NORM_NONE])
def test_checkpoint_rejects_short_and_long_files(tmp_path, norm):
    net = small_net(dim=8, hidden=(4,), norm=norm, seed=23)
    p = tmp_path / "net.ckpt"
    sg.save_checkpoint(net, p)
    data = p.read_bytes()
    for bad in (data[:-40], data[:-1], data[:9], data[:6], data + b"\x00" * 8, data + b"x"):
        p.write_bytes(bad)
        with pytest.raises(sg.NumericalError):
            sg.load_checkpoint(p)
    body = data[:-32]
    for bad in (body[:-8], body + b"\x00" * 8):  # sealed, but the wrong length
        p.write_bytes(_resealed(bad))
        with pytest.raises(sg.NumericalError, match="header implies"):
            sg.load_checkpoint(p)


def test_checkpoint_rejects_bad_header(tmp_path):
    net = small_net(dim=3, hidden=(5,), seed=24)
    p = tmp_path / "net.ckpt"
    sg.save_checkpoint(net, p)
    body = p.read_bytes()[:-32]
    for old, new in ((b'"n_stats": 1', b'"n_stats": 2'), (b'"input_dim"', b'"input_dam"'),
                     (b'"hidden": [', b'"hidden": {'), (b'"hidden": [5]', b'"hidden": [0]')):
        assert old in body
        edited = body.replace(old, new)
        p.write_bytes(_resealed(edited))
        with pytest.raises(sg.NumericalError, match="header"):
            sg.load_checkpoint(p)
        p.write_bytes(edited + hashlib.sha256(body).digest())  # the old digest
        with pytest.raises(sg.NumericalError, match="checksum"):
            sg.load_checkpoint(p)


def test_checkpoint_with_a_mode_key_still_loads(tmp_path):
    # version-2 files written before the net lost its train/eval mode carry a
    # "mode" header key; the loader ignores it
    net = small_net(dim=3, hidden=(5,), seed=26)
    p = tmp_path / "net.ckpt"
    sg.save_checkpoint(net, p)
    data = p.read_bytes()[:-32]
    hlen = int.from_bytes(data[5:9], "little")
    header = data[9 : 9 + hlen].replace(b'"input_dim": 3,', b'"input_dim": 3, "mode": "eval",')
    assert b'"mode": "eval"' in header
    p.write_bytes(_resealed(data[:5] + len(header).to_bytes(4, "little") + header
                            + data[9 + hlen :]))
    back = sg.load_checkpoint(p)
    assert np.array_equal(back.params, net.params)
    for (m0, v0), (m1, v1) in zip(net.norm_stats, back.norm_stats):
        assert np.array_equal(m0, m1) and np.array_equal(v0, v1)


def test_checkpoint_checksum_and_version(tmp_path):
    net = small_net(dim=3, hidden=(5,), seed=25)
    p = tmp_path / "net.ckpt"
    sg.save_checkpoint(net, p)
    data = p.read_bytes()
    assert data[4] == sg.CHECKPOINT_VERSION == 2
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()
    payload_at = len(data) - 32 - 8 * (net.params.size + 2 * 5)
    assert data[payload_at:-32] == net.params.astype("<f8").tobytes() + b"".join(
        m.astype("<f8").tobytes() + v.astype("<f8").tobytes() for m, v in net.norm_stats)
    # a payload byte, a digest byte, and "slope": 0.01 -> 0.11, still a valid header
    for at in (payload_at + 3, len(data) - 1, data.index(b'"slope": 0.01') + 11):
        bad = bytearray(data)
        bad[at] ^= 0x01
        p.write_bytes(bytes(bad))
        with pytest.raises(sg.NumericalError, match="checksum"):
            sg.load_checkpoint(p)
    # a version-1 file: the same framing without the trailer
    p.write_bytes(data[:4] + b"\x01" + data[5:-32])
    with pytest.raises(sg.NumericalError, match="version 1.*rerun"):
        sg.load_checkpoint(p)
