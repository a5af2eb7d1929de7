import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbias import gp, sim4opt
from optbias.errors import DataError, NumericalError
from optbias.dataio import OfflineDataset, standardize
from optbias.numerics import RngState, cholesky_solve
from conftest import ucb_batch, ucb_grad_batch


def offline_2d(n=12, seed=0):
    r = RngState(seed)
    X = r.normal(size=(n, 2))
    z = -np.sum(X * X, axis=1)
    std, _ = standardize(OfflineDataset(X, z))
    return std


def test_config_validation():
    with pytest.raises(ValueError, match=r"delta_frac must be in \[0, 1\), got 1.0"):
        sim4opt.Sim4OptConfig(delta_frac=1.0)
    with pytest.raises(ValueError):
        sim4opt.Sim4OptConfig(step_size=0.0)
    with pytest.raises(ValueError):
        sim4opt.Sim4OptConfig(evolution_mode="sideways")


def test_sample_params_zero_delta():
    base = gp.KernelParams("rbf", 1.3, 0.8, 0.05, mean=0.2)
    got = sim4opt.sample_task_params(base, 0.0, RngState(0))
    assert got == base


def test_sample_params_uniform_band():
    base = gp.KernelParams("rbf", 1.0, 1.0)
    r = RngState(1)
    draws = np.array(
        [sim4opt.sample_task_params(base, 0.5, r).lengthscale for _ in range(10_000)]
    )
    assert draws.min() >= 0.5 and draws.max() <= 1.5
    assert 0.98 <= draws.mean() <= 1.02


def test_sample_params_invalid_delta():
    with pytest.raises(ValueError, match=r"delta_frac must be in \[0, 1\), got 1.0"):
        sim4opt.sample_task_params(gp.KernelParams(), 1.0, RngState(0))


def test_evolve_fixed_point_far_from_data():
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.01)
    model = gp.posterior(OfflineDataset(np.zeros((2, 2)) + [[0, 0], [1, 1]],
                                        np.array([0.0, 1.0])), p)
    X0 = np.array([[50.0, 50.0]])
    states, labels, diverged = sim4opt.evolve([model], X0, 5, 0.1)
    assert states.shape == (1, 1, 11, 2) and labels.shape == (1, 1, 11)
    assert np.allclose(states, X0, atol=1e-8)
    assert not diverged.any()


def test_evolve_monotone_labels_1d():
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.0)
    ds = OfflineDataset(np.array([[1.0]]), np.array([1.0]))
    model = gp.posterior(ds, p)
    X0 = np.array([[0.0]])
    states, labels, _ = sim4opt.evolve([model], X0, 30, 0.05)
    walk = labels[0, 0]  # [descent reversed | start | ascent]
    assert np.array_equal(walk, gp.posterior_mean_batch(model, states[0, 0]))
    assert np.all(np.diff(walk) >= -1e-12)
    assert walk[0] <= gp.posterior_mean(model, X0[0])


def test_evolve_divergence_guard():
    p = gp.KernelParams("rbf", 1.0, 1.0, 0.01)
    ds = OfflineDataset(np.array([[0.0]]), np.array([1.0]))
    tame = gp.posterior(ds, p)
    wild = gp.posterior(ds, p.with_mean(1e12))  # its first step lands ~1e10 away
    _, _, diverged = sim4opt.evolve([tame, wild, tame], np.array([[0.5]]), 3, 0.05)
    assert diverged.tolist() == [False, True, False]
    # absurd step size blows straight through the guard radius
    _, _, diverged = sim4opt.evolve([tame], np.array([[0.5]]), 2000, 1e7)
    assert diverged.tolist() == [True]


def _per_task_walks(ds, params, cfg):
    """One task the slow way: each direction walked separately with the public
    gp functions, every visited state labelled, each trajectory sorted."""
    model = gp.posterior(ds, params)
    if cfg.evolution_mode == sim4opt.MODE_UCB:
        def value(X):
            return ucb_batch(model, X, cfg.ucb_beta)

        def grad(X):
            return ucb_grad_batch(model, X, cfg.ucb_beta)
    else:
        def value(X):
            return gp.posterior_mean_batch(model, X)

        def grad(X):
            return gp.posterior_mean_grad_batch(model, X)
    walks = {}
    for sign in (-1, +1):
        X, walk = ds.X, [ds.X]
        for _ in range(cfg.evolve_steps):
            X = X + sign * cfg.step_size * grad(X)
            walk.append(X)
        walks[sign] = walk
    seq = walks[-1][::-1] + walks[+1][1:]
    states = np.stack(seq, axis=1)
    labels = np.stack([value(X) for X in seq], axis=1)
    order = np.argsort(labels, axis=1, kind="stable")
    return states[np.arange(ds.n)[:, None], order], np.take_along_axis(labels, order, 1)


@pytest.mark.parametrize("family", [gp.RBF, gp.MATERN52])
@pytest.mark.parametrize("mode", [sim4opt.MODE_MEAN, sim4opt.MODE_UCB])
def test_generate_matches_per_task_walks(monkeypatch, family, mode):
    # 19 rows: a 38-row block product would round some rows differently
    ds = offline_2d(n=19)
    # chunks of 3 tasks: 7 tasks end in a partial chunk
    monkeypatch.setattr(sim4opt, "CHUNK_BYTES", 3 * 2 * ds.n * ds.n * 8)
    cfg = sim4opt.Sim4OptConfig(n_functions=7, evolve_steps=6, evolution_mode=mode,
                                base_params=gp.KernelParams(family, 0.8, 1.2, 0.02))
    rng = RngState(15)
    tasks = sim4opt.generate_tasks(ds, cfg, rng)
    assert [t.task_id for t in tasks] == list(range(7))
    for i, t in enumerate(tasks):
        params = sim4opt.sample_task_params(cfg.base_params, cfg.delta_frac, rng.split(i))
        assert t.params == params
        states, labels = _per_task_walks(ds, params, cfg)
        assert np.array_equal(t.states, states)
        assert np.array_equal(t.labels, labels)
        for traj, s, z in zip(t.trajectories, states, labels):
            assert np.array_equal(traj.states, s) and np.array_equal(traj.labels, z)


# A reference walk that allocates a fresh kernel block per step, builds the
# offsets by a broadcast add and records task-major, with its own copies of
# the gp kernel helpers. The per-task walk above goes through the same gp
# helpers as evolve, so a change to them that moved a last bit would move
# both sides of that test.

def _reference_sqdist(A, B):
    d2 = np.sum(A * A, axis=-1)[..., None] + np.sum(B * B, axis=1)[None, :]
    d2 -= 2.0 * A @ B.T
    return np.maximum(d2, 0.0, out=d2)


def _reference_kernel_from_sqdist(family, d2, h):
    if family == gp.RBF:
        K = np.multiply(d2, -0.5)
        K /= h.ls2
        np.exp(K, out=K)
        K *= h.signal_variance
        return K
    s = gp.SQRT5 * np.sqrt(d2) / h.lengthscale
    return h.signal_variance * (1.0 + s + s * s / 3.0) * np.exp(-s)


def _reference_grad_weights(family, K, d2, h):
    if family == gp.RBF:
        K /= -h.ls2
        return K
    s = gp.SQRT5 * np.sqrt(d2) / h.lengthscale
    return -(5.0 * h.signal_variance / (3.0 * h.ls2)) * (1.0 + s) * np.exp(-s)


def _reference_evolve(models, X0, steps, step_size, mode=sim4opt.MODE_MEAN, beta=0.0):
    X0 = np.atleast_2d(np.asarray(X0, dtype=np.float64))
    n, d = X0.shape
    c, M = len(models), steps
    family, X_train = models[0].params.family, models[0].X_train
    h = gp._stacked_hyper([m.params for m in models], ndim=4)
    alpha = np.stack([m.alpha for m in models])[:, None, None, :]
    mean = np.array([m.params.mean for m in models])[:, None, None]
    ucb = mode == sim4opt.MODE_UCB
    start = np.stack([X0, X0])
    signed_step = np.array([-step_size, step_size])[:, None, None]
    X = np.repeat(start[None], c, axis=0)
    states = np.empty((c, n, 2 * M + 1, d))
    labels = np.empty((c, n, 2 * M + 1))
    diverged = np.zeros(c, dtype=bool)
    for t in range(M + 1):
        d2 = _reference_sqdist(X, X_train)
        K = _reference_kernel_from_sqdist(family, d2, h)
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
        W = _reference_grad_weights(family, K, d2, h)
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
            np.abs(X).max(axis=walk_axes) > sim4opt.DIVERGENCE_LIMIT)
        if bad.any():
            diverged |= bad
            X[diverged] = start
    return states, labels, diverged


@pytest.mark.parametrize("family", [gp.RBF, gp.MATERN52])
@pytest.mark.parametrize("mode", [sim4opt.MODE_MEAN, sim4opt.MODE_UCB])
def test_generate_is_bit_equal_to_the_reference_walk(monkeypatch, family, mode):
    ds = offline_2d(n=19)
    monkeypatch.setattr(sim4opt, "CHUNK_BYTES", 3 * 2 * ds.n * ds.n * 8)  # 7 = 3 + 3 + 1
    cfg = sim4opt.Sim4OptConfig(n_functions=7, evolve_steps=6, evolution_mode=mode,
                                base_params=gp.KernelParams(family, 0.8, 1.2, 0.02))
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(15))
    monkeypatch.setattr(sim4opt, "evolve", _reference_evolve)
    want = sim4opt.generate_tasks(ds, cfg, RngState(15))
    for t, w in zip(tasks, want, strict=True):
        assert t.params == w.params
        assert t.states.tobytes() == w.states.tobytes()
        assert t.labels.tobytes() == w.labels.tobytes()


def test_generate_sorts_each_walk_as_take_along_axis_does(monkeypatch):
    # one chunk of c = 4 tasks whose walks (step-major buffers, as evolve lays
    # them out) repeat labels: the flat gather keeps the stable order of ties
    ds = offline_2d(n=6)
    cfg = sim4opt.Sim4OptConfig(n_functions=4, evolve_steps=3)
    T, c, n, d = 2 * cfg.evolve_steps + 1, cfg.n_functions, ds.n, ds.dim
    r = np.random.default_rng(0)
    S, L = r.normal(size=(T, c, n, d)), r.integers(0, 3, size=(T, c, n)).astype(float)
    states, labels = S.transpose(1, 2, 0, 3), L.transpose(1, 2, 0)

    def fake_evolve(models, X0, steps, *args):
        assert (len(models), steps) == (c, cfg.evolve_steps)
        return states, labels, np.zeros(c, dtype=bool)

    monkeypatch.setattr(sim4opt, "evolve", fake_evolve)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(0))
    order = np.argsort(labels, axis=-1, kind="stable")
    want_labels = np.take_along_axis(labels, order, axis=-1)
    want_states = np.take_along_axis(states, order[..., None], axis=-2)
    for j, t in enumerate(tasks):
        assert t.labels.tobytes() == want_labels[j].tobytes()
        assert t.states.tobytes() == want_states[j].tobytes()


def _poisoning(monkeypatch, poisoned_call: int, every_retry: bool):
    """Patch sample_task_params so that the draw with index ``poisoned_call``
    (and, with ``every_retry``, every later draw from the same stream) has a
    prior mean of 1e12, whose walk leaves the guard radius in one step.
    Returns the list of streams drawn from, one entry per call."""
    real = sim4opt.sample_task_params
    streams = []

    def patched(base, delta_frac, rng):
        streams.append(rng)
        params = real(base, delta_frac, rng)
        call = len(streams) - 1
        bad = call == poisoned_call or (
            every_retry and call > poisoned_call and rng is streams[poisoned_call])
        return params.with_mean(1e12) if bad else params

    monkeypatch.setattr(sim4opt, "sample_task_params", patched)
    return streams


def test_diverged_task_alone_takes_its_next_draw(monkeypatch):
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=5, evolve_steps=3)
    clean = sim4opt.generate_tasks(ds, cfg, RngState(16))
    task_rng = RngState(16).split(2)
    sim4opt.sample_task_params(cfg.base_params, cfg.delta_frac, task_rng)
    second = sim4opt.sample_task_params(cfg.base_params, cfg.delta_frac, task_rng)
    streams = _poisoning(monkeypatch, poisoned_call=2, every_retry=False)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(16))
    assert len(streams) == 6 and streams[5] is streams[2]  # task 2 drew once more
    assert tasks[2].params == second != clean[2].params
    for i in (0, 1, 3, 4):
        assert tasks[i].params == clean[i].params
        assert np.array_equal(tasks[i].states, clean[i].states)
        assert np.array_equal(tasks[i].labels, clean[i].labels)


def test_task_generation_fails_after_max_retries(monkeypatch):
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=4, evolve_steps=2)
    streams = _poisoning(monkeypatch, poisoned_call=1, every_retry=True)
    with pytest.raises(NumericalError, match="task 1 failed after 3 retries"):
        sim4opt.generate_tasks(ds, cfg, RngState(17))
    assert sum(r is streams[1] for r in streams) == 1 + sim4opt.MAX_TASK_RETRIES


def test_generate_minimal_instance_shapes():
    ds = OfflineDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([-1.0, 1.0]))
    cfg = sim4opt.Sim4OptConfig(n_functions=1, evolve_steps=1, step_size=0.05)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(0))
    assert len(tasks) == 1
    t = tasks[0]
    assert len(t.trajectories) == 2
    assert t.kappa == 3  # 2M+1 with M=1
    assert t.flat_X.shape == (6, 2)
    assert np.all(np.diff(t.flat_z) >= 0)


def test_generate_kappa_and_ordering():
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=3, evolve_steps=7)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(2))
    for t in tasks:
        for traj in t.trajectories:
            assert traj.states.shape[0] == 2 * cfg.evolve_steps + 1
            assert np.all(np.diff(traj.labels) >= 0)
        assert np.all(np.diff(t.flat_z) >= 0)


def test_generate_label_consistency():
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=2, evolve_steps=5)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(3))
    for t in tasks:
        model = gp.posterior(ds, t.params)
        for traj in t.trajectories:
            re = gp.posterior_mean_batch(model, traj.states)
            assert np.abs(re - traj.labels).max() <= 1e-10


def test_generate_label_consistency_ucb():
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(
        n_functions=1, evolve_steps=4, evolution_mode=sim4opt.MODE_UCB, ucb_beta=2.0
    )
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(4))
    model = gp.posterior(ds, tasks[0].params)
    for traj in tasks[0].trajectories:
        re = ucb_batch(model, traj.states, 2.0)
        assert np.abs(re - traj.labels).max() <= 1e-10


def test_generate_deterministic(tmp_path):
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=2, evolve_steps=3)
    a = sim4opt.generate_tasks(ds, cfg, RngState(5))
    b = sim4opt.generate_tasks(ds, cfg, RngState(5))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    sim4opt.save_bundle(a, pa)
    sim4opt.save_bundle(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generate_zero_delta_shared_params():
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=4, evolve_steps=2, delta_frac=0.0)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(6))
    assert all(t.params == tasks[0].params for t in tasks)


def test_generate_needs_two_points():
    ds = OfflineDataset(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DataError, match="need at least 2 offline points, got 1"):
        sim4opt.generate_tasks(ds, sim4opt.Sim4OptConfig(n_functions=1), RngState(0))


def test_build_pairs_single_pair_trajectory():
    states = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([0.0, 0.5, 1.0])
    t = sim4opt.SyntheticTask(0, gp.KernelParams(), states[None], labels[None])
    starts, ends, dz = sim4opt.build_pairs(t, RngState(8), 10_000)
    assert np.all(dz >= 0)
    # 2 possible pairs, each near half the draws
    first = np.mean(starts.ravel() == 0.0)
    assert abs(first - 0.5) <= 0.02


def test_build_pairs_dz_nonnegative_generated():
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=1, evolve_steps=4)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(9))
    _, _, dz = sim4opt.build_pairs(tasks[0], RngState(10), 512)
    assert np.all(dz >= 0)


def test_bundle_round_trip(tmp_path):
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=2, evolve_steps=3)
    tasks = sim4opt.generate_tasks(ds, cfg, RngState(11))
    p = tmp_path / "bundle.json"
    sim4opt.save_bundle(tasks, p, config={"note": "test"})
    back = sim4opt.load_bundle(p)
    assert len(back) == len(tasks)
    for t0, t1 in zip(tasks, back):
        assert t0.task_id == t1.task_id
        assert t0.params == t1.params
        assert t0.kappa == t1.kappa
        assert np.array_equal(t0.flat_X, t1.flat_X)
        assert np.array_equal(t0.flat_z, t1.flat_z)
        assert len(t0.trajectories) == len(t1.trajectories)
        for a, b in zip(t0.trajectories, t1.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.labels, b.labels)


def test_bundle_bad_version(tmp_path):
    p = tmp_path / "bad.json"
    for version in (1, 2):  # the JSON bundles that came before the sealed framing
        p.write_text(json.dumps({"version": version, "config": {}, "tasks": []}) + "\n")
        with pytest.raises(NumericalError, match="JSON.*gen-tasks"):
            sim4opt.load_bundle(p)
    header, payload = _split(_bundle_file(tmp_path).read_bytes())
    p.write_bytes(_sealed(header, payload, version=4))
    with pytest.raises(NumericalError, match="version 4"):
        sim4opt.load_bundle(p)


def test_bundle_rejects_ragged_tasks(tmp_path):
    ds = offline_2d()
    short = sim4opt.generate_tasks(
        ds, sim4opt.Sim4OptConfig(n_functions=1, evolve_steps=2), RngState(12))
    long = sim4opt.generate_tasks(
        ds, sim4opt.Sim4OptConfig(n_functions=1, evolve_steps=3), RngState(12))
    with pytest.raises(ValueError, match="shape"):
        sim4opt.save_bundle(short + long, tmp_path / "ragged.json")
    with pytest.raises(ValueError, match="empty"):
        sim4opt.save_bundle([], tmp_path / "empty.json")


def _bundle_file(tmp_path):
    ds = offline_2d()
    cfg = sim4opt.Sim4OptConfig(n_functions=2, evolve_steps=2)
    p = tmp_path / "tasks.json"
    sim4opt.save_bundle(sim4opt.generate_tasks(ds, cfg, RngState(13)), p)
    return p


def _split(data: bytes):
    """The JSON header and the payload bytes of a sealed bundle."""
    hlen = int.from_bytes(data[5:9], "little")
    return json.loads(data[9 : 9 + hlen]), data[9 + hlen : -32]


def _sealed(header, payload: bytes, version=3, hlen=None) -> bytes:
    """The bundle that frames ``header`` (a dict, or raw bytes) and ``payload`` as
    save_bundle does, with a checksum that matches it; ``hlen`` overrides the
    stored header length."""
    head = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    body = (b"OBTB" + bytes([version]) + (len(head) if hlen is None else hlen).to_bytes(4, "little")
            + head + payload)
    return body + hashlib.sha256(body).digest()


def test_bundle_checksum_is_over_the_file(tmp_path):
    data = _bundle_file(tmp_path).read_bytes()
    assert _sealed(*_split(data)) == data


def _shape(f, **at):
    f["header"]["shape"] = [at.get(str(i), n) for i, n in enumerate(f["header"]["shape"])]


@pytest.mark.parametrize("edit, match", [
    (lambda f: f["header"].pop("shape"), "malformed"),
    (lambda f: f["header"].pop("params"), "malformed"),
    (lambda f: _shape(f, **{"1": f["header"]["shape"][1] + 1}), "bytes do not hold"),
    (lambda f: f.update(hlen=len(json.dumps(f["header"])) + len(f["payload"]) + 64),
     "bytes do not hold"),  # a header length that points past the file
    (lambda f: f["header"].update(shape=f["header"]["shape"][:3]), "malformed"),
    (lambda f: f["header"]["params"].pop(), "params records"),
    (lambda f: f["header"]["params"][0].update(lengthscale=-1.0), "malformed"),
    (lambda f: _shape(f, **{"0": -2, "1": -f["header"]["shape"][1]}), "malformed"),
    (lambda f: f["header"]["params"][1].pop("mean"), "malformed"),
    (lambda f: f.update(payload=f["payload"][:-8]), "bytes do not hold"),
    (lambda f: f.update(payload=f["payload"] + b"xyz"), "bytes do not hold"),  # not whole f64s
    (lambda f: f.update(header=b'{"shape": '), "unreadable"),
])
def test_bundle_malformed_sealed_files(tmp_path, edit, match):
    header, payload = _split(_bundle_file(tmp_path).read_bytes())
    f = {"header": header, "payload": payload, "hlen": None}
    edit(f)
    p = tmp_path / "edited.json"
    p.write_bytes(_sealed(f["header"], f["payload"], hlen=f["hlen"]))
    with pytest.raises(DataError, match=match):
        sim4opt.load_bundle(p)


def test_bundle_corruption_is_data_error(tmp_path):
    p = _bundle_file(tmp_path)
    data = p.read_bytes()
    flips = {
        "header": data.index(b'"lengthscale": ') + len(b'"lengthscale": ') + 2,
        "payload": len(data) - 32 - 5,
        "digest": len(data) - 1,
    }
    for at in flips.values():
        bad = bytearray(data)
        bad[at] ^= 0x01
        p.write_bytes(bytes(bad))
        with pytest.raises(DataError, match="checksum"):
            sim4opt.load_bundle(p)
    for cut in (0, 1, 9, len(data) // 2, len(data) - 1):
        p.write_bytes(data[:cut])
        with pytest.raises(DataError):
            sim4opt.load_bundle(p)


# config keys and strings that look like the bundle's own keys, or need escapes
_KEYS = st.sampled_from(["labels", "states", "sha256", "shape", "version", "config"]) | st.text()
_TEXT = st.sampled_from(['"labels":"', '"sha256":"', '\\', '"', "é🙂"]) | st.text()
_CONFIGS = st.none() | st.dictionaries(_KEYS, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8), max_size=4)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 4), T=st.integers(1, 3), kappa=st.integers(1, 5), d=st.integers(1, 3),
       config=_CONFIGS, seed=st.integers(0, 99))
def test_bundle_round_trip_is_bit_exact(tmp_path_factory, K, T, kappa, d, config, seed):
    r = RngState(seed)
    states, labels = r.normal(size=(K, T, kappa, d)), r.normal(size=(K, T, kappa))
    params = [gp.KernelParams(gp.MATERN52 if k % 2 else gp.RBF, *r.uniform(0.01, 3.0, size=3),
                              mean=float(r.normal())) for k in range(K)]
    tasks = [sim4opt.SyntheticTask(10 + k, params[k], states[k], labels[k]) for k in range(K)]
    work = tmp_path_factory.mktemp("bundle")
    for name in ("a.json", "b.json"):
        sim4opt.save_bundle(tasks, work / name, config=config)
    data = (work / "a.json").read_bytes()
    assert data == (work / "b.json").read_bytes()
    assert _split(data)[1] == labels.astype("<f8").tobytes() + states.astype("<f8").tobytes()
    back = sim4opt.load_bundle(work / "a.json")
    assert np.array_equal(np.stack([t.states for t in back]), states)
    assert np.array_equal(np.stack([t.labels for t in back]), labels)
    assert [(t.task_id, t.params) for t in back] == [(t.task_id, t.params) for t in tasks]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_bundle_io_memory_is_bounded(tmp_path):
    # about 8 MB of payload: save holds only a few blocks of it at a time,
    # load the decoded arrays and one block
    r = RngState(14)
    states, labels = r.normal(size=(32, 32, 201, 4)), r.normal(size=(32, 32, 201))
    payload = states.nbytes + labels.nbytes
    tasks = [sim4opt.SyntheticTask(k, gp.KernelParams(), states[k], labels[k]) for k in range(32)]
    p = tmp_path / "tasks.json"
    _, save_peak = _traced_peak(sim4opt.save_bundle, tasks, p)
    back, load_peak = _traced_peak(sim4opt.load_bundle, p)
    assert np.array_equal(back[-1].states, states[-1])
    assert save_peak <= 0.25 * payload, save_peak / payload
    assert load_peak <= 1.25 * payload, load_peak / payload
