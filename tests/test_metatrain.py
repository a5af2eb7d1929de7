import numpy as np
import pytest

from optbias import metatrain as mt
from optbias import sim4opt, surrogate as sg
from optbias.dataio import OfflineDataset, standardize
from optbias.matchloss import (
    DEFAULT_MODE, EXACT, PairBatch, match_loss, mse_loss, offline_pairs,
)
from optbias.errors import DataError, NumericalError
from optbias.numerics import RngState
from conftest import fast_net, small_net, toy_dataset


def make_tasks(n_tasks=3, seed=0, n_points=8, evolve_steps=4, delta_frac=0.3):
    r = RngState(seed)
    X = r.normal(size=(n_points, 2))
    z = np.sin(X).sum(axis=1)
    std, _ = standardize(OfflineDataset(X, z))
    cfg = sim4opt.Sim4OptConfig(
        n_functions=n_tasks, evolve_steps=evolve_steps, delta_frac=delta_frac
    )
    return sim4opt.generate_tasks(std, cfg, RngState(seed + 1))


def test_meta_config_validation():
    with pytest.raises(ValueError):
        mt.MetaConfig(epochs=0)
    with pytest.raises(ValueError):
        mt.MetaConfig(outer_lr=0.0)
    mt.MetaConfig(inner_lr=0.0)  # zero inner lr is allowed


def test_inner_adapt_zero_alpha_identity():
    tasks = make_tasks(1)
    net = small_net()
    cfg = mt.MetaConfig(inner_lr=0.0, integral_mode=EXACT)
    fast, pre, post, post_grad = mt.inner_adapt(net, tasks[0], cfg, RngState(3))
    assert np.array_equal(fast, net.params)
    assert pre >= 0 and post >= 0
    assert post_grad.shape == net.params.shape


def test_inner_adapt_purity_and_determinism():
    tasks = make_tasks(1)
    a = small_net()
    b = a.copy()
    before = a.params.copy()
    cfg = mt.MetaConfig(integral_mode=EXACT)
    f1, _, _, g1 = mt.inner_adapt(a, tasks[0], cfg, RngState(4))
    assert np.array_equal(a.params, before)
    f2, _, _, g2 = mt.inner_adapt(b, tasks[0], cfg, RngState(4))
    assert np.array_equal(f1, f2) and np.array_equal(g1, g2)


def test_inner_adapt_scores_the_target_on_a_fast_net(monkeypatch):
    # the fast net holds the fast weights and shares the statistics the
    # context batch just refreshed; the net's own params never move
    tasks = make_tasks(1)
    net, ref = small_net(), small_net()
    before = net.params.tobytes()
    seen = []

    def recording(n, pairs, mode):
        seen.append((n, [(m.tobytes(), v.tobytes()) for m, v in n.norm_stats]))
        return match_loss(n, pairs, mode)

    monkeypatch.setattr(mt, "match_loss", recording)
    cfg = mt.MetaConfig(integral_mode=DEFAULT_MODE)
    fast = mt.inner_adapt(net, tasks[0], cfg, RngState(4))[0]
    assert net.params.tobytes() == before
    (context_net, context_stats), (target_net, target_stats) = seen
    assert context_net is net and target_net is not net
    assert target_net.params is fast and target_net.norm_stats is net.norm_stats
    starts, ends, _ = sim4opt.build_pairs(tasks[0], RngState(4), cfg.context_pairs)
    sg.forward(ref, np.concatenate([starts, ends], axis=0), train=True)
    refreshed = [(m.tobytes(), v.tobytes()) for m, v in ref.norm_stats]
    assert target_stats == context_stats == refreshed
    assert refreshed != [(m.tobytes(), v.tobytes()) for m, v in small_net().norm_stats]


def test_inner_adapt_descent_direction():
    # small alpha on a shared context=target batch must not increase the loss
    tasks = make_tasks(4, seed=7)
    wins = 0
    for i in range(20):
        net = small_net(seed=i)
        task = tasks[i % len(tasks)]
        batch_rng = RngState(500 + i)
        starts, ends, dz = sim4opt.build_pairs(task, batch_rng, 16)
        batch = PairBatch(starts, ends, dz)
        pre, grad = match_loss(net, batch, EXACT)
        fast = net.params - 1e-3 * grad
        post, _ = match_loss(fast_net(net, fast), batch, EXACT)
        if post <= pre + 1e-15:
            wins += 1
    assert wins >= 18


def _pooled_pretrain(net, tasks, cfg, rng):
    """Reference pretraining loop: per sampled task, refresh the norm
    statistics on a context batch and take the matching-loss gradient of a
    target batch at the params; one Adam step on the mean gradient per epoch.
    Returns the per-epoch mean target losses."""
    opt = sg.AdamState.for_net(net)
    losses = []
    for _ in range(cfg.epochs):
        if cfg.tasks_per_batch >= len(tasks):
            idx = np.arange(len(tasks))
        else:
            idx = np.sort(rng.choice(len(tasks), cfg.tasks_per_batch))
        total_grad = np.zeros_like(net.params)
        epoch_losses = []
        for i in idx:
            starts, ends, _ = sim4opt.build_pairs(tasks[i], rng, cfg.context_pairs)
            sg.forward(net, np.concatenate([starts, ends], axis=0), train=True)
            target = PairBatch(*sim4opt.build_pairs(tasks[i], rng, cfg.target_pairs))
            loss, grad = match_loss(net, target, cfg.integral_mode)
            total_grad += grad
            epoch_losses.append(loss)
        sg.apply_update(net, total_grad / len(idx), cfg.outer_lr, opt)
        losses.append(float(np.mean(epoch_losses)))
    return losses


def test_meta_train_alpha_zero_is_pooled_pretraining():
    tasks = make_tasks(3, seed=9)
    cfg = mt.MetaConfig(epochs=4, inner_lr=0.0, tasks_per_batch=2)
    a = small_net(seed=3)
    b = a.copy()
    stats = mt.meta_train(a, tasks, cfg, RngState(11))
    want = _pooled_pretrain(b, tasks, cfg, RngState(11))
    assert np.array_equal(a.params, b.params)
    for (ma, va), (mb, vb) in zip(a.norm_stats, b.norm_stats):
        assert np.array_equal(ma, mb) and np.array_equal(va, vb)
    assert stats.epoch == [1, 2, 3, 4]
    assert stats.pre_loss == want and stats.post_loss == want


def test_meta_epoch_empty_tasks():
    net = small_net()
    cfg = mt.MetaConfig()
    with pytest.raises(NumericalError, match="no tasks"):
        mt.meta_epoch(net, [], cfg, RngState(0), sg.AdamState.for_net(net))


def test_meta_train_deterministic():
    tasks = make_tasks(2, seed=13)
    cfg = mt.MetaConfig(epochs=3, tasks_per_batch=2)
    a = small_net(seed=5)
    b = a.copy()
    mt.meta_train(a, tasks, cfg, RngState(21))
    mt.meta_train(b, tasks, cfg, RngState(21))
    assert np.array_equal(a.params, b.params)


def test_meta_train_reduces_outer_loss():
    tasks = make_tasks(8, seed=17, delta_frac=0.0)
    # outer_lr raised above the pipeline default so 50 single-batch epochs
    # give a clear training signal on this tiny task set
    cfg = mt.MetaConfig(epochs=50, tasks_per_batch=8, integral_mode=EXACT, outer_lr=0.01)
    drops = []
    for seed in range(5):
        net = small_net(dim=2, hidden=(16, 8), seed=40 + seed)
        stats = mt.meta_train(net, tasks, cfg, RngState(60 + seed))
        drops.append(stats.post_loss[0] / max(stats.post_loss[-1], 1e-300))
    assert np.median(drops) >= 10.0


def test_pretrain_loss_decreases():
    tasks = make_tasks(4, seed=23)
    cfg = mt.MetaConfig(epochs=40, tasks_per_batch=4, inner_lr=0.0, integral_mode=EXACT)
    net = small_net(dim=2, hidden=(16, 8), seed=8)
    stats = mt.meta_train(net, tasks, cfg, RngState(31))
    first = np.median(stats.post_loss[:10])
    last = np.median(stats.post_loss[-10:])
    assert last < first


@pytest.mark.parametrize("mode", [DEFAULT_MODE, None], ids=["match", "squared_error"])
def test_finetune_zero_epochs_noop(mode):
    net = small_net()
    before = net.params.copy()
    mt.finetune(net, toy_dataset(), 0, RngState(0), mode=mode)
    assert np.array_equal(net.params, before)


def _supervised_reference(net, ds, epochs, batch, rng, lr):
    """Reference ga training loop, written out by hand: squared error on
    min(batch, n) distinct rows per Adam step."""
    opt = sg.AdamState.for_net(net)
    for _ in range(epochs):
        idx = rng.choice(ds.n, min(batch, ds.n))
        _, grad = mse_loss(net, ds, idx)
        sg.apply_update(net, grad, lr, opt)
    return net


@pytest.mark.parametrize("batch", [8, 64])  # fewer and more rows than the 20 offline points
def test_finetune_squared_error_is_the_supervised_loop(batch):
    ds = toy_dataset()
    got = mt.finetune(small_net(), ds, 7, RngState(5), lr=1e-3, batch_size=batch, mode=None)
    want = _supervised_reference(small_net(), ds, 7, batch, RngState(5), 1e-3)
    assert np.array_equal(got.params, want.params)
    for (m0, v0), (m1, v1) in zip(want.norm_stats, got.norm_stats):
        assert np.array_equal(m0, m1) and np.array_equal(v0, v1)


def test_finetune_too_few_points():
    net = small_net()
    ds = OfflineDataset(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(DataError, match="need at least 2 offline points, got 1"):
        mt.finetune(net, ds, 5, RngState(0))


def test_finetune_reduces_offline_loss():
    wins = []
    for seed in range(5):
        r = RngState(700 + seed)
        X = r.normal(size=(30, 2))
        z = (X[:, 0] - 0.5) ** 2 * -1.0 + 0.3 * X[:, 1]
        std, _ = standardize(OfflineDataset(X, z))
        net = small_net(dim=2, hidden=(16, 8), seed=80 + seed)
        probe = offline_pairs(std, 256, RngState(800 + seed))
        before, _ = match_loss(net, probe, EXACT)
        mt.finetune(net, std, 60, RngState(900 + seed), lr=0.01, mode=EXACT)
        after, _ = match_loss(net, probe, EXACT)
        wins.append(after <= 0.5 * before)
    assert sum(wins) >= 4


def test_finetune_preserves_norm_stats():
    # matching runs under the frozen statistics; squared error normalizes with
    # batch statistics, so it moves them
    net = small_net()
    stats_before = [(m.copy(), v.copy()) for m, v in net.norm_stats]
    mt.finetune(net, toy_dataset(), 5, RngState(1), lr=0.01)
    for (m0, v0), (m1, v1) in zip(stats_before, net.norm_stats):
        assert np.array_equal(m0, m1) and np.array_equal(v0, v1)
    mt.finetune(net, toy_dataset(), 5, RngState(1), lr=0.01, mode=None)
    for (m0, v0), (m1, v1) in zip(stats_before, net.norm_stats):
        assert not np.array_equal(m0, m1) and not np.array_equal(v0, v1)


def test_train_stats_csv(tmp_path):
    stats = mt.TrainStats()
    stats.append(1, 0.5, 0.4)
    p = tmp_path / "log.csv"
    stats.write_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines == ["epoch,mean_pre_loss,mean_post_loss", "1,0.5,0.4"]
