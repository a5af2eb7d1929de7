from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbias import bench, gp, surrogate as sg
from optbias.dataio import normalized_score, standardize
from optbias.errors import ConfigError, NumericalError
from optbias.matchloss import EXACT
from optbias.metatrain import finetune
from optbias.numerics import RngState
from optbias.sim4opt import build_pairs

SMALL = bench.PipelineConfig(
    sim=bench.Sim4OptConfig(n_functions=4, evolve_steps=5),
    meta=bench.MetaConfig(epochs=3, tasks_per_batch=2),
    hidden=(16, 8),
    fit_gp=False,
    finetune_epochs=2,
    search_steps=10,
    supervised_epochs=5,
    matchopt_epochs=5,
)


def small_instance(name="sphere", seed=100, n_full=400, frac=0.05):
    o = bench.Oracle(name, 4)
    return bench.make_benchmark(o, RngState(seed), n_full, frac)


def test_oracle_validation():
    with pytest.raises(ConfigError):
        bench.Oracle("styblinski", 4)
    with pytest.raises(ConfigError):
        bench.Oracle("shekel4", 3)


def test_oracle_sample_and_query_check():
    o = bench.Oracle("ackley", 3)
    lo, hi = o.domain[:, 0], o.domain[:, 1]
    want = RngState(4).uniform(0.0, 1.0, size=(50, 3)) * (hi - lo) + lo
    X = o.sample(RngState(4), 50)
    assert X.tobytes() == want.tobytes() and ((lo <= X) & (X <= hi)).all()
    assert o.eval_batch(X[0]).shape == (1,) and o.grad_batch(X[0]).shape == (1, 3)
    for query in (o.eval_batch, o.grad_batch):
        with pytest.raises(NumericalError, match="query dim 2 != 3"):
            query(np.zeros((4, 2)))
    assert o.calls == 1


def test_oracle_known_optima():
    origin = np.zeros((1, 4))
    sphere = bench.Oracle("sphere", 4)
    assert sphere.eval_batch(origin)[0] == 0.0
    assert np.allclose(sphere.grad_batch(origin), 0.0)
    ackley = bench.Oracle("ackley", 4)
    assert abs(ackley.eval_batch(origin)[0]) <= 1e-12
    assert np.allclose(ackley.grad_batch(origin), 0.0)
    rast = bench.Oracle("rastrigin", 4)
    assert abs(rast.eval_batch(origin)[0]) <= 1e-12


def test_oracle_gradients_vs_finite_differences():
    h = 1e-6
    for name in bench.ORACLES:
        o = bench.Oracle(name, 4)
        rng = np.random.default_rng(5)
        lo, hi = o.domain[:, 0], o.domain[:, 1]
        X = rng.uniform(lo + 0.1, hi - 0.1, size=(100, 4))
        G = o.grad_batch(X)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (o.eval_batch(X + e) - o.eval_batch(X - e)) / (2 * h)
            assert np.abs(G[:, k] - fd).max() <= 1e-5


def test_oracle_sign_convention():
    # known_max really is the max over a large random probe
    rng = np.random.default_rng(6)
    for name in ("sphere", "ackley", "rastrigin", "shekel4"):
        o = bench.Oracle(name, 4)
        lo, hi = o.domain[:, 0], o.domain[:, 1]
        X = rng.uniform(0, 1, size=(10**6, 4)) * (hi - lo) + lo
        probe_max = o.eval_batch(X).max()
        loc, val = o.known_max
        at_loc = o.eval_batch(loc[None, :])[0]
        assert at_loc >= probe_max - 1e-3
        if val is not None:
            assert at_loc == pytest.approx(val, abs=1e-12)


def test_oracle_call_counter():
    o = bench.Oracle("sphere", 4)
    assert o.calls == 0
    o.eval_batch(np.zeros((7, 4)))
    assert o.calls == 7
    o.grad_batch(np.zeros((3, 4)))  # gradients are free of counter charges
    assert o.calls == 7


def test_make_benchmark_subset():
    b = small_instance()
    full, sub = b.full_data, b.offline_subset
    assert sub.n == max(2, int(np.ceil(0.05 * full.n)))
    assert sub.z.max() <= np.percentile(full.z, 6)
    assert b.y_bounds == (full.z.min(), full.z.max())


def test_make_benchmark_full_fraction():
    o = bench.Oracle("sphere", 2)
    b = bench.make_benchmark(o, RngState(1), 50, 1.0)
    assert b.offline_subset.n == 50


def test_run_method_unknown():
    b = small_instance()
    with pytest.raises(ConfigError):
        bench.run_method("cma-es", b, SMALL, 0)


@pytest.mark.parametrize("method", bench.METHODS)
def test_run_method_deterministic(method):
    b = small_instance()
    r1 = bench.run_method(method, b, SMALL, 0)
    r2 = bench.run_method(method, b, SMALL, 0)
    assert r1.percentile100 == r2.percentile100
    assert r1.best_raw == r2.best_raw
    assert np.array_equal(r1.candidate_scores, r2.candidate_scores)


def test_run_method_scores_are_pinned():
    # frozen reference: (percentile100, best_raw) of every method on the small
    # sphere instance, seed 0; a refactor meant to keep behaviour keeps these
    pinned = {
        "ga": (0.29495949399958554, -58.638961497747616),
        "matchopt": (0.295044503852099, -58.6322946103881),
        "optbias": (0.2947336440503475, -58.65667375258871),
        "optbias_pretrain": (0.29473364225218474, -58.65667389360941),
        "optbias_random_gen": (0.2947123786535337, -58.6583414887513),
    }
    b = small_instance()
    for method in bench.METHODS:
        r = bench.run_method(method, b, SMALL, 0)
        assert (r.percentile100, r.best_raw) == pytest.approx(pinned[method], rel=1e-12)


def test_run_method_oracle_discipline():
    # the oracle is only touched to score the final candidate batch
    b = small_instance()
    before = b.oracle.calls
    report = bench.run_method("optbias", b, SMALL, 0)
    assert b.oracle.calls - before == len(report.candidate_scores)
    assert report.percentile100 == report.candidate_scores.max()


def test_expt_style_generate_stays_on_offline_inputs():
    b = small_instance()
    std_ds, _ = standardize(b.offline_subset)
    tasks = bench.expt_style_generate(std_ds, SMALL, RngState(2))
    assert len(tasks) == SMALL.sim.n_functions
    rows = {tuple(r) for r in std_ds.X}
    for t in tasks:
        assert np.all(np.diff(t.flat_z) >= 0)
        for state in t.flat_X:
            assert tuple(state) in rows


def test_expt_style_task_is_one_sorted_trajectory():
    b = small_instance()
    std_ds, _ = standardize(b.offline_subset)
    n, d = std_ds.X.shape
    for t in bench.expt_style_generate(std_ds, SMALL, RngState(2)):
        assert t.states.shape == (1, n, d) and t.labels.shape == (1, n)
        # the pairs a flat reference draws: consecutive offline inputs sorted
        # by the task GP's posterior mean, from the same stream
        z = gp.posterior_mean_batch(gp.posterior(std_ds, t.params), std_ds.X)
        order = np.argsort(z, kind="stable")
        X_ref, z_ref = std_ds.X[order], z[order]
        r = RngState(7).integers(n - 1, size=500)
        want = (X_ref[r], X_ref[r + 1], z_ref[r + 1] - z_ref[r])
        got = build_pairs(t, RngState(7), 500)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _score(b, designs, scaler):
    values = b.oracle.eval_batch(scaler.inverse_x(designs))
    return np.array([normalized_score(v, *b.y_bounds) for v in values])


def _matchopt_by_hand(b, cfg, seed):
    """Norm warm-up on the offline inputs, finetune, search: run_method's matchopt."""
    std_ds, scaler = standardize(b.offline_subset)
    net = bench._make_net(std_ds.dim, cfg, RngState(seed).split(bench.STREAM_NET))
    sg.forward(net, std_ds.X, train=True)
    finetune(net, std_ds, cfg.matchopt_epochs, RngState(seed).split(bench.STREAM_BASELINE),
             lr=1e-3, batch_size=cfg.batch_size, mode=cfg.meta.integral_mode)
    final = bench.stage_search(net, std_ds, cfg, seed, bench._search_bounds(b, scaler))
    return _score(b, final.designs, scaler)


def _ga_by_hand(b, cfg, seed):
    """A fresh net, squared-error finetune at lr 1e-3, search: run_method's ga."""
    std_ds, scaler = standardize(b.offline_subset)
    net = bench._make_net(std_ds.dim, cfg, RngState(seed).split(bench.STREAM_NET))
    finetune(net, std_ds, cfg.supervised_epochs, RngState(seed).split(bench.STREAM_BASELINE),
             lr=1e-3, batch_size=cfg.batch_size, mode=None)
    final = bench.stage_search(net, std_ds, cfg, seed, bench._search_bounds(b, scaler))
    return _score(b, final.designs, scaler)


def test_ga_is_a_fresh_net_plus_squared_error_finetune():
    b = small_instance()
    for seed in (0, 1):
        report = bench.run_method("ga", b, SMALL, seed)
        assert np.array_equal(report.candidate_scores, _ga_by_hand(b, SMALL, seed))


def test_matchopt_is_warm_up_plus_finetune_in_the_configured_mode():
    b = small_instance()
    exact = replace(SMALL, meta=replace(SMALL.meta, integral_mode=EXACT))
    report = bench.run_method("matchopt", b, exact, 0)
    assert np.array_equal(report.candidate_scores, _matchopt_by_hand(b, exact, 0))
    quadrature = bench.run_method("matchopt", b, SMALL, 0)
    assert not np.array_equal(report.candidate_scores, quadrature.candidate_scores)


def test_matchopt_zero_epochs_scores():
    b = small_instance()
    cfg = replace(SMALL, matchopt_epochs=0)
    report = bench.run_method("matchopt", b, cfg, 1)
    assert len(report.candidate_scores) == min(cfg.n_candidates, b.offline_subset.n)
    assert np.isfinite(report.candidate_scores).all()
    assert np.array_equal(report.candidate_scores, _matchopt_by_hand(b, cfg, 1))


def test_expt_style_range_smaller_than_sim4opt():
    from optbias.sim4opt import generate_tasks
    b = small_instance("ackley", seed=101, n_full=2000, frac=0.01)
    std_ds, _ = standardize(b.offline_subset)
    sim_tasks = generate_tasks(std_ds, SMALL.sim, RngState(3))
    expt_tasks = bench.expt_style_generate(std_ds, SMALL, RngState(3))
    sim_range = np.mean([t.flat_z.max() - t.flat_z.min() for t in sim_tasks])
    expt_range = np.mean([t.flat_z.max() - t.flat_z.min() for t in expt_tasks])
    assert expt_range < sim_range


def test_grad_error_curve_validation():
    o = bench.Oracle("sphere", 2)
    with pytest.raises(ConfigError):
        bench.grad_error_curve(o, [], SMALL, [0])
    with pytest.raises(ConfigError):
        bench.grad_error_curve(o, [0.0, 1.0], SMALL, [0])


def test_grad_error_curve_shape():
    o = bench.Oracle("sphere", 2)
    rows = bench.grad_error_curve(o, [0.1, 1.0], SMALL, [0], n_train=200, n_test=50)
    assert [r[0] for r in rows] == [0.1, 1.0]
    assert all(np.isfinite(r[1]) and r[2] >= 0 for r in rows)


def test_pseudo_value_distribution_counts():
    from optbias.sim4opt import generate_tasks
    b = small_instance()
    std_ds, scaler = standardize(b.offline_subset)
    tasks = generate_tasks(std_ds, SMALL.sim, RngState(4))
    edges, counts, exceed = bench.pseudo_value_distribution(
        tasks, b.oracle, scaler, float(b.offline_subset.z.max()), b.y_bounds
    )
    n_designs = sum(len(t.trajectories) for t in tasks)
    assert counts.sum() == n_designs
    assert len(edges) == len(counts) + 1
    assert 0.0 <= exceed <= 1.0
    # reference: each trajectory's last (top-label) state, one at a time
    top = np.array([traj.states[-1] for t in tasks for traj in t.trajectories])
    values = b.oracle.eval_batch(scaler.inverse_x(top))
    assert exceed == np.mean(values > float(b.offline_subset.z.max()))
    clipped = np.clip(values, edges[0], edges[-1])
    assert np.array_equal(counts, np.histogram(clipped, bins=edges)[0])


def test_pseudo_value_distribution_no_tasks():
    # the same empty task list that meta_epoch rejects, with the same exit class
    b = small_instance()
    with pytest.raises(NumericalError, match="no tasks"):
        bench.pseudo_value_distribution([], b.oracle, standardize(b.offline_subset)[1],
                                        0.0, b.y_bounds)


def test_summarize_single_method():
    names, mean, std, rank, mean_rank = bench.summarize(["ga"], np.array([[[0.5, 0.6]]]))
    assert names == ["ga"]
    assert rank[0, 0] == 1.0
    assert mean_rank[0] == 1.0
    assert mean[0, 0] == pytest.approx(0.55)
    assert std[0, 0] == pytest.approx(0.05)


def test_summarize_tie_rule():
    _, _, _, rank, _ = bench.summarize(["a", "b"], np.full((2, 1, 1), 0.5))
    assert rank[:, 0].tolist() == [1.5, 1.5]


def test_summarize_manual_grid():
    # variants b, a; oracles x, y; two seeds each
    p100 = np.array([[[0.6, 0.8], [0.1, 0.3]],
                     [[0.2, 0.4], [0.9, 0.7]]])
    names, mean, _, rank, mean_rank = bench.summarize(["b", "a"], p100)
    assert names == ["a", "b"]
    assert mean[0, 0] == pytest.approx(0.3)
    assert rank[0, 0] == 2.0 and rank[1, 0] == 1.0
    assert rank[0, 1] == 1.0 and rank[1, 1] == 2.0
    assert mean_rank[0] == pytest.approx(1.5)
    # ranks average to (m+1)/2 per benchmark
    assert rank[0, 0] + rank[1, 0] == 3.0


def _summarize_per_cell(reports):
    """summarize as it was written over (method, benchmark, seed, p100) records:
    dicts keyed by (method, benchmark), one reduction and one ranking per cell."""
    from scipy.stats import rankdata

    methods = sorted({m for m, _, _, _ in reports})
    benchmarks = sorted({b for _, b, _, _ in reports})
    cells: dict[tuple[str, str], list[float]] = {}
    for m, b, _, v in reports:
        cells.setdefault((m, b), []).append(v)
    means = {k: float(np.mean(v)) for k, v in cells.items()}
    stds = {k: float(np.std(v)) for k, v in cells.items()}
    ranks = {}
    for b in benchmarks:
        rank = rankdata([-means[(m, b)] for m in methods], method="average")
        ranks.update({(m, b): float(r) for m, r in zip(methods, rank)})
    mean_rank = {m: float(np.mean([ranks[(m, b)] for b in benchmarks])) for m in methods}
    return methods, means, stds, ranks, mean_rank


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_summarize_is_the_per_cell_reference_bit_for_bit(data):
    V, O, S = (data.draw(st.integers(1, n)) for n in (5, 4, 20))
    labels = data.draw(st.lists(st.text("abcK[]=.0123", min_size=1, max_size=6),
                                min_size=V, max_size=V, unique=True))
    # a few distinct values, so that cells and their means tie
    pool = data.draw(st.lists(st.floats(0.0, 1.5, allow_subnormal=False), min_size=1,
                              max_size=4))
    p100 = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=V * O * S,
                                       max_size=V * O * S))).reshape(V, O, S)
    oracles = [f"o{i}" for i in range(O)]
    names, mean, std, rank, mean_rank = bench.summarize(labels, p100)
    methods, means, stds, ranks, mean_ranks = _summarize_per_cell(
        [(labels[v], oracles[o], s, p100[v, o, s]) for v, o, s in np.ndindex(V, O, S)])
    assert names == methods
    for i, m in enumerate(names):
        assert mean_rank[i].tobytes() == np.float64(mean_ranks[m]).tobytes()
        for o, b in enumerate(oracles):
            for got, want in ((mean, means), (std, stds), (rank, ranks)):
                assert got[i, o].tobytes() == np.float64(want[(m, b)]).tobytes()


def test_sphere_subset_best_regression_constant():
    # frozen reference: normalized score of the subset's best design on the
    # default sphere-4D benchmark construction
    o = bench.Oracle("sphere", 4)
    b = bench.make_benchmark(o, RngState(1_000_003), 8000, 0.01)
    floor = normalized_score(b.offline_subset.z.max(), *b.y_bounds)
    assert floor == pytest.approx(0.21565994101090033, rel=1e-12)
