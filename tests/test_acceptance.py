"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line with
the measured quantities. The heavy pipeline grid is computed once per session
and shared across the criteria that consume it.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from optbias import bench, gp, sim4opt, surrogate as sg
from optbias.bench import Oracle, PipelineConfig, make_benchmark, run_method
from optbias.dataio import OfflineDataset, normalized_score, standardize
from optbias.matchloss import EXACT, IntegralMode, match_loss, offline_pairs, path_integral
from optbias.numerics import RngState

BENCHMARKS = ("sphere", "ackley", "shekel4")
SEEDS = (0, 1, 2, 3)
INSTANCE_SEED = 1_000_003


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_instance(name):
    return make_benchmark(Oracle(name, 4), RngState(INSTANCE_SEED), 8000, 0.01)


@pytest.fixture(scope="session")
def grid():
    """Full 5-method x 3-benchmark x 4-seed pipeline grid with defaults."""
    cfg = PipelineConfig()
    t0 = time.perf_counter()
    scores = {}
    for bname in BENCHMARKS:
        b = make_instance(bname)
        floor = normalized_score(b.offline_subset.z.max(), *b.y_bounds)
        for m in bench.METHODS:
            for s in SEEDS:
                scores[(m, bname, s)] = run_method(m, b, cfg, s).percentile100
        scores[("__floor__", bname)] = floor
    scores["__seconds__"] = time.perf_counter() - t0
    return scores


def test_criterion_gp_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_mean = worst_var = 0.0
    for i in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 9))
        fam = gp.RBF if i % 2 == 0 else gp.MATERN52
        X = rng.standard_normal((n, d))
        z = rng.standard_normal(n)
        p = gp.KernelParams(fam, 0.5 + rng.uniform(), 0.5 + rng.uniform(), 0.1,
                            mean=float(rng.uniform(-1, 1)))
        ds = OfflineDataset(X, z)
        g = gp.posterior(ds, p)
        Xq = rng.standard_normal((5, d))
        K = gp.kernel_matrix(p, X, X) + p.noise_variance * np.eye(n)
        Kinv = np.linalg.inv(K)
        Ks = gp.kernel_matrix(p, Xq, X)
        mean_ref = p.mean + Ks @ Kinv @ (z - p.mean)
        var_ref = np.maximum(p.signal_variance - np.sum((Ks @ Kinv) * Ks, axis=1), 0.0)
        worst_mean = max(worst_mean, np.abs(gp.posterior_mean_batch(g, Xq) - mean_ref).max())
        worst_var = max(worst_var, np.abs(gp.posterior_var_batch(g, Xq) - var_ref).max())

    # noiseless interpolation
    worst_interp = 0.0
    for seed in range(10):
        r = np.random.default_rng(100 + seed)
        X = r.standard_normal((10, 3))
        z = r.standard_normal(10)
        g = gp.posterior(OfflineDataset(X, z), gp.KernelParams("rbf", 1.0, 1.0, 0.0))
        worst_interp = max(
            worst_interp, np.abs(gp.posterior_mean_batch(g, X) - z).max()
        )

    # analytic posterior-mean gradient vs central finite differences
    worst_grad = 0.0
    h = 1e-5
    for i in range(100):
        d = [1, 2, 4, 8][i % 4]
        fam = gp.RBF if i % 2 == 0 else gp.MATERN52
        r = np.random.default_rng(200 + i)
        X = r.standard_normal((10, d))
        z = r.standard_normal(10)
        p = gp.KernelParams(fam, 1.0, 1.0, 0.1)
        g = gp.posterior(OfflineDataset(X, z), p)
        x = r.standard_normal(d)
        grad = gp.posterior_mean_grad(g, x)
        fd = np.zeros(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd[k] = (gp.posterior_mean(g, x + e) - gp.posterior_mean(g, x - e)) / (2 * h)
        worst_grad = max(
            worst_grad, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)
        )
    secs = time.perf_counter() - t0
    ok = worst_mean <= 1e-8 and worst_var <= 1e-8 and worst_interp <= 1e-6 \
        and worst_grad <= 1e-5 and secs < 30
    report(
        "gp correctness",
        ok,
        f"mean err {worst_mean:.2e}, var err {worst_var:.2e}, "
        f"interp err {worst_interp:.2e}, grad err {worst_grad:.2e}, {secs:.1f}s",
    )


def test_criterion_surrogate_autodiff():
    t0 = time.perf_counter()
    worst_param = worst_input = 0.0
    for i in range(50):
        r = RngState(1000 + i)
        d = 1 + i % 4
        arch = sg.Architecture(d, (6, 5), 0.01,
                               sg.NORM_BATCH if i % 2 == 0 else sg.NORM_NONE)
        net = sg.init_net(arch, r)
        net.params = net.params + 0.05 * r.normal(size=net.params.shape)
        if arch.norm == sg.NORM_BATCH:
            sg.forward(net, r.normal(size=(16, d)), train=True)
        X = r.normal(size=(4, d))
        dpred = r.normal(size=4)

        _, cache = sg.forward(net, X)
        grad = sg.backward_params(net, cache, dpred)
        h = 1e-6
        fd = np.zeros_like(net.params)
        for k in range(net.params.size):
            up = net.params.copy()
            up[k] += h
            dn = net.params.copy()
            dn[k] -= h
            pu, _ = sg.forward(sg.SurrogateNet(net.arch, up, net.norm_stats), X)
            pd, _ = sg.forward(sg.SurrogateNet(net.arch, dn, net.norm_stats), X)
            fd[k] = float(dpred @ (pu - pd)) / (2 * h)
        worst_param = max(
            worst_param, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8)
        )

        x = r.normal(size=d)
        igrad = sg.input_grad(net, x)
        ifd = np.zeros(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            pu, _ = sg.forward(net, (x + e)[None, :])
            pd, _ = sg.forward(net, (x - e)[None, :])
            ifd[k] = (pu[0] - pd[0]) / (2 * h)
        worst_input = max(
            worst_input, np.abs(igrad - ifd).max() / max(np.abs(ifd).max(), 1e-8)
        )
    secs = time.perf_counter() - t0
    ok = worst_param <= 1e-4 and worst_input <= 1e-4 and secs < 60
    report(
        "surrogate autodiff",
        ok,
        f"param grad err {worst_param:.2e}, input grad err {worst_input:.2e}, {secs:.1f}s",
    )


def test_criterion_path_integral_identity():
    r = RngState(3)
    arch = sg.Architecture(3, (512, 128, 32))
    net = sg.init_net(arch, r)
    sg.forward(net, r.normal(size=(32, 3)), train=True)
    worst = 0.0
    for _ in range(100):
        x = r.uniform(size=3)
        x2 = r.uniform(size=3)
        exact = path_integral(net, x, x2, EXACT)
        quad = path_integral(net, x, x2, IntegralMode("quadrature", 64))
        worst = max(worst, abs(quad - exact) / (1.0 + abs(exact)))

    ds = OfflineDataset(r.normal(size=(20, 3)), r.normal(size=20))
    batch = offline_pairs(ds, 32, RngState(4))
    shift_err = 0.0
    for mode in (EXACT, IntegralMode("quadrature", 4)):
        base, _ = match_loss(net, batch, mode)
        shifted = net.copy()
        shifted.view("bh")[:] += 11.0
        after, _ = match_loss(shifted, batch, mode)
        shift_err = max(shift_err, abs(after - base))
    ok = worst <= 1e-3 and shift_err <= 1e-10
    report(
        "path-integral identity",
        ok,
        f"quadrature-vs-exact rel err {worst:.2e}, shift invariance err {shift_err:.2e}",
    )


def test_criterion_sim4opt_structure():
    t0 = time.perf_counter()
    b = make_instance("sphere")  # bottom 1% of 8000 = 80 offline points, d = 4
    std_ds, _ = standardize(b.offline_subset)
    cfg = sim4opt.Sim4OptConfig()  # n = 128 functions, M = 100 steps
    tasks = sim4opt.generate_tasks(std_ds, cfg, RngState(0))
    kappa_ok = all(
        traj.states.shape[0] == 2 * cfg.evolve_steps + 1
        for t in tasks for traj in t.trajectories
    )
    flat_ok = all(np.all(np.diff(t.flat_z) >= 0) for t in tasks)
    label_err = 0.0
    for t in tasks[:8]:
        model = gp.posterior(std_ds, t.params)
        for traj in t.trajectories[:10]:
            re = gp.posterior_mean_batch(model, traj.states)
            label_err = max(label_err, np.abs(re - traj.labels).max())
    again = sim4opt.generate_tasks(std_ds, cfg, RngState(0))
    det_ok = all(
        np.array_equal(a.flat_X, c.flat_X) and np.array_equal(a.flat_z, c.flat_z)
        for a, c in zip(tasks, again)
    )
    secs = time.perf_counter() - t0
    ok = kappa_ok and flat_ok and label_err <= 1e-10 and det_ok and secs < 600
    report(
        "sim4opt structure",
        ok,
        f"kappa {kappa_ok}, ordering {flat_ok}, label err {label_err:.2e}, "
        f"deterministic {det_ok}, {secs:.1f}s (n=128, M=100, 80 pts)",
    )


def _median3(v):
    """Median filter with truncated edge windows (even windows -> midpoint)."""
    out = np.empty_like(v)
    for i in range(len(v)):
        out[i] = np.median(v[max(0, i - 1):i + 2])
    return out


def test_criterion_gradient_error_curve():
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    o = Oracle("shekel4", 4)
    fractions = [0.01, 0.1, 0.5, 1.0]
    per_seed = np.array(
        [[r[1] for r in bench.grad_error_curve(o, fractions, cfg, [s])]
         for s in SEEDS]
    )
    small_worse = int(np.sum(per_seed[:, 0] > per_seed[:, -1]))
    nonincreasing = sum(
        bool(np.all(np.diff(_median3(row)) <= 0)) for row in per_seed
    )
    secs = time.perf_counter() - t0
    ok = small_worse >= 3 and nonincreasing >= 3 and secs < 1200
    report(
        "gradient-error curve",
        ok,
        f"err(0.01)>err(1.0) in {small_worse}/4 seeds, nonincreasing after "
        f"smoothing in {nonincreasing}/4 seeds, {secs:.1f}s",
    )


def test_criterion_meta_vs_pretrain(grid):
    wins = []
    details = []
    for bname in ("ackley", "shekel4"):
        meta = np.array([grid[("optbias", bname, s)] for s in SEEDS])
        pre = np.array([grid[("optbias_pretrain", bname, s)] for s in SEEDS])
        diff = meta - pre
        wins.append(meta.mean() >= pre.mean())
        details.append(
            f"{bname}: meta {meta.mean():.4f} vs pretrain {pre.mean():.4f} "
            f"(paired diff {diff.mean():+.4f})"
        )
    floor_ok = all(
        np.mean([grid[("optbias", bname, s)] for s in SEEDS])
        > grid[("__floor__", bname)]
        for bname in ("ackley", "shekel4")
    )
    ok = any(wins) and floor_ok
    report("meta vs pretrain", ok, "; ".join(details) + f"; beats floor: {floor_ok}")


def test_criterion_generator_comparison(grid):
    wins = []
    details = []
    for bname in ("ackley", "shekel4"):
        ours = np.array([grid[("optbias", bname, s)] for s in SEEDS])
        rand = np.array([grid[("optbias_random_gen", bname, s)] for s in SEEDS])
        wins.append(ours.mean() >= rand.mean())
        details.append(f"{bname}: ours {ours.mean():.4f} vs random-gen {rand.mean():.4f}")

    # mechanism check: the no-evolution generator's pseudo-label spread is
    # narrower than the trajectory generator's, every seed
    cfg = PipelineConfig()
    b = make_instance("ackley")
    std_ds, _ = standardize(b.offline_subset)
    base = bench._fit_base_params(std_ds, cfg)
    sim_cfg = replace(cfg.sim, base_params=base)
    narrower = 0
    for s in SEEDS:
        rng = RngState(s)
        sim_tasks = sim4opt.generate_tasks(std_ds, sim_cfg, rng.split(3))
        expt_tasks = bench.expt_style_generate(std_ds, cfg, RngState(s).split(3))
        sim_range = np.mean([t.flat_z.max() - t.flat_z.min() for t in sim_tasks])
        expt_range = np.mean([t.flat_z.max() - t.flat_z.min() for t in expt_tasks])
        if expt_range < sim_range:
            narrower += 1
    ok = any(wins) and narrower == 4
    report(
        "generator comparison",
        ok,
        "; ".join(details) + f"; narrower pseudo-label range in {narrower}/4 seeds",
    )


def test_criterion_pseudo_value_coverage():
    cfg = PipelineConfig()
    b = make_instance("sphere")
    std_ds, scaler = standardize(b.offline_subset)
    base = bench._fit_base_params(std_ds, cfg)
    sim_cfg = replace(cfg.sim, base_params=base)
    fracs = []
    for s in SEEDS:
        tasks = sim4opt.generate_tasks(std_ds, sim_cfg, RngState(s).split(3))
        _, _, exceed = bench.pseudo_value_distribution(
            tasks, b.oracle, scaler, float(b.offline_subset.z.max()), b.y_bounds
        )
        fracs.append(exceed)
    med = float(np.median(fracs))
    ok = med > 0.25
    report(
        "pseudo-value coverage",
        ok,
        f"median exceed fraction {med:.3f} over seeds {list(SEEDS)} (need > 0.25)",
    )


def test_criterion_end_to_end_floor(grid):
    details = []
    ok = True
    for bname in BENCHMARKS:
        floor = grid[("__floor__", bname)]
        for m in bench.METHODS:
            med = float(np.median([grid[(m, bname, s)] for s in SEEDS]))
            if med <= floor:
                ok = False
            details.append(f"{m}/{bname}: {med:.3f} vs floor {floor:.3f}")
    secs = grid["__seconds__"]
    ok = ok and secs < 4 * 3600
    report(
        "end-to-end floor",
        ok,
        f"grid {secs:.0f}s; " + "; ".join(details),
    )


def test_criterion_determinism(tmp_path):
    from optbias import cli

    cfg_text = (
        "[sim4opt]\nn_functions = 3\nevolve_steps = 4\nfit_gp = false\n"
        "[surrogate]\nhidden = 12,6\n"
        "[meta]\nepochs = 2\ntasks_per_batch = 2\n"
        "[finetune]\nepochs = 1\n"
        "[search]\nsteps = 5\n"
        "[bench]\noracles = sphere,ackley\ndim = 2\nn_full = 150\nfrac = 0.1\n"
        "methods = ga,optbias\nsupervised_epochs = 4\n"
        "[run]\nseeds = 0,1\n"
    )
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    blobs = []
    for name, jobs in (("r1", None), ("r2", None), ("r3", "3")):
        out = tmp_path / name
        argv = ["--config", str(cfg_path), "--output-dir", str(out), "bench"]
        if jobs:
            argv += ["--jobs", jobs]
        assert cli.main(argv) == 0
        blobs.append(
            ((out / "scores.csv").read_bytes(), (out / "summary.csv").read_bytes())
        )
    ok = blobs[0] == blobs[1] == blobs[2]
    report(
        "determinism",
        ok,
        "scores.csv and summary.csv byte-identical across repeat and jobs=1 vs jobs=3",
    )
