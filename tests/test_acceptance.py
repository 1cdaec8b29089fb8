"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The ranking criterion uses a real Movielens-100k `u.data` file when
SELFRANK_ML100K (or data/ml-100k/u.data) points at one, and otherwise falls
back to a deterministic simulated table with the same format and shape.
"""

import os
import time
import warnings

import numpy as np

from selfrank.cli import run as cli_run
from selfrank.data_io import (
    build_pair_tasks,
    parse_movielens,
    simulate_movielens_table,
    split_per_user,
    subsample_users,
    top_items,
    user_feature_map,
    write_movielens,
)
from selfrank.decoding import Tournament, backward_weight, decode_finite, fas_exact, fas_greedy
from selfrank.errors import DivergenceError
from selfrank.evaluation import (
    DEFAULT_LAMBDAS,
    evaluate_ranking,
    fit_cell,
    grid_cells,
    grid_search,
    synthetic_comparison,
)
from selfrank.kernels import KernelSpec
from selfrank.learners import (
    TrainConfig,
    fit_lowrank,
    fit_lowrank_mtl,
    halving_step_search,
    lowrank_step,
    ridge_cho_factor,
    ridge_cho_solve,
)
from selfrank.losses import zero_one
from selfrank.oracles import (
    ExplicitProblem,
    explicit_descending_step,
    explicit_gd,
    prox_nuclear,
)
from selfrank.ranking import build_pair_task_data


def report(number, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_c01_loss_trick_equivalence():
    """Kernel iterates represent the explicit factors at every step."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 51))
        d = int(rng.integers(2, 11))
        T = int(rng.integers(2, 9))
        r = int(rng.integers(1, 6))
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, T))
        K, KY = X @ X.T, Y @ Y.T
        M0 = rng.standard_normal((n, r)) / np.sqrt(n * r)
        N0 = rng.standard_normal((n, r)) / np.sqrt(n * r)
        lam = float(rng.uniform(0.05, 0.5))
        base = TrainConfig(lam=lam, rank=r, step=1.0, max_iters=100, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None, init=(M0, N0))
        traj = explicit_gd(ExplicitProblem(X, Y), X.T @ M0, Y.T @ N0, lam, step, 100)
        M, N = M0, N0
        for k in range(1, 101):
            M, N = lowrank_step(M, N, K, KY, lam, step)
            A_k, B_k = traj[k]
            dev_a = np.linalg.norm(A_k - X.T @ M) / max(np.linalg.norm(A_k), 1e-12)
            dev_b = np.linalg.norm(B_k - Y.T @ N) / max(np.linalg.norm(B_k), 1e-12)
            worst = max(worst, dev_a, dev_b)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "loss-trick equivalence", ok, f"max rel deviation {worst:.2e}, {elapsed:.1f}s")


def test_c02_variational_consistency():
    """Full-rank factorized descent reaches the proximal objective within 1%."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(10, 31))
        d = int(rng.integers(3, 31))
        T = int(rng.integers(3, 31))
        r = min(d, T)
        X = rng.standard_normal((n, d))
        G0 = rng.standard_normal((T, 3)) @ rng.standard_normal((3, d))
        Y = X @ G0.T + 0.3 * rng.standard_normal((n, T))
        p = ExplicitProblem(X, Y)
        lam_n = 0.1
        op = np.linalg.norm(X, 2)
        _, trace = prox_nuclear(p, lam_n, n / (2 * op**2), 3000)
        lam_gd = n * lam_n / 2.0
        A0 = 0.1 * rng.standard_normal((d, r))
        B0 = 0.1 * rng.standard_normal((T, r))
        step = explicit_descending_step(p, A0, B0, lam_gd, 0.5 / op**2)
        A, B = explicit_gd(p, A0, B0, lam_gd, step, 30000)[-1]
        F_fact = float(
            np.sum((X @ A @ B.T - Y) ** 2) / n + (lam_n / 2) * (np.sum(A**2) + np.sum(B**2))
        )
        worst = max(worst, abs(F_fact - trace[-1]) / abs(trace[-1]))
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed < 60.0
    report(2, "variational consistency", ok, f"max rel objective gap {worst:.2e}, {elapsed:.1f}s")


def test_c03_hs_normal_equations():
    """Closed-form ridge weights satisfy their normal equations to 1e-10."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(2, 12))
        X = rng.standard_normal((n, d))
        K = X @ X.T
        lam = float(rng.uniform(1e-3, 1.0))
        factor = ridge_cho_factor(K, lam)
        v = rng.standard_normal(n)
        alpha = ridge_cho_solve(factor, v)
        resid = np.linalg.norm((K + n * lam * np.eye(n)) @ alpha - v) / max(
            np.linalg.norm(v), 1e-12
        )
        worst = max(worst, resid)
    ok = worst <= 1e-10
    report(3, "HS normal equations", ok, f"max rel residual {worst:.2e} over 100 queries")


def test_c04_monotone_descent_and_divergence_guard(tmp_path):
    """Halving-search steps descend at every iterate; 100x steps trip the guard."""
    rng = np.random.default_rng(404)
    max_rise = 0.0
    diverged = 0
    for _ in range(10):
        n = int(rng.integers(10, 40))
        X = rng.standard_normal((n, int(rng.integers(2, 8))))
        Y = rng.standard_normal((n, int(rng.integers(2, 7))))
        K, KY = X @ X.T, Y @ Y.T
        lam = float(rng.uniform(0.05, 0.5))
        base = TrainConfig(lam=lam, rank=3, step=1.0, max_iters=300, seed=0, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None)
        fp = fit_lowrank(K, KY, TrainConfig(lam=lam, rank=3, step=step, max_iters=300, seed=0, tol=0.0))
        max_rise = max(max_rise, float(np.max(np.diff(fp.objective_trace), initial=0.0)))
        try:
            fit_lowrank(K, KY, TrainConfig(lam=lam, rank=3, step=100 * step, max_iters=2000, seed=0, tol=0.0))
        except DivergenceError:
            diverged += 1
    # the divergence guard must also surface as CLI exit code 3
    data_path = tmp_path / "u.data"
    write_movielens(simulate_movielens_table(n_users=40, n_items=25, seed=3), data_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli_run(
            "train",
            overrides=[
                f"data.ratings={data_path}",
                "items.top=6",
                "train.step=1000.0",
                "train.iters=300",
            ],
            out=str(tmp_path / "out"),
        )
    ok = max_rise <= 0.0 and diverged == 10 and rc == 3
    report(
        4,
        "monotone descent + divergence guard",
        ok,
        f"max rise {max_rise:.2e}, {diverged}/10 diverged at 100x, CLI exit {rc}",
    )


def test_c05_gram_balance_at_stationarity():
    """At tol=1e-10 convergence the factor Grams agree to 1e-3 relative."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(8, 16))
        X = rng.standard_normal((n, int(rng.integers(2, 6))))
        Y = rng.standard_normal((n, int(rng.integers(2, 6))))
        K, KY = X @ X.T, Y @ Y.T
        lam = float(rng.uniform(0.3, 1.0))
        base = TrainConfig(lam=lam, rank=2, step=1.0, max_iters=400, seed=1, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None)
        fp = fit_lowrank(
            K, KY, TrainConfig(lam=lam, rank=2, step=step, max_iters=500000, seed=1, tol=1e-10)
        )
        gm = fp.M.T @ K @ fp.M
        gn = fp.N.T @ KY @ fp.N
        worst = max(worst, np.linalg.norm(gm - gn) / (np.linalg.norm(gm) + 1.0))
    ok = worst <= 1e-3
    report(5, "gram balance", ok, f"max balance ratio {worst:.2e} over 10 problems")


def test_c06_decoding_oracles():
    """Greedy FAS never undercuts exact and matches it on >= 90% of instances."""
    rng = np.random.default_rng(606)
    matches = 0
    undercuts = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 8))
        t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
        g = backward_weight(t, fas_greedy(t))
        e = backward_weight(t, fas_exact(t))
        if g < e - 1e-12:
            undercuts += 1
        if g <= e + 1e-12:
            matches += 1
    # decode_finite against exhaustive re-evaluation
    labels = ["a", "b", "c", "d"]
    decode_mismatch = 0
    for _ in range(200):
        train = [labels[i] for i in rng.integers(0, 4, size=6)]
        alpha = rng.standard_normal(6)
        chosen, _ = decode_finite(labels, alpha, train, zero_one)
        sums = [sum(a * (0.0 if c == y else 1.0) for a, y in zip(alpha, train)) for c in labels]
        decode_mismatch += chosen != labels[int(np.argmin(sums))]
    rate = matches / trials
    ok = undercuts == 0 and rate >= 0.9 and decode_mismatch == 0
    report(
        6,
        "decoding oracle equivalence",
        ok,
        f"greedy=exact on {rate:.1%} of {trials}, undercuts {undercuts}, "
        f"decode_finite mismatches {decode_mismatch}",
    )


def test_c07_synthetic_lowrank_advantage():
    """Low-rank beats ridge on planted rank-2 problems in >= 8 of 10 seeds."""
    t0 = time.time()
    rep = synthetic_comparison(
        n=100, d=20, T=20, true_rank=2, noise=0.1, seeds=tuple(range(10))
    )
    elapsed = time.time() - t0
    ok = rep["lowrank_wins"] >= 8 and elapsed < 300.0
    risks = [(r["lowrank_test_risk"], r["hs_test_risk"]) for r in rep["per_seed"]]
    mean_tn = np.mean([a for a, _ in risks])
    mean_hs = np.mean([b for _, b in risks])
    report(
        7,
        "synthetic low-rank advantage",
        ok,
        f"wins {rep['lowrank_wins']}/10, mean test risk TN {mean_tn:.3f} vs HS {mean_hs:.3f}, {elapsed:.0f}s",
    )


def _ml100k_table():
    for candidate in (os.environ.get("SELFRANK_ML100K"), "data/ml-100k/u.data"):
        if candidate and os.path.exists(candidate):
            return parse_movielens(candidate), candidate
    return simulate_movielens_table(), "simulated"


def test_c08_ranking_directional():
    """Trace-norm ranking error <= ridge ranking error with the default grids."""
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table, source = _ml100k_table()
        sub = subsample_users(table, 200, seed=0)
        items = top_items(sub, 30)
        split = split_per_user(sub, seed=0)
        tasks = build_pair_tasks(split.train, items)
        feats = user_feature_map(split.train, items)
        data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        best_tn, _, _ = grid_search(grid_cells(data, "lowrank", seed=0), data, split, tasks, feats)
        best_hs, _, _ = grid_search(grid_cells(data, "hs"), data, split, tasks, feats)
        test_tn = evaluate_ranking(fit_cell(data, best_tn), split, tasks, feats, on="test")
        test_hs = evaluate_ranking(fit_cell(data, best_hs), split, tasks, feats, on="test")
    elapsed = time.time() - t0
    if source == "simulated":
        # The simulated table's selected cells and test means, pinned exactly:
        # a faster trainer or decode must reproduce them.
        assert best_tn == {
            "learner": "lowrank", "lambda": DEFAULT_LAMBDAS[4], "rank": 10,
            "step": 0.1, "iters": 500, "seed": 0,
        }
        assert best_hs == {"learner": "hs", "lambda": DEFAULT_LAMBDAS[2]}
        assert (test_tn.mean, test_hs.mean) == (0.2261246139056528, 0.2845411923159379)
    ok = test_tn.mean <= test_hs.mean and elapsed < 900.0
    report(
        8,
        "directional ranking result",
        ok,
        f"[{source}] trace-norm {test_tn.mean:.4f} vs ridge {test_hs.mean:.4f} "
        f"(n={test_tn.n_queries} queries), {elapsed:.0f}s",
    )


def test_c09_multitask_reduction():
    """fit_lowrank_mtl at T=1 matches fit_lowrank after the nu/lam rescaling."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(8, 20))
        X = rng.standard_normal((n, 4))
        Y = rng.standard_normal((n, 3))
        K, KY = X @ X.T, Y @ Y.T
        nu, lam = 0.02, 0.5
        seed = int(rng.integers(0, 1000))
        ms = fit_lowrank_mtl(
            [K], [KY], TrainConfig(lam=lam, rank=2, step=nu, max_iters=50, seed=seed, tol=0.0)
        )
        fp = fit_lowrank(
            K, KY, TrainConfig(lam=lam * n, rank=2, step=nu / n, max_iters=50, seed=seed, tol=0.0)
        )
        worst = max(
            worst,
            np.linalg.norm(ms.M - fp.M) / max(np.linalg.norm(fp.M), 1e-12),
            np.linalg.norm(ms.N_per_task[0] - fp.N) / max(np.linalg.norm(fp.N), 1e-12),
        )
    ok = worst <= 1e-8
    report(9, "multitask reduction", ok, f"max rel deviation {worst:.2e} over 50 iterations")


def test_c10_determinism(tmp_path):
    """Identical (command, config, seed) runs produce byte-identical artifacts."""
    data_path = tmp_path / "u.data"
    write_movielens(simulate_movielens_table(n_users=40, n_items=25, seed=3), data_path)
    out = tmp_path / "out"
    overrides = [
        f"data.ratings={data_path}",
        "items.top=6",
        "train.iters=120",
        "train.rank=2",
    ]
    blobs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(2):
            assert cli_run("train", overrides=overrides, out=str(out), seed=7) == 0
            assert (
                cli_run(
                    "eval",
                    overrides=overrides + [f"checkpoint={out}/checkpoint.json"],
                    out=str(out),
                    seed=7,
                )
                == 0
            )
            blobs.append(
                tuple(
                    open(out / name, "rb").read()
                    for name in ("checkpoint.json", "objective_trace.json", "eval_report.json")
                )
            )
    ok = blobs[0] == blobs[1]
    report(10, "determinism", ok, "train+eval artifacts byte-identical across repeated runs")
