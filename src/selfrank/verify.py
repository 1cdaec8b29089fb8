"""Built-in verification suite: every structural property, checked by oracles.

Each check compares a production code path against an independent
reference (explicit-coordinate gradient descent, proximal/SVT solves,
exhaustive enumeration, dense linear solves) and reports a residual with its
threshold. The CLI `verify` command runs this and fails on any violation.
"""

from __future__ import annotations

import numpy as np

from .data_io import RatingsTable, build_pair_tasks
from .decoding import Tournament, backward_weight, decode_finite, fas_exact, fas_greedy
from .kernels import KernelSpec, cross_vector, gram
from .learners import (
    TrainConfig,
    _row_slices,
    fit_lowrank,
    fit_lowrank_mtl,
    halving_step_search,
    init_factors,
    lowrank_step,
    ridge_cho_factor,
    ridge_cho_solve,
)
from .losses import zero_one
from .oracles import (
    ExplicitProblem,
    explicit_descending_step,
    explicit_gd,
    fas_greedy_reference,
    nuclear_norm,
    prox_nuclear,
    svt,
)
from .ranking import (
    PAIR_BLOCK_ROWS, HsRankModel, LowRankRankModel, PairTaskData, build_pair_task_data, fit_rank_hs, fit_rank_lowrank,
)


def _check(name: str, value: float, threshold: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(value <= threshold),
    }


def _random_problem(rng, n_max=30):
    n = int(rng.integers(8, n_max + 1))
    d = int(rng.integers(2, 11))
    T = int(rng.integers(2, 9))
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, T))
    return X, Y


def check_hand_updates() -> dict:
    """Scalar update example: K_X=K_Y=[1], M=2, N=1, lam=0, step=0.1 -> (1.9, 0.8)."""
    one = np.array([[1.0]])
    M1, N1 = lowrank_step(np.array([[2.0]]), np.array([[1.0]]), one, one, 0.0, 0.1)
    resid = abs(M1[0, 0] - 1.9) + abs(N1[0, 0] - 0.8)
    return _check("lowrank_hand_step", resid, 1e-12)


def check_factor_equivalence(rng) -> list[dict]:
    """Kernel factors must track the explicit factors: A_k = X^T M_k, B_k = Y^T N_k."""
    iters = 100
    dev_factors = 0.0
    dev_weights = 0.0
    for _ in range(5):
        X, Y = _random_problem(rng)
        n = X.shape[0]
        r = int(rng.integers(1, 5))
        K, KY = X @ X.T, Y @ Y.T
        M0 = rng.standard_normal((n, r)) / np.sqrt(n * r)
        N0 = rng.standard_normal((n, r)) / np.sqrt(n * r)
        lam = float(rng.uniform(0.05, 0.5))
        base = TrainConfig(lam=lam, rank=r, step=1.0, max_iters=iters, seed=0, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None, init=(M0, N0))
        cfg = TrainConfig(lam=lam, rank=r, step=step, max_iters=iters, seed=0, tol=0.0)
        fp = fit_lowrank(K, KY, cfg, init=(M0, N0))
        traj = explicit_gd(ExplicitProblem(X, Y), X.T @ M0, Y.T @ N0, lam, step, iters)
        A_k, B_k = traj[-1]
        scale_a = max(np.linalg.norm(A_k), 1e-12)
        scale_b = max(np.linalg.norm(B_k), 1e-12)
        dev_factors = max(
            dev_factors,
            np.linalg.norm(A_k - X.T @ fp.M) / scale_a,
            np.linalg.norm(B_k - Y.T @ fp.N) / scale_b,
        )
        x = rng.standard_normal(X.shape[1])
        lhs = (fp.N @ (fp.M.T @ (X @ x))) @ Y  # decoded through weights
        rhs = x @ A_k @ B_k.T
        dev_weights = max(dev_weights, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-12))
    return [
        _check("loss_trick_factor_equivalence", dev_factors, 1e-8),
        _check("loss_trick_weight_equivalence", dev_weights, 1e-8),
    ]


def check_hs_normal_equations(rng) -> dict:
    """Ridge weights must satisfy (K + n lam I) alpha = v_x to 1e-10 relative."""
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 10))
        X = rng.standard_normal((n, d))
        K = X @ X.T
        lam = float(rng.uniform(1e-3, 1.0))
        factor = ridge_cho_factor(K, lam)
        v = rng.standard_normal(n)
        alpha = ridge_cho_solve(factor, v)
        resid = np.linalg.norm((K + n * lam * np.eye(n)) @ alpha - v) / max(np.linalg.norm(v), 1e-12)
        worst = max(worst, resid)
    return _check("hs_normal_equation_residual", worst, 1e-10)


def check_monotone_descent(rng) -> dict:
    """With the full-run halving step, the objective trace never rises."""
    worst = 0.0
    for _ in range(3):
        X, Y = _random_problem(rng)
        K, KY = X @ X.T, Y @ Y.T
        cfg = TrainConfig(lam=0.1, rank=3, step=1.0, max_iters=300, seed=1, tol=0.0)
        step = halving_step_search(K, KY, cfg, probe_iters=None)
        fp = fit_lowrank(K, KY, TrainConfig(lam=0.1, rank=3, step=step, max_iters=300, seed=1, tol=0.0))
        rises = np.diff(fp.objective_trace)
        worst = max(worst, float(np.max(rises, initial=0.0)))
    return _check("monotone_descent_max_rise", worst, 0.0)


def check_gram_balance(rng) -> dict:
    """At stationarity the factor Grams balance: M^T K_X M = N^T K_Y N."""
    worst = 0.0
    for _ in range(2):
        n, d, T, r = 12, 4, 4, 2
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, T))
        K, KY = X @ X.T, Y @ Y.T
        base = TrainConfig(lam=0.5, rank=r, step=1.0, max_iters=400, seed=2, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None)
        cfg = TrainConfig(lam=0.5, rank=r, step=step, max_iters=200000, seed=2, tol=1e-10)
        fp = fit_lowrank(K, KY, cfg)
        gm = fp.M.T @ K @ fp.M
        gn = fp.N.T @ KY @ fp.N
        ratio = np.linalg.norm(gm - gn) / (np.linalg.norm(gm) + 1.0)
        worst = max(worst, ratio)
    return _check("gram_balance_ratio", worst, 1e-3)


def check_variational_consistency(rng) -> dict:
    """Factorized descent at full rank must reach the proximal solver's objective."""
    worst = 0.0
    for _ in range(2):
        n = int(rng.integers(10, 25))
        d = int(rng.integers(3, 15))
        T = int(rng.integers(3, 15))
        r = min(d, T)
        X = rng.standard_normal((n, d))
        Y = X @ (rng.standard_normal((T, 2)) @ rng.standard_normal((2, d))).T
        Y += 0.3 * rng.standard_normal((n, T))
        p = ExplicitProblem(X, Y)
        lam_n = 0.1
        op = np.linalg.norm(X, 2)
        G_ista, trace = prox_nuclear(p, lam_n, n / (2 * op**2), 3000)
        lam_gd = n * lam_n / 2.0  # bridge the 1/n and the variational 1/2 conventions
        A0 = 0.1 * rng.standard_normal((d, r))
        B0 = 0.1 * rng.standard_normal((T, r))
        step = explicit_descending_step(p, A0, B0, lam_gd, 0.5 / op**2)
        traj = explicit_gd(p, A0, B0, lam_gd, step, 30000)
        A, B = traj[-1]
        F_fact = float(np.sum((X @ A @ B.T - Y) ** 2) / n + (lam_n / 2) * (np.sum(A**2) + np.sum(B**2)))
        gap = abs(F_fact - trace[-1]) / abs(trace[-1])
        worst = max(worst, gap)
    return _check("variational_objective_gap", worst, 0.01)


def check_svt(rng) -> dict:
    a = svt(np.diag([3.0, 1.0]), 1.0)
    resid = np.linalg.norm(a - np.diag([2.0, 0.0]))
    b = rng.standard_normal((5, 4))
    resid = max(resid, np.linalg.norm(svt(b, 0.0) - b))
    resid = max(resid, np.linalg.norm(svt(b, np.linalg.norm(b, 2) + 1.0)))
    return _check("svt_exactness", resid, 1e-12)


def check_ista_descent(rng) -> dict:
    X, Y = _random_problem(rng, n_max=20)
    p = ExplicitProblem(X, Y)
    op = np.linalg.norm(X, 2)
    _, trace = prox_nuclear(p, 0.05, X.shape[0] / (2 * op**2), 500)
    rises = np.diff(trace)
    return _check("ista_descent_max_rise", float(np.max(rises, initial=0.0)), 1e-10)


def check_fas(rng) -> list[dict]:
    """Greedy never beats the exact optimum and matches it on most of 300
    tournaments of 2 to 7 documents."""
    tournaments = 300
    matches = 0
    undercut = 0.0
    for _ in range(tournaments):
        n = int(rng.integers(2, 8))
        t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
        greedy_obj = backward_weight(t, fas_greedy(t))
        exact_obj = backward_weight(t, fas_exact(t))
        undercut = max(undercut, exact_obj - greedy_obj)
        if greedy_obj <= exact_obj + 1e-12:
            matches += 1
    return [
        _check("fas_greedy_never_undercuts_exact", undercut, 1e-12),
        _check("fas_greedy_match_shortfall", 1.0 - matches / tournaments, 0.1),
    ]


def _gaussian(rng, n):
    return rng.standard_normal((n, n))


def _integer_ties(rng, n):
    return rng.integers(-2, 3, size=(n, n)).astype(float)


def _tiny(rng, n):
    return rng.standard_normal((n, n)) * 1e-17  # no insertion gain passes the 1e-15 margin


def _near_margin(rng, n):
    # gains of about 1e-15: the margin decides between near-tied moves
    return rng.standard_normal((n, n)) * 1e-17 * n


def _low_rank(rng, n):
    # U V^T with r = 2 plus small noise: like the model's tournaments, it takes
    # tens of insertion rounds at n = 60
    U, V = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    return U @ V.T + 0.05 * rng.standard_normal((n, n))


# Random tournament weights (rng, n) -> n x n, one family per kind of tie or margin.
TOURNAMENT_FAMILIES = (_gaussian, _integer_ties, _tiny, _near_margin, _low_rank)


def check_fas_loop_equivalence(rng) -> dict:
    """fas_greedy must return the loop oracle's positions on 4 tournaments of
    every family for each n = 0..24, and of the model-like and near-margin
    families at the decoded sizes 30 and 60."""
    cases = [(family, n) for family in TOURNAMENT_FAMILIES for n in range(25)]
    cases += [(family, n) for family in (_low_rank, _near_margin) for n in (30, 60)]
    mismatches = 0
    for family, n in cases:
        for _ in range(4):
            t = Tournament(family(rng, n))
            mismatches += not np.array_equal(fas_greedy(t).positions, fas_greedy_reference(t).positions)
    return _check("fas_greedy_loop_equivalence", float(mismatches), 0.0)


def check_decode_finite(rng) -> dict:
    """The loss-trick argmin must agree with direct exhaustive re-evaluation."""
    labels = ["a", "b", "c", "d"]
    mismatches = 0
    for _ in range(50):
        train = [labels[i] for i in rng.integers(0, len(labels), size=6)]
        alpha = rng.standard_normal(6)
        chosen, _ = decode_finite(labels, alpha, train, zero_one)
        scores = [
            sum(a * (0.0 if c == y else 1.0) for a, y in zip(alpha, train))
            for c in labels
        ]
        expected = labels[int(np.argmin(scores))]
        if chosen != expected:
            mismatches += 1
    return _check("decode_finite_oracle_mismatches", float(mismatches), 0.0)


def check_mtl_reduction(rng) -> dict:
    """fit_lowrank_mtl at T=1 must reproduce fit_lowrank after nu/lam rescaling."""
    n, d, T_out, r = 12, 4, 3, 2
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, T_out))
    K, KY = X @ X.T, Y @ Y.T
    nu, lam = 0.02, 0.5
    ms = fit_lowrank_mtl([K], [KY], TrainConfig(lam=lam, rank=r, step=nu, max_iters=50, seed=3, tol=0.0))
    fp = fit_lowrank(K, KY, TrainConfig(lam=lam * n, rank=r, step=nu / n, max_iters=50, seed=3, tol=0.0))
    dev = max(
        np.linalg.norm(ms.M - fp.M) / max(np.linalg.norm(fp.M), 1e-12),
        np.linalg.norm(ms.N_per_task[0] - fp.N) / max(np.linalg.norm(fp.N), 1e-12),
    )
    return _check("mtl_t1_reduction", dev, 1e-8)


def _random_pair_task_data(rng, width=4, kernel=KernelSpec("linear")):
    """Pair tasks over 10 users rating about 70% of 6 items, with `width` features each."""
    ratings = {(u, i): float(rng.integers(1, 6)) for u in range(10) for i in range(6) if rng.random() < 0.7}
    table = RatingsTable(users=list(range(10)), items=list(range(6)), ratings=ratings)
    feats = {u: rng.standard_normal(width) for u in table.users}
    return build_pair_task_data(build_pair_tasks(table, table.items), feats, kernel)


def check_pairtask_reduced_state(rng) -> dict:
    """fit_rank_lowrank's (A, W) and trace must match the projections S^T M and
    N_t^T z_t of the generic fit_lowrank_mtl iterates on materialized blocks."""
    data = _random_pair_task_data(rng)
    cfg = TrainConfig(lam=0.3, rank=2, step=0.02, max_iters=40, seed=4, tol=0.0)
    model = fit_rank_lowrank(data, cfg)
    K_rows = data.K_u[data.row_user][:, data.row_user]
    blocks = _row_slices(data.task_sizes)
    ms = fit_lowrank_mtl([K_rows[b] for b in blocks], [np.outer(data.z[b], data.z[b]) for b in blocks], cfg)
    A = np.zeros_like(model.A)
    np.add.at(A, data.row_user, ms.M)
    W = np.array([data.z[b] @ N_t for b, N_t in zip(blocks, ms.N_per_task)])
    t = np.asarray(ms.objective_trace)
    dev = max(
        np.linalg.norm(model.A - A) / np.linalg.norm(A),
        np.linalg.norm(model.W - W) / np.linalg.norm(W),
        float(np.max(np.abs(model.objective_trace - t) / t)),
    )
    return _check("pairtask_reduced_state_equivalence", dev, 1e-10)


def check_pairtask_hs(rng) -> dict:
    """fit_rank_hs's weights C k_U(x) must match z_t^T alpha_t(x), the ridge solve
    on each task's materialized block K_t (linear kernel: k_t(x) = U_t x)."""
    lam = 0.2
    data = _random_pair_task_data(rng)
    X = rng.standard_normal((5, data.U.shape[1]))
    got = fit_rank_hs(data, lam).tournament_weights(X)
    expected = np.empty_like(got)
    for t, b in enumerate(_row_slices(data.task_sizes)):
        rows = data.row_user[b]
        factor = ridge_cho_factor(data.K_u[np.ix_(rows, rows)], lam)
        expected[t] = data.z[b] @ ridge_cho_solve(factor, data.U[rows] @ X.T)
    return _check("pairtask_hs_equivalence", np.linalg.norm(got - expected) / np.linalg.norm(expected), 1e-8)


def check_factored_gram_product(rng) -> dict:
    """Under the linear kernel PairTaskData.forward's K_u A is U (U^T A), and
    kernel_product's C k_U(X) is (C U) X^T. K_u A must match the oracle
    product gram(U) @ A to 1e-12 x max |gram(U) @ A|, and both models'
    tournament weights their coefficients times the cross_vector oracle's
    k_U(X) to 1e-12 x max |w|, with feature widths below, at and above the
    user count. Under the gaussian kernel forward must still return K_u @ A,
    and the weights their coefficients times the stacked cross_vector oracle,
    bit for bit."""
    queries = 7
    worst = 0.0
    for width in (3, 10, 30):
        data = _random_pair_task_data(rng, width)
        K = gram(data.U, data.kernel)
        X = rng.standard_normal((queries, width))
        V = np.stack([cross_vector(data.U, x, data.kernel) for x in X], axis=1)
        beta = rng.standard_normal(data.n_rows)
        for r in (1, 5, 20):
            A = rng.standard_normal((len(data.users), r))
            W = rng.standard_normal((data.n_tasks, r))
            worst = max(worst, _relative_gap(data.forward(A, W)[0], K @ A))
            for model, weights in _rank_models(data, A, W, beta):
                worst = max(worst, _relative_gap(model.tournament_weights(X), weights(V)))
    data = _random_pair_task_data(rng, 4, KernelSpec("gaussian", 2.0))
    A = rng.standard_normal((len(data.users), 5))
    W = rng.standard_normal((data.n_tasks, 5))
    X = rng.standard_normal((queries, 4))
    V = np.stack([cross_vector(data.U, x, data.kernel) for x in X], axis=1)
    exact = [np.array_equal(data.forward(A, W)[0], data.K_u @ A)]
    for model, weights in _rank_models(data, A, W, rng.standard_normal(data.n_rows)):
        exact.append(np.array_equal(model.tournament_weights(X), weights(V)))
    return _check("factored_gram_product", worst if all(exact) else np.inf, 1e-12)


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def _rank_models(data: PairTaskData, A: np.ndarray, W: np.ndarray, beta: np.ndarray) -> tuple:
    """A low-rank model (A, W) and an HS model (beta) on data, each with its
    tournament weights as a function of V = k_U(X): W (A^T V) and C V."""
    hs = HsRankModel(data=data, beta=beta)
    return (
        (LowRankRankModel(data=data, A=A, W=W, iters_run=0, objective_trace=[]), lambda V: W @ (A.T @ V)),
        (hs, lambda V: hs.C @ V),
    )


def stacked_pair_task_data(rng, sizes, users=40, width=5) -> PairTaskData:
    """Linear-kernel PairTaskData over tasks of the given sizes: each stacked row
    a random one of `users` users with `width` features, and a random z."""
    sizes = np.asarray(sizes)
    n = int(sizes.sum())
    return PairTaskData(
        users=list(range(users)),
        U=rng.standard_normal((users, width)),
        kernel=KernelSpec("linear"),
        row_user=rng.integers(0, users, n),
        starts=np.cumsum(sizes) - sizes,
        task_sizes=sizes,
        z=rng.standard_normal(n),
    )


def check_streamed_initial_state(rng) -> dict:
    """PairTaskData.initial_state draws and projects M and N block by block; its
    (A0, W0) must equal S^T M and the per-task sums of z_i N_i for the whole
    n x r draws of learners.init_factors bit for bit. Cases: n below, at and
    across a block edge, tasks straddling the edges, and one task longer than
    a block."""
    from scipy.sparse import csc_array

    B = PAIR_BLOCK_ROWS
    cases = [
        [37] * (B // 40),  # below one block
        [64] * (B // 64),  # exactly one block; a task ends at the edge
        [30] * (B // 30) + [50] + [47] * (B // 47),  # tasks straddle the first and second edge
        [B + 100, 20, 20],  # a task longer than a block
    ]
    worst = 0.0
    for sizes in cases:
        data = stacked_pair_task_data(rng, sizes)
        n = data.n_rows
        S_T = csc_array((np.ones(n), data.row_user, np.arange(n + 1)), shape=(len(data.users), n))
        for r in (1, 5, 20):
            cfg = TrainConfig(lam=0.1, rank=r, step=0.1, max_iters=1, seed=int(rng.integers(1000)))
            M, N = init_factors(n, cfg)
            want = (S_T @ M, np.add.reduceat(data.z[:, None] * N, data.starts, axis=0))
            for got, ref in zip(data.initial_state(cfg)[:2], want):
                worst = max(worst, float(np.max(np.abs(got - ref))) if got.shape == ref.shape else np.inf)
    return _check("streamed_initial_state", worst, 0.0)


def check_trace_norm_domination(rng) -> dict:
    """Half the penalty always dominates the nuclear norm of the induced G."""
    worst = -np.inf
    for _ in range(10):
        X, Y = _random_problem(rng)
        r = int(rng.integers(1, 5))
        M = rng.standard_normal((X.shape[0], r))
        N = rng.standard_normal((X.shape[0], r))
        A, B = X.T @ M, Y.T @ N
        half_pen = 0.5 * (np.trace(M.T @ X @ X.T @ M) + np.trace(N.T @ Y @ Y.T @ N))
        gap = nuclear_norm(B @ A.T) - half_pen  # must be <= 0
        worst = max(worst, gap / max(half_pen, 1e-12))
    return _check("trace_norm_domination_violation", worst, 1e-10)


def run_verification(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = [check_hand_updates()]
    checks += check_factor_equivalence(rng)
    checks.append(check_hs_normal_equations(rng))
    checks.append(check_monotone_descent(rng))
    checks.append(check_gram_balance(rng))
    checks.append(check_variational_consistency(rng))
    checks.append(check_svt(rng))
    checks.append(check_ista_descent(rng))
    checks += check_fas(rng)
    checks.append(check_fas_loop_equivalence(rng))
    checks.append(check_decode_finite(rng))
    checks.append(check_mtl_reduction(rng))
    checks.append(check_trace_norm_domination(rng))
    checks.append(check_pairtask_reduced_state(rng))
    checks.append(check_pairtask_hs(rng))
    checks.append(check_factored_gram_product(rng))
    checks.append(check_streamed_initial_state(rng))
    return {"checks": checks, "passed": all(c["pass"] for c in checks)}
