import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.sparse import csc_array

from selfrank import ranking
from selfrank.data_io import RatingsTable, build_pair_tasks
from selfrank.decoding import fas_greedy
from selfrank.errors import DivergenceError, InvalidInputError, NumericalError
from selfrank.evaluation import decode_queries
from selfrank.kernels import KernelSpec, cross_vector, gram
from selfrank.learners import (
    PROBE_ITERS, STEP_START, TrainConfig, fit_lowrank, fit_lowrank_mtl, halt, halving_search, halving_step_search,
    init_factors, ridge_cho_factor,
)
from selfrank.ranking import (
    PairTaskData,
    build_pair_task_data,
    fit_rank_hs,
    fit_rank_lowrank,
    halving_step_search_rank,
)
from selfrank.verify import stacked_pair_task_data


def search_rank(data, cfg, start, probe_iters=PROBE_ITERS):
    """halving_step_search_rank's search from another first step, or over other
    probe lengths: learners.halving_search over ranking.fit_rank_lowrank as the
    module holds it at the call."""
    return halving_search(partial(ranking.fit_rank_lowrank, data), cfg, start, probe_iters)


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(2)
    users = list(range(1, 9))
    items = list(range(1, 6))
    ratings = {}
    for u in users:
        for i in items:
            if rng.random() < 0.7:
                ratings[(u, i)] = float(rng.integers(1, 6))
    table = RatingsTable(users=users, items=items, ratings=ratings)
    tasks = build_pair_tasks(table, items)
    feats = {u: rng.standard_normal(4) for u in users}
    data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
    return tasks, feats, data


def materialized_blocks(data):
    """The generic per-task kernel blocks the structured trainer must reproduce."""
    K_stack = data.K_u[data.tasks.user][:, data.tasks.user]
    blocks, grams = [], []
    for t in range(data.n_tasks):
        s = data.starts[t]
        m = data.tasks.sizes[t]
        blocks.append(K_stack[s : s + m])
        z_t = data.tasks.z[s : s + m]
        grams.append(np.outer(z_t, z_t))
    return blocks, grams


class TestStructuredTrainerEquivalence:
    def test_iterates_match_generic_mtl(self, small_problem):
        _, _, data = small_problem
        cfg = TrainConfig(lam=0.3, rank=2, step=0.02, max_iters=40, seed=9, tol=0.0)
        model = fit_rank_lowrank(data, cfg)
        blocks, grams = materialized_blocks(data)
        ms = fit_lowrank_mtl(blocks, grams, cfg)
        # the structured trainer carries A = S^T M and w_t = N_t^T z_t
        A = np.zeros_like(model.A)
        np.add.at(A, data.tasks.user, ms.M)
        W = np.array(
            [
                data.tasks.z[data.starts[t] : data.starts[t] + data.tasks.sizes[t]] @ N_t
                for t, N_t in enumerate(ms.N_per_task)
            ]
        )
        assert np.linalg.norm(A - model.A) <= 1e-10 * np.linalg.norm(A)
        assert np.linalg.norm(W - model.W) <= 1e-10 * np.linalg.norm(W)
        np.testing.assert_allclose(
            model.objective_trace, ms.objective_trace, rtol=1e-10, atol=1e-12
        )

    def test_weights_match_generic_mtl(self, small_problem):
        _, feats, data = small_problem
        cfg = TrainConfig(lam=0.3, rank=2, step=0.02, max_iters=40, seed=9, tol=0.0)
        model = fit_rank_lowrank(data, cfg)
        blocks, grams = materialized_blocks(data)
        ms = fit_lowrank_mtl(blocks, grams, cfg)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        v = (data.U @ x)[data.tasks.user]
        alphas = [N_t @ (ms.M.T @ v) for N_t in ms.N_per_task]  # alpha_t = N_t M^T v
        expected = np.array(
            [
                a @ data.tasks.z[data.starts[t] : data.starts[t] + data.tasks.sizes[t]]
                for t, a in enumerate(alphas)
            ]
        )
        got = model.tournament_weights(x[None])[:, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_divergence_guard(self, small_problem):
        _, _, data = small_problem
        cfg = TrainConfig(lam=0.3, rank=2, step=1e3, max_iters=200, seed=9, tol=0.0)
        with pytest.raises(DivergenceError):
            fit_rank_lowrank(data, cfg)

    def test_halving_step_descends(self, small_problem):
        _, _, data = small_problem
        base = TrainConfig(lam=0.1, rank=3, step=1.0, max_iters=120, seed=1, tol=0.0)
        step = search_rank(data, base, STEP_START, probe_iters=None)
        cfg = TrainConfig(lam=0.1, rank=3, step=step, max_iters=120, seed=1, tol=0.0)
        model = fit_rank_lowrank(data, cfg)
        assert np.all(np.diff(model.objective_trace) <= 0)


class TestSharedInitialState:
    """Fits on one shared PairTaskData equal fits on a fresh one, bit for bit."""

    def test_search_and_fits_on_shared_data_equal_fresh_fits(self, small_problem):
        tasks, feats, _ = small_problem
        new_data = lambda: build_pair_task_data(tasks, feats, KernelSpec("linear"))
        data = new_data()
        base = TrainConfig(lam=0.1, rank=3, step=1.0, max_iters=60, seed=1, tol=0.0)
        step = search_rank(data, base, 100.0)
        for cfg in (base, replace(base, rank=2), replace(base, seed=2), base):
            cfg = replace(cfg, step=step)
            assert_same_fit(fit_rank_lowrank(data, cfg), fit_rank_lowrank(new_data(), cfg))

    def test_grid_cells_on_shared_data_equal_fresh_fits(self, small_problem):
        """Searches, fits and grid cells of several (rank, seed) on one PairTaskData."""
        tasks, feats, _ = small_problem
        new_data = lambda: build_pair_task_data(tasks, feats, KernelSpec("linear"))
        data = new_data()
        base = TrainConfig(lam=0.1, rank=3, step=1.0, max_iters=60, seed=1, tol=0.0)
        cells = []
        for key in (base, replace(base, rank=2), replace(base, seed=2)):
            step = search_rank(data, key, 100.0)
            for lam in (0.1, 0.01):
                cfg = replace(key, lam=lam, step=step)
                cells.append((cfg, fit_rank_lowrank(data, cfg)))
        for cfg, model in cells:
            assert_same_fit(model, fit_rank_lowrank(new_data(), cfg))

    def test_each_call_draws_the_same_start_anew(self, small_problem):
        """Two initial_state calls for one (rank, seed) give equal bits in distinct arrays."""
        tasks, feats, _ = small_problem
        data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        first = data.initial_state(TrainConfig(lam=0.1, rank=2, step=0.1, max_iters=5, seed=4))
        again = data.initial_state(TrainConfig(lam=0.5, rank=2, step=0.01, max_iters=9, seed=4))
        for a, b in zip(first, again, strict=True):
            assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)


def factored_product(data, A):
    """K_u A under the linear kernel through the features, as the trainer computes it."""
    return data.U @ (data.U.T @ A)


def dense_product(data, A):
    """K_u A through the dense u x u user Gram, the product of non-linear kernels."""
    return data.K_u @ A


def unblocked_fit(data, cfg, product=factored_product):
    """The low-rank fit from its initial state with one whole-array pair-score pass
    per iteration and a transpose per iteration, as the trainer ran before row blocks;
    its K_u A comes from `product`."""
    n, T, u = data.n_rows, data.n_tasks, len(data.users)
    z = data.tasks.z
    row_task = np.repeat(np.arange(T), data.tasks.sizes)
    E = csc_array((np.empty(n), data.tasks.user, np.append(data.starts, n)), shape=(u, T))
    inv_nt = 1.0 / data.tasks.sizes.astype(float)
    inv_Tnt = (inv_nt / T)[:, None]
    seg = lambda values: np.add.reduceat(values, data.starts, axis=0)
    shrink = 1.0 - cfg.lam * cfg.step

    def forward(A, W):
        KA = product(data, A)
        P = np.take(KA, data.tasks.user, axis=0)
        return KA, np.einsum("ij,ij->i", P, np.take(W, row_task, axis=0))

    def objective(A, W, KA, pw):
        e = np.subtract(pw, z, out=E.data)
        data_term = float(np.sum(seg(e * e) * inv_nt) / T)
        return data_term + cfg.lam * (float(np.sum(A * KA)) + float(np.sum(W * W)) / T)

    A, W = data.initial_state(cfg)[:2]
    KA, pw = forward(A, W)
    trace = [objective(A, W, KA, pw)]
    iters, stopped = 0, False
    while not stopped and iters < cfg.max_iters:
        A = shrink * A - cfg.step * (E @ (W * inv_Tnt))
        W = shrink * W - cfg.step * (inv_nt[:, None] * (E.T @ KA))
        KA, pw = forward(A, W)
        trace.append(objective(A, W, KA, pw))
        iters += 1
        stopped = halt(trace[-2], trace[-1], cfg.tol) is not None
    return A, W, trace, iters, "tol" if stopped else "max_iters"


class TestBlockedPass:
    """Pair scores in row blocks equal one whole-array pass bit for bit."""

    @pytest.mark.parametrize("rank", [1, 2, 10, 20])
    @pytest.mark.parametrize("rows_over_block", ["below", "exact", "one_more", "many"])
    def test_matches_unblocked_fit(self, small_problem, monkeypatch, rank, rows_over_block):
        tasks, feats, data = small_problem
        n = data.n_rows
        block = {"below": n + 3, "exact": n, "one_more": n - 1, "many": 7}[rows_over_block]
        monkeypatch.setattr(ranking, "PAIR_BLOCK_ROWS", block)
        cfg = TrainConfig(lam=0.05, rank=rank, step=0.05, max_iters=300, seed=5, tol=1e-5)
        model = fit_rank_lowrank(build_pair_task_data(tasks, feats, KernelSpec("linear")), cfg)
        A, W, trace, iters, reason = unblocked_fit(build_pair_task_data(tasks, feats, KernelSpec("linear")), cfg)
        assert model.A.tobytes() == A.tobytes()
        assert model.W.tobytes() == W.tobytes()
        assert model.objective_trace == trace
        assert model.iters_run == iters
        assert model.stop_reason == reason


class TestFactoredGramProduct:
    """The linear trainer's K_u A through the features against the dense user Gram."""

    @pytest.mark.parametrize("rank", [1, 2, 10, 20])
    def test_matches_dense_gram_reference(self, small_problem, rank):
        """Traces agree to 1e-12 relative, with the same iters_run, stop reason and
        fas_greedy ordering for every query (each user's features and 20 random ones)."""
        tasks, feats, _ = small_problem
        new_data = lambda: build_pair_task_data(tasks, feats, KernelSpec("linear"))
        cfg = TrainConfig(lam=0.05, rank=rank, step=0.05, max_iters=300, seed=5, tol=1e-5)
        model = fit_rank_lowrank(new_data(), cfg)
        data = new_data()
        A, W, trace, iters, reason = unblocked_fit(data, cfg, dense_product)
        np.testing.assert_allclose(model.objective_trace, trace, rtol=1e-12, atol=0.0)
        assert (model.iters_run, model.stop_reason) == (iters, reason)
        dense = ranking.LowRankRankModel(data, A, W, iters, trace)
        queries = np.vstack([*feats.values(), np.random.default_rng(7).standard_normal((20, 4))])
        got = decode_queries(tasks, model.tournament_weights(queries), decode=fas_greedy)
        want = decode_queries(tasks, dense.tournament_weights(queries), decode=fas_greedy)
        assert [o.docs_by_rank().tolist() for o in got] == [o.docs_by_rank().tolist() for o in want]

    def test_linear_fit_builds_no_gram(self, small_problem, monkeypatch):
        tasks, feats, _ = small_problem

        def no_gram(data):
            raise AssertionError("the user Gram was built")

        monkeypatch.setattr(PairTaskData, "K_u", property(no_gram))
        data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        base = TrainConfig(lam=0.1, rank=3, step=1.0, max_iters=60, seed=1)
        step = search_rank(data, base, 100.0)
        fit_rank_lowrank(data, replace(base, step=step))
        with pytest.raises(AssertionError, match="Gram was built"):
            fit_rank_lowrank(build_pair_task_data(tasks, feats, KernelSpec("gaussian", 2.0)), base)


def assert_same_fit(model, reference):
    assert model.A.tobytes() == reference.A.tobytes()
    assert model.W.tobytes() == reference.W.tobytes()
    assert model.objective_trace == reference.objective_trace
    assert model.iters_run == reference.iters_run
    assert model.stop_reason == reference.stop_reason


class TestRecordedObjective:
    """At T > 1 the trace records the objective the updates descend."""

    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.3])
    def test_long_run_at_the_searched_step_never_rises(self, small_problem, lam):
        tasks, feats, _ = small_problem
        data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        base = TrainConfig(lam=lam, rank=2, step=1.0, max_iters=1000, seed=1, tol=0.0)
        trace = fit_rank_lowrank(data, replace(base, step=halving_step_search_rank(data, base))).objective_trace
        assert data.n_tasks > 1 and np.max(np.diff(trace)) <= 1e-12 * trace[0]

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_update_is_a_block_scaled_gradient_step(self, small_problem, lam):
        """In explicit coordinates V = U^T A, one update is V - (nu/2) grad_V F and
        W - (T nu/2) grad_W F for F = sum_t sum_i e_i^2/(T n_t) + lam (||V||^2 + ||W||^2/T),
        and the trace is F."""
        tasks, feats, _ = small_problem
        data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        T, nu = data.n_tasks, 0.05
        rows, c = data.U[data.tasks.user], 1.0 / (T * np.repeat(data.tasks.sizes, data.tasks.sizes))
        row_task = np.repeat(np.arange(T), data.tasks.sizes)

        def objective_and_gradients(V, W):
            P = rows @ V
            e = np.sum(P * W[row_task], axis=1) - data.tasks.z
            F = float(np.sum(c * e * e)) + lam * (float(np.sum(V * V)) + float(np.sum(W * W)) / T)
            g_V = 2 * (rows.T @ ((c * e)[:, None] * W[row_task]) + lam * V)
            g_W = 2 * (np.add.reduceat((c * e)[:, None] * P, data.starts) + lam * W / T)
            return F, g_V, g_W

        cfg = TrainConfig(lam=lam, rank=3, step=nu, max_iters=8, seed=2, tol=0.0)
        first = fit_rank_lowrank(data, replace(cfg, max_iters=7))
        last = fit_rank_lowrank(data, cfg)
        F, g_V, g_W = objective_and_gradients(data.U.T @ first.A, first.W)
        np.testing.assert_allclose(data.U.T @ last.A, data.U.T @ first.A - nu / 2 * g_V, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(last.W, first.W - T * nu / 2 * g_W, rtol=1e-12, atol=1e-14)
        assert last.objective_trace[7] == pytest.approx(F, rel=1e-13)
        assert last.objective_trace[8] == pytest.approx(objective_and_gradients(data.U.T @ last.A, last.W)[0], rel=1e-13)


class TestResumedFit:
    """A fit continues from the last fit's end state only where a fresh fit passes through it."""

    @pytest.fixture
    def fresh(self, small_problem, monkeypatch):
        """A new PairTaskData per call; `starts` counts the fits that begin at the initial state."""
        tasks, feats, _ = small_problem
        starts = []
        initial_state = PairTaskData.initial_state

        def counted(data, cfg):
            starts.append(cfg.max_iters)
            return initial_state(data, cfg)

        monkeypatch.setattr(PairTaskData, "initial_state", counted)
        return (lambda: build_pair_task_data(tasks, feats, KernelSpec("linear"))), starts

    def reference(self, fresh, cfg):
        return fit_rank_lowrank(fresh[0](), cfg)

    def test_fit_after_accepted_probe(self, fresh):
        new_data, starts = fresh
        data = new_data()
        base = TrainConfig(lam=0.1, rank=3, step=1.0, max_iters=60, seed=1)
        step = search_rank(data, base, 100.0)
        cfg = replace(base, step=step)
        probes = len(starts)
        model = fit_rank_lowrank(data, cfg)
        assert len(starts) == probes  # continued from the accepted probe
        assert_same_fit(model, self.reference(fresh, cfg))

    def test_longer_grid_cell_after_shorter(self, fresh):
        new_data, starts = fresh
        data = new_data()
        cfg = TrainConfig(lam=0.01, rank=2, step=0.02, max_iters=500, seed=3, tol=0.0)
        short = fit_rank_lowrank(data, cfg)
        long = fit_rank_lowrank(data, replace(cfg, max_iters=2000))
        assert starts == [500]
        assert_same_fit(short, self.reference(fresh, cfg))
        assert_same_fit(long, self.reference(fresh, replace(cfg, max_iters=2000)))

    def test_tol_stop_at_the_cached_end(self, fresh):
        new_data, starts = fresh
        data = new_data()
        cfg = TrainConfig(lam=0.1, rank=2, step=0.02, max_iters=5000, seed=3, tol=1e-6)
        stopped = fit_rank_lowrank(data, cfg)
        assert stopped.iters_run < 5000 and stopped.stop_reason == "tol"
        again = fit_rank_lowrank(data, replace(cfg, max_iters=6000))
        assert starts == [5000]
        assert_same_fit(again, stopped)

    def test_stop_reason_of_resumed_fits(self, fresh):
        """A fit cut at max_iters, then two continuations of it: one cut an iterate
        before the tol stop and one that reaches it; each against a fresh fit."""
        new_data, starts = fresh
        data = new_data()
        cfg = TrainConfig(lam=0.1, rank=2, step=0.02, max_iters=5000, seed=3, tol=1e-6)
        stop = fit_rank_lowrank(new_data(), cfg).iters_run
        short = fit_rank_lowrank(data, replace(cfg, max_iters=stop // 2))
        longer = fit_rank_lowrank(data, replace(cfg, max_iters=stop - 1))
        full = fit_rank_lowrank(data, cfg)
        assert starts == [5000, stop // 2]  # longer and full continued
        assert (short.stop_reason, longer.stop_reason, full.stop_reason) == ("max_iters", "max_iters", "tol")
        assert (short.iters_run, longer.iters_run, full.iters_run) == (stop // 2, stop - 1, stop)
        for model in (short, longer, full):
            assert_same_fit(model, self.reference(fresh, replace(cfg, max_iters=model.iters_run)))

    def test_fallbacks_start_from_the_initial_state(self, fresh):
        new_data, starts = fresh
        data = new_data()
        cfg = TrainConfig(lam=0.1, rank=2, step=0.02, max_iters=30, seed=3, tol=0.0)
        fit_rank_lowrank(data, cfg)
        cases = [
            replace(cfg, tol=0.05),  # stops inside the cached 30 iterations
            replace(cfg, max_iters=20),  # ends inside them
            replace(cfg, lam=0.2),  # another key
        ]
        for other in cases:
            fit_rank_lowrank(data, cfg)
            before = len(starts)
            assert_same_fit(fit_rank_lowrank(data, other), self.reference(fresh, other))
            assert len(starts) == before + 2  # this fit and the reference both began afresh
        assert fit_rank_lowrank(data, cases[0]).iters_run < 30

    def test_diverged_probe_leaves_no_end_state(self, fresh):
        new_data, starts = fresh
        data = new_data()
        diverging = TrainConfig(lam=0.3, rank=2, step=1e3, max_iters=10, seed=9, tol=0.0)
        with pytest.raises(DivergenceError) as first:
            fit_rank_lowrank(data, diverging)
        with pytest.raises(DivergenceError) as again:
            fit_rank_lowrank(data, replace(diverging, max_iters=200))
        assert again.value.args == first.value.args
        assert starts == [10, 200]

    def test_mutating_a_model_leaves_later_fits(self, fresh):
        new_data, _ = fresh
        data = new_data()
        cfg = TrainConfig(lam=0.1, rank=2, step=0.02, max_iters=10, seed=3, tol=0.0)
        model = fit_rank_lowrank(data, cfg)
        model.A[:] = 0.0
        model.W *= 2.0
        model.objective_trace.append(0.0)
        for later in (cfg, replace(cfg, max_iters=25)):
            assert_same_fit(fit_rank_lowrank(data, later), self.reference(fresh, later))


def whole_draw_projection(data, cfg):
    """(S^T M, rows N_t^T z_t) for init_factors' whole n x r draws: the start as
    the trainer projected it before the draw was streamed."""
    n = data.n_rows
    M, N = init_factors(n, cfg)
    S_T = csc_array((np.ones(n), data.tasks.user, np.arange(n + 1)), shape=(len(data.users), n))
    return S_T @ M, np.add.reduceat(data.tasks.z[:, None] * N, data.starts, axis=0)


class TestStreamedInitialState:
    """The initial factors are drawn and projected in row blocks, bit-equal to whole draws."""

    @pytest.mark.parametrize("block", [1, 2, 7, 40, "n", "n+3"])
    @pytest.mark.parametrize("rank", [1, 3, 20])
    def test_matches_whole_draw(self, small_problem, monkeypatch, block, rank):
        tasks, feats, data = small_problem
        n = data.n_rows
        monkeypatch.setattr(ranking, "PAIR_BLOCK_ROWS", {"n": n, "n+3": n + 3}.get(block, block))
        cfg = TrainConfig(lam=0.1, rank=rank, step=0.1, max_iters=5, seed=rank)
        fresh = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        A0, W0, KA0, e0 = fresh.initial_state(cfg)
        A, W = whole_draw_projection(fresh, cfg)
        assert A0.tobytes() == A.tobytes() and W0.tobytes() == W.tobytes()
        KA, e = fresh.forward(A, W)
        assert KA0.tobytes() == KA.tobytes() and e0.tobytes() == e.tobytes()

    @pytest.mark.parametrize("block", [1, 5, 64, 100, 4096])
    def test_blocks_cut_at_task_starts(self, monkeypatch, block):
        monkeypatch.setattr(ranking, "PAIR_BLOCK_ROWS", block)
        data = stacked_pair_task_data(np.random.default_rng(block), [3, 1, 70, 2, 64, 64, 9, 130, 1])
        blocks = data._task_blocks()
        assert [lo for lo, _, _ in blocks[1:]] == [hi for _, hi, _ in blocks[:-1]]
        assert (blocks[0][0], blocks[-1][1]) == (0, data.n_rows)
        for lo, hi, tasks in blocks:
            assert (lo, hi) == (data.starts[tasks.start], data.starts[tasks.start] + data.tasks.sizes[tasks].sum())
            # the most whole tasks within a block, or one longer task
            assert hi - lo <= block or tasks.stop - tasks.start == 1
            assert tasks.stop == data.n_tasks or hi - lo + data.tasks.sizes[tasks.stop] > block

    def test_transient_memory_stays_within_blocks(self):
        """At 100,000 stacked rows and rank 20 one whole n x r draw is 16 MB; the
        streamed start allocates a few blocks beyond what it keeps."""
        data = stacked_pair_task_data(np.random.default_rng(0), [50] * 2000, users=1000, width=60)
        cfg = TrainConfig(lam=0.1, rank=20, step=0.1, max_iters=5, seed=0)
        tracemalloc.start()
        try:
            state = data.initial_state(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.n_rows == 100_000 and len(state) == 4
        assert peak - kept < 4_000_000


def full_probe_search(fit, cfg, start, probe_iters=10, max_halvings=60):
    """The step search with every probe run to its end: halve from `start` until
    a probe's whole trace never rises (np.diff <= 0) and it does not diverge."""
    step = start
    for _ in range(max_halvings):
        probe = replace(cfg, step=step, tol=0.0, max_iters=probe_iters if probe_iters is not None else cfg.max_iters)
        try:
            if np.all(np.diff(fit(probe).objective_trace) <= 0):
                return step
        except DivergenceError:
            pass
        step *= 0.5
    raise NumericalError(f"no descending step found after {max_halvings} halvings")


class TestFullProbeSearchStep:
    """A step-search probe is an ordinary fit, judged by its whole trace; the search
    chooses the step full_probe_search chooses, and the fits stay the same."""

    @pytest.mark.parametrize(
        "rank, lam, start", [(1, 0.1, 100.0), (2, 1.0, 1.0), (3, 0.01, 10.0), (5, 0.1, 0.5), (3, 1.0, 0.4)]
    )
    def test_same_step_as_full_probes(self, small_problem, rank, lam, start):
        tasks, feats, _ = small_problem
        new_data = lambda: build_pair_task_data(tasks, feats, KernelSpec("linear"))
        base = TrainConfig(lam=lam, rank=rank, step=1.0, max_iters=60, seed=1, tol=0.0)
        full = new_data()
        want = full_probe_search(lambda probe: fit_rank_lowrank(full, probe), base, start)
        data = new_data()
        step = search_rank(data, base, start)
        assert step == want
        assert data._end[0] == full._end[0] and data._end[2] == full._end[2]  # the accepted probe
        assert all(a.tobytes() == b.tobytes() for a, b in zip(data._end[1], full._end[1]))
        cfg = replace(base, step=step)
        assert_same_fit(fit_rank_lowrank(data, cfg), fit_rank_lowrank(new_data(), cfg))

    @pytest.mark.parametrize("with_init", [False, True])
    @pytest.mark.parametrize("probe_iters", [10, None])
    def test_generic_search_same_step_as_full_probes(self, with_init, probe_iters):
        rng = np.random.default_rng(21)
        for _ in range(4):
            n, r = int(rng.integers(6, 30)), int(rng.integers(1, 4))
            X, Y = rng.standard_normal((n, 4)), rng.standard_normal((n, 3))
            K, KY = X @ X.T, Y @ Y.T
            init = (rng.standard_normal((n, r)), rng.standard_normal((n, r))) if with_init else None
            base = TrainConfig(lam=float(rng.uniform(0.01, 1.0)), rank=r, step=1.0, max_iters=60, seed=2, tol=0.0)
            want = full_probe_search(lambda probe: fit_lowrank(K, KY, probe, init=init), base, 10.0, probe_iters)
            assert halving_search(partial(fit_lowrank, K, KY, init=init), base, 10.0, probe_iters) == want
            want = full_probe_search(lambda probe: fit_lowrank(K, KY, probe, init=init), base, 0.1, probe_iters)
            assert halving_step_search(K, KY, base, probe_iters=probe_iters, init=init) == want

    @pytest.mark.parametrize("rank, lam", [(1, 0.1), (3, 0.01), (5, 1.0)])
    def test_rank_search_from_step_start(self, small_problem, rank, lam):
        """halving_step_search_rank halves from 0.1 over probes of 10 iterations."""
        tasks, feats, _ = small_problem
        new_data = lambda: build_pair_task_data(tasks, feats, KernelSpec("linear"))
        base = TrainConfig(lam=lam, rank=rank, step=1.0, max_iters=60, seed=1, tol=0.0)
        full = new_data()
        want = full_probe_search(lambda probe: fit_rank_lowrank(full, probe), base, 0.1, 10)
        assert halving_step_search_rank(new_data(), base) == want

    def test_rejected_probes_diverged_or_rose(self, small_problem, monkeypatch):
        """A probe is an ordinary fit at tol 0: it runs all its iterations unless it
        diverges, and the search rejects it for a rise anywhere in its trace."""
        tasks, feats, _ = small_problem
        data = build_pair_task_data(tasks, feats, KernelSpec("linear"))
        probes = []

        def counted_fit(data, cfg):
            try:
                model = fit_rank_lowrank(data, cfg)
            except DivergenceError:
                probes.append((cfg.step, None, None))
                raise
            probes.append((cfg.step, model.iters_run, np.diff(model.objective_trace)))
            return model

        monkeypatch.setattr(ranking, "fit_rank_lowrank", counted_fit)
        base = TrainConfig(lam=0.1, rank=2, step=1.0, max_iters=60, seed=1, tol=0.0)
        step = search_rank(data, base, 100.0)
        *rejected, (accepted, iters, steps) = probes
        assert (accepted, iters) == (step, 10) and np.all(steps <= 0)
        for _, iters, steps in rejected:  # diverged, or ran all 10 iterations and rose
            assert iters is None or (iters == 10 and np.any(steps > 0))
        assert {iters for _, iters, _ in rejected} == {None, 10}  # both kinds are rejected here


def small_model(small_problem, kernel, learner):
    """A model of the small problem's tasks under `kernel`, fitted by `learner`."""
    tasks, feats, _ = small_problem
    data = build_pair_task_data(tasks, feats, kernel)
    if learner == "hs":
        return fit_rank_hs(data, 0.2)
    return fit_rank_lowrank(data, TrainConfig(lam=0.1, rank=2, step=0.05, max_iters=5, seed=1))


class TestPrediction:
    """Both models predict through PairTaskData.kernel_product."""

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("gaussian", 2.0)], ids=["linear", "gaussian"])
    @pytest.mark.parametrize("learner", ["lowrank", "hs"])
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 5)])
    def test_query_of_another_width_rejected(self, small_problem, kernel, learner, shape):
        model = small_model(small_problem, kernel, learner)
        with pytest.raises(InvalidInputError, match=rf"^points have dimension 4, queries {shape[-1]}$"):
            model.tournament_weights(np.ones(shape))

    @pytest.mark.parametrize(
        "kernel", [KernelSpec("gaussian", 2.0), KernelSpec("abel", 1.5), KernelSpec("delta")],
        ids=["gaussian", "abel", "delta"],
    )
    @pytest.mark.parametrize("learner", ["lowrank", "hs"])
    def test_kernel_values_are_the_oracles(self, small_problem, kernel, learner):
        """Under a non-linear kernel the user Gram is gram(U) and the weights are
        the coefficients times the stacked cross_vector oracle, bit for bit."""
        model = small_model(small_problem, kernel, learner)
        data = model.data
        assert data.K_u.tobytes() == gram(data.U, kernel).tobytes()
        X = np.vstack([data.U[:2], np.random.default_rng(4).standard_normal((3, data.U.shape[1]))])
        V = np.stack([cross_vector(data.U, x, kernel) for x in X], 1)
        want = model.C @ V if learner == "hs" else model.W @ (model.A.T @ V)
        assert model.tournament_weights(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("gaussian", 2.0)], ids=["linear", "gaussian"])
    @pytest.mark.parametrize("learner", ["lowrank", "hs"])
    def test_empty_query_block(self, small_problem, kernel, learner):
        model = small_model(small_problem, kernel, learner)
        assert model.tournament_weights(np.empty((0, 4))).shape == (model.data.n_tasks, 0)


class TestHsRankModel:
    def test_per_task_weights_match_direct_solve(self, small_problem):
        _, feats, data = small_problem
        lam = 0.2
        model = fit_rank_hs(data, lam)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4)
        got = model.tournament_weights(x[None])[:, 0]
        for t in range(data.n_tasks):
            s = data.starts[t]
            rows = data.tasks.user[s : s + data.tasks.sizes[t]]
            K_t = data.K_u[np.ix_(rows, rows)]
            n_t = rows.shape[0]
            v_t = data.U[rows] @ x
            alpha = np.linalg.solve(K_t + n_t * lam * np.eye(n_t), v_t)
            expected = alpha @ data.tasks.z[s : s + data.tasks.sizes[t]]
            assert got[t] == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_lambda_positive_required(self, small_problem):
        _, _, data = small_problem
        with pytest.raises(InvalidInputError):
            fit_rank_hs(data, 0.0)

    def test_failed_factorization_names_the_task(self, small_problem, monkeypatch):
        _, _, data = small_problem
        calls = []

        def factor(K, lam):
            calls.append(K)
            if len(calls) == 3:
                raise NumericalError("not positive definite")
            return ridge_cho_factor(K, lam)

        monkeypatch.setattr(ranking, "ridge_cho_factor", factor)
        with pytest.raises(NumericalError, match="^task 2: not positive definite$"):
            fit_rank_hs(data, 0.2)


class TestPairTaskData:
    def test_task_set_without_tasks_rejected(self):
        table = RatingsTable(users=[1, 2], items=["a", "b"], ratings={(1, "a"): 4.0, (2, "b"): 2.0})
        tasks = build_pair_tasks(table, ["a", "b"])  # no user rated both items
        assert tasks.n_tasks == 0 and tasks.users == []
        with pytest.raises(InvalidInputError, match="^pair task set has no tasks$"):
            build_pair_task_data(tasks, {1: np.ones(2), 2: np.ones(2)}, KernelSpec("linear"))

    def test_users_are_the_co_raters_coded_once(self):
        """A user who rated one subset item and one who rated none are not listed;
        every co-rater is, in table order, and the data keeps the set itself."""
        ratings = {(5, "a"): 4.0, (5, "b"): 2.0, (3, "a"): 1.0, (3, "c"): 5.0, (4, "b"): 3.0,
                   (2, "x"): 1.0, (1, "a"): 2.0, (1, "b"): 5.0, (1, "c"): 3.0}
        table = RatingsTable(users=[5, 4, 3, 2, 1], items=["a", "b", "c", "x"], ratings=ratings)
        tasks = build_pair_tasks(table, ["a", "b", "c"])
        assert tasks.users == [1, 3, 5]  # 4 rated only b, 2 only x
        assert np.unique(tasks.user).tolist() == [0, 1, 2]
        data = build_pair_task_data(tasks, {u: np.ones(2) for u in tasks.users}, KernelSpec("linear"))
        assert data.tasks is tasks and data.users is tasks.users

    def test_missing_features_rejected(self, small_problem):
        tasks, feats, _ = small_problem
        partial = dict(list(feats.items())[:2])
        with pytest.raises(InvalidInputError):
            build_pair_task_data(tasks, partial, KernelSpec("linear"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, small_problem, bad):
        tasks, feats, _ = small_problem
        user = tasks.users[3]
        broken = {**feats, user: np.array([0.5, bad, 1.0, 2.0])}
        with pytest.raises(InvalidInputError, match=rf"^non-finite features for user {user!r}$"):
            build_pair_task_data(tasks, broken, KernelSpec("linear"))

    def test_features_without_columns_rejected(self, small_problem):
        tasks, feats, _ = small_problem
        with pytest.raises(InvalidInputError, match="^features have no columns$"):
            build_pair_task_data(tasks, {user: np.empty(0) for user in feats}, KernelSpec("linear"))

    def test_stacking_consistent(self, small_problem):
        tasks, _, data = small_problem
        assert data.n_rows == len(tasks.z)
        assert data.n_tasks == tasks.n_tasks
        np.testing.assert_array_equal(
            np.diff(data.starts), data.tasks.sizes[:-1]
        )
