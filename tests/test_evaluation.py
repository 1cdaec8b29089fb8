import numpy as np
import pytest

from selfrank.data_io import RatingsTable, SplitTable, build_pair_tasks, user_feature_map
from selfrank.errors import InvalidInputError, NumericalError
from selfrank.evaluation import (
    EvalReport,
    evaluate_ranking,
    gen_synthetic_lowrank,
    grid_cells,
    grid_search,
    synthetic_comparison,
)
from selfrank.kernels import KernelSpec, gram
from selfrank.learners import TrainConfig, fit_lowrank
from selfrank.ranking import build_pair_task_data, halving_step_search_rank


def make_split(rng, n_users=15, n_items=6, p=0.9):
    users = list(range(1, n_users + 1))
    items = [f"i{k}" for k in range(n_items)]
    ratings = {}
    for u in users:
        for i in items:
            if rng.random() < p:
                ratings[(u, i)] = float(rng.integers(1, 6))
    table = RatingsTable(users=users, items=items, ratings=ratings)
    from selfrank.data_io import split_per_user

    return table, split_per_user(table, seed=0)


class PerfectModel:
    """Weights source that reproduces each query's true test-rating ordering.

    Relies on evaluate_ranking visiting the scoring table's eligible users in
    declaration order, mirroring that walk to identify the query per column.
    """

    def __init__(self, split, tasks, features, on="test"):
        self.table = getattr(split, on)
        self.tasks = tasks
        items = tasks.items
        self.queries = []
        for user in self.table.users:
            present = sum((user, i) in self.table.ratings for i in items)
            if present >= 2 and user in features:
                self.queries.append(user)

    def tournament_weights(self, X):
        assert X.shape[0] == len(self.queries)
        W = np.zeros((self.tasks.n_tasks, X.shape[0]))
        items = self.tasks.items
        for qi, user in enumerate(self.queries):
            for t, (a, b) in enumerate(zip(self.tasks.a.tolist(), self.tasks.b.tolist())):
                ra = self.table.ratings.get((user, items[a]))
                rb = self.table.ratings.get((user, items[b]))
                if ra is not None and rb is not None:
                    W[t, qi] = ra - rb
        return W


class ZeroModel:
    def __init__(self, n_tasks):
        self.n_tasks = n_tasks

    def tournament_weights(self, X):
        return np.zeros((self.n_tasks, X.shape[0]))


class TestEvaluateRanking:
    def test_oracle_model_scores_zero(self):
        rng = np.random.default_rng(0)
        table, split = make_split(rng)
        tasks = build_pair_tasks(split.train, table.items)
        features = user_feature_map(split.train, table.items)
        model = PerfectModel(split, tasks, features)
        report = evaluate_ranking(model, split, tasks, features)
        assert report.n_queries > 0
        assert report.mean == 0.0

    def test_zero_model_reports_mean_in_unit_interval(self):
        rng = np.random.default_rng(1)
        table, split = make_split(rng)
        tasks = build_pair_tasks(split.train, table.items)
        features = user_feature_map(split.train, table.items)
        report = evaluate_ranking(ZeroModel(tasks.n_tasks), split, tasks, features)
        assert 0.0 <= report.mean <= 1.0
        assert report.std >= 0.0

    def test_queries_without_two_ratings_are_skipped(self):
        users = [1, 2]
        items = ["a", "b"]
        train = {(1, "a"): 4.0, (1, "b"): 2.0, (2, "a"): 5.0, (2, "b"): 1.0}
        test = {(1, "a"): 4.0, (1, "b"): 2.0, (2, "a"): 3.0}  # user 2: single rating
        split = SplitTable(
            train=RatingsTable(users, items, train),
            val=RatingsTable(users, items, {}),
            test=RatingsTable(users, items, test),
        )
        tasks = build_pair_tasks(split.train, items)
        features = user_feature_map(split.train, items)
        report = evaluate_ranking(ZeroModel(tasks.n_tasks), split, tasks, features)
        assert report.n_queries == 1
        assert report.skipped == 1

    def test_decode_parameter_is_honored(self):
        from selfrank.decoding import Ordering, fas_exact

        rng = np.random.default_rng(7)
        table, split = make_split(rng, n_items=5)
        tasks = build_pair_tasks(split.train, table.items)
        features = user_feature_map(split.train, table.items)
        model = PerfectModel(split, tasks, features)
        calls = []

        def fixed_order(t):
            calls.append(t.size)
            return Ordering(np.arange(t.size))

        fixed = evaluate_ranking(model, split, tasks, features, decode=fixed_order)
        assert len(calls) == fixed.n_queries > 0
        # the exact solver also plugs in (small doc count keeps it in capacity)
        exact = evaluate_ranking(model, split, tasks, features, decode=fas_exact)
        assert exact.n_queries == fixed.n_queries
        assert 0.0 <= exact.mean <= 1.0

    def test_invariant_to_query_order(self):
        rng = np.random.default_rng(2)
        table, split = make_split(rng)
        tasks = build_pair_tasks(split.train, table.items)
        features = user_feature_map(split.train, table.items)
        model = ZeroModel(tasks.n_tasks)
        r1 = evaluate_ranking(model, split, tasks, features)
        # reverse user declaration order; scoring iterates the sorted users either way
        split.test.users = list(reversed(split.test.users))
        r2 = evaluate_ranking(model, split, tasks, features)
        assert sorted(r1.per_query) == sorted(r2.per_query)
        assert r1.mean == r2.mean


def _grid_problem(seed=3):
    rng = np.random.default_rng(seed)
    table, split = make_split(rng, n_users=20)
    tasks = build_pair_tasks(split.train, table.items)
    features = user_feature_map(split.train, table.items)
    return split, tasks, features, build_pair_task_data(tasks, features, KernelSpec("linear"))


class TestGridSearch:
    def test_single_cell_returned(self):
        split, tasks, features, data = _grid_problem()
        cells = grid_cells(data, "lowrank", lambdas=(0.1,), ranks=(2,), steps=(1e-3,), iters=(50,))
        best, report, table = grid_search(cells, data, split, tasks, features)
        assert best["lambda"] == 0.1 and best["rank"] == 2
        assert len(table) == 1 and table[0]["status"] == "ok"

    def test_diverging_cell_contained(self):
        split, tasks, features, data = _grid_problem()
        cells = grid_cells(data, "lowrank", lambdas=(0.1,), ranks=(2,), steps=(1e3, 1e-3), iters=(50,))
        best, report, table = grid_search(cells, data, split, tasks, features)
        statuses = [row["status"] for row in table]
        assert any(s.startswith("failed") for s in statuses)
        assert best["step"] == 1e-3

    def test_best_has_minimal_validation_mean(self):
        split, tasks, features, data = _grid_problem()
        cells = grid_cells(data, "lowrank", lambdas=(1e-3, 1e-1, 10.0), ranks=(2,), steps=(1e-3,), iters=(60,))
        best, report, table = grid_search(cells, data, split, tasks, features)
        means = [row["mean"] for row in table if row["status"] == "ok"]
        assert report.mean == min(means)

    def test_ties_break_to_earlier_grid_cell(self):
        split, tasks, features, data = _grid_problem()
        # duplicated lambda -> identical validation means; first cell must win
        cells = grid_cells(data, "hs", lambdas=(0.05, 0.05))
        best, report, table = grid_search(cells, data, split, tasks, features)
        assert table[0]["mean"] == table[1]["mean"]
        assert best is table[0]["config"]

    @pytest.mark.parametrize(
        "learner, fit_stop", [("hs", {}), ("lowrank", {"iters_run": 50, "stop_reason": "max_iters"})]
    )
    def test_row_is_the_report_without_per_query(self, learner, fit_stop):
        split, tasks, features, data = _grid_problem()
        cells = grid_cells(data, learner, lambdas=(0.1,), ranks=(2,), steps=(1e-3,), iters=(50,))
        best, report, table = grid_search(cells, data, split, tasks, features)
        want = report.to_dict()
        del want["per_query"]
        assert table == [{**want, "status": "ok", **fit_stop}]

    def test_hs_grid(self):
        split, tasks, features, data = _grid_problem()
        cells = grid_cells(data, "hs", lambdas=(1e-3, 1e-1))
        best, report, table = grid_search(cells, data, split, tasks, features)
        assert best["learner"] == "hs"
        assert len(table) == 2

    def test_unknown_learner_rejected(self):
        _, _, _, data = _grid_problem()
        with pytest.raises(InvalidInputError, match="learner must be lowrank or hs"):
            grid_cells(data, "boost", lambdas=(0.1,), ranks=(2,), steps=(1e-3,), iters=(10,))


VALID_GRID = dict(lambdas=(0.1,), ranks=(1,), steps=(0.1,), iters=(10,))
# (learner, grid list it checks)
GRID_LISTS = [("lowrank", "lambdas"), ("lowrank", "ranks"), ("lowrank", "steps"), ("lowrank", "iters"),
              ("hs", "lambdas")]


class TestGridCells:
    def test_nesting_order_with_explicit_steps(self):
        _, _, _, data = _grid_problem()
        cells = grid_cells(data, "lowrank", lambdas=(0.1, 0.01), ranks=(3, 2), steps=(1e-3, 1e-2),
                           iters=(20, 10), seed=4)
        assert [(c["lambda"], c["rank"], c["step"], c["iters"]) for c in cells] == [
            (lam, rank, step, it)
            for lam in (0.1, 0.01) for rank in (3, 2) for step in (1e-3, 1e-2) for it in (20, 10)
        ]
        assert cells[0] == {"learner": "lowrank", "lambda": 0.1, "rank": 3, "step": 1e-3,
                            "iters": 20, "seed": 4}
        assert all(type(c["rank"]) is int and type(c["step"]) is float for c in cells)

    def test_one_searched_step_per_rank(self):
        _, _, _, data = _grid_problem()
        cells = grid_cells(data, "lowrank", lambdas=(0.1, 0.01), ranks=(2, 4), iters=(30, 60), seed=0)
        assert [(c["lambda"], c["rank"], c["iters"]) for c in cells] == [
            (lam, rank, it) for lam in (0.1, 0.01) for rank in (2, 4) for it in (30, 60)
        ]
        for rank in (2, 4):
            probe = TrainConfig(lam=0.01, rank=rank, step=1.0, max_iters=10, seed=0)
            want = halving_step_search_rank(_grid_problem()[3], probe)  # on a fresh problem
            assert {c["step"] for c in cells if c["rank"] == rank} == {want}

    def test_duplicate_ranks(self, monkeypatch):
        _, _, _, data = _grid_problem()
        searched = []

        def search(data, cfg):
            searched.append(cfg.rank)
            return 0.01 * cfg.rank

        monkeypatch.setattr("selfrank.evaluation.halving_step_search_rank", search)
        cells = grid_cells(data, "lowrank", lambdas=(0.1,), ranks=(2, 3, 2), iters=(10,))
        assert searched == [2, 3]
        assert [(c["rank"], c["step"]) for c in cells] == [(2, 0.02), (3, 0.03), (2, 0.02)]

    def test_hs_ignores_ranks_steps_and_iters(self, monkeypatch):
        _, _, _, data = _grid_problem()
        monkeypatch.setattr("selfrank.evaluation.halving_step_search_rank", None)  # never searched
        cells = grid_cells(data, "hs", lambdas=(1e-3, 1e-1), ranks=(), steps=None, iters=(0,))
        assert cells == [{"learner": "hs", "lambda": 1e-3}, {"learner": "hs", "lambda": 1e-1}]

    @pytest.mark.parametrize("learner, name", GRID_LISTS)
    def test_empty_list_rejected(self, learner, name):
        _, _, _, data = _grid_problem()
        with pytest.raises(InvalidInputError, match=f"grid list {name} must be nonempty"):
            grid_cells(data, learner, **{**VALID_GRID, name: ()})

    @pytest.mark.parametrize("learner, name", GRID_LISTS)
    def test_nonpositive_rejected(self, learner, name):
        _, _, _, data = _grid_problem()
        grid = {**VALID_GRID, name: (*VALID_GRID[name], 0)}
        with pytest.raises(InvalidInputError, match=f"grid list {name} must be positive"):
            grid_cells(data, learner, **grid)
        if name != "steps":  # the lists are checked before any step search
            with pytest.raises(InvalidInputError, match=f"grid list {name} must be positive"):
                grid_cells(data, learner, **{**grid, "steps": None})


class TestGenSynthetic:
    def test_noiseless_outputs_have_planted_rank(self):
        X, Y, G = gen_synthetic_lowrank(60, 8, 6, true_rank=1, noise=0.0, seed=0)
        s = np.linalg.svd(Y, compute_uv=False)
        assert s[1] <= 1e-10 * s[0]

    def test_deterministic_per_seed(self):
        a = gen_synthetic_lowrank(20, 4, 3, 2, 0.1, seed=5)
        b = gen_synthetic_lowrank(20, 4, 3, 2, 0.1, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_sphere_rows_and_covariance_operator_norm(self):
        X, _, _ = gen_synthetic_lowrank(500, 20, 3, 2, 0.0, seed=1)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
        C = X.T @ X / 500
        top = np.linalg.eigvalsh(C)[-1]
        assert 0.5 / 20 <= top <= 2.0 / 20

    def test_rank_bound_enforced(self):
        with pytest.raises(InvalidInputError):
            gen_synthetic_lowrank(10, 3, 4, true_rank=5, noise=0.0, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidInputError, match="^noise must be >= 0, got -0.1$"):
            gen_synthetic_lowrank(10, 3, 4, true_rank=2, noise=-0.1, seed=0)

    def test_noiseless_training_risk_vanishes(self):
        X, Y, _ = gen_synthetic_lowrank(40, 6, 5, true_rank=2, noise=0.0, seed=2)
        K = gram(X, KernelSpec("linear"))
        KY = gram(Y, KernelSpec("linear"))
        from selfrank.learners import halving_step_search

        base = TrainConfig(lam=1e-9, rank=3, step=1.0, max_iters=4000, seed=0, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None)
        fp = fit_lowrank(K, KY, TrainConfig(lam=1e-9, rank=3, step=step, max_iters=4000, seed=0, tol=0.0))
        data_term = fp.objective_trace[-1]
        assert data_term <= 1e-4 * np.trace(KY)


class TestSyntheticComparison:
    def test_lowrank_beats_ridge_on_planted_problems(self):
        report = synthetic_comparison(seeds=(0, 1), lambdas=(1e-2, 1e-1), ranks=(2,), iters=800)
        assert report["n_seeds"] == 2
        for row in report["per_seed"]:
            assert row["lowrank_test_risk"] < row["hs_test_risk"]

    def test_every_lowrank_cell_failing_names_the_seed(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise NumericalError("no descending step found after 40 halvings")

        monkeypatch.setattr("selfrank.evaluation.halving_step_search", no_step)
        with pytest.raises(NumericalError, match="seed 3"):
            synthetic_comparison(n=20, d=4, T=4, seeds=(3,), lambdas=(1e-2, 1e-1), ranks=(2,))


class TestEvalReport:
    def test_summary_fields(self):
        per_query = [0.0, 0.25, 1.0]
        config = {"learner": "hs"}
        report = EvalReport(per_query, 4, config)
        assert report.mean == float(np.mean(per_query))
        assert report.std == float(np.std(per_query))
        assert report.n_queries == 3
        assert report.to_dict() == {
            "per_query": per_query, "skipped": 4, "config": config,
            "mean": report.mean, "std": report.std, "n_queries": 3,
        }
        assert report.to_dict()["config"] is config  # a shallow copy

    def test_empty_report(self):
        report = EvalReport([], 7)
        assert (report.mean, report.std, report.n_queries, report.skipped) == (0.0, 0.0, 0, 7)
        assert report.config == {}
