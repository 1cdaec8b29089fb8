from dataclasses import replace

import numpy as np
import pytest

from selfrank.errors import DivergenceError, InvalidInputError, NumericalError
from selfrank import ranking
from selfrank.learners import (
    MAX_HALVINGS,
    PROBE_ITERS,
    STEP_START,
    FactorPair,
    TrainConfig,
    factorized_objective,
    fit_lowrank,
    fit_lowrank_mtl,
    halt,
    halving_search,
    halving_step_search,
    lowrank_step,
    ridge_cho_factor,
    ridge_cho_solve,
)
from selfrank.oracles import ExplicitProblem, explicit_gd, explicit_gd_multitask, nuclear_norm
from selfrank.ranking import fit_rank_lowrank, halving_step_search_rank
from selfrank.verify import stacked_pair_task_data

ONE = np.array([[1.0]])


def random_problem(rng, n_max=40, d_max=8, t_max=6):
    n = int(rng.integers(6, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    T = int(rng.integers(2, t_max + 1))
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, T))
    return X, Y


VALID_TRAIN = {"lam": 0.1, "rank": 1, "step": 0.1, "max_iters": 1}


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lam", -0.1), ("lam", np.inf), ("lam", np.nan),
            ("rank", 0), ("rank", 2.5), ("rank", 2.0), ("rank", True),
            ("step", -0.1), ("step", np.inf),
            ("max_iters", 0), ("max_iters", True), ("max_iters", 10.0),
            ("tol", -1e-3), ("tol", np.inf), ("tol", np.nan),
            ("lam", "a"), ("lam", None), ("lam", True), ("lam", np.True_),
            ("step", "0.1"), ("step", True), ("tol", "1e-9"), ("tol", False),
            ("seed", 1.5), ("seed", False), ("seed", -1),
        ],
    )
    def test_invalid_configs_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            TrainConfig(**{**VALID_TRAIN, field: value})

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(lam=0.1, rank=np.int64(2), step=0.1, max_iters=np.int32(3), seed=np.uint8(4))
        assert (cfg.rank, cfg.max_iters, cfg.seed) == (2, 3, 4)

    def test_numpy_floats_accepted(self):
        cfg = TrainConfig(lam=np.float64(0.1), rank=1, step=np.float32(0.5), max_iters=1, tol=np.float64(0.0))
        assert (cfg.lam, cfg.step, cfg.tol) == (0.1, 0.5, 0.0)


def ridge_weights(K, lam, v):
    return ridge_cho_solve(ridge_cho_factor(K, lam), v)


class TestFitHs:
    def test_scalar_closed_form(self):
        np.testing.assert_allclose(ridge_weights(ONE, 1.0, np.array([1.0])), [0.5])

    def test_large_lambda_shrinks_to_zero(self):
        alpha = ridge_weights(np.eye(3), 1e12, np.ones(3))
        assert np.all(np.abs(alpha) < 1e-11)

    def test_identity_kernel_halves_basis_vector(self):
        np.testing.assert_allclose(ridge_weights(np.eye(2), 0.5, np.array([1.0, 0.0])), [0.5, 0.0])

    def test_zero_rhs_and_linearity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        factor = ridge_cho_factor(X @ X.T, 0.3)
        np.testing.assert_array_equal(ridge_cho_solve(factor, np.zeros(6)), np.zeros(6))
        v = rng.standard_normal(6)
        np.testing.assert_allclose(ridge_cho_solve(factor, 3.0 * v), 3.0 * ridge_cho_solve(factor, v))

    def test_matches_dense_direct_solve(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        K = A @ A.T
        lam = 0.2
        v = rng.standard_normal(5)
        expected = np.linalg.solve(K + 5 * lam * np.eye(5), v)
        np.testing.assert_allclose(ridge_weights(K, lam, v), expected, rtol=1e-10)

    def test_normal_equation_residual_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            X = rng.standard_normal((n, 4))
            K = X @ X.T
            lam = float(rng.uniform(1e-3, 1.0))
            v = rng.standard_normal(n)
            alpha = ridge_weights(K, lam, v)
            resid = np.linalg.norm((K + n * lam * np.eye(n)) @ alpha - v)
            assert resid <= 1e-10 * np.linalg.norm(v)

    def test_lambda_must_be_positive(self):
        with pytest.raises(InvalidInputError, match=r"^lam must be > 0, got 0\.0$"):
            ridge_cho_factor(np.eye(2), 0.0)

    def test_indefinite_matrix_fails_with_numerical_error(self):
        with pytest.raises(NumericalError):
            ridge_cho_factor(-10.0 * np.eye(2), 1e-6)


class TestLowrankStep:
    def test_hand_example(self):
        M1, N1 = lowrank_step(np.array([[2.0]]), ONE, ONE, ONE, 0.0, 0.1)
        assert M1[0, 0] == pytest.approx(1.9)
        assert N1[0, 0] == pytest.approx(0.8)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(3)
        M, N = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        K = np.eye(4)
        M2, N2 = lowrank_step(M, N, K, K, 0.7, 0.0)
        np.testing.assert_array_equal(M2, M)
        np.testing.assert_array_equal(N2, N)

    def test_zero_factors_are_fixed_point(self):
        Z = np.zeros((3, 2))
        K = np.eye(3)
        M2, N2 = lowrank_step(Z, Z, K, K, 1.0, 1.0)
        np.testing.assert_array_equal(M2, Z)
        np.testing.assert_array_equal(N2, Z)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            lowrank_step(np.ones((3, 2)), np.ones((4, 2)), np.eye(3), np.eye(3), 0.1, 0.1)


class TestFactorizedObjective:
    def test_zero_factors_give_output_trace(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((5, 3))
        KY = Y @ Y.T
        Z = np.zeros((5, 2))
        assert factorized_objective(Z, Z, np.eye(5), KY, 0.0) == pytest.approx(np.trace(KY))

    def test_scalar_example(self):
        assert factorized_objective(np.array([[2.0]]), ONE, ONE, ONE, 0.0) == pytest.approx(1.0)

    def test_exact_interpolation_gives_zero(self):
        # K_X M N^T acts as the identity on the span of K_Y
        K_X = 2.0 * ONE
        M, N = np.array([[1.0]]), np.array([[0.5]])
        assert factorized_objective(M, N, K_X, ONE, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, Y = random_problem(rng, n_max=15)
            M = rng.standard_normal((X.shape[0], 2))
            N = rng.standard_normal((X.shape[0], 2))
            obj = factorized_objective(M, N, X @ X.T, Y @ Y.T, 0.1)
            assert obj >= 0.0


class TestFitLowrank:
    def test_stationary_point_stays_fixed(self):
        cfg = TrainConfig(lam=0.0, rank=1, step=0.3, max_iters=5, tol=0.0)
        fp = fit_lowrank(ONE, ONE, cfg, init=(ONE, ONE))
        np.testing.assert_allclose(fp.M, ONE)
        np.testing.assert_allclose(fp.N, ONE)

    def test_one_step_hand_example(self):
        cfg = TrainConfig(lam=0.0, rank=1, step=0.1, max_iters=1, tol=0.0)
        fp = fit_lowrank(ONE, ONE, cfg, init=(np.array([[2.0]]), ONE))
        assert fp.M[0, 0] == pytest.approx(1.9)
        assert fp.N[0, 0] == pytest.approx(0.8)

    def test_zero_output_gram_reduces_to_shrinkage(self):
        rng = np.random.default_rng(6)
        n, r = 5, 2
        K = np.eye(n)
        KY = np.zeros((n, n))
        M0 = rng.standard_normal((n, r))
        N0 = rng.standard_normal((n, r))
        lam, step, iters = 0.5, 0.1, 7
        cfg = TrainConfig(lam=lam, rank=r, step=step, max_iters=iters, tol=0.0)
        fp = fit_lowrank(K, KY, cfg, init=(M0, N0))
        np.testing.assert_allclose(fp.M, (1 - lam * step) ** iters * M0, rtol=1e-12)
        assert np.all(np.diff(fp.objective_trace) <= 1e-12)

    def test_trace_length_matches_iters_run(self):
        rng = np.random.default_rng(7)
        X, Y = random_problem(rng, n_max=12)
        cfg = TrainConfig(lam=0.1, rank=2, step=1e-3, max_iters=50, tol=0.0)
        fp = fit_lowrank(X @ X.T, Y @ Y.T, cfg)
        assert len(fp.objective_trace) == fp.iters_run + 1
        assert fp.iters_run == 50

    def test_tolerance_stops_early(self):
        cfg = TrainConfig(lam=0.0, rank=1, step=0.3, max_iters=500, tol=1e-9)
        fp = fit_lowrank(ONE, ONE, cfg, init=(ONE, ONE))  # fixed point: zero change
        assert fp.iters_run == 1

    def test_divergence_error_names_iterate(self):
        rng = np.random.default_rng(8)
        X, Y = random_problem(rng, n_max=20)
        cfg = TrainConfig(lam=0.1, rank=2, step=50.0, max_iters=500, tol=0.0)
        with pytest.raises(DivergenceError) as err:
            fit_lowrank(X @ X.T, Y @ Y.T, cfg)
        assert err.value.iterate >= 1

    def test_shape_mismatch(self):
        cfg = TrainConfig(lam=0.1, rank=1, step=0.1, max_iters=1)
        with pytest.raises(InvalidInputError):
            fit_lowrank(np.eye(3), np.eye(4), cfg)

    def test_monotone_descent_with_halving_step(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            X, Y = random_problem(rng)
            K, KY = X @ X.T, Y @ Y.T
            cfg = TrainConfig(lam=0.2, rank=3, step=1.0, max_iters=150, seed=0, tol=0.0)
            step = halving_step_search(K, KY, cfg, probe_iters=None)
            fp = fit_lowrank(K, KY, TrainConfig(lam=0.2, rank=3, step=step, max_iters=150, seed=0, tol=0.0))
            assert np.all(np.diff(fp.objective_trace) <= 0)


def _kernel_problem(seed, scale=1.0):
    X, Y = random_problem(np.random.default_rng(seed), n_max=20)
    return scale * (X @ X.T), scale * (Y @ Y.T)


def _mtl_problem(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    Xb = [rng.standard_normal((m, 3)) for m in (5, 8, 3)]
    Yb = [rng.standard_normal((m, 2)) for m in (5, 8, 3)]
    return [scale * (Xt @ np.vstack(Xb).T) for Xt in Xb], [scale * (Yt @ Yt.T) for Yt in Yb]


def _pair_problem(seed, scale=1.0):
    data = stacked_pair_task_data(np.random.default_rng(seed), [4, 7, 2, 9], users=12)
    return replace(data, tasks=replace(data.tasks, z=data.tasks.z * scale))


# Each trainer on a fresh problem whose Grams (or pair outputs z) are scaled
# by `scale`, as fit(cfg, scale).
TRAINERS = {
    "fit_lowrank": lambda cfg, scale=1.0: fit_lowrank(*_kernel_problem(20, scale), cfg),
    "fit_lowrank_mtl": lambda cfg, scale=1.0: fit_lowrank_mtl(*_mtl_problem(21, scale), cfg),
    "fit_rank_lowrank": lambda cfg, scale=1.0: fit_rank_lowrank(_pair_problem(22, scale), cfg),
}


@pytest.mark.parametrize("trainer", TRAINERS)
class TestDescend:
    """The one descent loop behind the three factor trainers: divergence guard and stop rule."""

    def test_divergence_names_the_first_non_finite_iterate(self, trainer):
        fit = TRAINERS[trainer]
        cfg = TrainConfig(lam=0.1, rank=2, step=200.0, max_iters=500, seed=3, tol=0.0)
        with pytest.raises(DivergenceError) as err:
            fit(cfg)
        k = err.value.iterate
        assert k >= 1
        if k > 1:
            before = fit(replace(cfg, max_iters=k - 1))
            assert before.iters_run == k - 1 and np.isfinite(before.objective_trace).all()
        with pytest.raises(DivergenceError) as again:
            fit(replace(cfg, max_iters=k))
        assert again.value.iterate == k
        with pytest.raises(DivergenceError) as start:
            fit(cfg, scale=1e200)  # the start's objective overflows
        assert start.value.iterate == 0

    def test_stop_reasons(self, trainer):
        fit = TRAINERS[trainer]
        cfg = TrainConfig(lam=0.1, rank=2, step=0.01, max_iters=30, seed=3, tol=0.0)
        capped = fit(cfg)
        assert (capped.stop_reason, capped.iters_run) == ("max_iters", 30)
        t = np.asarray(capped.objective_trace)
        tol = float(np.median(np.abs(np.diff(t)) / t[:-1]))  # some relative change falls under it
        stopped = fit(replace(cfg, tol=tol, max_iters=10_000))
        trace = stopped.objective_trace
        assert stopped.stop_reason == "tol" and 1 < stopped.iters_run < 30
        assert trace == capped.objective_trace[: len(trace)]
        assert [halt(p, c, tol) for p, c in zip(trace[:-1], trace[1:])] == [None] * (len(trace) - 2) + ["tol"]


class TestHalvingSearch:
    """learners.halving_search halves past a probe that diverges or rises, and
    gives up after MAX_HALVINGS probes."""

    def test_diverging_probe_is_halved_past(self):
        probes = []

        def fit(cfg):
            probes.append((cfg.step, cfg.max_iters, cfg.tol))
            if cfg.step > 0.03:
                raise DivergenceError(2)
            return FactorPair(M=ONE, N=ONE, iters_run=cfg.max_iters, stop_reason="max_iters")

        cfg = TrainConfig(lam=0.1, rank=1, step=1.0, max_iters=500, seed=0)
        assert halving_search(fit, cfg, 0.1, PROBE_ITERS) == 0.025
        assert probes == [(step, PROBE_ITERS, 0.0) for step in (0.1, 0.05, 0.025)]

    def test_rising_probe_is_halved_past(self):
        """A probe that does not diverge is rejected for any rise in its trace,
        and accepted when its trace never rises (flat steps included)."""
        probes = []

        def fit(cfg):
            probes.append(cfg.step)
            trace = [3.0, 2.0, 2.5, 1.0] if cfg.step > 0.03 else [3.0, 2.0, 2.0, 1.0]
            return FactorPair(M=ONE, N=ONE, iters_run=3, stop_reason="max_iters", objective_trace=trace)

        cfg = TrainConfig(lam=0.1, rank=1, step=1.0, max_iters=500, seed=0)
        assert halving_search(fit, cfg, 0.1, PROBE_ITERS) == 0.025
        assert probes == [0.1, 0.05, 0.025]

    def test_every_probe_diverging_raises_numerical_error(self, monkeypatch):
        data = _pair_problem(22, scale=1e200)  # every probe's start objective overflows
        probes = []

        def counted_fit(data, cfg):
            probes.append(cfg.step)
            return fit_rank_lowrank(data, cfg)

        monkeypatch.setattr(ranking, "fit_rank_lowrank", counted_fit)
        cfg = TrainConfig(lam=0.1, rank=2, step=1.0, max_iters=100, seed=3)
        with pytest.raises(NumericalError, match=f"^no descending step found after {MAX_HALVINGS} halvings$"):
            halving_step_search_rank(data, cfg)
        assert probes == [STEP_START / 2**k for k in range(MAX_HALVINGS)]


class TestLossTrickEquivalence:
    """The kernel iterates must represent the explicit factors at every step."""

    def test_factor_and_weight_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            X, Y = random_problem(rng)
            n = X.shape[0]
            r = int(rng.integers(1, 5))
            K, KY = X @ X.T, Y @ Y.T
            M0 = rng.standard_normal((n, r)) / np.sqrt(n * r)
            N0 = rng.standard_normal((n, r)) / np.sqrt(n * r)
            lam = float(rng.uniform(0.05, 0.5))
            base = TrainConfig(lam=lam, rank=r, step=1.0, max_iters=100, tol=0.0)
            step = halving_step_search(K, KY, base, probe_iters=None, init=(M0, N0))
            cfg = TrainConfig(lam=lam, rank=r, step=step, max_iters=100, tol=0.0)
            fp = fit_lowrank(K, KY, cfg, init=(M0, N0))
            traj = explicit_gd(ExplicitProblem(X, Y), X.T @ M0, Y.T @ N0, lam, step, 100)
            for k in (1, 50, 100):
                A_k, B_k = traj[k]
                partial = fit_lowrank(
                    K, KY, TrainConfig(lam=lam, rank=r, step=step, max_iters=k, tol=0.0),
                    init=(M0, N0),
                )
                assert np.linalg.norm(A_k - X.T @ partial.M) <= 1e-8 * max(np.linalg.norm(A_k), 1e-12)
                assert np.linalg.norm(B_k - Y.T @ partial.N) <= 1e-8 * max(np.linalg.norm(B_k), 1e-12)
            # weights reproduce the explicit predictor
            x = rng.standard_normal(X.shape[1])
            alpha = fp.N @ (fp.M.T @ (X @ x))
            lhs = alpha @ Y
            rhs = x @ traj[-1][0] @ traj[-1][1].T
            scale = max(np.linalg.norm(rhs), 1e-12)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale

    def test_gram_balance_at_stationarity(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((12, 4))
        Y = rng.standard_normal((12, 4))
        K, KY = X @ X.T, Y @ Y.T
        base = TrainConfig(lam=0.5, rank=2, step=1.0, max_iters=400, seed=1, tol=0.0)
        step = halving_step_search(K, KY, base, probe_iters=None)
        fp = fit_lowrank(K, KY, TrainConfig(lam=0.5, rank=2, step=step, max_iters=200000, seed=1, tol=1e-10))
        gm = fp.M.T @ K @ fp.M
        gn = fp.N.T @ KY @ fp.N
        assert np.linalg.norm(gm - gn) <= 1e-3 * (np.linalg.norm(gm) + 1.0)

    def test_half_penalty_dominates_nuclear_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X, Y = random_problem(rng)
            r = int(rng.integers(1, 4))
            M = rng.standard_normal((X.shape[0], r))
            N = rng.standard_normal((X.shape[0], r))
            A, B = X.T @ M, Y.T @ N
            half_pen = 0.5 * (np.trace(M.T @ X @ X.T @ M) + np.trace(N.T @ Y @ Y.T @ N))
            assert nuclear_norm(B @ A.T) <= half_pen + 1e-10 * max(half_pen, 1.0)


class TestFitLowrankMtl:
    def test_t1_reduction_matches_single_problem(self):
        rng = np.random.default_rng(14)
        n, d, T_out, r = 12, 4, 3, 2
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, T_out))
        K, KY = X @ X.T, Y @ Y.T
        nu, lam = 0.02, 0.5
        ms = fit_lowrank_mtl([K], [KY], TrainConfig(lam=lam, rank=r, step=nu, max_iters=50, seed=3, tol=0.0))
        fp = fit_lowrank(K, KY, TrainConfig(lam=lam * n, rank=r, step=nu / n, max_iters=50, seed=3, tol=0.0))
        assert np.linalg.norm(ms.M - fp.M) <= 1e-8 * np.linalg.norm(fp.M)
        assert np.linalg.norm(ms.N_per_task[0] - fp.N) <= 1e-8 * np.linalg.norm(fp.N)

    def test_matches_explicit_masked_gradient_oracle(self):
        rng = np.random.default_rng(15)
        sizes = [5, 8, 3, 6]
        d, r = 4, 2
        Xb = [rng.standard_normal((m, d)) for m in sizes]
        Yb = [rng.standard_normal((m, p)) for m, p in zip(sizes, [2, 1, 3, 1])]
        Xstack = np.vstack(Xb)
        blocks = [Xt @ Xstack.T for Xt in Xb]
        grams = [Yt @ Yt.T for Yt in Yb]
        cfg = TrainConfig(lam=0.2, rank=r, step=0.01, max_iters=60, seed=5, tol=0.0)
        ms = fit_lowrank_mtl(blocks, grams, cfg)
        scale = 1.0 / np.sqrt(sum(sizes) * r)
        rng2 = np.random.default_rng(5)
        M0 = scale * rng2.standard_normal((sum(sizes), r))
        N0s = [scale * rng2.standard_normal((m, r)) for m in sizes]
        traj = explicit_gd_multitask(
            Xb, Yb, Xstack.T @ M0, [Yt.T @ N0 for Yt, N0 in zip(Yb, N0s)], 0.2, 0.01, 60
        )
        A_k, B_ks = traj[-1]
        assert np.linalg.norm(A_k - Xstack.T @ ms.M) <= 1e-10 * np.linalg.norm(A_k)
        for t in range(4):
            ref = np.linalg.norm(B_ks[t])
            assert np.linalg.norm(B_ks[t] - Yb[t].T @ ms.N_per_task[t]) <= 1e-10 * max(ref, 1e-12)

    def test_zero_output_grams_shrink(self):
        rng = np.random.default_rng(16)
        sizes = [4, 5]
        d = 3
        Xb = [rng.standard_normal((m, d)) for m in sizes]
        Xstack = np.vstack(Xb)
        blocks = [Xt @ Xstack.T for Xt in Xb]
        grams = [np.zeros((m, m)) for m in sizes]
        lam, nu = 0.5, 0.1
        cfg = TrainConfig(lam=lam, rank=2, step=nu, max_iters=4, seed=6, tol=0.0)
        ms = fit_lowrank_mtl(blocks, grams, cfg)
        rng2 = np.random.default_rng(6)
        scale = 1.0 / np.sqrt(sum(sizes) * 2)
        M0 = scale * rng2.standard_normal((sum(sizes), 2))
        np.testing.assert_allclose(ms.M, (1 - lam * nu) ** 4 * M0, rtol=1e-12)

    def test_zero_step_keeps_factors(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 2))
        cfg = TrainConfig(lam=0.1, rank=2, step=0.0, max_iters=3, seed=7, tol=0.0)
        ms = fit_lowrank_mtl([X @ X.T], [Y @ Y.T], cfg)
        rng2 = np.random.default_rng(7)
        scale = 1.0 / np.sqrt(6 * 2)
        M0 = scale * rng2.standard_normal((6, 2))
        np.testing.assert_array_equal(ms.M, M0)

    def test_block_shape_validation(self):
        with pytest.raises(InvalidInputError):
            fit_lowrank_mtl([np.ones((3, 5))], [np.eye(3)], TrainConfig(lam=0.1, rank=1, step=0.1, max_iters=1))
