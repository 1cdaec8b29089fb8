import numpy as np
import pytest

from selfrank.errors import DivergenceError, InvalidInputError
from selfrank.oracles import (
    ExplicitProblem,
    explicit_descending_step,
    explicit_gd,
    prox_nuclear,
    svt,
)

ONE = np.array([[1.0]])


class TestExplicitGd:
    def test_zero_init_stays_at_zero(self):
        p = ExplicitProblem(np.ones((3, 2)), np.ones((3, 2)))
        traj = explicit_gd(p, np.zeros((2, 1)), np.zeros((2, 1)), 0.0, 0.1, 5)
        for A, B in traj:
            np.testing.assert_array_equal(A, np.zeros((2, 1)))
            np.testing.assert_array_equal(B, np.zeros((2, 1)))

    def test_scalar_hand_example(self):
        p = ExplicitProblem(ONE, ONE)
        traj = explicit_gd(p, np.array([[2.0]]), ONE, 0.0, 0.1, 1)
        A1, B1 = traj[1]
        assert A1[0, 0] == pytest.approx(1.9)
        assert B1[0, 0] == pytest.approx(0.8)

    def test_trajectory_length(self):
        p = ExplicitProblem(np.eye(3), np.eye(3))
        traj = explicit_gd(p, np.eye(3)[:, :1] * 0.1, np.eye(3)[:, :1] * 0.1, 0.1, 0.01, 7)
        assert len(traj) == 8

    def test_divergence_raises(self):
        rng = np.random.default_rng(0)
        p = ExplicitProblem(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
        with pytest.raises(DivergenceError):
            explicit_gd(p, rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), 0.0, 100.0, 200)

    def test_shape_validation(self):
        p = ExplicitProblem(np.ones((3, 2)), np.ones((3, 4)))
        with pytest.raises(InvalidInputError):
            explicit_gd(p, np.zeros((2, 1)), np.zeros((3, 1)), 0.0, 0.1, 1)

    def test_non_finite_problem_rejected(self):
        with pytest.raises(InvalidInputError):
            ExplicitProblem(np.array([[np.inf]]), ONE)


class TestSvt:
    def test_diagonal_shrinkage(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 1.0), np.diag([2.0, 0.0]), atol=1e-12)

    def test_zero_threshold_round_trips(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 4))
        np.testing.assert_allclose(svt(A, 0.0), A, atol=1e-12)

    def test_full_shrinkage_gives_zero(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 5))
        np.testing.assert_allclose(svt(A, np.linalg.norm(A, 2) + 1.0), np.zeros((4, 5)), atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            svt(np.eye(2), -0.5)

    def test_non_expansive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.standard_normal((5, 7))
            B = rng.standard_normal((5, 7))
            tau = float(rng.uniform(0.0, 2.0))
            assert np.linalg.norm(svt(A, tau) - svt(B, tau)) <= np.linalg.norm(A - B) + 1e-12


class TestProxNuclear:
    def test_zero_outputs_give_zero(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 3))
        p = ExplicitProblem(X, np.zeros((8, 2)))
        op = np.linalg.norm(X, 2)
        G, _ = prox_nuclear(p, 0.1, 8 / (2 * op**2), 1)
        np.testing.assert_array_equal(G, np.zeros((2, 3)))

    def test_lambda_zero_converges_to_least_squares(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        X = Q[:4]  # 4 orthonormal rows in R^6
        Y = rng.standard_normal((4, 3))
        p = ExplicitProblem(X, Y)
        op = np.linalg.norm(X, 2)
        G, _ = prox_nuclear(p, 0.0, 4 / (2 * op**2), 2000)
        expected = (Y.T @ X) @ np.linalg.pinv(X.T @ X)
        np.testing.assert_allclose(G, expected, atol=1e-8)

    def test_planted_rank_one_recovered(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 6))
        G_star = np.outer(rng.standard_normal(5), rng.standard_normal(6))
        Y = X @ G_star.T + 1e-3 * rng.standard_normal((40, 5))
        p = ExplicitProblem(X, Y)
        op = np.linalg.norm(X, 2)
        G, _ = prox_nuclear(p, 0.05, 40 / (2 * op**2), 2000)
        s = np.linalg.svd(G, compute_uv=False)
        assert s[1] <= 1e-6 * s[0]

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 4))
        Y = rng.standard_normal((15, 3))
        p = ExplicitProblem(X, Y)
        op = np.linalg.norm(X, 2)
        _, trace = prox_nuclear(p, 0.1, 15 / (2 * op**2), 300)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_step_precondition_enforced(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 3))
        p = ExplicitProblem(X, rng.standard_normal((10, 2)))
        op = np.linalg.norm(X, 2)
        with pytest.raises(InvalidInputError):
            prox_nuclear(p, 0.1, 10 / op**2, 10)


class TestVariationalConsistency:
    """Full-rank factorized descent reaches the proximal solver's objective."""

    def test_objectives_agree_within_one_percent(self):
        rng = np.random.default_rng(9)
        for _ in range(2):
            n, d, T = 15, 8, 6
            r = min(d, T)
            X = rng.standard_normal((n, d))
            Y = X @ (rng.standard_normal((T, 2)) @ rng.standard_normal((2, d))).T
            Y += 0.3 * rng.standard_normal((n, T))
            p = ExplicitProblem(X, Y)
            lam_n = 0.1
            op = np.linalg.norm(X, 2)
            _, trace = prox_nuclear(p, lam_n, n / (2 * op**2), 3000)
            lam_gd = n * lam_n / 2.0  # bridge 1/n and the variational 1/2
            A0 = 0.1 * rng.standard_normal((d, r))
            B0 = 0.1 * rng.standard_normal((T, r))
            step = explicit_descending_step(p, A0, B0, lam_gd, 0.5 / op**2)
            traj = explicit_gd(p, A0, B0, lam_gd, step, 30000)
            A, B = traj[-1]
            F_fact = float(
                np.sum((X @ A @ B.T - Y) ** 2) / n
                + (lam_n / 2) * (np.sum(A**2) + np.sum(B**2))
            )
            assert abs(F_fact - trace[-1]) <= 0.01 * abs(trace[-1])
