import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfrank.data_io import build_pair_tasks, simulate_movielens_table, split_per_user, top_items, user_feature_map
from selfrank.decoding import (
    Ordering,
    Tournament,
    backward_weight,
    decode_finite,
    fas_exact,
    fas_greedy,
)
from selfrank.errors import CapacityError, InvalidInputError
from selfrank.evaluation import decode_queries
from selfrank.kernels import KernelSpec
from selfrank.learners import TrainConfig
from selfrank.losses import zero_one
from selfrank.oracles import fas_greedy_reference
from selfrank.ranking import build_pair_task_data, fit_rank_lowrank
from selfrank.verify import TOURNAMENT_FAMILIES


# 0 over 1 and 1 over 2 by 1.0, 2 over 0 by 0.5
THREE_CYCLE = np.array([[0.0, 1.0, -0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def brute_force_objective(t: Tournament) -> float:
    best = np.inf
    for perm in itertools.permutations(range(t.size)):
        best = min(best, backward_weight(t, Ordering.from_docs(list(perm))))
    return best


class TestDecodeFinite:
    def test_singleton(self):
        cand, score = decode_finite(["x"], np.array([1.0]), ["x"], zero_one)
        assert cand == "x" and score == 0.0

    def test_one_hot_alpha_selects_that_output(self):
        cand, _ = decode_finite(["a", "b"], np.array([1.0, 0.0, 0.0]), ["a", "b", "b"], zero_one)
        assert cand == "a"

    def test_weighted_sum_hand_example(self):
        cand, score = decode_finite(
            ["a", "b"], np.array([0.3, 0.3, 0.5]), ["a", "a", "b"], zero_one
        )
        assert cand == "a"
        assert score == pytest.approx(0.5)

    def test_tie_breaks_to_lowest_index(self):
        cand, _ = decode_finite(["b", "a"], np.array([0.5, 0.5]), ["a", "b"], zero_one)
        assert cand == "b"

    def test_invariant_under_positive_alpha_scaling(self):
        rng = np.random.default_rng(0)
        train = ["a", "b", "c", "a"]
        alpha = rng.standard_normal(4)
        c1, s1 = decode_finite(["a", "b", "c"], alpha, train, zero_one)
        c2, s2 = decode_finite(["a", "b", "c"], 7.5 * alpha, train, zero_one)
        assert c1 == c2
        assert s2 == pytest.approx(7.5 * s1)

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidInputError):
            decode_finite([], np.array([1.0]), ["a"], zero_one)

    def test_alpha_of_another_length_rejected(self):
        with pytest.raises(InvalidInputError, match="does not match 3 training outputs"):
            decode_finite(["a", "b"], np.array([1.0, 2.0]), ["a", "b", "a"], zero_one)

    def test_matches_exhaustive_reevaluation(self):
        rng = np.random.default_rng(1)
        labels = ["a", "b", "c", "d"]
        for _ in range(50):
            train = [labels[i] for i in rng.integers(0, 4, size=5)]
            alpha = rng.standard_normal(5)
            chosen, _ = decode_finite(labels, alpha, train, zero_one)
            sums = [
                sum(a * (0.0 if c == y else 1.0) for a, y in zip(alpha, train))
                for c in labels
            ]
            assert chosen == labels[int(np.argmin(sums))]


@pytest.mark.parametrize("weights", TOURNAMENT_FAMILIES)
def test_fas_greedy_matches_loop_reference(weights):
    rng = np.random.default_rng(8)
    for n in range(1, 65):
        t = Tournament(weights(rng, n))
        np.testing.assert_array_equal(
            fas_greedy(t).positions, fas_greedy_reference(t).positions, err_msg=f"n={n}"
        )


@pytest.mark.parametrize("decode", [fas_greedy, fas_greedy_reference, fas_exact])
def test_fas_decoders_order_zero_documents(decode):
    ordering = decode(Tournament(np.zeros((0, 0))))
    assert ordering.positions.shape == (0,) and ordering.positions.dtype.kind == "i"
    assert ordering.docs_by_rank().tolist() == []


def fitted_tournaments(n_users, top, seed):
    """One tournament per training user of a rank-5 fit on a simulated table."""
    table = simulate_movielens_table(n_users=n_users, n_items=80, seed=seed)
    items = top_items(table, top)
    split = split_per_user(table, seed=seed)
    tasks = build_pair_tasks(split.train, items)
    features = user_feature_map(split.train, items)
    data = build_pair_task_data(tasks, features, KernelSpec("linear"))
    model = fit_rank_lowrank(data, TrainConfig(lam=1e-3, rank=5, step=0.05, max_iters=20, seed=seed))
    X = np.vstack([features[u] for u in data.users])
    return zip(data.users, decode_queries(tasks, model.tournament_weights(X), decode=lambda t: t))


def test_fas_greedy_matches_loop_reference_on_fitted_tournaments():
    for user, t in fitted_tournaments(150, 30, 5):
        np.testing.assert_array_equal(
            fas_greedy(t).positions, fas_greedy_reference(t).positions, err_msg=f"user {user}"
        )


def test_fas_greedy_matches_loop_reference_on_fitted_top60_tournaments():
    # at n = 60 a decode takes tens of insertion rounds with sweeps between
    # moves, so most rounds recompute only part of the gains
    for user, t in fitted_tournaments(60, 60, 6):
        np.testing.assert_array_equal(
            fas_greedy(t).positions, fas_greedy_reference(t).positions, err_msg=f"user {user}"
        )


def test_fas_greedy_sweep_after_a_move():
    # The Borda start [4, 3, 2, 0, 1, 5, 6, 7] is swept to [4, 3, 0, 2, 5, 1, 6, 7].
    # The move 5 -> 0 then leaves docs 5 and 6 adjacent with w[5, 6] < 0, a pair
    # the moved doc is not in, so a sweep over positions 5..6 follows while the
    # move's positions 0..5 still wait for new gains; the next move is 4 -> 0.
    upper = np.array([
        [0, -1, 1, -2, -2, 2, 2, 1],
        [0, 0, -3, 1, 3, -1, 0, 0],
        [0, 0, 0, -2, 2, 1, 2, -3],
        [0, 0, 0, 0, -1, -3, 2, 2],
        [0, 0, 0, 0, 0, 2, 3, 1],
        [0, 0, 0, 0, 0, 0, -1, 2],
        [0, 0, 0, 0, 0, 0, 0, 3],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ], dtype=float)
    t = Tournament(upper)
    np.testing.assert_array_equal(fas_greedy(t).positions, fas_greedy_reference(t).positions)
    np.testing.assert_array_equal(fas_greedy(t).docs_by_rank(), [2, 1, 4, 3, 0, 6, 5, 7])


class TestFasGreedy:
    def test_margin_keeps_the_earlier_of_two_near_tied_moves(self):
        # Borda [0, 2, 1, 3] sweeps to [0, 1, 2, 3]. Moving doc 1 to the bottom
        # gains -(1 + 2^-52) + 2 = 1 - 2^-52 and comes first in scan order;
        # moving doc 3 up past docs 2 and 1 gains -1 + 2 = 1 later. That does
        # not beat 1 - 2^-52 by 1e-15, so doc 1 moves: [0, 2, 3, 1], where no
        # gain passes. The largest gain alone would have given [0, 3, 1, 2].
        t = Tournament(np.array([
            [0, 0, 0, 2],
            [0, 0, 1 + 2.0**-52, -2],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ]))
        np.testing.assert_array_equal(fas_greedy(t).positions, fas_greedy_reference(t).positions)
        np.testing.assert_array_equal(fas_greedy(t).docs_by_rank(), [0, 2, 3, 1])

    def test_exact_tie_at_the_top_gain_takes_the_first_move(self):
        # Borda [2, 0, 1, 3] is swept as is. Moving doc 2 down to position 2
        # and moving doc 1 up to the top both gain exactly 1; the first in
        # scan order gives [0, 1, 2, 3], where no gain passes. The later
        # move would have given [1, 2, 0, 3].
        t = Tournament(np.array([
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 3],
            [0, 0, 0, 0],
        ], dtype=float))
        np.testing.assert_array_equal(fas_greedy(t).positions, fas_greedy_reference(t).positions)
        np.testing.assert_array_equal(fas_greedy(t).docs_by_rank(), [0, 1, 2, 3])

    def test_transitive_tournament_identity(self):
        w = np.triu(np.ones((4, 4)), k=1)
        ordering = fas_greedy(Tournament(w))
        np.testing.assert_array_equal(ordering.docs_by_rank(), [0, 1, 2, 3])
        assert backward_weight(Tournament(w), ordering) == 0.0

    def test_three_cycle_breaks_weakest_edge(self):
        t = Tournament(THREE_CYCLE)
        obj = backward_weight(t, fas_greedy(t))
        assert obj == pytest.approx(0.5)

    def test_all_zero_keeps_initialization_order(self):
        t = Tournament(np.zeros((4, 4)))
        ordering = fas_greedy(t)
        np.testing.assert_array_equal(ordering.docs_by_rank(), [0, 1, 2, 3])
        assert backward_weight(t, ordering) == 0.0

    def test_locally_optimal_under_adjacent_swaps(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
            ordering = fas_greedy(t)
            base = backward_weight(t, ordering)
            docs = ordering.docs_by_rank().tolist()
            for p in range(n - 1):
                swapped = docs.copy()
                swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
                assert backward_weight(t, Ordering.from_docs(swapped)) >= base - 1e-12


class TestFasExact:
    def test_transitive_tournament(self):
        w = np.triu(np.ones((5, 5)), k=1)
        ordering = fas_exact(Tournament(w))
        np.testing.assert_array_equal(ordering.docs_by_rank(), np.arange(5))

    def test_three_cycle_objective(self):
        t = Tournament(THREE_CYCLE)
        # brute force over all 6 orders gives 0.5 (breaking only the weak edge)
        assert brute_force_objective(t) == pytest.approx(0.5)
        assert backward_weight(t, fas_exact(t)) == pytest.approx(0.5)

    def test_two_docs_negative_edge(self):
        t = Tournament(np.array([[0.0, -3.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(fas_exact(t).docs_by_rank(), [1, 0])

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            fas_exact(Tournament(np.zeros((11, 11))))

    def test_matches_permutation_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
            assert backward_weight(t, fas_exact(t)) == pytest.approx(
                brute_force_objective(t), abs=1e-12
            )


class TestGreedyVsExact:
    def test_never_undercuts_and_mostly_matches(self):
        rng = np.random.default_rng(5)
        matches = 0
        trials = 300
        for _ in range(trials):
            n = int(rng.integers(2, 8))
            t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
            g = backward_weight(t, fas_greedy(t))
            e = backward_weight(t, fas_exact(t))
            assert g >= e - 1e-12
            matches += g <= e + 1e-12
        assert matches / trials >= 0.9

    def test_edge_sign_reversal_reverses_solutions(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            upper = np.triu(rng.standard_normal((n, n)), k=1)
            t = Tournament(upper)
            t_rev = Tournament(-upper)
            obj = backward_weight(t, fas_exact(t))
            assert backward_weight(t_rev, fas_exact(t_rev)) == pytest.approx(obj, abs=1e-12)
            reversed_docs = fas_exact(t).docs_by_rank()[::-1].tolist()
            assert backward_weight(t_rev, Ordering.from_docs(reversed_docs)) == pytest.approx(
                obj, abs=1e-12
            )


class TestTournamentType:
    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(7)
        t = Tournament(rng.standard_normal((6, 6)))
        assert np.array_equal(t.weights, -t.weights.T)

    def test_weights_match_per_call_triu(self):
        rng = np.random.default_rng(8)
        for n in range(62):
            w = np.round(rng.standard_normal((n, n)), 1)
            upper = np.triu(w, k=1)
            assert Tournament(w).weights.tobytes() == (upper - upper.T).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.zeros((4, 4))
        w[2, 3] = w[1, 2] = bad
        with pytest.raises(InvalidInputError, match=rf"tournament weight \[1, 2\] is {bad}, not finite"):
            Tournament(w)

    @pytest.mark.parametrize("shape", [(3, 4), (4,)])
    def test_non_square_weights_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=r"^tournament weights must be square, got \("):
            Tournament(np.zeros(shape))

    def test_positions_must_be_permutation(self):
        with pytest.raises(InvalidInputError):
            Ordering(np.array([0, 0, 1]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(min_value=2, max_value=6))
def test_greedy_objective_upper_bounds_exact(seed, n):
    rng = np.random.default_rng(seed)
    t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
    assert backward_weight(t, fas_greedy(t)) >= backward_weight(t, fas_exact(t)) - 1e-12
