import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfrank.decoding import (
    Ordering,
    Tournament,
    backward_weight,
    build_tournament,
    decode_finite,
    fas_exact,
    fas_greedy,
)
from selfrank.errors import CapacityError, InvalidInputError
from selfrank.losses import zero_one


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


class TestBuildTournament:
    def test_zero_alphas_give_zero_tournament(self):
        t = build_tournament(3, [((0, 1), np.zeros(2), np.array([1.0, -1.0]))])
        np.testing.assert_array_equal(t.weights, np.zeros((3, 3)))

    def test_single_term(self):
        t = build_tournament(2, [((0, 1), np.array([1.0]), np.array([2.5]))])
        assert t.weight(0, 1) == 2.5
        assert t.weight(1, 0) == -2.5

    def test_weighted_combination(self):
        t = build_tournament(2, [((0, 1), np.array([0.5, 0.5]), np.array([2.0, -4.0]))])
        assert t.weight(0, 1) == pytest.approx(-1.0)

    def test_duplicate_pair_rejected(self):
        tasks = [
            ((0, 1), np.array([1.0]), np.array([1.0])),
            ((1, 0), np.array([1.0]), np.array([1.0])),
        ]
        with pytest.raises(InvalidInputError):
            build_tournament(2, tasks)

    def test_linear_in_alpha(self):
        rng = np.random.default_rng(2)
        tasks = [((0, 2), rng.standard_normal(3), rng.standard_normal(3))]
        t1 = build_tournament(3, tasks)
        t2 = build_tournament(3, [((0, 2), 2 * tasks[0][1], tasks[0][2])])
        np.testing.assert_allclose(t2.weights, 2 * t1.weights)


def fas_greedy_reference(t: Tournament) -> Ordering:
    """The loop form of fas_greedy's insertion scan, kept as its bitwise reference."""
    borda = t.weights.sum(axis=1)
    docs = sorted(range(t.size), key=lambda j: (-borda[j], j))
    w = t.weights
    n = t.size
    while True:
        improved = True
        while improved:
            improved = False
            for p in range(n - 1):
                u, v = docs[p], docs[p + 1]
                if w[u, v] < 0:
                    docs[p], docs[p + 1] = v, u
                    improved = True
        order = np.asarray(docs)
        sub = w[order[:, None], order[None, :]]
        best = (0.0, None)
        for p in range(n):
            gain = 0.0
            for q in range(p - 1, -1, -1):  # move up past position q
                gain += sub[p, q]
                if gain > best[0] + 1e-15:
                    best = (gain, (p, q))
            gain = 0.0
            for q in range(p + 1, n):  # move down past position q
                gain -= sub[p, q]
                if gain > best[0] + 1e-15:
                    best = (gain, (p, q))
        if best[1] is None:
            break
        p, q = best[1]
        doc = docs.pop(p)
        docs.insert(q, doc)
    return Ordering.from_docs(docs)


def _gaussian(rng, n):
    return rng.standard_normal((n, n))


def _integer_ties(rng, n):
    return rng.integers(-2, 3, size=(n, n)).astype(float)


def _tiny(rng, n):
    return rng.standard_normal((n, n)) * 1e-17  # no insertion gain passes the 1e-15 margin


def _near_margin(rng, n):
    # gains of about 1e-15: the margin decides between near-tied moves
    return rng.standard_normal((n, n)) * 1e-17 * n


@pytest.mark.parametrize("weights", [_gaussian, _integer_ties, _tiny, _near_margin])
def test_fas_greedy_matches_loop_reference(weights):
    rng = np.random.default_rng(8)
    for n in range(1, 65):
        t = Tournament(weights(rng, n))
        np.testing.assert_array_equal(
            fas_greedy(t).positions, fas_greedy_reference(t).positions, err_msg=f"n={n}"
        )


class TestFasGreedy:
    def test_transitive_tournament_identity(self):
        w = np.triu(np.ones((4, 4)), k=1)
        ordering = fas_greedy(Tournament(w))
        np.testing.assert_array_equal(ordering.docs_by_rank(), [0, 1, 2, 3])
        assert backward_weight(Tournament(w), ordering) == 0.0

    def test_three_cycle_breaks_weakest_edge(self):
        t = Tournament.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5)])
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
        t = Tournament.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.5)])
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

    def test_from_edges_orientation(self):
        t = Tournament.from_edges(3, [(2, 0, 1.5)])
        assert t.weight(2, 0) == 1.5
        assert t.weight(0, 2) == -1.5

    def test_positions_must_be_permutation(self):
        with pytest.raises(InvalidInputError):
            Ordering(np.array([0, 0, 1]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(min_value=2, max_value=6))
def test_greedy_objective_upper_bounds_exact(seed, n):
    rng = np.random.default_rng(seed)
    t = Tournament(np.triu(rng.standard_normal((n, n)), k=1))
    assert backward_weight(t, fas_greedy(t)) >= backward_weight(t, fas_exact(t)) - 1e-12
