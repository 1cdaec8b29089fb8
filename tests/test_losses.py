import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfrank.errors import InvalidInputError
from selfrank.losses import RatingVector, pairwise_rank_loss, triangle, zero_one


class TestZeroOne:
    def test_identical(self):
        assert zero_one("a", "a") == 0.0

    def test_distinct(self):
        assert zero_one("a", "b") == 1.0


class TestRatingVector:
    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            RatingVector(np.ones(3), np.ones(2, dtype=bool))


class TestPairwiseRankLoss:
    def test_perfect_ordering(self):
        rv = RatingVector([3.0, 1.0], [True, True])
        assert pairwise_rank_loss([2.0, 1.0], rv) == (0.0, 0.0)

    def test_fully_reversed(self):
        rv = RatingVector([3.0, 1.0], [True, True])
        assert pairwise_rank_loss([1.0, 2.0], rv) == (2.0, 1.0)

    def test_three_documents_hand_count(self):
        # pairs: (0,1) contradicted weight 1, (0,2) contradicted weight 2,
        # (1,2) consistent weight 1 -> raw 3, normalizer 4
        rv = RatingVector([3.0, 2.0, 1.0], [True, True, True])
        raw, norm = pairwise_rank_loss([1.0, 3.0, 2.0], rv)
        assert raw == 3.0
        assert norm == pytest.approx(0.75)

    def test_score_tie_counts_half(self):
        rv = RatingVector([2.0, 1.0], [True, True])
        raw, norm = pairwise_rank_loss([1.0, 1.0], rv)
        assert raw == 0.5
        assert norm == 0.5

    def test_equal_ratings_contribute_zero(self):
        rv = RatingVector([2.0, 2.0], [True, True])
        assert pairwise_rank_loss([5.0, -1.0], rv) == (0.0, 0.0)

    def test_absent_entries_ignored(self):
        rv = RatingVector([3.0, 99.0, 1.0], [True, False, True])
        raw, norm = pairwise_rank_loss([2.0, 0.0, 1.0], rv)
        assert (raw, norm) == (0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            pairwise_rank_loss([1.0], RatingVector([1.0, 2.0], [True, True]))

    @pytest.mark.parametrize(
        "transform", [lambda s: 2 * s + 1, lambda s: s**3, lambda s: np.exp(s)]
    )
    def test_invariant_under_strictly_increasing_transforms(self, transform):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            rv = RatingVector(rng.integers(1, 6, size=n).astype(float), rng.random(n) < 0.8)
            scores = rng.standard_normal(n)
            assert pairwise_rank_loss(scores, rv) == pairwise_rank_loss(transform(scores), rv)


def pairwise_rank_loss_reference(rank_scores, ratings):
    """pairwise_rank_loss as it was before the cached triangle: np.triu_indices per call."""
    scores = np.asarray(rank_scores, dtype=float)
    idx = np.flatnonzero(ratings.present)
    if idx.size < 2:
        return 0.0, 0.0
    r = ratings.values[idx]
    s = scores[idx]
    ii, jj = np.triu_indices(idx.size, k=1)
    dr = r[ii] - r[jj]
    ds = s[ii] - s[jj]
    w = np.abs(dr)
    contra = np.sign(dr) * np.sign(ds) < 0
    tie = (ds == 0) & (dr != 0)
    raw = float(np.sum(w * contra) + 0.5 * np.sum(w * tie))
    denom = float(np.sum(w))
    return raw, raw / denom if denom > 0 else 0.0


def test_pairwise_rank_loss_matches_per_call_triangle_reference():
    rng = np.random.default_rng(11)
    for m in range(62):
        for _ in range(4):
            rv = RatingVector(rng.integers(1, 6, size=m).astype(float), rng.random(m) < 0.8)
            scores = np.round(rng.standard_normal(m), 1)  # score ties too
            got = pairwise_rank_loss(scores, rv)
            expected = pairwise_rank_loss_reference(scores, rv)
            assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_triangle_is_cached_and_read_only():
    lower, ii, jj = triangle(7)
    assert triangle(7)[0] is lower
    assert np.array_equal(lower, np.tri(7, k=-1, dtype=bool))
    for got, expected in zip((ii, jj), np.triu_indices(7, k=1)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    for array in (lower, ii, jj):
        with pytest.raises(ValueError):
            array[0] = 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=100_000),
)
def test_normalized_loss_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    rv = RatingVector(rng.integers(0, 6, size=n).astype(float), rng.random(n) < 0.7)
    scores = rng.standard_normal(n)
    raw, norm = pairwise_rank_loss(scores, rv)
    assert 0.0 <= norm <= 1.0
    assert raw >= 0.0


def test_zero_loss_iff_consistent_strict_ordering():
    rv = RatingVector([3.0, 2.0, 1.0], [True, True, True])
    _, norm = pairwise_rank_loss([10.0, 5.0, 0.0], rv)
    assert norm == 0.0
    # a tie on an unequal-rating pair is already nonzero
    _, norm_tied = pairwise_rank_loss([10.0, 10.0, 0.0], rv)
    assert norm_tied > 0.0
