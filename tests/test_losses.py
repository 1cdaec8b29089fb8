import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfrank.errors import InvalidInputError
from selfrank.losses import pairwise_rank_loss, triangle, zero_one


class TestZeroOne:
    def test_identical(self):
        assert zero_one("a", "a") == 0.0

    def test_distinct(self):
        assert zero_one("a", "b") == 1.0


def one_row_loss(scores, values, present=None):
    """(raw, normalized) of a one-row block, as Python floats."""
    present = np.ones(len(values), dtype=bool) if present is None else present
    raw, norm = pairwise_rank_loss([scores], [values], [present])
    assert raw.shape == norm.shape == (1,)
    return float(raw[0]), float(norm[0])


class TestPairwiseRankLoss:
    def test_perfect_ordering(self):
        assert one_row_loss([2.0, 1.0], [3.0, 1.0]) == (0.0, 0.0)

    def test_fully_reversed(self):
        assert one_row_loss([1.0, 2.0], [3.0, 1.0]) == (2.0, 1.0)

    def test_three_documents_hand_count(self):
        # pairs: (0,1) contradicted weight 1, (0,2) contradicted weight 2,
        # (1,2) consistent weight 1 -> raw 3, normalizer 4
        raw, norm = one_row_loss([1.0, 3.0, 2.0], [3.0, 2.0, 1.0])
        assert raw == 3.0
        assert norm == pytest.approx(0.75)

    def test_score_tie_counts_half(self):
        raw, norm = one_row_loss([1.0, 1.0], [2.0, 1.0])
        assert raw == 0.5
        assert norm == 0.5

    def test_equal_ratings_contribute_zero(self):
        assert one_row_loss([5.0, -1.0], [2.0, 2.0]) == (0.0, 0.0)

    def test_absent_entries_ignored(self):
        raw, norm = one_row_loss([2.0, 0.0, 1.0], [3.0, 99.0, 1.0], [True, False, True])
        assert (raw, norm) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "shapes",
        [((1, 1), (1, 2), (1, 2)), ((2, 2), (1, 2), (2, 2)), ((2,), (2,), (2,)), ((1, 3), (1, 3), (1, 2))],
    )
    def test_shape_mismatch(self, shapes):
        s, v, p = (np.ones(shape) for shape in shapes)
        with pytest.raises(InvalidInputError):
            pairwise_rank_loss(s, v, p.astype(bool))

    def test_rows_are_scored_alone(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((9, 6))
        values = rng.integers(1, 6, (9, 6)) * 0.137
        present = rng.random((9, 6)) < 0.7
        raw, norm = pairwise_rank_loss(scores, values, present)
        for k in range(9):
            assert (raw[k], norm[k]) == one_row_loss(scores[k], values[k], present[k])

    @pytest.mark.parametrize(
        "transform", [lambda s: 2 * s + 1, lambda s: s**3, lambda s: np.exp(s)]
    )
    def test_invariant_under_strictly_increasing_transforms(self, transform):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            values = rng.integers(1, 6, size=(5, n)).astype(float)
            present = rng.random((5, n)) < 0.8
            scores = rng.standard_normal((5, n))
            for got, want in zip(pairwise_rank_loss(scores, values, present),
                                 pairwise_rank_loss(transform(scores), values, present)):
                assert got.tobytes() == want.tobytes()


def pairwise_rank_loss_reference(rank_scores, values, present):
    """One query's (raw, normalized) loss as it was scored per query, with
    np.triu_indices per call: the formula the block loss must match bit for bit."""
    scores = np.asarray(rank_scores, dtype=float)
    idx = np.flatnonzero(present)
    if idx.size < 2:
        return 0.0, 0.0
    r = np.asarray(values, dtype=float)[idx]
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


@pytest.mark.parametrize("ratings", ["integer", "non-dyadic", "gaussian"])
def test_pairwise_rank_loss_matches_per_query_reference(ratings):
    """Blocks of up to 62 documents, ratings with and without ties, score ties,
    and rows with 0, 1 or all items present."""
    rng = np.random.default_rng(11)
    for m in range(63):
        q = int(rng.integers(1, 40))
        if ratings == "integer":
            values = rng.integers(1, 6, size=(q, m)).astype(float)
        elif ratings == "non-dyadic":
            values = rng.integers(1, 6, size=(q, m)) * 0.137
        else:
            values = rng.standard_normal((q, m))
        present = rng.random((q, m)) < rng.uniform(0.0, 1.0, (q, 1))
        present[0] = True
        if m and q > 2:
            present[1] = False
            present[2] = np.arange(m) == rng.integers(m)
        scores = np.round(rng.standard_normal((q, m)), 1)  # score ties too
        raw, norm = pairwise_rank_loss(scores, values, present)
        for k in range(q):
            expected = pairwise_rank_loss_reference(scores[k], values[k], present[k])
            assert np.array([raw[k], norm[k]]).tobytes() == np.array(expected).tobytes()


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
    values = rng.integers(0, 6, size=(3, n)).astype(float)
    present = rng.random((3, n)) < 0.7
    raw, norm = pairwise_rank_loss(rng.standard_normal((3, n)), values, present)
    assert np.all((0.0 <= norm) & (norm <= 1.0))
    assert np.all(raw >= 0.0)


def test_zero_loss_iff_consistent_strict_ordering():
    assert one_row_loss([10.0, 5.0, 0.0], [3.0, 2.0, 1.0])[1] == 0.0
    # a tie on an unequal-rating pair is already nonzero
    assert one_row_loss([10.0, 10.0, 0.0], [3.0, 2.0, 1.0])[1] > 0.0
