"""The zero-one loss of the finite decoder, and the pairwise ranking metric.

No loss is coded or decoded explicitly: the ranking pipeline meets its loss
only through the pair tasks' signed rating differences z.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .kernels import canonical_encoding


def zero_one(y, yp) -> float:
    """0 when y and y' are equal (componentwise for sequences), else 1."""
    return 0.0 if canonical_encoding(y) == canonical_encoding(yp) else 1.0


@lru_cache(maxsize=128)
def triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strict triangles of an n x n matrix, built once per size, read-only.

    Returns the strictly lower mask np.tri(n, k=-1, dtype=bool), whose
    transpose is the strictly upper one, and the strictly upper indices
    np.triu_indices(n, k=1) in their row-major order.
    """
    lower = np.tri(n, k=-1, dtype=bool)
    ii, jj = np.triu_indices(n, k=1)
    for array in (lower, ii, jj):
        array.flags.writeable = False
    return lower, ii, jj


def pairwise_rank_loss(rank_scores, values, present) -> tuple[np.ndarray, np.ndarray]:
    """Weighted pairwise disagreement between scores and ratings, per row.

    All three arguments are (queries x documents) blocks: each row holds one
    query's scores, its ratings and which ratings are present. Over a row's
    present pairs i < j with distinct ratings, a pair contributes |r_i - r_j|
    times 1 if the scores order the pair against the ratings (strictly lower
    score for the higher-rated item), 1/2 if the scores tie, and 0 otherwise.
    Returns per-row arrays (raw, normalized) with the normalizer
    sum |r_i - r_j| over the same pairs; 0/0 is defined as 0.

    Rows with the same number m of present items are scored together on
    their m x m triangle, each row summed alone over its pairs in triangle
    order, so a row's loss does not depend on the other rows.
    """
    scores = np.asarray(rank_scores, dtype=float)
    values = np.asarray(values, dtype=float)
    present = np.asarray(present, dtype=bool)
    if scores.ndim != 2 or not scores.shape == values.shape == present.shape:
        raise InvalidInputError(
            f"rank_scores {scores.shape}, values {values.shape} and present {present.shape}"
            " must be equal-shape (queries x documents) blocks"
        )
    raw = np.zeros(len(scores))
    denom = np.zeros(len(scores))
    counts = present.sum(axis=1)
    for m in np.unique(counts[counts >= 2]).tolist():
        rows = np.flatnonzero(counts == m)
        keep = present[rows]
        r = values[rows][keep].reshape(-1, m)
        s = scores[rows][keep].reshape(-1, m)
        _, ii, jj = triangle(m)
        dr = np.take(r, ii, axis=1) - np.take(r, jj, axis=1)
        ds = np.take(s, ii, axis=1) - np.take(s, jj, axis=1)
        w = np.abs(dr)
        # disagreement: the higher-rated item scored strictly lower; ties count half
        contra = np.sign(dr) * np.sign(ds) < 0
        tie = (ds == 0) & (dr != 0)
        raw[rows] = np.sum(w * contra, axis=1) + 0.5 * np.sum(w * tie, axis=1)
        denom[rows] = np.sum(w, axis=1)
    normalized = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)
    return raw, normalized
