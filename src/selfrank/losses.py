"""The zero-one loss of the finite decoder, and the pairwise ranking metric.

No loss is coded or decoded explicitly: the ranking pipeline meets its loss
only through the pair tasks' signed rating differences z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .kernels import canonical_encoding


def zero_one(y, yp) -> float:
    """0 when y and y' are equal (componentwise for sequences), else 1."""
    return 0.0 if canonical_encoding(y) == canonical_encoding(yp) else 1.0


@dataclass(frozen=True)
class RatingVector:
    """Per-query ratings over a fixed document list, with a presence mask."""

    values: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        present = np.asarray(self.present, dtype=bool)
        if values.shape != present.shape or values.ndim != 1:
            raise InvalidInputError(
                f"values {values.shape} and present {present.shape} must be equal-length vectors"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "present", present)

    def __len__(self) -> int:
        return self.values.shape[0]


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


def pairwise_rank_loss(rank_scores, ratings: RatingVector) -> tuple[float, float]:
    """Weighted pairwise disagreement between scores and ratings.

    Over all present pairs i < j with distinct ratings, a pair contributes
    |r_i - r_j| times 1 if the scores order the pair against the ratings
    (strictly lower score for the higher-rated item), 1/2 if the scores tie,
    and 0 otherwise. Returns (raw, normalized) with the normalizer
    sum |r_i - r_j| over the same pairs; 0/0 is defined as 0.
    """
    scores = np.asarray(rank_scores, dtype=float)
    if scores.ndim != 1 or len(scores) != len(ratings):
        raise InvalidInputError(
            f"rank_scores length {scores.shape} does not match ratings length {len(ratings)}"
        )
    idx = np.flatnonzero(ratings.present)
    if idx.size < 2:
        return 0.0, 0.0
    r = ratings.values[idx]
    s = scores[idx]
    _, ii, jj = triangle(idx.size)
    dr = r[ii] - r[jj]
    ds = s[ii] - s[jj]
    w = np.abs(dr)
    # disagreement: the higher-rated item scored strictly lower; ties count half
    contra = np.sign(dr) * np.sign(ds) < 0
    tie = (ds == 0) & (dr != 0)
    raw = float(np.sum(w * contra) + 0.5 * np.sum(w * tie))
    denom = float(np.sum(w))
    normalized = raw / denom if denom > 0 else 0.0
    return raw, normalized
