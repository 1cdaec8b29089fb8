"""Loss functions with kernel-realized output embeddings, and the ranking metric.

Each loss carries the output kernel whose feature map realizes it as an inner
product <psi(y), V psi(y')>, so downstream learning only ever touches Gram
matrices of outputs, never the embedding itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .errors import InvalidInputError
from .kernels import KernelSpec


@dataclass(frozen=True)
class SelfLoss:
    """A loss l(y, y') together with the output kernel realizing its embedding."""

    name: str
    evaluate: Callable[[Any, Any], float]
    output_kernel: KernelSpec
    validate: Callable[[Any], None] = field(default=lambda y: None)


def _check_pair_sign_candidate(c) -> None:
    if not isinstance(c, (int, float, np.integer, np.floating)) or float(c) not in (-1.0, 1.0):
        raise InvalidInputError(f"pair_sign candidate must be -1 or +1, got {c!r}")


def _check_real(y) -> None:
    if not isinstance(y, (int, float, np.integer, np.floating)) or not np.isfinite(float(y)):
        raise InvalidInputError(f"expected a finite real output, got {y!r}")


def _zero_one(y, yp) -> float:
    from .kernels import canonical_encoding

    return 0.0 if canonical_encoding(y) == canonical_encoding(yp) else 1.0


zero_one = SelfLoss(
    name="zero_one",
    evaluate=_zero_one,
    output_kernel=KernelSpec("delta"),
)

# Smooth loss on a compact set; the abel kernel realizes its embedding.
squared = SelfLoss(
    name="squared",
    evaluate=lambda y, yp: (float(y) - float(yp)) ** 2,
    output_kernel=KernelSpec("abel", bandwidth=1.0),
    validate=_check_real,
)

pair_sign = SelfLoss(
    name="pair_sign",
    evaluate=lambda c, z: -float(c) * float(z),
    output_kernel=KernelSpec("linear"),
    validate=_check_real,
)


def loss_eval(loss: SelfLoss, y, yp) -> float:
    """Evaluate loss(y, y') after validating both arguments."""
    if loss.name == "pair_sign":
        _check_pair_sign_candidate(y)
        loss.validate(yp)
    else:
        loss.validate(y)
        loss.validate(yp)
    value = float(loss.evaluate(y, yp))
    if not np.isfinite(value):
        raise InvalidInputError(f"loss {loss.name} returned non-finite value {value}")
    return value


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
