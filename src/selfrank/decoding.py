"""Structured decoding: finite-candidate argmin and tournament ordering.

The finite decoder evaluates candidates through loss values and learned
weights only. Permutation decoding orients a weighted preference tournament
into a total order by (approximately) minimizing the weight of contradicted
preferences, i.e. a weighted minimum feedback arc set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .losses import SelfLoss, loss_eval

FAS_EXACT_MAX_SIZE = 10


@dataclass(frozen=True)
class Ordering:
    """A total order of N documents; positions[j] is the rank of document j (0 = top)."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=int)
        if sorted(pos.tolist()) != list(range(pos.shape[0])):
            raise InvalidInputError(f"positions {pos} is not a permutation")
        object.__setattr__(self, "positions", pos)

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    def docs_by_rank(self) -> np.ndarray:
        """Document indices from top rank to bottom."""
        return np.argsort(self.positions, kind="stable")

    @classmethod
    def from_docs(cls, docs) -> "Ordering":
        docs = np.asarray(docs, dtype=int)
        pos = np.empty_like(docs)
        pos[docs] = np.arange(docs.shape[0])
        return cls(pos)


class Tournament:
    """Antisymmetric pairwise-preference weights over N documents.

    weights[j, k] > 0 means document j is preferred over k by that net amount.
    Only the upper triangle is stored as given; the lower triangle is its exact
    negation, so antisymmetry holds to the last bit.
    """

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInputError(f"tournament weights must be square, got {w.shape}")
        upper = np.triu(w, k=1)
        self.weights = upper - upper.T
        self.size = w.shape[0]

    @classmethod
    def from_edges(cls, size: int, edges) -> "Tournament":
        """Build from (j, k, weight) triples; weight is the net preference of j over k."""
        w = np.zeros((size, size))
        seen = set()
        for j, k, value in edges:
            if j == k or not (0 <= j < size and 0 <= k < size):
                raise InvalidInputError(f"invalid document pair ({j}, {k})")
            key = (min(j, k), max(j, k))
            if key in seen:
                raise InvalidInputError(f"duplicate pair task for documents {key}")
            seen.add(key)
            if j < k:
                w[j, k] = value
            else:
                w[k, j] = -value
        return cls(w)

    def weight(self, j: int, k: int) -> float:
        return float(self.weights[j, k])


def decode_finite(candidates, alpha, train_outputs, loss: SelfLoss):
    """Pick the candidate minimizing sum_i alpha_i * loss(candidate, y_i).

    Ties break toward the lowest candidate index. Returns (candidate, score).
    """
    if len(candidates) == 0:
        raise InvalidInputError("decode_finite requires a nonempty candidate list")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.shape[0] != len(train_outputs):
        raise InvalidInputError(
            f"alpha length {alpha.shape} does not match {len(train_outputs)} training outputs"
        )
    best = None
    best_score = None
    for cand in candidates:
        score = sum(
            a * loss_eval(loss, cand, y) for a, y in zip(alpha, train_outputs) if a != 0.0
        )
        if best_score is None or score < best_score:
            best, best_score = cand, score
    return best, float(best_score)


def build_tournament(size: int, pair_tasks) -> Tournament:
    """Aggregate per-pair-task weights and observations into a tournament.

    pair_tasks is an iterable of ((j, k), alpha_t, z_t); the edge weight of the
    unordered pair is sum_i alpha_ti * z_ti, oriented as net preference of j
    over k. Unobserved pairs keep weight 0.
    """
    edges = []
    for (j, k), alpha_t, z_t in pair_tasks:
        alpha_t = np.asarray(alpha_t, dtype=float)
        z_t = np.asarray(z_t, dtype=float)
        if alpha_t.shape != z_t.shape:
            raise InvalidInputError(
                f"pair ({j}, {k}): alpha length {alpha_t.shape} != z length {z_t.shape}"
            )
        edges.append((j, k, float(alpha_t @ z_t)))
    return Tournament.from_edges(size, edges)


def backward_weight(t: Tournament, ordering: Ordering) -> float:
    """Total weight of preferences the ordering contradicts."""
    docs = ordering.docs_by_rank()
    sub = t.weights[np.ix_(docs, docs)]
    low = np.tril(sub, k=-1)  # entries below the diagonal are ranked-lower over ranked-higher
    return float(np.sum(low[low > 0]))


def fas_greedy(t: Tournament) -> Ordering:
    """Order by descending Borda score, then local search to a fixed point.

    The search alternates adjacent-transposition sweeps with single-document
    insertion moves (which subsume adjacent swaps), applying one improving
    insertion each round. A round scans the moves in a fixed order: for each
    position p, first the moves up to q = p-1 down to 0, then the moves down
    to q = p+1 up to n-1. A move becomes the round's best when its gain beats
    the current best gain (at first 0) by more than 1e-15; the round applies
    the last move that became best. The gains of a round come from one O(n^2)
    numpy pass of cumulative sums, each added in scan order. The result is
    locally optimal under adjacent transpositions: no swap of neighbouring
    documents decreases the contradicted weight.
    """
    borda = t.weights.sum(axis=1)
    docs = sorted(range(t.size), key=lambda j: (-borda[j], j))
    w = t.weights
    n = t.size
    lower = np.tri(n, k=-1, dtype=bool)
    # gains of a round sit side by side as [up | down], n x 2n: up[p, k] is the
    # gain of moving docs[p] up to q = n-1-k, down[p, q] of moving it down to q.
    # Row-major order over the valid entries is the scan order.
    valid = np.hstack([lower[:, ::-1], lower.T])
    scan_p, scan_k = np.nonzero(valid)
    scan_q = np.where(scan_k < n, n - 1 - scan_k, scan_k - n)
    while True:
        improved = True
        while improved:
            improved = False
            for p in range(n - 1):
                u, v = docs[p], docs[p + 1]
                if w[u, v] < 0:  # swapping strictly reduces the objective
                    docs[p], docs[p + 1] = v, u
                    improved = True
        # moving docs[p] to position q changes the objective by
        # -sum(w[u, docs[j]]) over the positions it jumps across
        order = np.asarray(docs)
        sub = w[order[:, None], order[None, :]]
        up = np.cumsum(np.where(lower, sub, 0.0)[:, ::-1], axis=1)
        down = np.cumsum(np.where(lower.T, -sub, 0.0), axis=1)
        gains = np.hstack([up, down])[valid]
        best, move = 0.0, None
        for i in np.flatnonzero(gains > 1e-15).tolist():  # only these can pass the rule
            if gains[i] > best + 1e-15:
                best, move = gains[i], i
        if move is None:
            break
        doc = docs.pop(scan_p[move])
        docs.insert(scan_q[move], doc)
    return Ordering.from_docs(docs)


def fas_exact(t: Tournament) -> Ordering:
    """Exact minimizer of the contradicted weight over all total orders.

    Held-Karp dynamic program over document subsets; ties resolve to the
    lexicographically smallest top-to-bottom document sequence.
    """
    n = t.size
    if n > FAS_EXACT_MAX_SIZE:
        raise CapacityError(
            f"fas_exact handles at most {FAS_EXACT_MAX_SIZE} documents, got {n}"
        )
    w = t.weights
    full = (1 << n) - 1
    dp = np.full(1 << n, np.inf)
    dp[0] = 0.0
    # dp[s]: minimal within-s contradicted weight; the recursion peels the top
    # doc j of s, paying the edges k -> j it overrules
    members = [[j for j in range(n) if s >> j & 1] for s in range(1 << n)]
    for s in range(1, 1 << n):
        best = np.inf
        for j in members[s]:
            rest = s & ~(1 << j)
            cost = dp[rest] + sum(max(0.0, w[k, j]) for k in members[rest])
            if cost < best:
                best = cost
        dp[s] = best
    docs = []
    s = full
    while s:
        for j in members[s]:  # ascending doc index -> lexicographically smallest order
            rest = s & ~(1 << j)
            cost = dp[rest] + sum(max(0.0, w[k, j]) for k in members[rest])
            if cost == dp[s]:  # identical arithmetic to the forward pass, so exact
                docs.append(j)
                s = rest
                break
    return Ordering.from_docs(docs)
