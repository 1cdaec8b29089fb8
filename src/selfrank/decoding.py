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
from .losses import triangle

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
    negation, so antisymmetry holds to the last bit. Every weight must be
    finite: fas_greedy reads its margin rule from an argmax, which would take
    a NaN gain that the rule never picks.
    """

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInputError(f"tournament weights must be square, got {w.shape}")
        if not np.isfinite(w).all():
            j, k = np.argwhere(~np.isfinite(w))[0].tolist()
            raise InvalidInputError(f"tournament weight [{j}, {k}] is {w[j, k]}, not finite")
        upper = np.where(triangle(w.shape[0])[0].T, w, 0.0)  # np.triu(w, k=1)
        self.weights = upper - upper.T
        self.size = w.shape[0]


def decode_finite(candidates, alpha, train_outputs, loss):
    """Pick the candidate minimizing sum_i alpha_i * loss(candidate, y_i), for a
    loss (y, y') -> float such as losses.zero_one.

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
            a * loss(cand, y) for a, y in zip(alpha, train_outputs) if a != 0.0
        )
        if best_score is None or score < best_score:
            best, best_score = cand, score
    return best, float(best_score)


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
    the last move that became best.

    That rule is read from one argmax: the largest gain M, first in scan
    order. If M <= 1e-15 no move passes. If no other gain exceeds
    M - 4e-15 max(1, M), the rule picks M's move: every earlier best r has
    fl(r + 1e-15) < M, and no later gain exceeds fl(M + 1e-15) >= M. Only
    when another gain comes that close does the round scan the gains above
    1e-15 in order.

    A move's gain is a cumulative sum over the strictly lower triangle L of
    the reordered weights, added in scan order. L holds both directions
    because the upper triangle is its exact negation: row p of L accumulated
    from the right gives the moves of the document at p up (its up chain),
    and column p accumulated downward its moves down (its down chain).
    Entries that are no legal move add only zeros and stay 0.0, which the
    rule never accepts.

    The gains are kept from one round to the next. Say only positions lo..hi
    hold new documents: the span of the last move, or the positions a sweep
    changed joined with that span. An up chain reads its own row of L left
    of the diagonal and a down chain its own column below it, so the up
    chains of positions < lo and the down chains of positions > hi read
    nothing that moved. The other up chains change only from q = hi down,
    and the other down chains only from q = lo on. Both changed parts read
    one block of L, rows lo.. and columns ..hi, and each is accumulated on
    from the unchanged gain just before it. Every gain is then the same
    additions in the same order as a full pass, bit for bit. The first
    round is the block lo = 0, hi = n-1.

    A sweep runs to a fixed point, and a move p -> q shifts the documents
    between p and q by one, so it makes new neighbours only at the ends of
    its span: the pairs that start at lo-1, lo, hi-1 and hi. Only those can
    have turned into improving swaps. The result is locally optimal under
    adjacent transpositions: no swap of neighbouring documents decreases
    the contradicted weight.
    """
    w = t.weights
    n = t.size
    order = np.argsort(-w.sum(axis=1), kind="stable")  # Borda, ties by index
    if n < 2:  # no move
        return Ordering.from_docs(order)
    lower = triangle(n)[0]
    up_lower, down_lower = lower[:, ::-1], lower.T
    # gains[p] = [up[p] | down[p]]: up[p, k] is the gain of moving order[p]
    # up to q = n-1-k, down[p, q] of moving it down to q. Row-major order is
    # the scan order. Entries that are no legal move are never written: 0.0.
    gains = np.zeros((n, 2 * n))
    up, down, scan = gains[:, :n], gains[:, n:], gains.ravel()
    order = _sweep(w, order, range(n - 1))
    lo, hi = 0, n - 1  # positions whose documents changed since the last gains
    while True:
        # moving order[p] to position q changes the objective by
        # -sum(w[u, order[j]]) over the positions it jumps across; a chain's
        # changed part is accumulated on from the column before it
        block = w.take(order[lo:], axis=0).take(order[: hi + 1], axis=1)
        k = n - 1 - hi
        np.copyto(up[lo:, k:], block[:, ::-1], where=up_lower[lo:, k:])
        chain = up[lo:, k - 1 if k else 0 :]
        np.add.accumulate(chain, axis=1, out=chain)
        np.copyto(down[: hi + 1, lo:], block.T, where=down_lower[: hi + 1, lo:])
        chain = down[: hi + 1, lo - 1 if lo else 0 :]
        np.add.accumulate(chain, axis=1, out=chain)
        move = int(scan.argmax())
        best = scan.item(move)
        if best <= 1e-15:
            break
        if np.count_nonzero(scan > best - 4e-15 * max(1.0, best)) > 1:
            cand = (scan > 1e-15).nonzero()[0]  # only these can pass the rule
            best = 0.0
            for i, gain in zip(cand.tolist(), scan[cand].tolist()):
                if gain > best + 1e-15:
                    best, move = gain, i
        p, k = divmod(move, 2 * n)
        q = n - 1 - k if k < n else k - n
        doc = order.item(p)
        if q < p:
            order[q + 1 : p + 1] = order[q:p]
            lo, hi = q, p
        else:
            order[p:q] = order[p + 1 : q + 1]
            lo, hi = p, q
        order[q] = doc
        starts = [s for s in (lo - 1, lo, hi - 1, hi) if 0 <= s < n - 1]
        if any(w.item(order.item(s), order.item(s + 1)) < 0 for s in starts):
            swept = _sweep(w, order, starts)
            moved = np.flatnonzero(order != swept)
            order, lo, hi = swept, min(lo, moved[0]), max(hi, moved[-1])
    return Ordering.from_docs(order)


def _sweep(w: np.ndarray, order: np.ndarray, starts) -> np.ndarray:
    """Adjacent-transposition passes from the top until none improves.

    Only the pairs (p, p+1) for p in starts may improve at first. A swap at p
    makes new pairs at p-1 and p+1, and every other pair stays as its last
    test left it, so a pass tests only the pairs marked since: it makes the
    same swaps as passes over every pair.
    """
    docs = order.tolist()
    marked = [False] * (len(docs) - 1)
    for s in starts:
        marked[s] = True
    while True in marked:
        for p, fresh in enumerate(marked):  # reaches p+1 after marking it
            if fresh:
                marked[p] = False
                u, v = docs[p], docs[p + 1]
                if w.item(u, v) < 0:  # swapping strictly reduces the objective
                    docs[p], docs[p + 1] = v, u
                    if p:
                        marked[p - 1] = True
                    if p + 1 < len(marked):
                        marked[p + 1] = True
    return np.array(docs, dtype=np.intp)


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
