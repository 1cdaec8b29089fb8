"""Ranking metrics, hyperparameter grids, and synthetic experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import PairTaskSet, SplitTable, _rating_block
# Tournament stays an evaluation attribute: perfbench's tracer patches evaluation.Tournament.
from .decoding import Ordering, Tournament, fas_greedy, tournaments  # noqa: F401
from .errors import DivergenceError, InvalidInputError, NumericalError
from .kernels import KernelSpec, gram
from .learners import TrainConfig, fit_lowrank, halving_step_search, ridge_cho_factor, ridge_cho_solve
from .losses import pairwise_rank_loss
from .ranking import (
    PairTaskData,
    fit_rank_hs,
    fit_rank_lowrank,
    halving_step_search_rank,
)


DEFAULT_LAMBDAS = tuple(np.logspace(-4, 0, 7).tolist())
DEFAULT_RANKS = (2, 5, 10, 20)
DEFAULT_ITERS = (500, 2000)

# Tournament weights per block of decode_queries: 2**16 floats (512 KiB) hold
# 72 top-30 or 18 top-60 tournaments, and a block holds at least one, so the
# stack stays within about 1 MB at any n up to 362 documents. A stack of all
# 943 top-30 queries would take 6.8 MB and raise the decode's memory peak, and
# 1 MiB blocks measured slower than these at top 30.
DECODE_BLOCK_WEIGHTS = 1 << 16


@dataclass
class EvalReport:
    """Per-query normalized pairwise losses; mean, std and n_queries derive from them."""

    per_query: list[float]
    skipped: int
    config: dict = field(default_factory=dict)
    mean: float = field(init=False)
    std: float = field(init=False)
    n_queries: int = field(init=False)

    def __post_init__(self):
        self.n_queries = len(self.per_query)
        self.mean = float(np.mean(self.per_query)) if self.per_query else 0.0
        self.std = float(np.std(self.per_query)) if self.per_query else 0.0

    def to_dict(self) -> dict:
        return dict(vars(self))


def evaluate_ranking(
    model,
    split: SplitTable,
    pair_tasks: PairTaskSet,
    features: dict,
    decode=fas_greedy,
    on: str = "test",
    config: dict | None = None,
) -> EvalReport:
    """Decode an ordering per query and score it with the pairwise loss.

    For every user of the scoring table (`on` selects test or val) with at
    least two rated subset items: compute per-task weights from the model,
    assemble the preference tournament, decode, and compare the decoded order
    to that user's held-out ratings. Queries with fewer than two ratings (or
    without features) are skipped and counted.
    """
    table = getattr(split, on)
    n_docs = len(pair_tasks.items)
    values, present = _rating_block(table, pair_tasks.items)
    enough = present.sum(axis=1) >= 2
    rows = [k for k, u in enumerate(table.users) if enough[k] and u in features]
    skipped = len(table.users) - len(rows)
    if not rows:
        return EvalReport([], skipped, config or {})
    X = np.vstack([np.asarray(features[table.users[k]], dtype=float) for k in rows])
    W = model.tournament_weights(X)  # n_tasks x n_queries
    scores = n_docs - np.array([o.positions for o in decode_queries(pair_tasks, W, decode=decode)])
    _, per_query = pairwise_rank_loss(scores, values[rows], present[rows])
    return EvalReport(per_query.tolist(), skipped, config or {})


def decode_queries(pair_tasks: PairTaskSet, W: np.ndarray, *, decode) -> list[Ordering]:
    """Decode one ordering of pair_tasks.items per column of W (n_tasks x n_queries).

    Column qi holds the query's net preference of a over b for every task
    (a, b); the tournament is zero on pairs without a task. The tournaments
    are built a block of queries at a time (DECODE_BLOCK_WEIGHTS) and decoded
    one by one, in query order.
    """
    n_docs = len(pair_tasks.items)
    flat = pair_tasks.a * n_docs + pair_tasks.b  # (a, b) in a raveled n_docs x n_docs
    per_block = max(1, DECODE_BLOCK_WEIGHTS // n_docs**2)
    orderings = []
    for lo in range(0, W.shape[1], per_block):
        columns = W[:, lo : lo + per_block]
        stack = np.zeros((columns.shape[1], n_docs * n_docs))
        stack[:, flat] = columns.T
        orderings += [decode(t) for t in tournaments(stack.reshape(-1, n_docs, n_docs))]
    return orderings


def grid_cells(
    data: PairTaskData,
    learner: str,
    lambdas=DEFAULT_LAMBDAS,
    ranks=DEFAULT_RANKS,
    steps=None,
    iters=DEFAULT_ITERS,
    seed: int = 0,
) -> list[dict]:
    """The grid's cells in nesting order (lambda, rank, step, iters).

    An hs cell is its lambda alone, so hs reads only lambdas. With steps None
    each distinct rank gets the step of a halving search on data (ten probe
    iterations at the smallest lambda, from 0.1), since the safe step depends
    on the rank, and each low-rank cell uses its rank's step.
    """
    if learner not in ("lowrank", "hs"):
        raise InvalidInputError(f"learner must be lowrank or hs, got {learner!r}")
    named = [("lambdas", lambdas)]
    if learner == "lowrank":
        named += [("ranks", ranks), ("steps", steps), ("iters", iters)]
    for name, values in named:
        if values is None:  # steps left to the search
            continue
        if not len(values):
            raise InvalidInputError(f"grid list {name} must be nonempty")
        if any(not v > 0 for v in values):
            raise InvalidInputError(f"grid list {name} must be positive, got {tuple(values)}")
    if learner == "hs":
        return [{"learner": "hs", "lambda": float(lam)} for lam in lambdas]
    steps_of = {
        rank: steps if steps is not None else (halving_step_search_rank(
            data, TrainConfig(lam=float(min(lambdas)), rank=rank, step=1.0, max_iters=10, seed=seed)
        ),)
        for rank in dict.fromkeys(map(int, ranks))
    }
    return [
        {"learner": "lowrank", "lambda": float(lam), "rank": int(rank),
         "step": float(step), "iters": int(it), "seed": int(seed)}
        for lam in lambdas
        for rank in ranks
        for step in steps_of[int(rank)]
        for it in iters
    ]


def grid_search(
    cells: list[dict],
    data: PairTaskData,
    split: SplitTable,
    features: dict,
):
    """Fit every cell on data and score it on the validation table, decoding by fas_greedy.

    Returns (best config dict, best cell's validation EvalReport, full table).
    A low-rank cell's row also records its fit's iters_run and stop_reason
    ("tol" or "max_iters"). Diverging cells are recorded as failed rather than
    aborting the search;
    ties in validation mean break toward the earlier grid cell.
    """
    table = []
    best = None
    best_report = None
    for cell in cells:
        try:
            model = fit_cell(data, cell)
        except (DivergenceError, NumericalError) as exc:
            table.append({"config": cell, "status": f"failed: {exc}"})
            continue
        report = evaluate_ranking(model, split, data.tasks, features, on="val", config=cell)
        row = report.to_dict()
        del row["per_query"]
        row["status"] = "ok"
        if cell["learner"] == "lowrank":
            row.update(iters_run=model.iters_run, stop_reason=model.stop_reason)
        table.append(row)
        if best is None or report.mean < best_report.mean:
            best, best_report = cell, report
    if best is None:
        raise NumericalError("every grid cell failed")
    return best, best_report, table


def fit_cell(data: PairTaskData, cell: dict):
    """Train the model a grid cell describes."""
    if cell["learner"] == "hs":
        return fit_rank_hs(data, cell["lambda"])
    cfg = TrainConfig(
        lam=cell["lambda"],
        rank=cell["rank"],
        step=cell["step"],
        max_iters=cell["iters"],
        seed=cell["seed"],
    )
    return fit_rank_lowrank(data, cfg)


def gen_synthetic_lowrank(
    n: int, d: int, T: int, true_rank: int, noise: float, seed: int = 0
):
    """Planted low-rank regression data.

    G_star = U V^T with Gaussian U (T x true_rank) and V (d x true_rank),
    inputs uniform on the unit sphere, outputs Y = X G_star^T + noise * Gaussian.
    Returns (X, Y, G_star).
    """
    if true_rank > min(d, T):
        raise InvalidInputError(f"true_rank {true_rank} exceeds min(d, T) = {min(d, T)}")
    if noise < 0:
        raise InvalidInputError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((T, true_rank))
    V = rng.standard_normal((d, true_rank))
    G_star = U @ V.T
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Y = X @ G_star.T + noise * rng.standard_normal((n, T))
    return X, Y, G_star


def surrogate_risk(G: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean squared surrogate error (1/m) sum ||G x_i - y_i||^2 in explicit coordinates."""
    return float(np.mean(np.sum((X @ G.T - Y) ** 2, axis=1)))


def synthetic_comparison(
    n: int = 100,
    d: int = 20,
    T: int = 20,
    true_rank: int = 2,
    noise: float = 0.1,
    seeds=tuple(range(10)),
    lambdas=(1e-3, 1e-2, 1e-1),
    ranks=(2, 5),
    iters: int = 1500,
) -> dict:
    """Low-rank vs ridge test surrogate risk on planted low-rank problems.

    Both learners get a regularizer selected on 100 validation points; the
    low-rank route also selects its rank. Reports per-seed risks on 200 test
    points and how often the low-rank estimator wins strictly.
    """
    n_val, n_test = 100, 200
    rows = []
    for seed in seeds:
        X, Y, _ = gen_synthetic_lowrank(n + n_val + n_test, d, T, true_rank, noise, seed)
        X_tr, Y_tr = X[:n], Y[:n]
        X_val, Y_val = X[n : n + n_val], Y[n : n + n_val]
        X_te, Y_te = X[n + n_val :], Y[n + n_val :]
        K = gram(X_tr, KernelSpec("linear"))
        K_Y = gram(Y_tr, KernelSpec("linear"))

        best_tn = None
        for lam in lambdas:
            for rank in ranks:
                base = TrainConfig(lam=lam, rank=rank, step=1.0, max_iters=10, seed=seed)
                try:
                    step = halving_step_search(K, K_Y, base)
                    cfg = TrainConfig(lam=lam, rank=rank, step=step, max_iters=iters, seed=seed)
                    fp = fit_lowrank(K, K_Y, cfg)
                except (DivergenceError, NumericalError):
                    continue
                G_hat = Y_tr.T @ fp.N @ fp.M.T @ X_tr
                val = surrogate_risk(G_hat, X_val, Y_val)
                if best_tn is None or val < best_tn[0]:
                    best_tn = (val, G_hat, {"lambda": lam, "rank": rank, "step": step})
        best_hs = None
        for lam in lambdas:
            G_hat = Y_tr.T @ ridge_cho_solve(ridge_cho_factor(K, lam), X_tr)
            val = surrogate_risk(G_hat, X_val, Y_val)
            if best_hs is None or val < best_hs[0]:
                best_hs = (val, G_hat, {"lambda": lam})
        if best_tn is None:
            raise NumericalError(f"every low-rank cell failed for seed {seed}")
        tn_risk = surrogate_risk(best_tn[1], X_te, Y_te)
        hs_risk = surrogate_risk(best_hs[1], X_te, Y_te)
        rows.append(
            {
                "seed": int(seed),
                "lowrank_test_risk": tn_risk,
                "hs_test_risk": hs_risk,
                "lowrank_config": best_tn[2],
                "hs_config": best_hs[2],
            }
        )
    wins = sum(1 for row in rows if row["lowrank_test_risk"] < row["hs_test_risk"])
    return {
        "problem": {
            "n": n, "d": d, "T": T, "true_rank": true_rank, "noise": noise,
            "n_val": n_val, "n_test": n_test,
        },
        "per_seed": rows,
        "lowrank_wins": wins,
        "n_seeds": len(rows),
    }
