"""Ranking metrics, hyperparameter grids, and synthetic experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import PairTaskSet, SplitTable
from .decoding import Ordering, Tournament, fas_greedy
from .errors import DivergenceError, InvalidInputError, NumericalError
from .kernels import KernelSpec, gram
from .learners import TrainConfig, fit_hs, fit_lowrank, halving_step_search
from .losses import RatingVector, pairwise_rank_loss
from .ranking import (
    PairTaskData,
    build_pair_task_data,
    fit_rank_hs,
    fit_rank_lowrank,
    halving_step_search_rank,
)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid; cells enumerate in the declared nesting order."""

    lambdas: tuple
    ranks: tuple
    steps: tuple
    iters: tuple

    def __post_init__(self):
        for name in ("lambdas", "ranks", "steps", "iters"):
            values = tuple(getattr(self, name))
            if not values:
                raise InvalidInputError(f"grid list {name} must be nonempty")
            if any(not v > 0 for v in values):
                raise InvalidInputError(f"grid list {name} must be positive, got {values}")
            object.__setattr__(self, name, values)


DEFAULT_LAMBDAS = tuple(np.logspace(-4, 0, 7).tolist())
DEFAULT_RANKS = (2, 5, 10, 20)
DEFAULT_ITERS = (500, 2000)


@dataclass
class EvalReport:
    """Per-query normalized pairwise losses with summary statistics."""

    per_query: list[float]
    mean: float
    std: float
    n_queries: int
    skipped: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "mean": self.mean,
            "std": self.std,
            "n_queries": self.n_queries,
            "skipped": self.skipped,
            "per_query": self.per_query,
        }


def _summarize(per_query: list[float], skipped: int, config: dict) -> EvalReport:
    if per_query:
        mean = float(np.mean(per_query))
        std = float(np.std(per_query))
    else:
        mean, std = 0.0, 0.0
    return EvalReport(
        per_query=per_query,
        mean=mean,
        std=std,
        n_queries=len(per_query),
        skipped=skipped,
        config=config,
    )


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
    items = pair_tasks.items
    n_docs = len(items)
    queries = []
    rating_vectors = []
    skipped = 0
    for user in table.users:
        values = np.array([table.ratings.get((user, i), np.nan) for i in items])
        present = ~np.isnan(values)
        if present.sum() < 2 or user not in features:
            skipped += 1
            continue
        queries.append(user)
        rating_vectors.append(RatingVector(np.where(present, values, 0.0), present))
    if not queries:
        return _summarize([], skipped, config or {})
    X = np.vstack([np.asarray(features[u], dtype=float) for u in queries])
    W = model.tournament_weights(X)  # n_tasks x n_queries
    per_query = []
    for ordering, ratings in zip(decode_queries(pair_tasks, W, decode=decode), rating_vectors):
        scores = (n_docs - ordering.positions).astype(float)
        _, normalized = pairwise_rank_loss(scores, ratings)
        per_query.append(normalized)
    return _summarize(per_query, skipped, config or {})


def decode_queries(pair_tasks: PairTaskSet, W: np.ndarray, *, decode) -> list[Ordering]:
    """Decode one ordering of pair_tasks.items per column of W (n_tasks x n_queries).

    Column qi holds the query's net preference of a over b for every task
    (a, b); the tournament is zero on pairs without a task.
    """
    n_docs = len(pair_tasks.items)
    a_idx = np.array([t.a for t in pair_tasks.tasks], dtype=int)
    b_idx = np.array([t.b for t in pair_tasks.tasks], dtype=int)
    orderings = []
    for qi in range(W.shape[1]):
        weights = np.zeros((n_docs, n_docs))
        weights[a_idx, b_idx] = W[:, qi]
        orderings.append(decode(Tournament(weights)))
    return orderings


def resolve_grid(
    data: PairTaskData,
    lambdas=DEFAULT_LAMBDAS,
    ranks=DEFAULT_RANKS,
    steps=None,
    iters=DEFAULT_ITERS,
    seed: int = 0,
) -> tuple[GridSpec, dict]:
    """Fill in steps by halving search on the training data when absent.

    The safe step depends on the rank, so the search runs once per rank (ten
    probe iterations from 0.1, halving until they descend). Returns the grid
    plus a rank -> step map that grid_search applies over grid.steps.
    """
    step_by_rank: dict = {}
    if steps is None:
        for rank in ranks:
            probe = TrainConfig(
                lam=float(min(lambdas)), rank=int(rank), step=1.0, max_iters=10, seed=seed
            )
            step_by_rank[int(rank)] = halving_step_search_rank(data, probe)
        steps = (step_by_rank[int(max(ranks))],)
    grid = GridSpec(
        lambdas=tuple(lambdas), ranks=tuple(ranks), steps=tuple(steps), iters=tuple(iters)
    )
    return grid, step_by_rank


def grid_search(
    grid: GridSpec,
    split: SplitTable,
    pair_tasks: PairTaskSet,
    features: dict,
    kernel: KernelSpec,
    learner_kind: str,
    seed: int = 0,
    decode=fas_greedy,
    step_by_rank: dict | None = None,
):
    """Validation-loss grid search for either learner kind.

    Returns (best config dict, best cell's validation EvalReport, full table).
    Diverging cells are recorded as failed rather than aborting the search;
    ties in validation mean break toward the earlier grid cell. When
    step_by_rank (from resolve_grid) is given it replaces grid.steps.
    """
    if learner_kind not in ("lowrank", "hs"):
        raise InvalidInputError(f"learner_kind must be lowrank or hs, got {learner_kind!r}")
    data = build_pair_task_data(pair_tasks, features, kernel)
    if learner_kind == "lowrank":
        cells = [
            {"learner": "lowrank", "lambda": float(lam), "rank": int(rank),
             "step": float(step), "iters": int(it), "seed": int(seed)}
            for lam in grid.lambdas
            for rank in grid.ranks
            for step in (
                (step_by_rank[int(rank)],) if step_by_rank else grid.steps
            )
            for it in grid.iters
        ]
    else:
        cells = [{"learner": "hs", "lambda": float(lam)} for lam in grid.lambdas]
    table = []
    best = None
    best_report = None
    for cell in cells:
        try:
            model = fit_cell(data, cell)
        except (DivergenceError, NumericalError) as exc:
            table.append({"config": cell, "status": f"failed: {exc}"})
            continue
        report = evaluate_ranking(
            model, split, pair_tasks, features, decode=decode, on="val", config=cell
        )
        table.append(
            {
                "config": cell,
                "status": "ok",
                "mean": report.mean,
                "std": report.std,
                "n_queries": report.n_queries,
                "skipped": report.skipped,
            }
        )
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
        seed=cell.get("seed", 0),
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
    n_val: int = 100,
    n_test: int = 200,
) -> dict:
    """Low-rank vs ridge test surrogate risk on planted low-rank problems.

    Both learners get a validation-selected regularizer; the low-rank route
    also selects its rank. Reports per-seed risks and how often the low-rank
    estimator wins strictly.
    """
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
            model = fit_hs(K, lam)
            G_hat = Y_tr.T @ model.solve(X_tr)
            val = surrogate_risk(G_hat, X_val, Y_val)
            if best_hs is None or val < best_hs[0]:
                best_hs = (val, G_hat, {"lambda": lam})
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
