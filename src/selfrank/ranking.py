"""Pair-task ranking models: low-rank multitask and per-task ridge.

Both models predict as coefficients . k_U(x), k_U(x) the kernel vector of a
query against the training co-raters: W A^T (kept factored) for low rank,
the scattered per-task ridge solutions C for HS. PairTaskData.kernel_product
is the one place where coefficients meet k_U. Under the linear kernel
k_U(x) = U x, so the weights of q queries are (C U) X^T, m u d + m d q flops
for m coefficient rows and d feature columns, and no users x queries matrix
is built; other kernels stack k_U(X) from one kernels.cross_vector call per
query and multiply, u d q + m u q. Only trainers read the Gram. Every kernel
value is the bitwise oracle's (kernels.gram, kernels.cross_vector).

Pair tasks share query inputs heavily (each user appears in many tasks), and
their output Grams are rank-one (z z^T under the linear kernel on signed
rating differences). The low-rank trainer runs the exact multitask updates of
learners.fit_lowrank_mtl on the state they close over: A = S^T M (users x r,
S the stacked-row-to-user indicator) and W with rows w_t = N_t^T z_t. With
P = S K_u A and the per-row error e_i = P_i . w_t(i) - z_i:

    A   <- (1 - lam nu) A - nu S^T [ e_i w_t(i) / (T n_t(i)) ]
    w_t <- (1 - lam nu) w_t - (nu / n_t) sum_{i in t} e_i P_i

and the penalty is <A, K_u A> + ||W||^2 / T, the one these updates descend
(fit_lowrank_mtl's N_t penalty over T). K_u A is the one product with the
user Gram. Under the linear kernel K_u = U U^T for the u x d user features U,
so it is U (U^T A) and no u x u Gram is built: an iteration costs
O(u d r + n r) for n stacked rows. Other kernels stream the cached K_u once
(the GEMM K_u A): O(u^2 r + n r). The stacked n x n Gram is never built, and
the n x r row gathers run in blocks of PAIR_BLOCK_ROWS stacked rows that stay
in cache, bit-equal to whole-array gathers.

PairTaskData holds its PairTaskSet, the one stacked-row table, whose user
codes index the rows of U, K_u and A, and caches what its trainers share
(K_u, row_task, starts), with the end state of its last low-rank fit: a fit
whose way passes through it (the fit after its accepted step-search probe, a
2000-iteration grid cell after its 500-iteration sibling) continues from
there. A fit that does not continue draws its start (initial_state); the n x r
factors behind it are drawn and projected a block of stacked rows at a time
and never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .data_io import PairTaskSet
from .errors import InvalidInputError, NumericalError
from .kernels import KernelSpec, as_queries, cross_vector, gram
from .learners import (
    PROBE_ITERS, STEP_START, TrainConfig, _row_slices, descend, halt, halving_search, init_scale, ridge_cho_factor,
    ridge_cho_solve,
)

# Stacked rows per block of the pair-score pass (PairTaskData.forward): at rank
# 10 its two gathered blocks take 2 x 4096 x 10 floats (655 KB), well inside a
# core's L2 cache, where whole-array gathers of 64,213 rows did not fit.
PAIR_BLOCK_ROWS = 4096


@dataclass
class PairTaskData:
    """A PairTaskSet against a fixed user feature map; tasks.user indexes U's rows.

    It caches what trainers share, each built on first use: each task's first
    stacked row (starts), the user Gram K_u (kernels.gram; built by
    fit_rank_hs, and by the low-rank trainer under non-linear kernels only),
    the task of each stacked row (row_task), and the end state of the last
    low-rank fit with its (rank, seed, lam, step) (end_state); a new
    instance starts with none. Both models predict through kernel_product.
    """

    tasks: PairTaskSet
    U: np.ndarray  # features of tasks.users, one row per user
    kernel: KernelSpec
    _end: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def users(self) -> list:
        return self.tasks.users

    @property
    def n_rows(self) -> int:
        return len(self.tasks.z)

    @property
    def n_tasks(self) -> int:
        return self.tasks.n_tasks

    @cached_property
    def starts(self) -> np.ndarray:
        """First stacked row of each task, built on first use and kept."""
        return np.cumsum(self.tasks.sizes) - self.tasks.sizes

    @cached_property
    def K_u(self) -> np.ndarray:
        """User Gram under the input kernel, built on first use and kept."""
        return gram(self.U, self.kernel)

    @cached_property
    def row_task(self) -> np.ndarray:
        """Task index per stacked row, built on first use and kept."""
        return np.repeat(np.arange(self.n_tasks), self.tasks.sizes)

    def forward(self, A: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K_u A, and the residuals e_i = (K_u A)[u_i] . W[t_i] - z_i per stacked row.

        Under the linear kernel K_u A is U (U^T A), O(u d r) for d feature
        columns, and K_u is not built; it agrees with K_u @ A to rounding
        (selfrank verify: factored_gram_product). That is faster while d is
        well under u, which the derived features (d = the ranked items) are;
        features wider than about u/2 would be slower this way. Other kernels
        multiply by the cached K_u.

        The pair scores are gathered and dotted PAIR_BLOCK_ROWS stacked rows
        at a time, so the two gathered blocks stay in cache; each row is still
        one einsum over the same r products, bit-equal to one pass over all
        rows. z is subtracted in place, so e is the one n-vector allocated.
        """
        KA = self.U @ (self.U.T @ A) if self.kernel.kind == "linear" else self.K_u @ A
        e = np.empty(self.n_rows)
        for lo in range(0, self.n_rows, PAIR_BLOCK_ROWS):
            rows = slice(lo, lo + PAIR_BLOCK_ROWS)
            # np.take gathers faster than fancy indexing, and than take(out=...)
            P = np.take(KA, self.tasks.user[rows], axis=0)
            np.einsum("ij,ij->i", P, np.take(W, self.row_task[rows], axis=0), out=e[rows])
        return KA, np.subtract(e, self.tasks.z, out=e)

    def initial_state(self, cfg: TrainConfig) -> tuple[np.ndarray, ...]:
        """The low-rank trainer's start (A0, W0, K_u A0, e0), drawn anew per call.

        (A0, W0) = (S^T M, rows N_t^T z_t) for the n x r factors M and N that
        learners.init_factors(n, cfg) draws, and (K_u A0, e0) = forward(A0, W0).
        One default_rng(cfg.seed) draws M and then N in blocks of about
        PAIR_BLOCK_ROWS stacked rows, the stream of its two whole draws, and
        each block is projected as it is drawn: an M block is added into A in
        stacked-row order (the adds of the csc product S^T M, in its order),
        and an N block ends at a task start, so each task's sum of
        z_i N_i is one segment sum inside one block, as over the whole array.
        No n x r array outlives one block, and the result is bit-equal to
        projecting the whole draw. The state depends on (rank, seed) alone;
        the fit that draws it owns it.
        """
        r = cfg.rank
        scale = init_scale(self.n_rows, r)
        rng = np.random.default_rng(cfg.seed)
        blocks = self._task_blocks()
        A = np.zeros((len(self.users), r))
        for lo, hi, _ in blocks:
            M = rng.standard_normal((hi - lo, r))
            M *= scale
            # Entry by entry into the flat A: 1-D np.add.at takes numpy's fast
            # path, about three times faster than adding rows into the 2-D A.
            np.add.at(A.reshape(-1), (r * self.tasks.user[lo:hi, None] + np.arange(r)).ravel(), M.ravel())
        W = np.empty((self.n_tasks, r))
        for lo, hi, tasks in blocks:
            N = rng.standard_normal((hi - lo, r))
            N *= scale
            N *= self.tasks.z[lo:hi, None]
            W[tasks] = np.add.reduceat(N, self.starts[tasks] - lo, axis=0)
        return (A, W, *self.forward(A, W))

    def _task_blocks(self) -> list[tuple[int, int, slice]]:
        """Stacked-row ranges [lo, hi) cut at task starts, with their tasks: each
        the most whole tasks that fit in PAIR_BLOCK_ROWS rows, or one longer task."""
        edges = np.append(self.starts, self.n_rows)
        blocks, t0 = [], 0
        while t0 < self.n_tasks:
            t1 = max(int(np.searchsorted(edges, edges[t0] + PAIR_BLOCK_ROWS, side="right")) - 1, t0 + 1)
            blocks.append((int(edges[t0]), int(edges[t1]), slice(t0, t1)))
            t0 = t1
        return blocks

    def end_state(self, cfg: TrainConfig):
        """The end state ((A, W, K_u A, e), trace) of the last low-rank fit, or None.

        It is returned only when a fit by cfg passes through it: the same
        (rank, seed, lam, step), cfg.max_iters at least its iteration count
        and no stop under cfg.tol before its last iterate. The updates are
        deterministic, so that fit would recompute it bit for bit and may
        continue from it instead.
        """
        if self._end is None:
            return None
        key, state, trace = self._end
        if key != _fit_key(cfg) or len(trace) - 1 > cfg.max_iters:
            return None
        if any(halt(prev, curr, cfg.tol) for prev, curr in zip(trace[:-2], trace[1:-1])):
            return None
        return state, trace

    def kernel_product(self, C: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """C k_U(X): the coefficients C (m x users) against the kernel vector
        k_U(x) of each query row x; shape (m, queries).

        Under the linear kernel k_U(x) = U x, so this is (C U) X^T: m u d + m d q
        flops for d feature columns and q queries, and no users x queries
        matrix, against u d q + m u q for C k_U(X), with which it agrees to
        rounding (selfrank verify: factored_gram_product). Other kernels take
        C k_U(X), k_U(X) stacked from one kernels.cross_vector call per query,
        so every kernel value is the oracle's. Either way a query whose width
        is not U's raises InvalidInputError, and a block of no queries gives an
        (m, 0) array.
        """
        X = as_queries(self.U, np.atleast_2d(np.asarray(queries, dtype=float)))
        if self.kernel.kind == "linear":
            return (C @ self.U) @ X.T
        V = np.empty((len(self.users), len(X)))
        for j, x in enumerate(X):
            V[:, j] = cross_vector(self.U, x, self.kernel)
        return C @ V


def build_pair_task_data(
    tasks: PairTaskSet, features: dict, kernel: KernelSpec
) -> PairTaskData:
    """The task set against one feature row per user of it, in its order; the
    user Gram waits for a trainer."""
    if not tasks.n_tasks:
        raise InvalidInputError("pair task set has no tasks")
    missing = [u for u in tasks.users if u not in features]
    if missing:
        raise InvalidInputError(f"no features for users {missing[:5]!r}")
    U = np.vstack([np.asarray(features[u], dtype=float) for u in tasks.users])
    if not U.shape[1]:
        raise InvalidInputError("features have no columns")
    finite = np.isfinite(U).all(axis=1)
    if not finite.all():
        raise InvalidInputError(f"non-finite features for user {tasks.users[int(np.argmin(finite))]!r}")
    return PairTaskData(tasks=tasks, U=U, kernel=kernel)


@dataclass
class LowRankRankModel:
    """Shared-input low-rank multitask model over pair tasks, in reduced state."""

    data: PairTaskData
    A: np.ndarray  # users x r: S^T M, the per-user sums of the stacked factor M
    W: np.ndarray  # tasks x r: w_t = N_t^T z_t
    iters_run: int
    objective_trace: list[float]
    # Why the fit ended, as learners.descend gives it; None for a model loaded
    # from a checkpoint, which omits it.
    stop_reason: str | None = None

    def tournament_weights(self, queries: np.ndarray) -> np.ndarray:
        """Edge weight per task for each query row; shape (n_tasks, n_queries).

        The edge weight z_t^T N_t M^T v_x, with v_x = S V_u[:, x] the stacked
        cross vector, is w_t^T A^T V_u[:, x]: W times A^T k_U(X).
        """
        return self.W @ self.data.kernel_product(self.A.T, queries)


def fit_rank_lowrank(data: PairTaskData, cfg: TrainConfig) -> LowRankRankModel:
    """Multitask factorized descent specialized to pair tasks, on the state (A, W).

    The iterates are the projections A = S^T M and w_t = N_t^T z_t of those of
    learners.fit_lowrank_mtl on the materialized blocks (K_t = rows of S K_u S^T,
    output Gram z_t z_t^T); M and N are drawn as there and projected by
    PairTaskData.initial_state. With
    P = S K_u A and e_i = P_i . w_t(i) - z_i for stacked row i of task t(i):

        A   <- (1 - lam nu) A - nu S^T [ e_i w_t(i) / (T n_t(i)) ]
        w_t <- (1 - lam nu) w_t - (nu / n_t) sum_{i in t} e_i P_i

    and records the objective they descend,
    sum_t sum_{i in t} e_i^2 / (T n_t) + lam (<A, K_u A> + ||W||^2 / T).
    Both corrections are products of one sparse users x tasks matrix holding e,
    so an iteration is the product K_u A, the n x r row gathers of
    PairTaskData.forward in cache-sized blocks of PAIR_BLOCK_ROWS stacked rows,
    sparse products and segment sums. Under the linear kernel K_u A is
    U (U^T A) for the u x d features U: O(u d r + n r), and no u x u Gram is
    built. Other kernels stream the cached K_u once: O(u^2 r + n r).

    The fit continues from PairTaskData.end_state, the last fit's end state,
    when it lies on this fit's way (an accepted step-search probe, or a grid
    cell's shorter sibling), and from a start drawn by initial_state otherwise;
    either way the iterates, trace, iters_run and stop_reason are those of a
    fit from the initial state. It leaves its own end state on data,
    read-only; the model holds copies. learners.descend runs the iterations.
    """
    from scipy.sparse import csc_array  # imported here: eval and decode never need scipy.sparse

    n, T, u = data.n_rows, data.n_tasks, len(data.users)
    state, trace = data.end_state(cfg) or (data.initial_state(cfg), None)
    # Column-compressed, so the stored values are the stacked rows in order;
    # E.T holds the same structure, so one transpose serves the whole fit.
    E = csc_array((state[3], data.tasks.user, np.append(data.starts, n)), shape=(u, T))
    E_T = E.T
    inv_nt = 1.0 / data.tasks.sizes.astype(float)
    inv_Tnt = (inv_nt / T)[:, None]
    shrink = 1.0 - cfg.lam * cfg.step

    def objective(state):
        A, W, KA, e = state
        data_term = float(np.sum(np.add.reduceat(e * e, data.starts) * inv_nt) / T)
        pen = float(np.sum(A * KA)) + float(np.sum(W * W)) / T
        return data_term + cfg.lam * pen

    def update(state):
        A, W, KA, e = state
        E.data = E_T.data = e  # both products below read the state's residuals
        A = shrink * A - cfg.step * (E @ (W * inv_Tnt))  # W is still the old W here
        W = shrink * W - cfg.step * (inv_nt[:, None] * (E_T @ KA))
        return (A, W, *data.forward(A, W))

    state, trace, stop = descend(state, update, objective, cfg, trace)
    for array in state:
        array.flags.writeable = False
    data._end = _fit_key(cfg), state, tuple(trace)
    return LowRankRankModel(
        data=data, A=state[0].copy(), W=state[1].copy(), iters_run=len(trace) - 1, objective_trace=trace,
        stop_reason=stop,
    )


def _fit_key(cfg: TrainConfig) -> tuple:
    """What fixes a low-rank fit's iterates; max_iters and tol only end them."""
    return cfg.rank, cfg.seed, cfg.lam, cfg.step


def halving_step_search_rank(data: PairTaskData, cfg: TrainConfig) -> float:
    """Halve from learners.STEP_START until a probe of PROBE_ITERS iterations of
    fit_rank_lowrank descends, by learners.halving_search's rule. The probes
    call fit_rank_lowrank as this module holds it at the call, which
    perfbench's tracer replaces."""
    return halving_search(partial(fit_rank_lowrank, data), cfg, STEP_START, PROBE_ITERS)


@dataclass
class HsRankModel:
    """Independent per-task kernel ridge over each pair task's own co-raters.

    The edge weight z_t^T (K_t + n_t lam I)^-1 k_t(x) is beta_t^T k_t(x), so C,
    the tasks x users scatter of beta, gives every task's weight as C k_U(x).
    C is kept sparse: row t holds task t's stacked rows, beta at their users.
    """

    data: PairTaskData
    beta: np.ndarray  # per stacked row, like z: (K_t + n_t lam I) beta_t = z_t

    def __post_init__(self):
        from scipy.sparse import csr_array

        d = self.data
        self.C = csr_array((self.beta, d.tasks.user, np.append(d.starts, d.n_rows)), shape=(d.n_tasks, len(d.users)))

    def tournament_weights(self, queries: np.ndarray) -> np.ndarray:
        return self.data.kernel_product(self.C, queries)


def fit_rank_hs(data: PairTaskData, lam: float) -> HsRankModel:
    """Closed-form per-task coefficients: beta_t = (K_t + n_t lam I)^-1 z_t, lam > 0."""
    beta = np.empty(data.n_rows)
    for t, b in enumerate(_row_slices(data.tasks.sizes)):
        rows = data.tasks.user[b]
        try:
            factor = ridge_cho_factor(data.K_u[np.ix_(rows, rows)], lam)
        except NumericalError as exc:
            raise NumericalError(f"task {t}: {exc}") from exc
        beta[b] = ridge_cho_solve(factor, data.tasks.z[b])
    return HsRankModel(data=data, beta=beta)
