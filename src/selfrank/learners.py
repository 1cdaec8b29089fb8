"""Surrogate regression in kernel form.

Two regularization routes for the least-squares surrogate problem:

* Hilbert-Schmidt (ridge): closed-form weights alpha(x) = (K_X + n lam I)^-1 v_x.
* Trace norm via the factorized problem: gradient descent on coefficient
  matrices M, N in R^{n x r} that represent the factors A = X^T M, B = Y^T N
  entirely through the input/output Gram matrices:

      M_{k+1} = (1 - lam nu) M_k - nu (K_X M_k N_k^T K_Y N_k - K_Y N_k)
      N_{k+1} = (1 - lam nu) N_k - nu (N_k M_k^T K_X K_X M_k - K_X M_k)

  with weights alpha(x) = N_k M_k^T v_x. The 1/n data factor is absorbed into
  lam and the factor 2 of the gradients is absorbed into nu, so the updates are
  hand-checkable as written. A multitask variant handles per-task datasets with
  missing data through per-task kernel blocks, keeping explicit 1/(T n_t)
  weights because task sizes differ.

Every factor trainer (fit_lowrank, fit_lowrank_mtl and the pair-task
ranking.fit_rank_lowrank) is an update and an objective handed to one loop,
descend, which owns the divergence guard, the stop rule (halt) and the
iteration count. A step-search probe is an ordinary fit at tol 0, and
halving_search judges it by its trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Real

import numpy as np

from .errors import DivergenceError, InvalidInputError, NumericalError

# A step search's first step, and the iterations of each of its probes
# (halving_step_search may instead probe the whole cfg.max_iters).
STEP_START = 0.1
PROBE_ITERS = 10
# Halvings a step search tries before it gives up: from STEP_START the
# last probe's step is 0.1 / 2^59, about 2e-19.
MAX_HALVINGS = 60


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the factorized gradient descent."""

    lam: float
    rank: int
    step: float
    max_iters: int
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        for name in ("lam", "step", "tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < np.inf:
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")
        if self.rank < 1:
            raise InvalidInputError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FactorPair:
    """Coefficient factors after fitting, with the recorded objective trace."""

    M: np.ndarray
    N: np.ndarray
    iters_run: int
    stop_reason: str  # "tol" or "max_iters"
    objective_trace: list[float] = field(default_factory=list)


@dataclass
class MtlFactorSet:
    """Multitask factors: one shared M over stacked inputs, one N_t per task."""

    M: np.ndarray
    N_per_task: list[np.ndarray]
    iters_run: int
    stop_reason: str
    objective_trace: list[float] = field(default_factory=list)


def ridge_cho_factor(K: np.ndarray, lam: float):
    """Cholesky factor of K + n lam I (lam > 0), retried once with a 1e-12
    trace-scaled jitter.

    scipy.linalg, with the LAPACK it maps, is imported here and in
    ridge_cho_solve only, on first use, so a run that solves no ridge
    system never loads it.
    """
    if not lam > 0:
        raise InvalidInputError(f"lam must be > 0, got {lam}")
    from scipy.linalg import cho_factor

    n = K.shape[0]
    system = K + n * lam * np.eye(n)
    try:
        return cho_factor(system)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.trace(K)) / n
        try:
            return cho_factor(system + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky factorization failed despite jitter {jitter:.3e}") from exc


def ridge_cho_solve(factor, v: np.ndarray) -> np.ndarray:
    """The solution of the ridge system whose ridge_cho_factor factor is given."""
    from scipy.linalg import cho_solve

    return cho_solve(factor, v)


def _residual(P, Q, N, K_Y) -> float:
    """tr((I - K_X M N^T) K_Y (I - N M^T K_X)) through P = K_X M and Q = K_Y N."""
    res = float(np.trace(K_Y)) - 2.0 * float(np.sum(P * Q)) + float(np.sum((N.T @ Q) * (P.T @ P)))
    return max(res, 0.0)  # trace expansion can dip epsilon-negative at interpolation


def _gradients(P, Q, N) -> tuple[np.ndarray, np.ndarray]:
    """The data parts of the M and N updates, through P = K_X M and Q = K_Y N."""
    return P @ (N.T @ Q) - Q, N @ (P.T @ P) - P


def factorized_objective(M, N, K_X, K_Y, lam: float) -> float:
    """Kernel-form objective of the factorized trace-norm problem.

    tr((I - K_X M N^T) K_Y (I - N M^T K_X)) + lam (tr(M^T K_X M) + tr(N^T K_Y N)),
    evaluated in O(n^2 r) through P = K_X M and Q = K_Y N.
    """
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.shape != N.shape:
        raise InvalidInputError(f"M {M.shape} and N {N.shape} must share shape")
    P = K_X @ M
    Q = K_Y @ N
    penalty = lam * (float(np.sum(M * P)) + float(np.sum(N * Q)))
    return _residual(P, Q, N, K_Y) + penalty


def lowrank_step(M, N, K_X, K_Y, lam: float, step: float):
    """One simultaneous update of (M, N); both new factors use the old pair."""
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    n = K_X.shape[0]
    if M.shape != N.shape or M.shape[0] != n or K_Y.shape != (n, n):
        raise InvalidInputError(
            f"shape mismatch: M {M.shape}, N {N.shape}, K_X {K_X.shape}, K_Y {K_Y.shape}"
        )
    grad_M, grad_N = _gradients(K_X @ M, K_Y @ N, N)
    shrink = 1.0 - lam * step
    return shrink * M - step * grad_M, shrink * N - step * grad_N


def init_scale(n: int, rank: int) -> float:
    """The factors' draw scale, 1/sqrt(n r)."""
    return 1.0 / np.sqrt(n * rank)


def init_factors(n: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded i.i.d. normal n x r factors M and N, drawn one after the other from
    default_rng(cfg.seed) and scaled by init_scale(n, cfg.rank)."""
    scale = init_scale(n, cfg.rank)
    rng = np.random.default_rng(cfg.seed)
    M = scale * rng.standard_normal((n, cfg.rank))
    return M, scale * rng.standard_normal((n, cfg.rank))


def halt(prev: float, curr: float, tol: float) -> str | None:
    """Why a descent ends at the iterate prev -> curr: "tol" when the relative
    change fell under tol, or None when it goes on."""
    return "tol" if abs(curr - prev) / max(prev, 1e-12) < tol else None


def descend(state, update, objective, cfg: TrainConfig, trace=None):
    """The descent loop of every factor trainer: (end state, trace, stop reason).

    Each iteration is state = update(state), and the trace records
    objective(state) at the start and after every update. The loop ends when
    halt gives "tol" under cfg.tol or after cfg.max_iters updates
    ("max_iters"), and raises DivergenceError(k) at the first non-finite
    objective, k = 0 for the start, with numpy's overflow warnings silenced
    from the start on. A trace passed in is that of the descent up to
    `state`, its last iterate: the descent resumes there without evaluating
    the objective again, as if it had never stopped.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports divergence instead
        if trace is None:
            trace = [objective(state)]
            if not np.isfinite(trace[0]):
                raise DivergenceError(0)
        else:
            trace = list(trace)
        iters = len(trace) - 1
        stop = halt(trace[-2], trace[-1], cfg.tol) if iters > 0 else None
        while stop is None and iters < cfg.max_iters:
            state = update(state)
            obj = objective(state)
            iters += 1
            if not np.isfinite(obj):
                raise DivergenceError(iters)
            trace.append(obj)
            stop = halt(trace[-2], obj, cfg.tol)
    return state, trace, stop or "max_iters"


def fit_lowrank(
    K_X: np.ndarray,
    K_Y: np.ndarray,
    cfg: TrainConfig,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> FactorPair:
    """Gradient descent on the factorized objective in kernel form, from `init`
    (n x r factors M, N) or from init_factors.

    descend runs it until max_iters or until the relative objective change
    drops below cfg.tol; the trace records the objective at the initial point
    and after every update. Raises DivergenceError on the first non-finite
    objective.
    """
    K_X = np.asarray(K_X, dtype=float)
    K_Y = np.asarray(K_Y, dtype=float)
    n = K_X.shape[0]
    if K_Y.shape != (n, n):
        raise InvalidInputError(f"K_X {K_X.shape} and K_Y {K_Y.shape} must be n x n alike")
    (M, N), trace, stop = descend(
        init if init is not None else init_factors(n, cfg),
        lambda MN: lowrank_step(*MN, K_X, K_Y, cfg.lam, cfg.step),
        lambda MN: factorized_objective(*MN, K_X, K_Y, cfg.lam),
        cfg,
    )
    return FactorPair(M=M, N=N, iters_run=len(trace) - 1, stop_reason=stop, objective_trace=trace)


def halving_search(fit, cfg: TrainConfig, start: float, probe_iters: int | None) -> float:
    """Halve the step from `start` until fit(probe) neither diverges nor rises
    (np.diff of its objective trace <= 0), for at most MAX_HALVINGS probes. A
    probe is cfg with the step, tol 0 and probe_iters iterations (None:
    cfg.max_iters): an ordinary fit, which at tol 0 runs all of them, so a step
    is accepted exactly when its whole probe descends monotonically."""
    step = start
    probe = replace(cfg, tol=0.0, max_iters=probe_iters if probe_iters is not None else cfg.max_iters)
    for _ in range(MAX_HALVINGS):
        try:
            if np.all(np.diff(fit(replace(probe, step=step)).objective_trace) <= 0):
                return step
        except DivergenceError:
            pass
        step *= 0.5
    raise NumericalError(f"no descending step found after {MAX_HALVINGS} halvings")


def halving_step_search(
    K_X: np.ndarray,
    K_Y: np.ndarray,
    cfg: TrainConfig,
    probe_iters: int | None = PROBE_ITERS,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Halve the step from STEP_START until a probe run descends monotonically.

    probe_iters=None validates over cfg.max_iters: a step whose first few
    iterations descend can still overshoot later (the quartic's curvature
    grows with the factor norms), so callers that need a non-increasing trace
    for the whole run must probe the whole run. When the eventual fit starts
    from explicit factors, pass the same `init` here.
    """
    return halving_search(partial(fit_lowrank, K_X, K_Y, init=init), cfg, STEP_START, probe_iters)


def _row_slices(task_sizes) -> list[slice]:
    slices = []
    start = 0
    for n_t in task_sizes:
        slices.append(slice(start, start + n_t))
        start += n_t
    return slices


def fit_lowrank_mtl(
    cross_blocks: list[np.ndarray], output_grams: list[np.ndarray], cfg: TrainConfig
) -> MtlFactorSet:
    """Multitask factorized descent over per-task kernel blocks.

    cross_blocks[t] is the n_t x n kernel block of task t's inputs against the
    row-stacked inputs of all tasks; output_grams[t] is the n_t x n_t output
    Gram of task t (zero rows/columns encode missing data). Updates:

        N_t <- (1 - nu lam) N_t - (nu / n_t) (N_t P_t^T P_t - P_t),  P_t = K_t M
        M   <- (1 - nu lam) M - nu * stack_t[ (K_t M N_t^T K_Yt N_t - K_Yt N_t) / (T n_t) ]

    The recorded objective is the one these updates descend:
    sum_t tr((I - K_t M N_t^T) K_Yt (...)^T)/(T n_t) plus
    lam (tr(M^T K M) + sum_t tr(N_t^T K_Yt N_t) / T). In explicit coordinates
    the M update steps by nu/2 along its negative gradient, and each N_t update,
    which follows its own task's data term, by T nu/2 along its block of it:
    hence the 1/T on the N_t penalty.
    """
    T = len(cross_blocks)
    if T == 0 or len(output_grams) != T:
        raise InvalidInputError("need one cross block and one output gram per task")
    task_sizes = [b.shape[0] for b in cross_blocks]
    n = sum(task_sizes)
    for t, (K_t, KY_t) in enumerate(zip(cross_blocks, output_grams)):
        if K_t.shape != (task_sizes[t], n) or KY_t.shape != (task_sizes[t], task_sizes[t]):
            raise InvalidInputError(
                f"task {t}: cross block {K_t.shape} / output gram {KY_t.shape} "
                f"inconsistent with n_t={task_sizes[t]}, n={n}"
            )
    slices = _row_slices(task_sizes)
    tasks = list(zip(slices, task_sizes, cross_blocks, output_grams))
    shrink = 1.0 - cfg.lam * cfg.step

    def objective(state):
        M, N_blocks = state
        data = pen = 0.0
        for (s, n_t, K_t, KY_t), N_t in zip(tasks, N_blocks):
            P_t, Q_t = K_t @ M, KY_t @ N_t
            data += _residual(P_t, Q_t, N_t, KY_t) / (T * n_t)
            pen += float(np.sum(N_t * Q_t)) / T + float(np.sum(M[s] * P_t))
        return data + cfg.lam * pen

    def update(state):
        M, N_blocks = state
        M_corr = np.empty_like(M)
        N_next = []
        for (s, n_t, K_t, KY_t), N_t in zip(tasks, N_blocks):
            grad_M, grad_N = _gradients(K_t @ M, KY_t @ N_t, N_t)
            M_corr[s] = grad_M / (T * n_t)
            N_next.append(shrink * N_t - (cfg.step / n_t) * grad_N)
        return shrink * M - cfg.step * M_corr, N_next

    M, N = init_factors(n, cfg)
    (M, N_blocks), trace, stop = descend((M, [N[s] for s in slices]), update, objective, cfg)
    return MtlFactorSet(M=M, N_per_task=N_blocks, iters_run=len(trace) - 1, stop_reason=stop, objective_trace=trace)
