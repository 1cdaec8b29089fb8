"""Independent explicit-coordinate solvers used to validate the kernel paths.

Everything here works on plain feature/output matrices, never on Gram
matrices, so agreement with the kernelized learners is evidence rather than
tautology. fas_greedy_reference is the loop form of the FAS decoder, the
oracle of decoding.fas_greedy's array form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoding import Ordering, Tournament
from .errors import DivergenceError, InvalidInputError, NumericalError

# explicit_descending_step's probe length and halving budget, kept apart
# from learners' step-search constants so the oracle stays independent.
EXPLICIT_PROBE_ITERS = 200
EXPLICIT_MAX_HALVINGS = 60


@dataclass(frozen=True)
class ExplicitProblem:
    """Feature matrix X (n x d) and output-embedding matrix Y (n x T)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise InvalidInputError(f"incompatible shapes X {X.shape}, Y {Y.shape}")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise InvalidInputError("X and Y must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)


def explicit_objective(p: ExplicitProblem, A: np.ndarray, B: np.ndarray, lam: float) -> float:
    """||Y - X A B^T||_F^2 + lam (||A||_F^2 + ||B||_F^2); 1/n absorbed into lam."""
    resid = p.Y - p.X @ A @ B.T
    return float(np.sum(resid**2) + lam * (np.sum(A**2) + np.sum(B**2)))


def explicit_gd(
    p: ExplicitProblem,
    A0: np.ndarray,
    B0: np.ndarray,
    lam: float,
    step: float,
    iters: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Simultaneous gradient descent on the explicit factorized problem.

    Gradients (factors 2 omitted, matching the kernel-side convention):
        grad_A = X^T (X A B^T - Y) B + lam A
        grad_B = (X A B^T - Y)^T X A + lam B
    Returns the full trajectory [(A_0, B_0), ..., (A_iters, B_iters)].
    """
    A = np.asarray(A0, dtype=float).copy()
    B = np.asarray(B0, dtype=float).copy()
    if A.ndim == 1:
        A = A[:, None]
    if B.ndim == 1:
        B = B[:, None]
    if A.shape[0] != p.X.shape[1] or B.shape[0] != p.Y.shape[1] or A.shape[1] != B.shape[1]:
        raise InvalidInputError(
            f"factor shapes A {A.shape}, B {B.shape} do not match problem "
            f"d={p.X.shape[1]}, T={p.Y.shape[1]}"
        )
    trajectory = [(A.copy(), B.copy())]
    with np.errstate(over="ignore", invalid="ignore"):  # guard reports divergence instead
        for k in range(1, iters + 1):
            E = p.X @ A @ B.T - p.Y
            XA = p.X @ A
            grad_A = p.X.T @ E @ B + lam * A
            grad_B = E.T @ XA + lam * B
            A = A - step * grad_A
            B = B - step * grad_B
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                raise DivergenceError(k)
            trajectory.append((A.copy(), B.copy()))
    return trajectory


def explicit_gd_multitask(
    X_blocks: list[np.ndarray],
    Y_blocks: list[np.ndarray],
    A0: np.ndarray,
    B0_blocks: list[np.ndarray],
    lam: float,
    step: float,
    iters: int,
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Masked-gradient descent with per-task datasets in explicit coordinates.

    Task t contributes (1/(T n_t)) ||X_t A B_t^T - Y_t||^2 to the data term;
    the shared factor A and the per-task rows B_t are updated simultaneously
    from the full gradient (including the residual's -Y_t part).
    """
    T = len(X_blocks)
    A = np.asarray(A0, dtype=float).copy()
    Bs = [np.asarray(B, dtype=float).copy() for B in B0_blocks]
    trajectory = [(A.copy(), [B.copy() for B in Bs])]
    for k in range(1, iters + 1):
        grad_A = lam * A
        new_Bs = []
        for X_t, Y_t, B_t in zip(X_blocks, Y_blocks, Bs):
            n_t = X_t.shape[0]
            E_t = X_t @ A @ B_t.T - Y_t
            grad_A = grad_A + X_t.T @ E_t @ B_t / (T * n_t)
            new_Bs.append(B_t - step * (E_t.T @ (X_t @ A) / n_t + lam * B_t))
        A = A - step * grad_A
        Bs = new_Bs
        if not np.isfinite(A).all() or any(not np.isfinite(B).all() for B in Bs):
            raise DivergenceError(k)
        trajectory.append((A.copy(), [B.copy() for B in Bs]))
    return trajectory


def nuclear_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)))


def svt(mat: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau (floor 0)."""
    mat = np.asarray(mat, dtype=float)
    if tau < 0:
        raise InvalidInputError(f"tau must be >= 0, got {tau}")
    try:
        U, s, Vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed in svt") from exc
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def ista_objective(p: ExplicitProblem, G: np.ndarray, lam: float) -> float:
    """(1/n) ||X G^T - Y||_F^2 + lam ||G||_* for G of shape T x d."""
    n = p.X.shape[0]
    resid = p.X @ G.T - p.Y
    return float(np.sum(resid**2) / n + lam * nuclear_norm(G))


def prox_nuclear(
    p: ExplicitProblem, lam: float, step: float, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Proximal gradient (ISTA) for the nuclear-norm regularized least squares.

    Alternates a gradient step on (1/n)||X G^T - Y||_F^2 with singular value
    thresholding at tau = step * lam, from G = 0. Requires
    step <= n / (2 ||X||_op^2) so the objective trace is non-increasing.
    Returns (G, objective_trace).
    """
    n, d = p.X.shape
    T = p.Y.shape[1]
    op = np.linalg.norm(p.X, 2)
    if step > n / (2.0 * op**2) + 1e-15:
        raise InvalidInputError(
            f"step {step:.3e} exceeds the descent bound {n / (2 * op**2):.3e}"
        )
    G = np.zeros((T, d))
    trace = [ista_objective(p, G, lam)]
    for k in range(1, iters + 1):
        grad = 2.0 / n * (G @ p.X.T - p.Y.T) @ p.X
        G = svt(G - step * grad, step * lam)
        if not np.isfinite(G).all():
            raise DivergenceError(k)
        trace.append(ista_objective(p, G, lam))
    return G, np.asarray(trace)


def explicit_descending_step(
    p: ExplicitProblem,
    A0: np.ndarray,
    B0: np.ndarray,
    lam: float,
    start: float,
) -> float:
    """Halve from `start`, at most EXPLICIT_MAX_HALVINGS times, until a probe of
    EXPLICIT_PROBE_ITERS explicit_gd iterations descends monotonically."""
    step = start
    for _ in range(EXPLICIT_MAX_HALVINGS):
        try:
            traj = explicit_gd(p, A0, B0, lam, step, EXPLICIT_PROBE_ITERS)
        except DivergenceError:
            step *= 0.5
            continue
        objs = [explicit_objective(p, A, B, lam) for A, B in traj]
        if np.all(np.diff(objs) <= 1e-9 * max(objs[0], 1.0)):
            return step
        step *= 0.5
    raise NumericalError(f"no descending step found after {EXPLICIT_MAX_HALVINGS} halvings")


def fas_greedy_reference(t: Tournament) -> Ordering:
    """fas_greedy as plain loops: Borda start, adjacent sweeps, then per round
    every insertion gain summed move by move and the margin rule applied in
    scan order. decoding.fas_greedy must return the same positions."""
    borda = t.weights.sum(axis=1)
    docs = sorted(range(t.size), key=lambda j: (-borda[j], j))
    w = t.weights
    n = t.size
    while True:
        improved = True
        while improved:
            improved = False
            for p in range(n - 1):
                u, v = docs[p], docs[p + 1]
                if w[u, v] < 0:
                    docs[p], docs[p + 1] = v, u
                    improved = True
        order = np.asarray(docs, dtype=np.intp)
        sub = w[order[:, None], order[None, :]]
        best = (0.0, None)
        for p in range(n):
            gain = 0.0
            for q in range(p - 1, -1, -1):  # move up past position q
                gain += sub[p, q]
                if gain > best[0] + 1e-15:
                    best = (gain, (p, q))
            gain = 0.0
            for q in range(p + 1, n):  # move down past position q
                gain -= sub[p, q]
                if gain > best[0] + 1e-15:
                    best = (gain, (p, q))
        if best[1] is None:
            break
        p, q = best[1]
        doc = docs.pop(p)
        docs.insert(q, doc)
    return Ordering.from_docs(docs)
