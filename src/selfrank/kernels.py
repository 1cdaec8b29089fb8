"""Kernels on inputs and outputs, Gram matrices and cross-kernel vectors.

``kernel_eval``, ``cross_vector`` and ``gram`` are the bitwise oracle: all
vector kernels share one row-evaluation path, so a Gram entry is the same
floating-point computation as the corresponding single evaluation. ``gram``
evaluates only the upper triangle and mirrors it; the elementwise products
commute, so every Gram matrix is exactly symmetric by construction. The
ranking pipeline evaluates every kernel value it uses through them: its user
Gram is ``gram`` and its query kernel vectors are ``cross_vector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidInputError

KERNEL_KINDS = ("linear", "gaussian", "abel", "delta")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel identified by kind and, for gaussian/abel, a bandwidth (None for the others).

    kinds:
      linear    k(a, b) = <a, b>
      gaussian  k(a, b) = exp(-||a - b||^2 / (2 s^2))
      abel      k(a, b) = exp(-||a - b|| / s)
      delta     k(a, b) = 1 if a == b (canonical encoding) else 0
    """

    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        bw = self.bandwidth
        if self.kind in ("linear", "delta"):
            object.__setattr__(self, "bandwidth", None)  # they ignore it, so to_config records none
        elif isinstance(bw, bool) or not isinstance(bw, Real) or not 0 < bw < np.inf:
            raise InvalidInputError(f"bandwidth must be a finite number > 0 for the {self.kind} kernel, got {bw!r}")

    def to_config(self) -> dict:
        cfg = {"kernel.kind": self.kind}
        if self.bandwidth is not None:
            cfg["kernel.bandwidth"] = self.bandwidth
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "KernelSpec":
        return cls(kind=cfg["kernel.kind"], bandwidth=cfg.get("kernel.bandwidth"))


def canonical_encoding(y):
    """Hashable canonical form used by the delta kernel's equality test.

    Sequences and arrays become nested tuples so composite outputs (rating
    vectors) compare componentwise.
    """
    if isinstance(y, np.ndarray):
        return ("arr",) + tuple(canonical_encoding(v) for v in y.tolist())
    if isinstance(y, (list, tuple)):
        return ("arr",) + tuple(canonical_encoding(v) for v in y)
    if isinstance(y, (bool, np.bool_)):
        return bool(y)
    if isinstance(y, (int, np.integer)):
        return float(y)
    if isinstance(y, (float, np.floating)):
        return float(y)
    return y


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InvalidInputError(f"points must be vectors, got ndim={pts.ndim}")
    return pts


def _as_point(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v[None]
    if v.ndim != 1 or v.shape[0] != dim:
        raise InvalidInputError(f"point has dimension {v.shape}, expected ({dim},)")
    return v


def _rows(spec: KernelSpec, pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """k(x, pts[i]) for every row i; the single numeric path for vector kernels."""
    if spec.kind == "linear":
        return (pts * x).sum(axis=1)
    d2 = ((pts - x) ** 2).sum(axis=1)
    if spec.kind == "gaussian":
        return np.exp(-d2 / (2.0 * spec.bandwidth**2))
    if spec.kind == "abel":
        return np.exp(-np.sqrt(d2) / spec.bandwidth)
    raise InvalidInputError(f"_rows does not handle kind {spec.kind!r}")


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Evaluate k(a, b); symmetric in its arguments."""
    if spec.kind == "delta":
        return 1.0 if canonical_encoding(a) == canonical_encoding(b) else 0.0
    va = np.asarray(a, dtype=float)
    va = va[None] if va.ndim == 0 else va
    if va.ndim != 1:
        raise InvalidInputError("kernel_eval expects vector arguments")
    vb = _as_point(b, va.shape[0])
    return float(_rows(spec, vb[None, :], va)[0])


def cross_vector(train_points, x, spec: KernelSpec) -> np.ndarray:
    """Vector of k(x, x_i) over the training points."""
    if spec.kind == "delta":
        cx = canonical_encoding(x)
        return np.array(
            [1.0 if canonical_encoding(p) == cx else 0.0 for p in train_points]
        )
    pts = _as_points(train_points)
    return _rows(spec, pts, _as_point(x, pts.shape[1]))


def gram(points, spec: KernelSpec) -> np.ndarray:
    """Gram matrix K[i, j] = k(p_i, p_j).

    Row i is evaluated over points i..n-1 only and mirrored into column i.
    Each entry is the same contiguous reduction as cross_vector's, and the
    elementwise products commute, so K[j, i] = K[i, j] bit for bit: exactly
    symmetric, with unit diagonal for gaussian/abel/delta.
    """
    n = len(points)
    if n == 0:
        raise InvalidInputError("gram requires a nonempty point list")
    if spec.kind == "delta":
        codes = [canonical_encoding(p) for p in points]
        return np.array(
            [[1.0 if ci == cj else 0.0 for cj in codes] for ci in codes]
        )
    pts = _as_points(points)
    out = np.empty((n, n))
    for i in range(n):
        out[i, i:] = _rows(spec, pts[i:], pts[i])
        out[i:, i] = out[i, i:]
    return out


def as_queries(points: np.ndarray, X) -> np.ndarray:
    """X as query rows against the points' rows; both must have the same width."""
    xs = _as_points(X)
    if xs.shape[1] != points.shape[1]:
        raise InvalidInputError(f"points have dimension {points.shape[1]}, queries {xs.shape[1]}")
    return xs

