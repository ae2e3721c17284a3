"""Dense small-tensor numerics shared by every other module.

Provides numerically stable row softmax and log-softmax, a pairwise
cosine matrix, bilinear sampling on feature grids, seeded RNG
construction, and a central finite-difference engine that serves as
the gradient oracle for all analytic loss gradients in this package.
Everything here operates on float64 and is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Relative-error denominator floor for gradient comparisons.
REL_ERR_FLOOR = 1e-8

# Central-difference step: balances truncation (O(eps^2)) against
# float64 round-off (O(1e-16 / eps)).
DEFAULT_FD_EPS = 1e-5


def seeded_rng(seed: int) -> np.random.Generator:
    """Return a fresh deterministic generator for an explicit seed in
    [0, 2**64); any other integer raises ``ValueError``."""
    try:
        return np.random.default_rng(np.uint64(seed))
    except OverflowError:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}") from None


def as_float_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, rejecting empty shapes."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"{name} must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_float_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability.

    Each output row is nonnegative and sums to 1 to within float64
    accumulation error; inputs with entries around +-1000 do not
    overflow.  Raises on empty or non-finite input.
    """
    a = as_float_matrix(m, "softmax input")
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a finite 2-D float array, max-shifted like
    ``softmax_rows`` but unchecked: it runs inside gradient-check loops."""
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cosine_matrix(a, b) -> np.ndarray:
    """Cosine similarity of every row of ``a`` (n, d) with every row of
    ``b`` (m, d), in [-1, 1]; a zero row has similarity 0 with everything."""
    x = as_float_matrix(a, "first embedding matrix")
    y = as_float_matrix(b, "second embedding matrix")
    # Dot products and squared norms share one summation routine, so an
    # identical nonzero row gives exactly 1 (a matrix product may not).
    norms = np.sqrt(np.outer(np.einsum("ik,ik->i", x, x), np.einsum("jk,jk->j", y, y)))
    cos = np.divide(np.einsum("ik,jk->ij", x, y), norms, out=np.zeros_like(norms), where=norms > 0)
    return np.clip(cos, -1.0, 1.0)


def bilinear_sample(level: np.ndarray, x: float, y: float) -> np.ndarray:
    """Bilinearly interpolate a feature grid at normalized coordinates.

    ``level`` has shape (h, w, d).  Coordinates live in [0, 1]^2 with
    (0, 0) at the top-left node and (1, 1) at the bottom-right node;
    out-of-range coordinates are clamped.  A 1x1 grid returns its single
    node for any coordinate.
    """
    grid = np.asarray(level, dtype=np.float64)
    if grid.ndim != 3 or grid.shape[0] == 0 or grid.shape[1] == 0:
        raise ValueError(f"feature level must be (h, w, d) and nonempty, got {grid.shape}")
    h, w, _ = grid.shape
    gx = min(max(float(x), 0.0), 1.0) * (w - 1)
    gy = min(max(float(y), 0.0), 1.0) * (h - 1)
    x0 = int(np.floor(gx))
    y0 = int(np.floor(gy))
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx = gx - x0
    fy = gy - y0
    top = (1.0 - fx) * grid[y0, x0] + fx * grid[y0, x1]
    bottom = (1.0 - fx) * grid[y1, x0] + fx * grid[y1, x1]
    return (1.0 - fy) * top + fy * bottom


def finite_diff_grad(
    f: Callable[[np.ndarray], float],
    p,
    eps: float = DEFAULT_FD_EPS,
) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Returns (f(p + eps*e_i) - f(p - eps*e_i)) / (2*eps) per coordinate.
    This is the independent oracle against which all analytic gradients
    in the package are checked; it must never share code with them.

    Raises if any evaluation of ``f`` is non-finite, naming the
    offending coordinate.
    """
    p0 = as_float_vector(p, "parameter vector")
    if eps <= 0:
        raise ValueError("eps must be positive")
    grad = np.zeros_like(p0)
    for i in range(p0.size):
        step = np.zeros_like(p0)
        step[i] = eps
        f_plus = float(f(p0 + step))
        f_minus = float(f(p0 - step))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"function evaluation non-finite at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


@dataclass(frozen=True)
class GradCheckReport:
    """Summary of an analytic-vs-numeric gradient comparison."""

    max_abs_err: float
    max_rel_err: float
    n_params: int
    worst_index: int

    def passed(self, tol: float) -> bool:
        return self.max_rel_err < tol

    def to_dict(self) -> dict:
        return dict(vars(self))


def compare_grads(analytic, numeric) -> GradCheckReport:
    """Compare gradient vectors coordinatewise.

    Relative error uses denominator max(|analytic|, |numeric|,
    REL_ERR_FLOOR) per coordinate; ``worst_index`` is the coordinate
    with the largest relative error.
    """
    a = as_float_vector(analytic, "analytic gradient")
    n = as_float_vector(numeric, "numeric gradient")
    if a.shape != n.shape:
        raise ValueError(f"gradient length mismatch: {a.shape[0]} vs {n.shape[0]}")
    if a.size == 0:
        raise ValueError("gradient vectors must be nonempty")
    abs_err = np.abs(a - n)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
    rel_err = abs_err / denom
    worst = int(np.argmax(rel_err))
    return GradCheckReport(
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(rel_err.max()),
        n_params=int(a.size),
        worst_index=worst,
    )
