"""Dense small-tensor numerics shared by every other module.

Provides numerically stable row softmax and log-softmax, the one
overflow-safe vector length (unit vectors, a pairwise cosine matrix and
its row-wise diagonal), bilinear sampling on feature grids, seeded RNG
construction, the one check of input number arrays (``as_finite``),
and a central finite-difference engine that serves as the gradient
oracle for all analytic loss gradients in this package.
Everything here operates on float64 and is a pure function of its inputs.
"""

from __future__ import annotations

import json
import math
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


# The types of a plain JSON number.  A bool is an int to isinstance, but its
# type is bool, so a set lookup of ``type(e)`` never lets one through.
PLAIN_NUMBER_TYPES = frozenset((int, float))


def check_number(value, name: str) -> None:
    """The one type rule for input numbers: ``value`` must be an int or a
    float, never a string, a boolean or any other object.  A failure raises
    ``ValueError("<name> must be numeric, got <value!r>")``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be numeric, got {value!r}")


def check_numbers(x, name: str) -> None:
    """``check_number`` on every entry of ``x``: Python lists and tuples are
    walked to any depth, and an ndarray is judged by its dtype (its entries
    are read only when the dtype is not an int or float one)."""
    if isinstance(x, (list, tuple)):
        for e in x:
            if type(e) not in PLAIN_NUMBER_TYPES:
                check_numbers(e, name)
    elif isinstance(x, np.ndarray):
        if x.dtype.kind not in "iuf":
            for e in x.astype(object).flat:
                check_number(e, name)
    else:
        check_number(x, name)


def as_finite(x, name: str, ndim: int) -> np.ndarray:
    """``x`` as a float64 array of rank ``ndim`` whose entries pass
    ``check_numbers`` and are finite; each failure raises one ``ValueError``
    naming ``name``.  Float64 arrays are not copied."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular array") from None
    # numpy reads [1, True] as the integers [1, 1]: a Python list or tuple
    # is walked whatever dtype it gave.
    if a.dtype.kind not in "iuf" or isinstance(x, (list, tuple)):
        check_numbers(x, name)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {a.shape}")
    try:
        a = a.astype(np.float64, copy=False)
    except OverflowError:  # a Python int beyond the float range
        a = np.array(np.inf)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_float_matrix(m, name: str = "matrix") -> np.ndarray:
    """``as_finite`` at rank 2, rejecting empty shapes."""
    a = as_finite(m, name, 2)
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {a.shape}")
    return a


def as_int(value, name: str) -> int:
    """``value`` as an int when it is a JSON integer: an int, or a float
    with no fractional part (JSON ``4.0``).  A bool, a string, any other
    type and a fractional or non-finite number raise ``ValueError``
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_objects(value, name: str) -> list:
    """``value`` when it is a JSON list of JSON objects, else ``ValueError``
    naming ``name``, or ``name[i]`` for the first entry that is no object."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ValueError(f"{name}[{i}] must be a JSON object")
    return value


def read_json(path, what: str):
    """The JSON document in the file at ``path``; text that is not JSON, or
    is nested too deep to parse, raises
    ``ValueError("<what> <path> is not valid JSON: <reason>")``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability.

    Each output row is nonnegative and sums to 1 to within float64
    accumulation error; inputs with entries around +-1000 do not
    overflow.  Raises on empty or non-finite input.
    """
    a = as_float_matrix(m, "softmax input")
    # One fresh array, exponentiated and normalised in place; ``a`` is
    # never written.
    e = a - a.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def log_softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a finite 2-D float array, max-shifted like
    ``softmax_rows`` but unchecked: it runs inside gradient-check loops."""
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _scaled_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with each row (along the last axis) multiplied by the power of
    two that brings its largest |entry| into [0.5, 1); a zero row stays zero.

    Scaling by a power of two is exact, so quotients of scaled values are
    those of the originals, and a scaled row's sum of squares lies in
    [0.25, d]: it neither overflows nor underflows (Blue, ACM TOMS 1978).
    """
    _, exponent = np.frexp(np.abs(x).max(axis=-1, keepdims=True))
    return np.ldexp(x, -exponent)


def _sum_squares(x: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis; dot products use the same
    einsum loop, so an identical nonzero row has cosine exactly 1."""
    return np.einsum("...k,...k->...", x, x)


def unit_rows(x, what: str) -> np.ndarray:
    """``x`` divided by its Euclidean length along the last axis: a vector,
    or each row of a matrix, as a unit vector.

    Entries must be finite; any finite size is safe.  A zero row raises
    ``ValueError("<what> is the zero vector")``.
    """
    s = _scaled_rows(np.asarray(x, dtype=np.float64))
    lengths = np.sqrt(_sum_squares(s))[..., None]
    if not np.all(lengths > 0.0):
        raise ValueError(f"{what} is the zero vector")
    s /= lengths
    return s


def cosine_matrix(a, b) -> np.ndarray:
    """Cosine similarity of every row of ``a`` (n, d) with every row of
    ``b`` (m, d), in [-1, 1]; a zero row has similarity 0 with everything.
    Rows are scaled as in ``unit_rows``, so any finite entries are safe."""
    x = _scaled_rows(as_float_matrix(a, "first embedding matrix"))
    y = _scaled_rows(as_float_matrix(b, "second embedding matrix"))
    norms = np.sqrt(np.outer(_sum_squares(x), _sum_squares(y)))
    cos = np.divide(np.einsum("ik,jk->ij", x, y), norms, out=np.zeros_like(norms), where=norms > 0)
    return np.clip(cos, -1.0, 1.0)


def cosine_rows(a, b) -> np.ndarray:
    """Cosine similarity of row i of ``a`` with row i of ``b``, both (n, d):
    the diagonal of ``cosine_matrix(a, b)``, bit for bit, without the
    n * n products off it."""
    x = as_float_matrix(a, "first embedding matrix")
    y = as_float_matrix(b, "second embedding matrix")
    if x.shape != y.shape:
        raise ValueError(f"row-wise cosine needs equal shapes, got {x.shape} and {y.shape}")
    x, y = _scaled_rows(x), _scaled_rows(y)
    norms = np.sqrt(_sum_squares(x) * _sum_squares(y))
    cos = np.divide(np.einsum("ik,ik->i", x, y), norms, out=np.zeros_like(norms), where=norms > 0)
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
    p0 = as_finite(p, "parameter vector", 1)
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    grad = np.zeros_like(p0)
    step = np.zeros_like(p0)
    for i in range(p0.size):
        step[i] = eps
        f_plus = float(f(p0 + step))
        f_minus = float(f(p0 - step))
        step[i] = 0.0
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
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
    a = as_finite(analytic, "analytic gradient", 1)
    n = as_finite(numeric, "numeric gradient", 1)
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
