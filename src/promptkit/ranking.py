"""Rank correlation between text- and visual-prompt query scores.

Exact Kendall tau over all index pairs (ties contribute to neither the
concordant nor the discordant count; the denominator stays N(N-1)/2),
its differentiable tanh surrogate with analytic gradients, and top-K
query selection by a combined text/visual score.

Kendall tau runs in O(N log N) time by Knight's merge count.  The
surrogate visits every pair, O(N^2) time, once per unordered pair and
in O(N) memory plus one fixed tile, which keeps N up to ~2 * 10^4
practical on a desk machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import as_float_vector

# order_loss tiles: 64 x 512 float64 blocks (256 KB each) stay in cache.
_ROW_TILE = 64
_COL_TILE = 512


@dataclass(frozen=True)
class TauResult:
    """Kendall tau with its concordant/discordant pair counts."""

    tau: float
    concordant: int
    discordant: int
    n: int


def _score_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = as_float_vector(a, "first score list")
    y = as_float_vector(b, "second score list")
    if x.size != y.size:
        raise ValueError(f"score length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("rank statistics need at least 2 scores")
    return x, y


def _tied_pairs(new_run: np.ndarray) -> int:
    """Pairs inside runs of a sorted sequence; ``new_run[i]`` marks that
    element i + 1 differs from element i."""
    starts = np.flatnonzero(np.concatenate(([True], new_run, [True])))
    runs = np.diff(starts)
    return int((runs * (runs - 1) // 2).sum())


def _strict_inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer ranks r in [0, N).

    Bottom-up merge count, one vectorised pass per level: at width w the
    array is sorted within blocks of w, and each element of a block's
    right half counts the left-half elements of its block above it,
    found by ``searchsorted`` on the keys block * N + rank, which are
    increasing across all left halves.
    """
    n = r.size
    pos = np.arange(n)
    s = r.astype(np.int64)
    inversions = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        keys = block * n + s
        left = (pos & width) == 0
        left_keys = keys[left]
        right = ~left
        above = (np.searchsorted(left_keys, (block[right] + 1) * n)
                 - np.searchsorted(left_keys, keys[right], side="right"))
        inversions += int(above.sum())
        # Each block keeps its positions, so sorting the keys merges the
        # two halves of every block at once.
        s = np.sort(keys) - block * n
        width *= 2
    return inversions


def kendall_tau(a, b) -> TauResult:
    """Exact Kendall tau: (concordant - discordant) / (N(N-1)/2).

    A pair (i, j) is concordant when both lists order it the same way,
    discordant when they disagree; pairs tied in either list count for
    neither side while the denominator keeps all N(N-1)/2 pairs.

    Knight's O(N log N) count (Knight 1966, JASA 61(314)): sorted by
    (x, y), the discordant pairs are exactly the strict inversions of y,
    and with n1, n2 and n3 the pairs tied in x, in y and in both,
    concordant = N(N-1)/2 - n1 - n2 + n3 - discordant.
    """
    x, y = _score_pair(a, b)
    n = x.size
    order = np.lexsort((y, x))
    xs = x[order]
    ys = y[order]
    y_sorted = np.sort(y)
    x_new = xs[1:] != xs[:-1]
    y_new = ys[1:] != ys[:-1]
    tied_x = _tied_pairs(x_new)
    tied_y = _tied_pairs(y_sorted[1:] != y_sorted[:-1])
    tied_both = _tied_pairs(x_new | y_new)
    # Equal scores share one rank, so ties are never inversions.
    discordant = _strict_inversions(np.searchsorted(y_sorted, ys))
    pairs = n * (n - 1) // 2
    concordant = pairs - tied_x - tied_y + tied_both - discordant
    return TauResult(
        tau=(concordant - discordant) / pairs,
        concordant=concordant,
        discordant=discordant,
        n=n,
    )


@dataclass(frozen=True)
class OrderLossResult:
    loss: float
    grad_text: np.ndarray
    grad_visual: np.ndarray


def order_loss(text_scores, visual_scores) -> OrderLossResult:
    """Differentiable order-alignment loss with analytic gradients.

    loss = -sum_{i>j} tanh(t_i - t_j) * tanh(v_i - v_j) / (N(N-1)/2),
    a smooth surrogate for negated Kendall tau; it lives in [-1, 1].

    With G = (1 - tanh^2(dt)) * tanh(dv) elementwise over the full
    difference matrices, grad_text[k] = -row_sum(G)[k] / (N(N-1)/2)
    (G is antisymmetric, so the two pair orientations collapse into one
    row sum); grad_visual is symmetric with roles swapped.

    Each unordered pair is evaluated once.  The rows are cut into tiles
    of ``_ROW_TILE``; a row tile's diagonal block is computed in both
    orientations and counts half in the loss, and its blocks to the
    right, ``_ROW_TILE`` x ``_COL_TILE`` at a time, are computed once:
    by antisymmetry a block's row sums of G go to its rows and its
    negated column sums to its columns.  There, with p = dt * dv,
    G = dv - dt * p and H = (1 - dv^2) * dt = dt - dv * p.  The blocks
    reuse four cache-sized buffers, so memory stays O(N) plus one tile.
    """
    t, v = _score_pair(text_scores, visual_scores)
    n = t.size
    pairs = n * (n - 1) / 2.0
    loss_acc = 0.0
    grad_t = np.zeros(n)
    grad_v = np.zeros(n)
    buffers = np.empty((4, _ROW_TILE * min(n, _COL_TILE)))
    for r0 in range(0, n, _ROW_TILE):
        r1 = min(r0 + _ROW_TILE, n)
        t_rows = t[r0:r1, None]
        v_rows = v[r0:r1, None]
        dt = np.tanh(t_rows - t[None, r0:r1])
        dv = np.tanh(v_rows - v[None, r0:r1])
        # Both orientations count each pair twice, halved below.
        loss_acc += float((dt * dv).sum())
        grad_t[r0:r1] += ((1.0 - dt * dt) * dv).sum(axis=1)
        grad_v[r0:r1] += ((1.0 - dv * dv) * dt).sum(axis=1)
        for c0 in range(r1, n, _COL_TILE):
            c1 = min(c0 + _COL_TILE, n)
            shape = (r1 - r0, c1 - c0)
            dt, dv, p, g = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
            np.tanh(np.subtract(t_rows, t[None, c0:c1], out=dt), out=dt)
            np.tanh(np.subtract(v_rows, v[None, c0:c1], out=dv), out=dv)
            np.multiply(dt, dv, out=p)
            loss_acc += 2.0 * float(p.sum())
            np.subtract(dv, np.multiply(dt, p, out=g), out=g)
            grad_t[r0:r1] += g.sum(axis=1)
            grad_t[c0:c1] -= g.sum(axis=0)
            np.subtract(dt, np.multiply(dv, p, out=g), out=g)
            grad_v[r0:r1] += g.sum(axis=1)
            grad_v[c0:c1] -= g.sum(axis=0)
    grad_t /= -pairs
    grad_v /= -pairs
    return OrderLossResult(
        loss=-loss_acc / (2.0 * pairs),
        grad_text=grad_t,
        grad_visual=grad_v,
    )


def soft_tau_convergence(a, b, scale: float) -> float:
    """Negated surrogate loss on scaled scores; approaches exact tau as
    the scale grows when both lists are tie-free.

    Raises when either list contains ties, since the saturation argument
    requires strict orderings.
    """
    x, y = _score_pair(a, b)
    for name, arr in (("first", x), ("second", y)):
        if np.unique(arr).size != arr.size:
            raise ValueError(f"{name} score list contains ties")
    return -order_loss(scale * x, scale * y).loss


def select_queries(text_scores, visual_scores, k: int, alpha: float = 0.5) -> np.ndarray:
    """Indices of the top-k queries by combined score.

    combined = alpha * text + (1 - alpha) * visual; ties break toward
    the lower index and the result is sorted by descending combined
    score.  The default alpha weights both prompt types equally.
    """
    t, v = _score_pair(text_scores, visual_scores)
    if not 0 <= k <= t.size:
        raise ValueError(f"k must lie in [0, {t.size}], got {k}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    combined = alpha * t + (1.0 - alpha) * v
    # lexsort: last key is primary, so order by -combined then index.
    order = np.lexsort((np.arange(t.size), -combined))
    return order[:k].copy()
