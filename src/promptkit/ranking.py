"""Rank correlation between text- and visual-prompt query scores.

Exact Kendall tau over all index pairs (ties contribute to neither the
concordant nor the discordant count; the denominator stays N(N-1)/2),
its differentiable tanh surrogate with analytic gradients, and top-K
query selection by a combined text/visual score.

Kendall tau runs in O(N log N) time by Knight's merge count.  The
surrogate has two forms, both in O(N) memory plus fixed-size tiles,
and a cost rule that picks one from the input alone:

- the tiled pair loop visits every pair once, O(N^2) time: about 3 s at
  N = 2 * 10^4 on a desk machine;
- the table form reads the scores only through their Kt and Kv distinct
  values and the table that counts each (text value, visual value)
  pair, the classical way to count concordance (Agresti, Analysis of
  Ordinal Categorical Data, 2010), in O(N * (Kt + Kv) + K^2) time.
  Scores written with a fixed number of decimals hold few distinct
  values: 4,000 N(0, 1) scores with 2 decimals, about 500 distinct
  values a side, take about a quarter of the pair loop's time, and
  2,000 about half.

The rule sends continuous scores (K = N) to the pair loop, where the
table form would cost O(N^2) with a larger constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import as_finite

# order_loss tiles: 64 x 512 float64 blocks (256 KB each) stay in cache.
_ROW_TILE = 64
_COL_TILE = 512
_TILE = _ROW_TILE * _COL_TILE
# The table form's blocks of column values: each cell's matrix product
# computes a dot for every row of its block and keeps one, so larger
# blocks waste work.
_BLOCK_ROWS = 16
# The table form's fixed cost in ordered pairs of the tiled loop (see _table_cost).
_TABLE_FIXED_COST = 20_000


@dataclass(frozen=True)
class TauResult:
    """Kendall tau with its concordant/discordant pair counts."""

    tau: float
    concordant: int
    discordant: int
    n: int


def _score_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = as_finite(a, "first score list", 1)
    y = as_finite(b, "second score list", 1)
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

    Two forms compute the same sums, and a cost rule picks the cheaper
    from the input alone (``_table_roles``): the table form where
    F + N * (Kt + Kv) + 3 * K^2 < N^2 for Kt and Kv distinct values (K the
    fewer of the two, F a fixed cost, ``_table_cost``), else the tiled
    pair loop.

    - The tiled pair loop (``_pair_sums``) visits each unordered pair once,
      O(N^2) time.
    - The table form (``_table_sums``) reads the scores only through their
      distinct values and the table that counts each (text value, visual
      value) pair, O(N * (Kt + Kv) + K^2) time.  Scores written with a few
      decimals take it; continuous scores (K = N), where it would be
      several times slower, do not.

    Both work in fixed-size tiles, so memory stays O(N) plus a few tiles
    of 256 KB.  The two forms sum in different orders and agree to the
    last few bits.
    """
    t, v = _score_pair(text_scores, visual_scores)
    pairs = t.size * (t.size - 1) / 2.0
    choice = _table_roles(t, v)
    if choice is None:
        loss_acc, grad_t, grad_v = _pair_sums(t, v)
    else:
        text_is_row, row, col = choice
        loss_acc, grad_row, grad_col = _table_sums(*row, *col)
        grad_t, grad_v = (grad_row, grad_col) if text_is_row else (grad_col, grad_row)
    grad_t /= -pairs
    grad_v /= -pairs
    return OrderLossResult(
        loss=-loss_acc / (2.0 * pairs),
        grad_text=grad_t,
        grad_visual=grad_v,
    )


def _pair_sums(t: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """sum_{i,j} tanh(dt) * tanh(dv) over ordered pairs, and the row sums
    of (1 - tanh^2(dt)) * tanh(dv) and of (1 - tanh^2(dv)) * tanh(dt).

    Each unordered pair is evaluated once.  The rows are cut into tiles
    of ``_ROW_TILE``; a row tile's diagonal block is computed in both
    orientations, and its blocks to the right, ``_ROW_TILE`` x
    ``_COL_TILE`` at a time, are computed once: by antisymmetry a
    block's row sums of G go to its rows and its negated column sums to
    its columns.  There, with p = dt * dv, G = dv - dt * p and
    H = (1 - dv^2) * dt = dt - dv * p.  The blocks reuse four cache-sized
    buffers.
    """
    n = t.size
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
        # Both orientations count each pair twice, as the full sum does.
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
    return loss_acc, grad_t, grad_v


def _table_cost(n: int, k_row: int, k_col: int) -> float:
    """The table form's cost on n scores with k_row and k_col distinct
    values, counted in ordered pairs of the tiled loop, which costs n^2.

    A fixed part (the sorts and the loop set-up), one pair for each of the
    n * (k_row + k_col) items of its two sweeps and three for each of the
    k_col^2 column tanh values.  Fitted to 63 timed inputs, N = 100 to 4,000
    with 2 to 2,300 distinct values a side, on one BLAS thread of a 2-core
    Xeon with numpy 2.4: the tiled loop takes about 9 ns a pair, the table
    form 180 us plus 7 ns a row item, 11 ns a column item and 25 ns a
    column tanh value.
    """
    return _TABLE_FIXED_COST + n * (k_row + k_col) + 3 * k_col * k_col


def _table_roles(t: np.ndarray, v: np.ndarray):
    """The cost rule: None where the tiled pair loop costs less, else
    ``(text_is_row, row, col)``, each of ``row`` and ``col`` the
    ``np.unique(..., return_inverse=True)`` of one side.  The side with
    more distinct values plays the row role: a column item and a column
    tanh value cost more than a row item."""
    n = t.size
    # Even one distinct value a side would cost more: skip the sorts.
    if _table_cost(n, 1, 1) >= n * n:
        return None
    text, visual = np.unique(t, return_inverse=True), np.unique(v, return_inverse=True)
    text_is_row = text[0].size >= visual[0].size
    row, col = (text, visual) if text_is_row else (visual, text)
    if _table_cost(n, row[0].size, col[0].size) >= n * n:
        return None
    return text_is_row, row, col


def _table_sums(row_values: np.ndarray, row_index: np.ndarray, col_values: np.ndarray,
                col_index: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``_pair_sums`` from the table of distinct values, with the row side
    in the role of t and the column side in the role of v.

    Let ut = ``row_values`` and uv = ``col_values``.  A cell is a
    distinct (a, b) pair of value indices and holds c_ab elements; n_a
    counts the elements with row value a.  With T[a, a'] =
    tanh(ut[a] - ut[a']), V[b, b'] = tanh(uv[b] - uv[b']),
    Y[b, a'] = sum_b' c_a'b' V[b, b'] and Z[b, a'] = n_a' - sum_b' c_a'b'
    V[b, b']^2, a cell's three sums over every element j are, with dots
    over a',

        sum_j tanh(dt) tanh(dv)            = T[a] . Y[b]
        sum_j (1 - tanh^2(dt)) tanh(dv)    = sum(Y[b]) - T[a]^2 . Y[b]
        sum_j (1 - tanh^2(dv)) tanh(dt)    = T[a] . Z[b]

    The pair sum weights the first by c_ab, and each element reads its
    cell's gradients: O(N * (Kt + Kv) + Kv^2) time for N elements.

    Tiles keep memory at O(N) plus a fixed size.  The column values go in
    blocks of at most ``_BLOCK_ROWS``, so that a block's gather over the
    cells fits one tile of ``_TILE`` items (or one row); one ``bincount``
    builds the block's rows of Y, and one more those of Z.  The cells are
    sorted by b, so a block's cells are one run; they go in chunks whose
    rows of T fit one tile, and one matrix product per chunk gives each
    cell's dots against every row of the block.
    """
    k_row, k_col = row_values.size, col_values.size
    cell_key, cell_of, count = np.unique(col_index * k_row + row_index,
                                         return_inverse=True, return_counts=True)
    cell_b, cell_a = np.divmod(cell_key, k_row)
    count = count.astype(np.float64)
    n_a = np.bincount(row_index, minlength=k_row)
    cells = cell_key.size
    b_bounds = np.searchsorted(cell_b, np.arange(k_col + 1))
    rows = max(1, min(k_col, _BLOCK_ROWS, _TILE // cells))
    chunk = max(1, _TILE // k_row)
    # Row j of a block sums its cells into bins j * k_row + a.
    keys = (np.arange(rows)[:, None] * k_row + cell_a).ravel()
    gather_buf = np.empty((2, rows * cells))
    t_buf = np.empty(chunk * k_row)
    total = 0.0
    grad_row = np.empty(cells)
    grad_col = np.empty(cells)
    for b0 in range(0, k_col, rows):
        b1 = min(b0 + rows, k_col)
        r = b1 - b0
        w, g = (buf[: r * cells].reshape(r, cells) for buf in gather_buf)
        np.take(np.tanh(col_values[b0:b1, None] - col_values[None, :]), cell_b, axis=1, out=w)
        np.multiply(w, count, out=g)
        y = np.bincount(keys[: r * cells], weights=g.ravel(), minlength=r * k_row)
        g *= w
        z = np.bincount(keys[: r * cells], weights=g.ravel(), minlength=r * k_row)
        y = y.reshape(r, k_row)
        yz = np.concatenate((y, n_a - z.reshape(r, k_row)))
        y_sum = y.sum(axis=1)
        for lo in range(b_bounds[b0], b_bounds[b1], chunk):
            hi = min(lo + chunk, b_bounds[b1])
            tr = t_buf[: (hi - lo) * k_row].reshape(hi - lo, k_row)
            np.tanh(np.subtract(row_values[cell_a[lo:hi], None], row_values, out=tr), out=tr)
            ty = tr @ yz.T
            tr *= tr
            t2y = tr @ y.T
            # Each cell's own row of the block.
            k, j = np.arange(hi - lo), cell_b[lo:hi] - b0
            total += float(count[lo:hi] @ ty[k, j])
            grad_row[lo:hi] = y_sum[j] - t2y[k, j]
            grad_col[lo:hi] = ty[k, r + j]
    return total, grad_row[cell_of], grad_col[cell_of]


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
