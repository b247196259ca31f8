"""Hot numeric kernels for the encoder: 1-d convolution over time,
max-pool over each instance's windows, and embedding-gradient scatter.

A batch of B token sequences is one ragged sequence of N positions over
U distinct ids: x [U,E] holds one embedding row per distinct id, and
``index`` [N] gives the row of x at each packed position. Instance j
owns positions ``starts[j]:starts[j+1]``. The convolution runs once over
the whole packed batch, so a window that starts near the end of one
instance reaches into the next; such a window is computed but never
pooled. ``maxpool_forward`` pools each instance's own windows only.

The convolution projects the vocabulary, not the text: one stacked
product ``p[i] = x @ w[i]`` [win,U,F] scores every distinct row at every
window offset, and position t's output is ``sum_i p[i, index[t+i]] + b``.
After the max-pool, the convolution output's gradient has at most one
nonzero per (instance, filter), at the argmax window; one ``np.bincount``
scatters these into dp [win,U,F], then ``dx = sum_i dp[i] @ w[i].T``
[U,E] and ``dw[i] = x.T @ dp[i]``. No [N,E] array exists in either
direction, so the products' cost follows U (at most 258 in byte mode).

``embedding_backward`` adds the gradient of looked-up rows into [U,E],
one row per unique id: the backward pass passes the inverse indices of
``np.unique`` and U, never the vocabulary size.

The kernels see one channel at a time: ``autodiff.conv_pool`` calls them
once per channel of a group, on that channel's slices of x, w and b, so
one convolution output [To, F] stays cache-sized.

The kernels are plain numpy; ``perfbench/run.py`` times them per layer
in its traced run. x and w may be views whose last axis is contiguous
(a channel's columns of a group); every result is a new C-contiguous
array with the floating dtype of its inputs (float32 for the encoder's
parameters).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv1d_forward",
    "conv1d_backward",
    "maxpool_forward",
    "maxpool_backward",
    "embedding_backward",
]

# Read by the benchmark's environment block; there is no compiled backend.
NUMBA_ENABLED = False


def conv1d_forward(x, w, b, index):
    # x: [U, E] rows at the positions index [N], w: [win, E, F], b: [F]
    # -> [N - win + 1, F], valid padding. The result is the transpose of a
    # C-contiguous [F, N - win + 1], so that pooling reads each filter's
    # outputs over time as one contiguous row. Positions are summed in
    # blocks of 32 Ki values (256 positions at F = 128), whose transposing
    # copy stays in cache.
    win, _, nf = w.shape
    t_out = index.size - win + 1
    block = max(1, 32768 // nf)
    p = np.matmul(x, w)
    out = np.empty((nf, t_out), dtype=p.dtype)
    for lo in range(0, t_out, block):
        hi = min(lo + block, t_out)
        rows = p[0].take(index[lo:hi], axis=0)
        for i in range(1, win):
            rows += p[i].take(index[lo + i:hi + i], axis=0)
        out[:, lo:hi] = rows.T
    out += b[:, None]
    return out.T


def conv1d_backward(x, w, index, u, s):
    # x: [U, E], w: [win, E, F], index: [N]; s: [B, F] is the gradient of
    # the conv output at the rows u [B, F] (entry (j, f) at row u[j, f] and
    # filter f) and zero elsewhere. Bin (i, r, f) of dp sums the entries
    # whose window reads distinct row r at offset i.
    win, _, nf = w.shape
    offsets = np.arange(win)[:, None, None]
    keys = (offsets * x.shape[0] + index[u + offsets]) * nf + np.arange(nf)
    dp = np.bincount(keys.ravel(), np.broadcast_to(s, keys.shape).ravel(),
                     minlength=win * x.shape[0] * nf).astype(w.dtype).reshape(win, -1, nf)
    dx = np.matmul(dp, w.transpose(0, 2, 1)).sum(axis=0)
    return dx, np.matmul(x.T, dp), s.sum(axis=0)


def maxpool_forward(x, lo, hi):
    # x: [To, F]; segment j pools rows lo[j] <= t < hi[j] -> (max [S, F],
    # argmax rows [S, F]). Ties go to the lowest row. Each segment is one
    # argmax over contiguous memory when x is conv1d_forward's output.
    xt = x.T
    idx = np.empty((lo.size, xt.shape[0]), dtype=np.intp)
    for j in range(lo.size):
        idx[j] = xt[:, lo[j]:hi[j]].argmax(axis=1)
    idx += lo[:, None]
    return np.take_along_axis(xt, idx.T, axis=1).T, idx


def maxpool_backward(grad, live):
    # grad: [B, F] at the pooled maxima (all k channels [B, k*F] at once),
    # live: the entries that pass the relu -> the gradient at the argmax
    # rows, zero where not live.
    return np.where(live, grad, 0)


def embedding_backward(grad, ids, rows):
    # grad: [N, E] for row indices ids in [0, rows) -> [rows, E] scatter-add,
    # each row summed onto +0 in the order of ids.
    dtable = np.zeros((rows, grad.shape[1]), dtype=grad.dtype)
    np.add.at(dtable, ids, grad)
    return dtable
