"""Hot numeric kernels for the encoder: 1-d convolution over time,
max-pool over each instance's windows, and embedding-gradient scatter.

A batch of B token sequences is one ragged sequence: the instances'
rows are concatenated into x [N,E], and instance j owns rows
``starts[j]:starts[j+1]``. The convolution runs once over the whole
packed batch, so a window that starts near the end of one instance
reaches into the next; such a window is computed but never pooled.
``maxpool_forward`` pools each instance's own windows only.

The convolution makes one GEMM per window offset i: the forward is
``out = sum_i x[i:i+To] @ w[i] + b``, each a contiguous [To,E] slice of
x against one [E,F] slab of w, stored filter-major so that the max-pool
scans contiguous memory. After the max-pool, the gradient of the
convolution output has at most one nonzero per (instance, filter), at
the argmax window. The backward therefore works on the U unique argmax
rows u only: with S [U,F] the pooled gradient placed on them,
``dx[u+i] += S @ w[i].T`` and ``dw[i] = x[u+i].T @ S``.

``embedding_backward`` adds the gradient of the N looked-up rows into
[U,E], one row per unique id: the backward pass passes the inverse
indices of ``np.unique`` and U, never the vocabulary size, so the
scatter's cost and output follow the text length.

The kernels are plain numpy; ``perfbench/run.py`` times them per layer
in its traced run. Arrays are C-contiguous, and every result has the
floating dtype of its inputs (float32 for the encoder's parameters).
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


def conv1d_forward(x, w, b):
    # x: [N, E], w: [win, E, F], b: [F] -> [N - win + 1, F], valid padding.
    # The result is the transpose of a C-contiguous [F, N - win + 1], so that
    # pooling reads each filter's outputs over time as one contiguous row.
    win = w.shape[0]
    t_out = x.shape[0] - win + 1
    out = w[0].T @ x[:t_out].T
    for i in range(1, win):
        out += w[i].T @ x[i:i + t_out].T
    out += b[:, None]
    return out.T


def conv1d_backward(x, w, u, s):
    # x: [N, E], w: [win, E, F]; s: [U, F] is the gradient of the conv
    # output at the unique rows u [U] and zero elsewhere.
    dw = np.empty_like(w)
    dx = np.zeros_like(x)
    for i in range(w.shape[0]):
        np.matmul(x[u + i].T, s, out=dw[i])
        dx[u + i] += s @ w[i].T
    return dx, dw, s.sum(axis=0)


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


def maxpool_backward(grad, idx, live):
    # grad: [B, F] at the pooled maxima, idx: their rows [B, F], live: the
    # entries that pass the relu -> (unique rows u [U], gradient s [U, F]).
    # For one filter the instances' rows differ, so no two entries of one
    # column of s collide.
    u, inverse = np.unique(idx[live], return_inverse=True)
    s = np.zeros((u.size, grad.shape[1]), dtype=grad.dtype)
    s[inverse, np.nonzero(live)[1]] = grad[live]
    return u, s


def embedding_backward(grad, ids, rows):
    # grad: [N, E] for row indices ids in [0, rows) -> [rows, E] scatter-add,
    # each row summed onto +0 in the order of ids.
    dtable = np.zeros((rows, grad.shape[1]), dtype=grad.dtype)
    np.add.at(dtable, ids, grad)
    return dtable
