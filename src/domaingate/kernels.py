"""Hot numeric kernels for the encoder: 1-d convolution over time,
max-pool over time, and embedding-gradient scatter.

``embedding_backward`` adds the gradient of the T looked-up rows into
[U,E], one row per unique id: the backward pass passes the inverse
indices of ``np.unique`` and U, never the vocabulary size, so the
scatter's cost and output follow the text length.

The kernels are plain numpy; ``perfbench/run.py`` times them per layer
in its traced run. All arrays are C-contiguous float64.
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
    # x: [T, E], w: [win, E, F], b: [F] -> [T - win + 1, F], valid padding.
    win = w.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, win, axis=0)  # [To, E, win]
    out = np.einsum("tew,wef->tf", windows, w, optimize=True)
    out += b
    return out


def conv1d_backward(x, w, grad):
    win = w.shape[0]
    t_out = grad.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, win, axis=0)
    dw = np.einsum("tew,tf->wef", windows, grad, optimize=True)
    db = grad.sum(axis=0)
    dx = np.zeros_like(x)
    for i in range(win):
        dx[i:i + t_out] += grad @ w[i].T
    return dx, dw, db


def maxpool_forward(x):
    # x: [T, F] -> ([F], argmax [F]); ties resolved to the lowest index.
    idx = np.argmax(x, axis=0)
    return x[idx, np.arange(x.shape[1])], idx


def maxpool_backward(grad, idx, t_len):
    dx = np.zeros((t_len, grad.shape[0]))
    dx[idx, np.arange(grad.shape[0])] = grad
    return dx


def embedding_backward(grad, ids, rows):
    # grad: [T, E] for row indices ids in [0, rows) -> [rows, E] scatter-add,
    # each row summed onto +0 in the order of ids.
    dtable = np.zeros((rows, grad.shape[1]))
    np.add.at(dtable, ids, grad)
    return dtable
