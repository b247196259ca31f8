"""Adam optimizer over flat {name: array} parameter stores.

The update is the dense one of Kingma & Ba. For a finite lr > 0, a row
whose moments and gradient are all zero is a fixed point of that update,
so the rows of a table that have never had a gradient are skipped: the
result is bitwise the dense update's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, RowGrad

__all__ = ["AdamState", "adam_step"]

# The moment decay rates and the denominator guard of Kingma & Ba.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """The learning rate plus first/second-moment accumulators.

    Accumulators are created on a parameter's first step and always
    match the parameter's shape and dtype. ``live`` holds the sorted ids
    of the rows that have had a gradient, for each parameter whose
    gradients have all been ``RowGrad`` and whose rows have not all had
    one yet; every other parameter has no entry.
    """

    lr: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray] = field(default_factory=dict)


def _update(p, m, v, g, state: AdamState, bc1: float, bc2: float) -> None:
    # The Adam update of p, m and v in place, in the operation order
    # of m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), with two scratch buffers.
    a = np.empty_like(p)
    b = np.empty_like(p)
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=a)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += EPS
    np.divide(m, bc1, out=b)
    np.multiply(state.lr, b, out=b)
    p -= np.divide(b, a, out=b)


# Elements per block of the update. The update is elementwise, so blocks
# whose arrays stay in cache give the same bits as one pass over the
# whole array; on a [20000,300] table they take about half the time.
_BLOCK = 1 << 15


def _row_blocks(shape: tuple[int, ...], live: np.ndarray | None) -> list:
    """Slices of the first axis cutting an array into blocks of about
    ``_BLOCK`` elements; a 0-d array is one block. Given the sorted ids
    of the ``live`` rows, each block is trimmed to its first and last
    live row, and a block without one is left out."""
    if not shape:
        return [...]
    rows = max(1, _BLOCK * shape[0] // max(1, math.prod(shape)))
    if live is None:
        return [slice(r, r + rows) for r in range(0, shape[0], rows)]
    starts = np.arange(0, shape[0], rows)
    lo, hi = np.searchsorted(live, starts), np.searchsorted(live, starts + rows)
    has = lo < hi
    return [slice(a, b + 1)
            for a, b in zip(live[lo[has]].tolist(), live[hi[has] - 1].tolist())]


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Deterministic given inputs.

    The update is the dense one of Kingma & Ba for every parameter, run
    over blocks of rows: a ``RowGrad`` is densified one block at a time,
    so a row without a gradient in this step still moves by its momentum.
    Only a table's rows that have never had a gradient are skipped, which
    leaves them as the dense update would. Every gradient's name and
    shape are checked before anything changes (``ValueError``). Each
    block is checked right after its update, while it is in cache: a
    non-finite value raises ``NonFiniteError`` naming the parameter.
    """
    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {params[name].shape}")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            state.live[name] = np.empty(0, dtype=np.int64)
        live = state.live.pop(name, None)
        if live is not None and isinstance(g, RowGrad):
            seen = np.zeros(g.rows, dtype=bool)
            seen[live] = seen[g.ids] = True
            if not seen.all():
                state.live[name] = np.flatnonzero(seen)
        m, v = state.m[name], state.v[name]
        for rows in _row_blocks(p.shape, state.live.get(name)):
            g_rows = (g.dense(rows.start, rows.stop) if isinstance(g, RowGrad)
                      else g[rows])
            _update(p[rows], m[rows], v[rows], g_rows, state, bc1, bc2)
            if not np.isfinite(p[rows]).all():
                raise NonFiniteError(
                    f"Adam step {state.step} made parameter {name!r} non-finite")
