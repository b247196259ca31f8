"""Adam optimizer over flat {name: array} parameter stores.

The update is the dense one of Kingma & Ba. For a finite lr > 0, a row
whose moments and gradient are all zero is a fixed point of that update.
So while a table has had only row gradients and at most half its rows
have had one, its moments are stored for those rows only, and only those
rows are updated: the other rows keep p bitwise with zero moments, as
the dense update leaves them. Past half, gathering the live rows and
re-laying out their moments would cost more than full-size moments do.
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

    Accumulators are created on a parameter's first step with the
    parameter's dtype. ``live`` holds the sorted ids [L] of the rows
    that have had a gradient, for each table whose gradients have all
    been ``RowGrad`` and at most half of whose rows have had one. Such a
    table's ``m`` and ``v`` are [L, ...]: row i holds the moments of row
    ``live[i]``, and every other row's moments are zero. Every other
    parameter has no ``live`` entry, and its accumulators match its shape.
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


def _row_blocks(shape: tuple[int, ...]) -> list:
    """Slices of the first axis cutting an array into blocks of about
    ``_BLOCK`` elements; a 0-d array is one block."""
    if not shape:
        return [...]
    rows = max(1, _BLOCK * shape[0] // max(1, math.prod(shape)))
    return [slice(r, r + rows) for r in range(0, shape[0], rows)]


def _update_blocks(name, p, m, v, g, state: AdamState, bc1: float, bc2: float,
                   ids=None) -> None:
    # Given the live ``ids`` that compact m and v are matched to, each
    # block's rows of p are gathered and written back after the update.
    # Each block is checked right after its update, while it is in cache.
    for rows in _row_blocks(m.shape):
        g_rows = (g.dense(rows.start, rows.stop) if isinstance(g, RowGrad)
                  else g[rows])
        p_rows = p[rows] if ids is None else p[ids[rows]]
        _update(p_rows, m[rows], v[rows], g_rows, state, bc1, bc2)
        if ids is not None:
            p[ids[rows]] = p_rows
        if not np.isfinite(p_rows).all():
            raise NonFiniteError(
                f"Adam step {state.step} made parameter {name!r} non-finite")


def _update_live_rows(name, p, g: RowGrad, ids, state: AdamState,
                      bc1: float, bc2: float) -> None:
    # The update of a table's live rows ``ids``, the earlier live rows
    # and the step's rows together; the moments grow only when new rows
    # join. A live row without a gradient in this step gets a zero row.
    live = state.live[name]
    if ids.size > live.size:
        at = np.searchsorted(ids, live)
        for moments in (state.m, state.v):
            grown = np.zeros((ids.size, *p.shape[1:]), p.dtype)
            grown[at] = moments[name]
            moments[name] = grown
        state.live[name] = ids
    g_live = RowGrad(np.searchsorted(ids, g.ids), g.values, ids.size)
    _update_blocks(name, p, state.m[name], state.v[name], g_live, state, bc1, bc2, ids)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Deterministic given inputs.

    The update is the dense one of Kingma & Ba for every parameter, run
    over blocks of rows. A table with live rows (see ``AdamState``) adds
    the step's rows to them, growing its moments only when new rows
    join, and updates the live rows alone, a block at a time: a block's
    rows are gathered, updated with their gradient rows or zero rows, so
    that a row without a gradient in this step still moves by its
    momentum, and written back. The first dense gradient, or live rows
    that pass half the table, scatter the moments into full-size ones,
    and the table takes the plain blocks from then on; a ``RowGrad`` is
    densified one block at a time there. Every gradient's name and shape
    are checked before anything changes (``ValueError``). Each block is
    checked right after its update: a non-finite value raises
    ``NonFiniteError`` naming the parameter.
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
            if isinstance(g, RowGrad):
                state.live[name] = np.empty(0, dtype=np.int64)
                state.m[name], state.v[name] = np.zeros_like(p[:0]), np.zeros_like(p[:0])
            else:
                state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        live = state.live.get(name)
        if live is not None and isinstance(g, RowGrad):
            seen = np.zeros(g.rows, dtype=bool)
            seen[live] = seen[g.ids] = True
            ids = np.flatnonzero(seen)
            if 2 * ids.size <= g.rows:
                _update_live_rows(name, p, g, ids, state, bc1, bc2)
                continue
        if live is not None:
            for moments in (state.m, state.v):
                full = np.zeros_like(p)
                full[live] = moments[name]
                moments[name] = full
            del state.live[name]
        _update_blocks(name, p, state.m[name], state.v[name], g, state, bc1, bc2)
