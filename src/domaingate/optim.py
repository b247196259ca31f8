"""Adam optimizer over flat {name: array} parameter stores."""

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
    match the parameter's shape and dtype.
    """

    lr: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


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


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Deterministic given inputs.

    The update is the dense one of Kingma & Ba for every parameter, run
    over blocks of rows: a ``RowGrad`` is densified one block at a time,
    so a row without a gradient in this step still moves by its momentum.
    Each block is checked right after its update, while it is in cache:
    a non-finite value raises ``NonFiniteError`` naming the parameter.
    """
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {p.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        for rows in _row_blocks(p.shape):
            g_rows = (g.dense(rows.start, rows.stop) if isinstance(g, RowGrad)
                      else g[rows])
            _update(p[rows], m[rows], v[rows], g_rows, state, bc1, bc2)
            if not np.isfinite(p[rows]).all():
                raise NonFiniteError(
                    f"Adam step {state.step} made parameter {name!r} non-finite")
