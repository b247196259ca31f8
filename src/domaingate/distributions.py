"""Dirichlet latent-gate distributions over the last axis.

One family serves both continuous gates. A csda-dirichlet gate is one
draw over the k-simplex. A Beta(alpha, beta) gate on a channel is the
first part of a Dirichlet(alpha, beta) draw over the pair (z, 1 - z), so
a csda-beta head gives concentrations [..., k, 2] and reads part 0 of
each pair (``models``).

Provides sampling by CDF inversion, log-densities, means, the
closed-form KL divergence (differentiable on the tape through the
lgamma/digamma primitives), and pathwise gradients through samples.

A draw normalizes Gammas (rate 1) over the last axis. A Gamma draw x at
noise u satisfies P(c, x) = u, so differentiating implicitly in the
concentration gives dx/dc = -(dP/dc) / pdf(x); backprop composes these
partials with the normalization node. A draw inverts the CDF over its
whole noise array in one call, and its ``gamma_sample`` node carries
the pathwise rule as its backward closure.

Parameters come as rows [B,...,k], one per instance of a mini-batch
(and candidate label, or channel pair); ``sample`` draws one gate per
row from one generator, and ``draw_many`` m per row, each instance from
its own generator, in prediction. ``sample``, ``log_pdf_many`` and the
KL also take a single concentration vector [k].

A Gamma draw at 0, or one whose density underflows, has no pathwise
gradient. That depends only on the draw and its concentration, so
``sample`` flags such rows when it draws them, and a loss leaves them
out; the pathwise rule then skips every row whose gradient is zero. A
draw's entry that rounds to 0 has no log-density: ``log_pdf_many``
raises ``DegenerateSampleError`` there, naming the entry and its
concentration.

dP/dc has no elementary closed form; it is a central finite difference
on the CDF with step 1e-4 * max(1, c) (forward where c - h <= 0), which
is far inside the gradient tolerance the rest of the system needs; each
side is one CDF call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .special import inv_reg_inc_gamma, lgamma, ln_inv_beta, reg_inc_gamma
# Only perfbench's tracer reads these two here: it wraps them by name.
from .special import inv_reg_inc_beta, reg_inc_beta  # noqa: F401

__all__ = [
    "DirichletParams",
    "DegenerateSampleError",
    "sample",
    "draw_many",
    "log_pdf_many",
    "mean",
    "kl_divergence",
]

_LN_PDF_FLOOR = math.log(1e-300)
_U_LO = 1e-15
_U_HI = 1.0 - 1e-16


class DegenerateSampleError(ArithmeticError):
    """A draw on the edge of the support, or where the density underflows.
    ``index`` is the position of the first such draw in the array that
    was checked, when known."""

    def __init__(self, message: str, index: Optional[tuple] = None):
        super().__init__(message)
        self.index = index


@dataclass
class DirichletParams:
    """Dirichlet over the simplex of the last axis: one concentration
    vector [k], or one per row [..., k]."""

    conc: Var


def _uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    # Clip away from {0, 1} so quantiles stay finite.
    return np.clip(rng.random(shape), _U_LO, _U_HI)


# -- log-densities -----------------------------------------------------------

def _check_support(x: np.ndarray, conc: np.ndarray) -> None:
    """Raise naming the first entry of x at or below 0 and its
    concentration (of x's shape)."""
    edge = x <= 0.0
    if edge.any():
        i = tuple(int(j) for j in np.argwhere(edge)[0])
        raise DegenerateSampleError(
            f"draw on the edge of the support: z={float(x[i])}, "
            f"concentration={float(conc[i])}", i)


def _gamma_log_density(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise Gamma(c, 1) log-density; a draw at 0 raises."""
    _check_support(x, c)
    return (c - 1.0) * np.log(x) - x - lgamma(c)


def _ln_norm(c: np.ndarray) -> np.ndarray:
    """ln 1/B(c) = lgamma(sum c) - sum lgamma(c_j) over the last axis,
    chained pair by pair as sum_{j>=2} ln 1/B(c_1 + ... + c_{j-1}, c_j):
    the difference of lgammas loses 6.6e-10 at c = (1e5, 2, 0.5)."""
    return ln_inv_beta(np.cumsum(c, axis=-1)[..., :-1], c[..., 1:]).sum(axis=-1)


def _degenerate(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rows of Gamma draws x [..., k] that have no pathwise gradient:
    an entry at 0, or a density below the floor."""
    on_edge = x <= 0.0
    low = _gamma_log_density(np.where(on_edge, 0.5, x), c) < _LN_PDF_FLOOR
    return (on_edge | low).any(axis=-1)


# -- pathwise partial derivatives ------------------------------------------

def _pathwise(x: np.ndarray, grad: np.ndarray, c: np.ndarray) -> np.ndarray:
    """grad * dx/dc for Gamma draws x at concentrations c (of x's shape),
    with dx/dc = -(dP/dc) / pdf(x). dP/dc is a central difference with
    step h = 1e-4 * max(1, c), or a forward one where c - h <= 0: one CDF
    call per side. Only rows of x [..., k] with a nonzero gradient are
    differentiated: a degenerate row that the loss left out costs
    nothing and raises nothing. A differentiated draw at 0, or with an
    underflowing density, raises."""
    k = x.shape[-1]
    g = grad.reshape(-1, k)
    rows = np.flatnonzero((g != 0.0).any(axis=1))
    out = np.zeros(g.shape)
    if rows.size:
        xr, cr = x.reshape(-1, k)[rows], c.reshape(-1, k)[rows]
        ln_pdf = _gamma_log_density(xr, cr)
        low = ln_pdf < _LN_PDF_FLOOR
        if low.any():
            i = tuple(np.argwhere(low)[0])
            raise DegenerateSampleError(
                f"density underflow at z={float(xr[i])}, concentration={float(cr[i])}")
        # exp(-ln_pdf) never overflows above the floor, and underflows to 0
        # when the density is enormous (the draw then carries no gradient).
        inv_pdf = np.exp(-ln_pdf)
        h = 1e-4 * np.maximum(1.0, cr)
        central = cr - h > 0.0
        dP = (reg_inc_gamma(cr + h, xr) - reg_inc_gamma(np.where(central, cr - h, cr), xr)) \
            / np.where(central, 2.0 * h, h)
        out[rows] = g[rows] * (-dP * inv_pdf)
    return out.reshape(x.shape)


# -- sampling ----------------------------------------------------------------

def sample(params: DirichletParams, rng: np.random.Generator) -> tuple[Var, np.ndarray]:
    """Draw one gate per concentration vector ([k], or rows [...,k]); the
    gate Var carries pathwise gradients back into the concentrations.
    The noise u of the draw is one ``rng.random`` call of the
    concentrations' shape, so rows [B,k] of noise are the B per-row draws
    of one generator in turn; the gate normalizes the Gamma draws at u.

    Also returns the rows [...] whose draw has no pathwise gradient (a
    Gamma draw at 0, or an underflowing density), so that a loss can
    leave them out.
    """
    conc = params.conc.value
    draws = inv_reg_inc_gamma(_uniform(rng, *conc.shape), conc)
    g_var = params.conc._tape.record("gamma_sample", draws, (params.conc,),
                                     lambda grad: (_pathwise(draws, grad, conc),))
    return (ad.div(g_var, ad.reduce_sum(g_var, axis=-1, keepdims=True)),
            _degenerate(draws, conc))


def draw_many(params: DirichletParams, rngs, m: int, axis: int = 1) -> np.ndarray:
    """m independent gate draws per concentration vector, at a new axis
    ``axis`` before the last, as a value-level array (no tape nodes, no
    gradients); used by Monte Carlo prediction. Each draw is a whole
    simplex.

    Rows [B,...,k] give [B,...,m,...,k]. ``rngs`` holds one generator
    per row b, which draws all of row b's noise in the order of its axes.
    """
    shape = params.conc.value.shape
    if not 1 <= axis < len(shape) or len(rngs) != shape[0]:
        raise ValueError(f"draw_many needs parameter rows, one generator per row and "
                         f"an axis in [1, {len(shape)}), got shape {shape}, "
                         f"{len(rngs)} generators and axis {axis}")
    u = np.stack([_uniform(r, *shape[1:axis], m, *shape[axis:]) for r in rngs])
    draws = inv_reg_inc_gamma(u, np.expand_dims(params.conc.value, axis))
    return draws / draws.sum(axis=-1, keepdims=True)


# -- densities, means, divergences -------------------------------------------

def log_pdf_many(params: DirichletParams, z: np.ndarray, axis: int = 1) -> np.ndarray:
    """Log-density of each draw in z, which holds the draws of each
    concentration vector at ``axis`` (as ``draw_many`` gives them); a
    draw's log-density is the sum over the simplices of its trailing
    axes, so z [...,m,...,k] gives [...,m]. Used by importance-sampled
    prediction. An entry at 0 raises ``DegenerateSampleError``, whose
    ``index`` locates it in z."""
    z = np.asarray(z, dtype=np.float64)
    c = params.conc.value
    c_z = np.expand_dims(c, axis)
    _check_support(z, np.broadcast_to(c_z, z.shape))
    per_simplex = ((c_z - 1.0) * np.log(z)).sum(axis=-1) + np.expand_dims(_ln_norm(c), axis)
    return per_simplex.reshape(*z.shape[:axis + 1], -1).sum(axis=-1)


def mean(params: DirichletParams) -> np.ndarray:
    c = params.conc.value
    return c / c.sum(axis=-1, keepdims=True)


def kl_divergence(q: DirichletParams, p: DirichletParams) -> Var:
    """Closed-form KL(q || p) of each simplex (of the last axis) as a
    differentiable tape value: a scalar for concentration vectors [k],
    [...] for rows [..., k]."""
    if q.conc.shape != p.conc.shape:
        raise ValueError(f"KL dimension mismatch: {q.conc.shape} vs {p.conc.shape}")
    # Row sums keep their axis, so that they broadcast against [.., k].
    c1, c2 = q.conc, p.conc
    c1_sum = ad.reduce_sum(c1, axis=-1, keepdims=True)
    front = ad.lgamma(c1_sum) - ad.reduce_sum(ad.lgamma(c1), axis=-1, keepdims=True) \
        - ad.lgamma(ad.reduce_sum(c2, axis=-1, keepdims=True)) \
        + ad.reduce_sum(ad.lgamma(c2), axis=-1, keepdims=True)
    inner = (c1 - c2) * (ad.digamma(c1) - ad.digamma(c1_sum))
    return ad.reduce_sum(front + ad.reduce_sum(inner, axis=-1, keepdims=True), axis=-1)
