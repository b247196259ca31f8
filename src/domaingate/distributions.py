"""Beta and Dirichlet latent-gate distributions.

Provides sampling by CDF inversion, log-densities, means, closed-form
same-family KL divergences (differentiable on the tape through the
lgamma/digamma primitives), and pathwise gradients through samples.

Sampling uses the CDF as a standardization map: a sample z drawn at
noise u satisfies F(z; theta) = u, so differentiating implicitly in the
parameters gives dz/dtheta = -(dF/dtheta) / pdf(z). The Dirichlet is
sampled as normalized Gammas (rate 1), so backprop composes the Gamma
pathwise partials with the normalization node. A draw inverts the CDF
over its whole noise array in one call. Its sampling node
(``beta_sample`` or ``gamma_sample``) carries this pathwise rule as its
backward closure, over the draws and the parameter arrays.

Parameters come as rows [B,k], one per instance of a mini-batch (or
[B,C,k], one per candidate label); ``sample`` draws one gate per row
from one generator, and ``draw_many`` m per row, each instance from its
own generator, in prediction. ``sample``, the log-densities and the KL
also take a single parameter vector [k].

Each family has one elementwise log-density, used by the pathwise
rule and by ``log_pdf_many`` alike; a draw on the edge of the support
(a Beta draw at 0 or 1, a Gamma draw or Dirichlet entry at 0) raises
``DegenerateSampleError`` there, naming the draw and its parameters.
Whether a draw has a pathwise gradient depends only on the draw and its
parameters, so ``sample`` flags such rows when it draws them, and a
loss leaves them out; the pathwise rule then skips every row whose
gradient is zero.

dF/dtheta has no elementary closed form for the Beta/Gamma shape
parameters; it is computed by central finite differences on the CDF with
step 1e-4 * max(1, theta) (forward where theta - h <= 0), which is far
inside the gradient tolerance the rest of the system needs; each
parameter and side is one CDF call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .special import (inv_reg_inc_beta, inv_reg_inc_gamma, lgamma, ln_inv_beta, reg_inc_beta,
                      reg_inc_gamma)

__all__ = [
    "BetaParams",
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
class BetaParams:
    """Factorized Beta over a k-dimensional hyper-cube gate: one parameter
    vector [k], or one per row [..., k]."""

    alpha: Var
    beta: Var

    @property
    def k(self) -> int:
        return self.alpha.value.shape[-1]


@dataclass
class DirichletParams:
    """Dirichlet over the k-simplex: one concentration vector [k], or one
    per row [..., k]."""

    conc: Var

    @property
    def k(self) -> int:
        return self.conc.value.shape[-1]


def _values(params) -> tuple[np.ndarray, ...]:
    if isinstance(params, BetaParams):
        return params.alpha.value, params.beta.value
    if isinstance(params, DirichletParams):
        return (params.conc.value,)
    raise TypeError(f"cannot sample from {type(params).__name__}")


def _along(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Parameters [..., k] broadcast to draws z of the same shape, or to m
    draws per parameter vector [..., m, k]."""
    if theta.ndim < z.ndim:
        theta = np.expand_dims(theta, -2)
    return np.broadcast_to(theta, z.shape)


def _uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    # Clip away from {0, 1} so quantiles stay finite.
    return np.clip(rng.random(shape), _U_LO, _U_HI)


# -- log-densities -----------------------------------------------------------

def _check_support(edge: np.ndarray, what: str, z: np.ndarray, **params) -> None:
    """Raise naming the first draw flagged in ``edge`` and its parameters
    (of z's shape)."""
    if edge.any():
        i = tuple(int(j) for j in np.argwhere(edge)[0])
        named = ", ".join(f"{k}={float(v[i])}" for k, v in params.items())
        raise DegenerateSampleError(
            f"{what} draw on the edge of the support: z={float(z[i])}, {named}", i)


def _beta_edge(z: np.ndarray) -> np.ndarray:
    return (z <= 0.0) | (z >= 1.0)


def _gamma_edge(x: np.ndarray) -> np.ndarray:
    return x <= 0.0


def _beta_log_density(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Beta(a, b) log-density; a draw at 0 or 1 raises."""
    _check_support(_beta_edge(z), "beta", z, alpha=a, beta=b)
    return (a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z) + ln_inv_beta(a, b)


def _gamma_log_density(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise Gamma(a, 1) log-density; a draw at 0 raises."""
    _check_support(_gamma_edge(x), "gamma", x, concentration=a)
    return (a - 1.0) * np.log(x) - x - lgamma(a)


def _degenerate_rows(log_density, edge, x: np.ndarray, *thetas) -> np.ndarray:
    """The rows of draws x [..., k] that have no pathwise gradient: an
    entry on the edge of the support, or a density below the floor."""
    on_edge = edge(x)
    low = log_density(np.where(on_edge, 0.5, x), *thetas) < _LN_PDF_FLOOR
    return (on_edge | low).any(axis=-1)


# -- pathwise partial derivatives ------------------------------------------

def _pathwise(cdf, log_density, z: np.ndarray, grad: np.ndarray, *thetas: np.ndarray):
    """grad * dz/dtheta for each parameter array in ``thetas`` (of z's
    shape), with dz/dtheta = -(dF/dtheta) / pdf(z), where F(x, *theta) =
    ``cdf`` is an array CDF. dF/dtheta is a central difference with step
    h = 1e-4 * max(1, theta), or a forward one where theta - h <= 0: one
    CDF call per parameter and side. Only rows of z [..., k] with a nonzero
    gradient are differentiated: a degenerate row that the loss left out
    costs nothing and raises nothing. A differentiated draw on the edge
    of the support, or with an underflowing density, raises."""
    k = z.shape[-1]
    g = grad.reshape(-1, k)
    rows = np.flatnonzero((g != 0.0).any(axis=1))
    out = [np.zeros(g.shape) for _ in thetas]
    if rows.size:
        zr = z.reshape(-1, k)[rows]
        at = [t.reshape(-1, k)[rows] for t in thetas]
        ln_pdf = log_density(zr, *at)
        low = ln_pdf < _LN_PDF_FLOOR
        if low.any():
            i = tuple(np.argwhere(low)[0])
            raise DegenerateSampleError(
                f"density underflow at z={float(zr[i])}, "
                f"parameters {tuple(float(t[i]) for t in at)}")
        # exp(-ln_pdf) never overflows above the floor, and underflows to 0
        # when the density is enormous (the draw then carries no gradient).
        inv_pdf = np.exp(-ln_pdf)
        for p, theta in enumerate(at):
            h = 1e-4 * np.maximum(1.0, theta)
            central = theta - h > 0.0
            dF = (cdf(zr, *at[:p], theta + h, *at[p + 1:])
                  - cdf(zr, *at[:p], np.where(central, theta - h, theta), *at[p + 1:])) \
                / np.where(central, 2.0 * h, h)
            out[p][rows] = g[rows] * (-dF * inv_pdf)
    return tuple(o.reshape(z.shape) for o in out)


# -- sampling ----------------------------------------------------------------

def _quantiles(params, u: np.ndarray) -> np.ndarray:
    """Invert the CDF at each entry of the noise u [..., k] (the shape of
    the parameters, or m rows per parameter vector): Beta gate values,
    or, for a Dirichlet, the Gamma draws whose rows normalize to its
    gates."""
    thetas = [_along(t, u) for t in _values(params)]
    if isinstance(params, BetaParams):
        return inv_reg_inc_beta(u, *thetas)
    return inv_reg_inc_gamma(u, *thetas)


def sample(params, rng: np.random.Generator) -> tuple[Var, np.ndarray]:
    """Draw one gate per parameter vector ([k], or rows [B,k]); the gate
    Var carries pathwise gradients back into the distribution parameters.
    The noise u of the draw is one ``rng.random`` call of the parameters'
    shape, so rows [B,k] of noise are the B per-row draws of one
    generator in turn; for a Dirichlet, the gate normalizes the Gamma
    draws at u.

    Also returns the rows whose draw has no pathwise gradient (an entry
    on the edge of the support, or an underflowing density), so that a
    loss can leave them out.
    """
    draws = _quantiles(params, _uniform(rng, *_values(params)[0].shape))
    if isinstance(params, BetaParams):
        alpha, beta = _values(params)
        z = params.alpha._tape.record(
            "beta_sample", draws, (params.alpha, params.beta),
            lambda grad: _pathwise(reg_inc_beta, _beta_log_density, draws, grad,
                                   np.broadcast_to(alpha, draws.shape),
                                   np.broadcast_to(beta, draws.shape)))
        return z, _degenerate_rows(_beta_log_density, _beta_edge, draws, alpha, beta)
    conc = params.conc.value
    g_var = params.conc._tape.record(
        "gamma_sample", draws, (params.conc,),
        lambda grad: _pathwise(lambda x, a: reg_inc_gamma(a, x), _gamma_log_density,
                               draws, grad, np.broadcast_to(conc, draws.shape)))
    return (ad.div(g_var, ad.reduce_sum(g_var, axis=-1, keepdims=True)),
            _degenerate_rows(_gamma_log_density, _gamma_edge, draws, conc))


def draw_many(params, rngs, m: int) -> np.ndarray:
    """m independent gate draws per parameter vector as a value-level
    array (no tape nodes, no gradients); used by Monte Carlo prediction.

    Parameter rows [B,...,k] give [B,...,m,k]. ``rngs`` holds one
    generator per row b, which draws all of row b's noise in the order
    of its axes.
    """
    shape = _values(params)[0].shape
    if len(shape) < 2 or len(rngs) != shape[0]:
        raise ValueError(f"draw_many needs parameter rows and one generator per row, "
                         f"got shape {shape} and {len(rngs)} generators")
    u = np.stack([_uniform(r, *shape[1:-1], m, shape[-1]) for r in rngs])
    draws = _quantiles(params, u)
    if isinstance(params, BetaParams):
        return draws
    return draws / draws.sum(axis=-1, keepdims=True)


# -- densities, means, divergences -------------------------------------------

def log_pdf_many(params, z: np.ndarray) -> np.ndarray:
    """Log-density of each row of draws z [..., m, k] (or of z in the
    parameters' own shape) under its parameter vector; used by
    importance-sampled prediction. A row entry on the edge of the support
    raises ``DegenerateSampleError``, whose ``index`` locates it in z."""
    z = np.asarray(z, dtype=np.float64)
    if isinstance(params, BetaParams):
        a, b = _values(params)
        return _beta_log_density(z, _along(a, z), _along(b, z)).sum(axis=-1)
    if isinstance(params, DirichletParams):
        # log Dir(z | c) = lgamma(sum c) + sum_j (log Gamma(z_j | c_j, 1) + z_j)
        c = params.conc.value
        norm = lgamma(c.sum(axis=-1))
        if c.ndim < z.ndim:
            norm = norm[..., None]
        return (_gamma_log_density(z, _along(c, z)) + z).sum(axis=-1) + norm
    raise TypeError(f"log_pdf_many supports Beta/Dirichlet, got {type(params).__name__}")


def mean(params) -> np.ndarray:
    if isinstance(params, BetaParams):
        a, b = params.alpha.value, params.beta.value
        return a / (a + b)
    if isinstance(params, DirichletParams):
        c = params.conc.value
        return c / c.sum(axis=-1, keepdims=True)
    raise TypeError(f"no mean for {type(params).__name__}")


def kl_divergence(q, p) -> Var:
    """Closed-form same-family KL(q || p) as a differentiable tape value:
    a scalar for parameter vectors, one per row [B] for rows [B,k]."""
    if type(q) is not type(p):
        raise TypeError(
            f"KL requires matching families, got {type(q).__name__} "
            f"and {type(p).__name__}")
    if q.k != p.k:
        raise ValueError(f"KL dimension mismatch: {q.k} vs {p.k}")
    if isinstance(q, BetaParams):
        a1, b1, a2, b2 = q.alpha, q.beta, p.alpha, p.beta
        s1 = a1 + b1
        s2 = a2 + b2
        term = (ad.lgamma(a2) + ad.lgamma(b2) - ad.lgamma(s2)) \
            - (ad.lgamma(a1) + ad.lgamma(b1) - ad.lgamma(s1)) \
            + (a1 - a2) * ad.digamma(a1) \
            + (b1 - b2) * ad.digamma(b1) \
            + ((a2 - a1) + (b2 - b1)) * ad.digamma(s1)
        return ad.reduce_sum(term, axis=-1)
    if isinstance(q, DirichletParams):
        # Row sums keep their axis, so that they broadcast against [.., k].
        c1, c2 = q.conc, p.conc
        c1_sum = ad.reduce_sum(c1, axis=-1, keepdims=True)
        front = ad.lgamma(c1_sum) - ad.reduce_sum(ad.lgamma(c1), axis=-1, keepdims=True) \
            - ad.lgamma(ad.reduce_sum(c2, axis=-1, keepdims=True)) \
            + ad.reduce_sum(ad.lgamma(c2), axis=-1, keepdims=True)
        inner = (c1 - c2) * (ad.digamma(c1) - ad.digamma(c1_sum))
        return ad.reduce_sum(front + ad.reduce_sum(inner, axis=-1, keepdims=True), axis=-1)
    raise TypeError(f"no KL for {type(q).__name__}")
