"""Beta and Dirichlet latent-gate distributions.

Provides sampling by CDF inversion, log-densities, means, closed-form
same-family KL divergences (differentiable on the tape through the
lgamma/digamma primitives), and pathwise gradients through samples.

Sampling uses the CDF as a standardization map: a sample z with noise
record u satisfies F(z; theta) = u, so differentiating implicitly in the
parameters gives dz/dtheta = -(dF/dtheta) / pdf(z). The Dirichlet is
sampled as normalized Gammas (rate 1), so backprop composes the Gamma
pathwise partials with the normalization node.

Each family has one elementwise log-density, used by the pathwise
rule and by ``log_pdf_many`` alike; a draw on the edge of the support
(a Beta draw at 0 or 1, a Gamma draw or Dirichlet entry at 0) raises
``DegenerateSampleError`` there, naming the draw and its parameters.

dF/dtheta has no elementary closed form for the Beta/Gamma shape
parameters; it is computed by central finite differences on the CDF with
step 1e-4 * max(1, theta), which is far inside the gradient tolerance
the rest of the system needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Var, _lgamma_vec, register_backward
from .special import inv_reg_inc_beta, inv_reg_inc_gamma, reg_inc_beta, reg_inc_gamma

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
    """A draw on the edge of the support, or where the density underflows."""


@dataclass
class BetaParams:
    """Factorized Beta over a k-dimensional hyper-cube gate."""

    alpha: Var  # (k,)
    beta: Var   # (k,)

    @property
    def k(self) -> int:
        return self.alpha.value.shape[0]


@dataclass
class DirichletParams:
    """Dirichlet over the k-simplex."""

    conc: Var  # (k,) concentration

    @property
    def k(self) -> int:
        return self.conc.value.shape[0]


def _uniform(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    # Clip away from {0, 1} so quantiles stay finite.
    return np.clip(rng.random((m, k)), _U_LO, _U_HI)


# -- log-densities -----------------------------------------------------------

def _check_support(edge: np.ndarray, what: str, z: np.ndarray, **params) -> None:
    """Raise naming the first draw flagged in ``edge`` and its parameters
    (broadcast along the last axis of z)."""
    if edge.any():
        i = tuple(np.argwhere(edge)[0])
        named = ", ".join(f"{k}={float(np.broadcast_to(v, z.shape)[i])}"
                          for k, v in params.items())
        raise DegenerateSampleError(
            f"{what} draw on the edge of the support: z={float(z[i])}, {named}")


def _beta_log_density(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Beta(a, b) log-density; a draw at 0 or 1 raises."""
    _check_support((z <= 0.0) | (z >= 1.0), "beta", z, alpha=a, beta=b)
    return ((a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z)
            + _lgamma_vec(a + b) - _lgamma_vec(a) - _lgamma_vec(b))


def _gamma_log_density(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise Gamma(a, 1) log-density; a draw at 0 raises."""
    _check_support(x <= 0.0, "gamma", x, concentration=a)
    return (a - 1.0) * np.log(x) - x - _lgamma_vec(a)


# -- pathwise partial derivatives ------------------------------------------

def _cdf_param_fd(cdf, z: float, theta: float) -> float:
    """d/dtheta of a CDF at fixed z, by central (or forward) differences."""
    h = 1e-4 * max(1.0, theta)
    if theta - h > 0.0:
        return (cdf(z, theta + h) - cdf(z, theta - h)) / (2.0 * h)
    return (cdf(z, theta + h) - cdf(z, theta)) / h


def _pathwise(cdf, z: np.ndarray, ln_pdf: np.ndarray, *thetas: np.ndarray):
    """dz/dtheta = -(dF/dtheta) / pdf(z) for each parameter vector in
    ``thetas``, where F(x, *theta) = ``cdf`` is a scalar CDF and
    ``ln_pdf`` its log-density at the draws z."""
    low = ln_pdf < _LN_PDF_FLOOR
    if low.any():
        i = int(np.argmax(low))
        raise DegenerateSampleError(
            f"density underflow at z={float(z[i])}, "
            f"parameters {tuple(float(t[i]) for t in thetas)}")
    dF = np.empty((len(thetas),) + z.shape)
    for i in range(z.shape[0]):
        at = [float(t[i]) for t in thetas]
        for p in range(len(thetas)):
            dF[p, i] = _cdf_param_fd(
                lambda x, t: cdf(x, *at[:p], t, *at[p + 1:]), float(z[i]), at[p])
    # exp(-ln_pdf) never overflows above the floor, and underflows to 0
    # when the density is enormous (the draw then carries no gradient).
    return -dF * np.exp(-ln_pdf)


@register_backward("beta_sample")
def _beta_sample_bwd(node, grad, tape):
    alpha = tape.nodes[node.inputs[0]].value
    beta = tape.nodes[node.inputs[1]].value
    z = node.value
    dz_da, dz_db = _pathwise(reg_inc_beta, z, _beta_log_density(z, alpha, beta),
                             alpha, beta)
    return grad * dz_da, grad * dz_db


@register_backward("gamma_sample")
def _gamma_sample_bwd(node, grad, tape):
    conc = tape.nodes[node.inputs[0]].value
    g = node.value
    (dg_dc,) = _pathwise(lambda x, a: reg_inc_gamma(a, x), g,
                         _gamma_log_density(g, conc), conc)
    return (grad * dg_dc,)


# -- sampling ----------------------------------------------------------------

def _quantiles(params, u: np.ndarray) -> np.ndarray:
    """Invert the CDF at each entry of the noise rows u [m, k]: Beta gate
    values, or, for a Dirichlet, the Gamma draws whose rows normalize to
    its gates."""
    out = np.empty(u.shape)
    if isinstance(params, BetaParams):
        a, b = params.alpha.value, params.beta.value
        for i, j in np.ndindex(u.shape):
            out[i, j] = inv_reg_inc_beta(u[i, j], a[j], b[j])
    elif isinstance(params, DirichletParams):
        c = params.conc.value
        for i, j in np.ndindex(u.shape):
            out[i, j] = inv_reg_inc_gamma(u[i, j], c[j])
    else:
        raise TypeError(f"cannot sample from {type(params).__name__}")
    return out


def sample(params, rng: Optional[np.random.Generator],
           eps: Optional[np.ndarray] = None) -> Var:
    """Draw one gate vector; the returned Var carries pathwise gradients
    back into the distribution parameters. The noise u of the draw is the
    ``aux`` of its sampling node (for a Dirichlet, the Gamma node that
    the gate normalizes).

    Passing ``eps`` (uniform noise in (0,1)) replays a draw with frozen
    noise, which is what gradient checks against finite differences need.
    """
    u = (_uniform(rng, 1, params.k) if eps is None
         else np.asarray(eps, dtype=np.float64)[None, :])
    if isinstance(params, BetaParams):
        return params.alpha._tape.record("beta_sample", _quantiles(params, u)[0],
                                         (params.alpha, params.beta), aux=u[0])
    conc = params.conc
    g_var = conc._tape.record("gamma_sample", _quantiles(params, u)[0], (conc,),
                              aux=u[0])
    return ad.div(g_var, ad.reduce_sum(g_var))


def draw_many(params, rng: np.random.Generator, m: int) -> np.ndarray:
    """m independent gate draws as a value-level [m, k] array (no tape
    nodes, no gradients); used by Monte Carlo prediction."""
    draws = _quantiles(params, _uniform(rng, m, params.k))
    if isinstance(params, BetaParams):
        return draws
    return draws / draws.sum(axis=1, keepdims=True)


# -- densities, means, divergences -------------------------------------------

def log_pdf_many(params, z: np.ndarray) -> np.ndarray:
    """Log-density of each row of z; used by importance-sampled
    prediction. A row entry on the edge of the support raises
    ``DegenerateSampleError``."""
    z = np.asarray(z, dtype=np.float64)
    if isinstance(params, BetaParams):
        return _beta_log_density(z, params.alpha.value, params.beta.value).sum(axis=1)
    if isinstance(params, DirichletParams):
        # log Dir(z | c) = lgamma(sum c) + sum_j (log Gamma(z_j | c_j, 1) + z_j)
        c = params.conc.value
        return (_gamma_log_density(z, c) + z).sum(axis=1) + _lgamma_vec(c.sum())
    raise TypeError(f"log_pdf_many supports Beta/Dirichlet, got {type(params).__name__}")


def mean(params) -> np.ndarray:
    if isinstance(params, BetaParams):
        a, b = params.alpha.value, params.beta.value
        return a / (a + b)
    if isinstance(params, DirichletParams):
        c = params.conc.value
        return c / c.sum()
    raise TypeError(f"no mean for {type(params).__name__}")


def kl_divergence(q, p) -> Var:
    """Closed-form same-family KL(q || p) as a differentiable tape scalar."""
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
        return ad.reduce_sum(term)
    if isinstance(q, DirichletParams):
        c1, c2 = q.conc, p.conc
        c1_sum = ad.reduce_sum(c1)
        front = ad.lgamma(c1_sum) - ad.reduce_sum(ad.lgamma(c1)) \
            - ad.lgamma(ad.reduce_sum(c2)) + ad.reduce_sum(ad.lgamma(c2))
        inner = (c1 - c2) * (ad.digamma(c1) - ad.digamma(c1_sum))
        return front + ad.reduce_sum(inner)
    raise TypeError(f"no KL for {type(q).__name__}")
