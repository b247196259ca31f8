"""Beta and Dirichlet latent-gate distributions.

Provides sampling by CDF inversion, log-densities, means, closed-form
same-family KL divergences (differentiable on the tape through the
lgamma/digamma primitives), and pathwise gradients through samples.

Sampling uses the CDF as a standardization map: a sample z with noise
record u satisfies F(z; theta) = u, so differentiating implicitly in the
parameters gives dz/dtheta = -(dF/dtheta) / pdf(z). The Dirichlet is
sampled as normalized Gammas (rate 1), so its gradients compose the
Gamma pathwise partials with ordinary tape arithmetic (product and
normalization nodes), i.e. the multi-variable chain rule is handled by
backprop itself.

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
from .autodiff import Var, register_backward
from .special import (
    inv_reg_inc_beta,
    inv_reg_inc_gamma,
    lgamma,
    reg_inc_beta,
    reg_inc_gamma,
)

__all__ = [
    "BetaParams",
    "DirichletParams",
    "GateSample",
    "DegenerateSampleError",
    "sample",
    "draw_many",
    "log_pdf_many",
    "mean",
    "kl_divergence",
]

_PDF_FLOOR = 1e-300
_U_LO = 1e-15
_U_HI = 1.0 - 1e-16


class DegenerateSampleError(ArithmeticError):
    """A sample landed where the density underflows; no usable gradient."""


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
    """Dirichlet over the k-simplex, split into an overall concentration
    scalar and a per-channel affinity vector in (0,1)."""

    alpha0: Var     # scalar ()
    alpha_hat: Var  # (k,)

    @property
    def k(self) -> int:
        return self.alpha_hat.value.shape[0]

    def concentration(self) -> Var:
        return ad.mul(self.alpha0, self.alpha_hat)


@dataclass
class GateSample:
    """A realized gate vector plus the noise that produced it."""

    z: np.ndarray
    family: str  # box (Beta) | simplex (Dirichlet)
    eps: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family == "box":
            if np.any(self.z < 0.0) or np.any(self.z > 1.0):
                raise ValueError("box gate entries must lie in [0, 1]")
        elif self.family == "simplex":
            if np.any(self.z < 0.0) or abs(self.z.sum() - 1.0) > 1e-10:
                raise ValueError("simplex gate must be nonnegative and sum to 1")


def _uniform(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    # Clip away from {0, 1} so quantiles stay finite.
    return np.clip(rng.random((m, k)), _U_LO, _U_HI)


# -- pathwise partial derivatives ------------------------------------------

def _fd_step(theta: float) -> float:
    return 1e-4 * max(1.0, theta)


def _cdf_param_fd(cdf, z: float, theta: float) -> float:
    """d/dtheta of a CDF at fixed z, by central (or forward) differences."""
    h = _fd_step(theta)
    if theta - h > 0.0:
        return (cdf(z, theta + h) - cdf(z, theta - h)) / (2.0 * h)
    return (cdf(z, theta + h) - cdf(z, theta)) / h


def _beta_log_pdf_scalar(z: float, a: float, b: float) -> float:
    return ((a - 1.0) * math.log(z) + (b - 1.0) * math.log1p(-z)
            + lgamma(a + b) - lgamma(a) - lgamma(b))


def _gamma_log_pdf_scalar(z: float, a: float) -> float:
    return (a - 1.0) * math.log(z) - z - lgamma(a)


_LN_PDF_FLOOR = math.log(_PDF_FLOOR)


def _inv_pdf(ln_pdf: float, where: str) -> float:
    # exp(-ln_pdf) never overflows once the floor is enforced, and
    # cleanly underflows to 0 when the density is enormous (the sample
    # then carries no usable parameter gradient).
    if ln_pdf < _LN_PDF_FLOOR:
        raise DegenerateSampleError(f"density underflow at {where}")
    return math.exp(-ln_pdf)


def _beta_partials(alpha: np.ndarray, beta: np.ndarray, z: np.ndarray):
    dz_da = np.empty_like(z)
    dz_db = np.empty_like(z)
    for i in range(z.shape[0]):
        a, b, zi = float(alpha[i]), float(beta[i]), float(z[i])
        if not 0.0 < zi < 1.0:  # the draw rounded onto an end of [0, 1]
            raise DegenerateSampleError(
                f"beta draw on the boundary: z={zi}, alpha={a}, beta={b}")
        inv_pdf = _inv_pdf(_beta_log_pdf_scalar(zi, a, b),
                           f"beta z={zi}, alpha={a}, beta={b}")
        dFda = _cdf_param_fd(lambda x, t: reg_inc_beta(x, t, b), zi, a)
        dFdb = _cdf_param_fd(lambda x, t: reg_inc_beta(x, a, t), zi, b)
        dz_da[i] = -dFda * inv_pdf
        dz_db[i] = -dFdb * inv_pdf
    return dz_da, dz_db


def _gamma_partials(shape: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = np.empty_like(g)
    for i in range(g.shape[0]):
        a, gi = float(shape[i]), float(g[i])
        if gi <= 0.0:
            # quantile underflowed to zero; the CDF is flat in the
            # parameter there, so the pathwise gradient vanishes
            out[i] = 0.0
            continue
        inv_pdf = _inv_pdf(_gamma_log_pdf_scalar(gi, a), f"gamma z={gi}, shape={a}")
        dFda = _cdf_param_fd(lambda x, t: reg_inc_gamma(t, x), gi, a)
        out[i] = -dFda * inv_pdf
    return out


@register_backward("beta_sample")
def _beta_sample_bwd(node, grad, tape):
    alpha = tape.nodes[node.inputs[0]].value
    beta = tape.nodes[node.inputs[1]].value
    dz_da, dz_db = _beta_partials(alpha, beta, node.value)
    return grad * dz_da, grad * dz_db


@register_backward("gamma_sample")
def _gamma_sample_bwd(node, grad, tape):
    shape = tape.nodes[node.inputs[0]].value
    return (grad * _gamma_partials(shape, node.value),)


# -- sampling ----------------------------------------------------------------

def _quantiles(params, u: np.ndarray, conc: Optional[np.ndarray] = None) -> np.ndarray:
    """Invert the CDF at each entry of the noise rows u [m, k]: Beta gate
    values, or, for a Dirichlet with concentration values ``conc``, the
    Gamma draws whose rows normalize to its gates."""
    out = np.empty(u.shape)
    if isinstance(params, BetaParams):
        a, b = params.alpha.value, params.beta.value
        for i, j in np.ndindex(u.shape):
            out[i, j] = inv_reg_inc_beta(u[i, j], a[j], b[j])
    else:
        for i, j in np.ndindex(u.shape):
            out[i, j] = inv_reg_inc_gamma(u[i, j], conc[j])
    return out


def sample(params, rng: Optional[np.random.Generator],
           eps: Optional[np.ndarray] = None) -> tuple[Var, GateSample]:
    """Draw one gate vector; the returned Var carries pathwise gradients
    back into the distribution parameters.

    Passing ``eps`` (uniform noise in (0,1)) replays a draw with frozen
    noise, which is what gradient checks against finite differences need.
    """
    if not isinstance(params, (BetaParams, DirichletParams)):
        raise TypeError(f"cannot sample from {type(params).__name__}")
    u = (_uniform(rng, 1, params.k) if eps is None
         else np.asarray(eps, dtype=np.float64)[None, :])
    if isinstance(params, BetaParams):
        z = _quantiles(params, u)[0]
        var = params.alpha._tape.record("beta_sample", z,
                                        (params.alpha, params.beta), aux=u[0])
        return var, GateSample(z, "box", eps=u[0])
    conc = params.concentration()
    g = _quantiles(params, u, conc.value)[0]
    g_var = conc._tape.record("gamma_sample", g, (conc,), aux=u[0])
    z_var = ad.div(g_var, ad.reduce_sum(g_var))
    return z_var, GateSample(z_var.value.copy(), "simplex", eps=u[0])


def draw_many(params, rng: np.random.Generator, m: int) -> np.ndarray:
    """m independent gate draws as a value-level [m, k] array (no tape
    nodes, no gradients); used by Monte Carlo prediction."""
    if isinstance(params, BetaParams):
        return _quantiles(params, _uniform(rng, m, params.k))
    if isinstance(params, DirichletParams):
        c = params.concentration().value
        g = _quantiles(params, _uniform(rng, m, params.k), c)
        return g / g.sum(axis=1, keepdims=True)
    raise TypeError(f"draw_many supports Beta/Dirichlet, got {type(params).__name__}")


# -- densities, means, divergences -------------------------------------------

_lgamma_vec = np.vectorize(lgamma, otypes=[np.float64])


def log_pdf_many(params, z: np.ndarray) -> np.ndarray:
    """Vectorized log-density over rows of z (all rows must be in the
    support); used by importance-sampled prediction."""
    z = np.asarray(z, dtype=np.float64)
    if isinstance(params, BetaParams):
        a, b = params.alpha.value, params.beta.value
        norm = (_lgamma_vec(a + b) - _lgamma_vec(a) - _lgamma_vec(b)).sum()
        return ((a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z)).sum(axis=1) + norm
    if isinstance(params, DirichletParams):
        c = params.concentration().value
        norm = lgamma(c.sum()) - _lgamma_vec(c).sum()
        return ((c - 1.0) * np.log(z)).sum(axis=1) + norm
    raise TypeError(f"log_pdf_many supports Beta/Dirichlet, got {type(params).__name__}")


def mean(params) -> np.ndarray:
    if isinstance(params, BetaParams):
        a, b = params.alpha.value, params.beta.value
        return a / (a + b)
    if isinstance(params, DirichletParams):
        c = params.concentration().value
        return c / c.sum()
    raise TypeError(f"no mean for {type(params).__name__}")


def kl_divergence(q, p) -> Var:
    """Closed-form same-family KL(q || p) as a differentiable tape scalar."""
    if type(q) is not type(p):
        raise TypeError(
            f"KL requires matching families, got {type(q).__name__} "
            f"and {type(p).__name__}")
    if isinstance(q, BetaParams):
        if q.k != p.k:
            raise ValueError(f"KL dimension mismatch: {q.k} vs {p.k}")
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
        if q.k != p.k:
            raise ValueError(f"KL dimension mismatch: {q.k} vs {p.k}")
        c1 = q.concentration()
        c2 = p.concentration()
        c1_sum = ad.reduce_sum(c1)
        front = ad.lgamma(c1_sum) - ad.reduce_sum(ad.lgamma(c1)) \
            - ad.lgamma(ad.reduce_sum(c2)) + ad.reduce_sum(ad.lgamma(c2))
        inner = (c1 - c2) * (ad.digamma(c1) - ad.digamma(c1_sum))
        return front + ad.reduce_sum(inner)
    raise TypeError(f"no KL for {type(q).__name__}")
