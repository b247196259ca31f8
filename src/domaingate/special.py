"""Scalar special functions: log-gamma, digamma, trigamma, regularized
incomplete beta/gamma functions and their inverses.

These back the latent-gate distributions: the incomplete beta/gamma
functions are the Beta/Gamma CDFs, inverted for sampling and
differentiated (in their parameters) for pathwise gradients. Everything
here is dependency-free double-precision scalar math; tests compare
against independent oracles (quadrature, mpmath).
"""

from __future__ import annotations

import math

__all__ = [
    "lgamma",
    "digamma",
    "trigamma",
    "reg_inc_beta",
    "reg_inc_gamma",
    "inv_reg_inc_beta",
    "inv_reg_inc_gamma",
    "ConvergenceError",
]

_EPS = 2.220446049250313e-16
_FPMIN = 1e-300


class ConvergenceError(ArithmeticError):
    """An iterative scheme failed to converge within its iteration cap."""


def lgamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"lgamma requires x > 0, got {x}")
    return math.lgamma(x)


# Asymptotic tail of psi(x): ln x - 1/(2x) - sum B_2n / (2n x^2n).
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Derivative of lgamma, for x > 0.

    Small arguments are shifted up with psi(x) = psi(x+1) - 1/x until the
    asymptotic series applies; absolute error stays below 1e-12 on
    [1e-3, 1e4].
    """
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    result = 0.0
    while x < 10.0:
        result -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return result + math.log(x) - 0.5 / x - tail


# Asymptotic tail of psi'(x): 1/x + 1/(2x^2) + sum B_2n / x^(2n+1).
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma(x: float) -> float:
    """Second derivative of lgamma, for x > 0."""
    if not x > 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    result = 0.0
    while x < 10.0:
        result += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv * inv2
    for coeff in _TRIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return result + inv + 0.5 * inv2 + tail


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by the modified Lentz
    method. Assumes x < (a+1)/(a+b+2) so the fraction converges fast."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b): the Beta(a, b) CDF at x."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        lgamma(a + b) - lgamma(a) - lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Symmetry transform keeps the continued fraction in its fast region.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def reg_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x): the Gamma(a, 1) CDF."""
    if not a > 0.0:
        raise ValueError(f"reg_inc_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"reg_inc_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    ln_front = a * math.log(x) - x - lgamma(a)
    if x < a + 1.0:
        # Power series in x, DLMF 8.11.4.
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(500):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                return min(total * math.exp(ln_front), 1.0)
        raise ConvergenceError(f"incomplete gamma series stalled at a={a}, x={x}")
    # Continued fraction for the upper tail (modified Lentz).
    b_cf = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b_cf
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b_cf += 2.0
        d = an * d + b_cf
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b_cf + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return max(1.0 - math.exp(ln_front) * h, 0.0)
    raise ConvergenceError(
        f"incomplete gamma continued fraction stalled at a={a}, x={x}"
    )


# Acklam's rational approximation to the standard normal quantile; only
# used to seed Newton iterations, so ~1e-9 relative error is plenty.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _norm_ppf(u: float) -> float:
    if u <= 0.0 or u >= 1.0:
        raise ValueError(f"normal quantile seed needs u in (0,1), got {u}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    u_low = 0.02425
    if u < u_low:
        q = math.sqrt(-2.0 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if u > 1.0 - u_low:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _beta_seed(u: float, a: float, b: float) -> float:
    """Moment-matched starting point for the Beta quantile (AS 26.5.22)."""
    y = _norm_ppf(u)
    if a > 1.0 and b > 1.0:
        al = 1.0 / (2.0 * a - 1.0)
        be = 1.0 / (2.0 * b - 1.0)
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (al + be)
        w = y * math.sqrt(h + lam) / h - (be - al) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        x = a / (a + b * math.exp(2.0 * w))
    else:
        lna = math.log(a / (a + b))
        lnb = math.log(b / (a + b))
        t = math.exp(a * lna) / a
        s = math.exp(b * lnb) / b
        w = t + s
        if u < t / w:
            x = (a * w * u) ** (1.0 / a)
        else:
            x = 1.0 - (b * w * (1.0 - u)) ** (1.0 / b)
    return min(max(x, 1e-12), 1.0 - 1e-12)


def _inv_beta_low(u: float, a: float, b: float) -> float:
    """Beta quantile for u <= 0.5: bracketed Newton with bisection fallback.

    While the lower bracket is still 0 the fallback squares the upper
    one below 0.5 (halves it above), so quantiles deep in the left tail
    (1e-100 and below) are reached in a few steps; while the bracket
    spans more than a factor 2 it bisects ln x, as the gamma quantile
    searches. The bracket stops at adjacent doubles, so a quantile among
    the subnormals, or below the smallest of them, ends the search too.
    """
    ln_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    lo, hi = 0.0, 1.0
    x = _beta_seed(u, a, b)
    f = math.inf
    for _ in range(200):
        f = reg_inc_beta(x, a, b) - u
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) < 1e-12 or hi - lo <= max(1e-15 * hi, math.ulp(hi)):
            return x
        ln_pdf = ln_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        x_new = x - f * math.exp(-ln_pdf) if ln_pdf > -700.0 else -1.0
        if lo < x_new < hi:
            x = x_new
        elif lo == 0.0:
            x = max(hi * min(hi, 0.5), math.ulp(0.0))
        elif hi > 2.0 * lo:
            x = math.sqrt(lo) * math.sqrt(hi)  # no underflow of lo * hi
        else:
            x = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"beta quantile failed to converge: u={u}, a={a}, b={b}, "
        f"x={x}, residual={abs(f)}"
    )


def inv_reg_inc_beta(u: float, a: float, b: float) -> float:
    """Quantile of Beta(a, b): solves reg_inc_beta(x, a, b) = u.

    Upper-half quantiles are solved through the mirror identity
    I_x(a,b) = 1 - I_{1-x}(b,a) so both tails get full precision.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"inv_reg_inc_beta requires u in (0,1), got {u}")
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"inv_reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if u > 0.5:
        return 1.0 - _inv_beta_low(1.0 - u, b, a)
    return _inv_beta_low(u, a, b)


def _gamma_seed(u: float, a: float) -> float:
    """Wilson-Hilferty start for the Gamma(a, 1) quantile, with a
    small-shape power-law fallback."""
    if a > 0.6:
        z = _norm_ppf(u)
        t = 1.0 - 1.0 / (9.0 * a) + z * math.sqrt(1.0 / (9.0 * a))
        x = a * t * t * t
        if x > 0.0:
            return x
    # P(a, x) ~ x^a / Gamma(a+1) for small x.
    ln_x = (math.log(u) + lgamma(a + 1.0)) / a
    return math.exp(max(ln_x, -690.0))


def inv_reg_inc_gamma(u: float, a: float) -> float:
    """Quantile of Gamma(a, 1): solves reg_inc_gamma(a, x) = u.

    Newton runs on t = ln(x), which keeps steps well scaled across the
    enormous dynamic range that small shapes produce in the left tail.
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"inv_reg_inc_gamma requires u in (0,1), got {u}")
    if not a > 0.0:
        raise ValueError(f"inv_reg_inc_gamma requires a > 0, got {a}")
    hi = max(_gamma_seed(u, a), 1.0)
    for _ in range(200):
        if reg_inc_gamma(a, hi) >= u:
            break
        hi *= 4.0
    else:
        raise ConvergenceError(f"gamma quantile bracket blew up: u={u}, a={a}")
    lo_t, hi_t = -745.0, math.log(hi)
    t = math.log(min(max(_gamma_seed(u, a), 1e-323), hi))
    t = min(max(t, lo_t + 1e-12), hi_t)
    f = math.inf
    lg_a = lgamma(a)
    for _ in range(200):
        x = math.exp(t)
        f = reg_inc_gamma(a, x) - u
        if f > 0.0:
            hi_t = t
        else:
            lo_t = t
        # A bracket of a few ulps of t is as fine as doubles allow (one
        # ulp near t = -737 is 1.1e-13).
        if abs(f) < 1e-12 or hi_t - lo_t <= max(1e-15, 4.0 * math.ulp(t)):
            return x
        # dF/dt = pdf(x) * x, so the log-space Newton step is exp-safe.
        ln_slope = a * math.log(x) - x - lg_a
        t_new = t - f * math.exp(-ln_slope) if ln_slope > -700.0 else math.inf
        if lo_t < t_new < hi_t:
            t = t_new
        else:
            t = 0.5 * (lo_t + hi_t)
    raise ConvergenceError(
        f"gamma quantile failed to converge: u={u}, a={a}, "
        f"x={math.exp(t)}, residual={abs(f)}"
    )
