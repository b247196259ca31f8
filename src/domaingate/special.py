"""Special functions over arrays: log-gamma, digamma, trigamma, and the
Beta/Gamma CDFs (regularized incomplete beta/gamma) and their inverses.
Each entry of a call runs its own iteration to its own stopping test in a
masked loop that drops entries as they finish, so no entry's value depends
on the other entries of the call."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["lgamma", "digamma", "trigamma", "ln_inv_beta", "reg_inc_beta",
           "reg_inc_gamma", "inv_reg_inc_beta", "inv_reg_inc_gamma", "ConvergenceError"]

_FPMIN = 1e-300
_STEPS = np.arange(1.0, 33.0)  # the power-series terms summed per pass


class ConvergenceError(ArithmeticError):
    """An iterative scheme failed to converge within its iteration cap."""


def _elementwise(fn):
    """fn on its arguments broadcast together as flat float64 arrays, its
    result in their shape (a numpy scalar for scalars)."""
    @functools.wraps(fn)
    def over_arrays(*args):
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in args))
        flat = [np.ascontiguousarray(v).ravel() for v in arrays]
        return fn(*flat).reshape(arrays[0].shape)[()]
    return over_arrays


def _named(i: int, named: dict) -> str:
    return ", ".join(f"{k}={float(v[i])}" for k, v in named.items())


def _require(ok: np.ndarray, what: str, **named: np.ndarray) -> None:
    if not ok.all():
        raise ValueError(f"{what}, got {_named(int(np.argmin(ok)), named)}")


def _masked(name: str, step, report: tuple[str, ...], **state: np.ndarray) -> np.ndarray:
    """Run ``step(i, s)``, i = 1, 2, ..., which updates the live entries'
    arrays ``s`` and returns which finished and their values, until none
    is live; one live after ``s["cap"]`` steps raises, naming ``report``."""
    out = np.empty(state["cap"].size)
    live = np.arange(out.size)
    i = 0
    while live.size:
        i += 1
        done, value = step(i, state)
        if done.any():
            out[live[done]] = value[done]
            keep = ~done
            live = live[keep]
            state = {k: v[keep] for k, v in state.items()}
        stalled = np.flatnonzero(state["cap"] <= i)
        if stalled.size:
            raise ConvergenceError(f"{name} did not converge at "
                                   + _named(stalled[0], {k: state[k] for k in report}))
    return out


def _either(mask: np.ndarray, f, g, *args: np.ndarray) -> np.ndarray:
    """f(*args) on the entries where ``mask`` holds, g(*args) on the rest."""
    out = np.empty(mask.size)
    for m, fn in ((mask, f), (~mask, g)):
        i = np.flatnonzero(m)
        if i.size:
            out[i] = fn(*(v[i] for v in args))
    return out


def _poly(coeffs, x):  # Horner, highest order first
    return functools.reduce(lambda acc, c: acc * x + c, coeffs[1:], coeffs[0])


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), np.float64, x.size)


@_elementwise
def lgamma(x):
    """Natural log of the gamma function for x > 0 (``math.lgamma``)."""
    _require(x > 0.0, "lgamma requires x > 0", x=x)
    return _lgamma(x)


def _shift_up(x: np.ndarray, term) -> tuple[np.ndarray, np.ndarray]:
    """x raised to 10 or more in at most 10 unit steps; the sum of term(x)."""
    total = np.zeros(x.size)
    for _ in range(10):
        small = x < 10.0
        if not small.any():
            break
        total += np.where(small, term(x), 0.0)
        x = x + small
    return x, total


# Asymptotic tails of psi(x) = ln x - 1/(2x) - sum B_2n / (2n x^2n) and
# psi'(x) = 1/x + 1/(2x^2) + sum B_2n / x^(2n+1), highest order first.
_DIGAMMA_TAIL = (1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0, -1.0 / 240.0,
                 1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0)
_TRIGAMMA_TAIL = (7.0 / 6.0, -691.0 / 2730.0, 5.0 / 66.0, -1.0 / 30.0,
                  1.0 / 42.0, -1.0 / 30.0, 1.0 / 6.0)


@_elementwise
def digamma(x):
    """Derivative of lgamma, for x > 0, to 1e-12 absolute on [1e-3, 1e4]."""
    _require(x > 0.0, "digamma requires x > 0", x=x)
    x, shift = _shift_up(x, lambda v: 1.0 / v)
    inv2 = 1.0 / (x * x)
    return np.log(x) - 0.5 / x - inv2 * _poly(_DIGAMMA_TAIL, inv2) - shift


@_elementwise
def trigamma(x):
    """Second derivative of lgamma, for x > 0 (shifted as ``digamma``)."""
    _require(x > 0.0, "trigamma requires x > 0", x=x)
    x, shift = _shift_up(x, lambda v: 1.0 / (v * v))
    inv = 1.0 / x
    inv2 = inv * inv
    return inv + 0.5 * inv2 + inv * inv2 * _poly(_TRIGAMMA_TAIL, inv2) + shift


# Stirling's series: lgamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + tail(z).
_STIRLING_TAIL = (1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0,
                  1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)


@_elementwise
def ln_inv_beta(a, b):
    """ln 1/B(a, b) for a, b > 0, with lgamma(p+q) - lgamma(q) from
    Stirling's series for q >= 10: as a difference it loses 2e-11 at
    q = 1e4, which is 2e-8 of a tail mass of 1e-3 taken as 1 - I."""
    _require((a > 0.0) & (b > 0.0), "ln_inv_beta requires a, b > 0", a=a, b=b)
    p, large = np.minimum(a, b), np.maximum(a, b) >= 10.0
    q = np.where(large, np.maximum(a, b), 10.0)
    tails = [_poly(_STIRLING_TAIL, 1.0 / (z * z)) / z for z in (p + q, q)]
    rise = (q - 0.5) * np.log1p(p / q) + p * (np.log(p + q) - 1.0) + tails[0] - tails[1]
    return np.where(large, rise - _lgamma(p), _lgamma(a + b) - _lgamma(a) - _lgamma(b))


def _series(name: str, t0, cap, ratio, **cols: np.ndarray) -> np.ndarray:
    """Sum of t0 + t1 + ... > 0, t_n = t_{n-1} ratio(n, **cols), 32 terms a
    pass (column 0 carries on the last term and the total) until the last
    term is below 1e-16 of the total."""
    terms = np.empty((t0.size, _STEPS.size + 1))
    terms[:, 0] = t0

    def step(i, s):
        t, tot = s["terms"], s["totals"]
        t[:, 1:] = ratio((i - 1) * _STEPS.size + _STEPS, **{k: s[k][:, None] for k in cols})
        np.cumprod(t, axis=1, out=t)
        tot[:, 1:] = t[:, 1:]
        np.cumsum(tot, axis=1, out=tot)
        t[:, 0], tot[:, 0] = t[:, -1], tot[:, -1]
        return t[:, 0] < tot[:, 0] * 1e-16, tot[:, 0]

    return _masked(name, step, tuple(cols), terms=terms, totals=terms.copy(),
                   cap=cap / _STEPS.size, **cols)


def _lentz(name: str, b1, cap, coef, **cols: np.ndarray) -> np.ndarray:
    """1 / (b1 + a_2 / (b_2 + ...)), (a_j, b_j) = coef(j, **cols), by the
    modified Lentz method, until a step changes it by less than 1e-16."""
    def guard(v):  # a vanishing denominator is replaced by a tiny one
        return np.where(np.abs(v) < _FPMIN, _FPMIN, v)

    def step(i, s):
        a_j, b_j = coef(i + 1, **{k: s[k] for k in cols})
        s["d"] = 1.0 / guard(b_j + a_j * s["d"])
        s["c"] = guard(b_j + a_j / s["c"])
        delta = s["c"] * s["d"]
        s["h"] = s["h"] * delta
        return np.abs(delta - 1.0) < 1e-16, s["h"]

    d = 1.0 / guard(b1)
    return _masked(name, step, tuple(cols), c=np.full(d.size, 1.0 / _FPMIN), d=d, h=d,
                   cap=cap, **cols)


def _beta_hyp(a, b, x):
    """F(a+b, 1; a+1; x) = I_x(a, b) a B(a, b) / (x^a (1-x)^b) (DLMF
    8.17.8) for x < (a+1)/(a+b+2): its power series below 0.7, above it
    the continued fraction 1 / (1 + d_1 / (1 + ...)) (Numerical Recipes)."""
    def terms(j, a, b, x):
        n, m = j - 1, (j - 1) // 2
        top = m * (b - m) if n % 2 == 0 else -(a + m) * (a + b + m)
        return top * x / ((a + (n - 1)) * (a + n)), 1.0

    return _either(
        x < 0.7,
        lambda a, b, x: _series("incomplete beta series", np.ones(x.size),
                                500.0 + 10.0 * np.sqrt(a + b),
                                lambda n, a, b, x: x * (a + b + (n - 1.0)) / (a + n),
                                a=a, b=b, x=x),
        lambda a, b, x: _lentz("incomplete beta continued fraction", np.ones(x.size),
                               600.0 + 20.0 * np.sqrt(np.maximum(a, b)), terms,
                               a=a, b=b, x=x),
        a, b, x)


def _beta_cdf(x, a, b, ln_norm):
    """I_x(a, b) and 1 - I_x(a, b), the one on x's side of the mean to
    full precision, and the log-density, for 0 < x < 1."""
    ln_x = np.log(x)
    ln_1mx = np.log1p(-x)
    ln_front = ln_norm + a * ln_x + b * ln_1mx
    front = np.exp(ln_front)
    # Symmetry transform keeps the expansions in their fast region.
    low = x < (a + 1.0) / (a + b + 2.0)
    p = np.where(low, a, b)
    tail = front * _beta_hyp(p, np.where(low, b, a), np.where(low, x, 1.0 - x)) / p
    lower, upper = np.where(low, tail, 1.0 - tail), np.where(low, 1.0 - tail, tail)
    return lower, upper, ln_front - ln_x - ln_1mx


@_elementwise
def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b): the Beta(a, b) CDF at x."""
    _require((a > 0.0) & (b > 0.0), "reg_inc_beta requires a, b > 0", a=a, b=b)
    _require((x >= 0.0) & (x <= 1.0), "reg_inc_beta requires x in [0, 1]", x=x)
    return _either((x > 0.0) & (x < 1.0),
                   lambda x, a, b: _beta_cdf(x, a, b, ln_inv_beta(a, b))[0],
                   lambda x, a, b: x, x, a, b)


def _gamma_cdf(a, x, lg_a):
    """P(a, x), Q(a, x) = 1 - P and ln(x^a e^-x / Gamma(a)), x times the
    density, for x > 0: the power series (DLMF 8.11.4) gives P below a + 6,
    the continued fraction Q above (at most ~20 terms for small a; 90 at a + 1).
    Below, Q = 1 - P exceeds Q(a, a + 6) ~ 3.6e-4 a: 3e-9 relative at a = 1e-3."""
    ln_front = a * np.log(x) - x - lg_a
    series = x < a + 6.0
    cap = 500.0 + 10.0 * np.sqrt(a)  # the terms needed grow with sqrt(a)
    smaller = np.exp(ln_front) * _either(
        series,
        lambda a, x, cap: _series("incomplete gamma series", 1.0 / a, cap,
                                  lambda n, a, x: x / (a + n), a=a, x=x),
        lambda a, x, cap: _lentz("incomplete gamma continued fraction", x + 1.0 - a, cap,
                                 lambda j, a, x: (-(j - 1) * (j - 1 - a), x + 2.0 * j - 1.0 - a),
                                 a=a, x=x),
        a, x, cap)
    p = np.where(series, np.minimum(smaller, 1.0), np.maximum(1.0 - smaller, 0.0))
    return p, np.where(series, 1.0 - p, smaller), ln_front


@_elementwise
def reg_inc_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x): the Gamma(a, 1) CDF."""
    _require(a > 0.0, "reg_inc_gamma requires a > 0", a=a)
    _require(x >= 0.0, "reg_inc_gamma requires x >= 0", x=x)
    return _either(x > 0.0, lambda a, x: _gamma_cdf(a, x, _lgamma(a))[0],
                   lambda a, x: x, a, x)


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


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile for u in (0, 1)."""
    tail = np.minimum(u, 1.0 - u)
    q = np.sqrt(-2.0 * np.log(tail))
    outer = _poly(_PPF_C, q) / (_poly(_PPF_D, q) * q + 1.0)
    r = (u - 0.5) ** 2
    inner = _poly(_PPF_A, r) * (u - 0.5) / (_poly(_PPF_B, r) * r + 1.0)
    return np.where(tail < 0.02425, np.where(u < 0.5, outer, -outer), inner)


def _beta_seed(u, a, b):
    """Moment-matched starting point for the Beta quantile (AS 26.5.22)."""
    y = _norm_ppf(u)
    both = (a > 1.0) & (b > 1.0)
    # Shapes of 2 where the other branch is taken keep this one finite.
    al, be = (1.0 / (2.0 * np.where(both, v, 2.0) - 1.0) for v in (a, b))
    lam = (y * y - 3.0) / 6.0
    h = 2.0 / (al + be)
    w = y * np.sqrt(h + lam) / h - (be - al) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    t, s = (np.exp(v * np.log(v / (a + b))) / v for v in (a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        moment = a / (a + b * np.exp(2.0 * w))
        left = (a * (t + s) * u) ** (1.0 / a)
        right = 1.0 - (b * (t + s) * (1.0 - u)) ** (1.0 / b)
        x = np.where(both, moment, np.where(u < t / (t + s), left, right))
    return np.clip(x, 1e-12, 1.0 - 1e-12)


@_elementwise
def inv_reg_inc_beta(u, a, b):
    """Quantile of Beta(a, b): solves reg_inc_beta(x, a, b) = u, for 1 - x
    above 1/2 (I_x(a,b) = 1 - I_{1-x}(b,a)), by Newton in a bracket, until
    the residual, in the smaller of u and 1 - u, is 1e-12 of it or the
    bracket spans adjacent doubles; so both ends and both tails keep their
    precision. While the lower bracket is 0 the fallback squares the upper
    one (below 0.5), and while the bracket spans more than a factor 2 it
    bisects ln x, so that 1e-300 takes a few steps."""
    _require((u > 0.0) & (u < 1.0), "inv_reg_inc_beta requires u in (0,1)", u=u)
    _require((a > 0.0) & (b > 0.0), "inv_reg_inc_beta requires a, b > 0", a=a, b=b)

    def step(i, s):
        x, mass = s["x"], s["mass"]
        lower, upper, ln_pdf = _beta_cdf(x, s["a"], s["b"], s["ln_norm"])
        f = np.where(s["lower_tail"], lower - mass, mass - upper)
        hi = np.where(f > 0.0, x, s["hi"])
        lo = np.where(f > 0.0, s["lo"], x)
        done = (np.abs(f) < 1e-12 * mass) | (hi - lo <= np.maximum(1e-15 * hi, np.spacing(hi)))
        steep = ln_pdf > -700.0
        x_new = np.where(steep, x - f * np.exp(-np.where(steep, ln_pdf, 0.0)), -1.0)
        fallback = np.where(
            lo == 0.0, np.maximum(hi * np.minimum(hi, 0.5), math.ulp(0.0)),
            np.where(hi > 2.0 * lo, np.sqrt(lo) * np.sqrt(hi),  # no underflow of lo * hi
                     0.5 * (lo + hi)))
        s.update(x=np.where((lo < x_new) & (x_new < hi), x_new, fallback),
                 lo=lo, hi=hi, residual=np.abs(f))
        return done, x

    ln_norm = ln_inv_beta(a, b)
    mirror = u > _beta_cdf(np.full(u.size, 0.5), a, b, ln_norm)[0]
    a, b = np.where(mirror, b, a), np.where(mirror, a, b)
    # The start needs no precision, but 1 - u must stay below 1.
    v = np.where(mirror, np.minimum(1.0 - u, np.nextafter(1.0, 0.0)), u)
    x = _masked("beta quantile", step, ("mass", "a", "b", "x", "residual"),
                mass=np.minimum(u, 1.0 - u), lower_tail=(u <= 0.5) != mirror, a=a, b=b,
                ln_norm=ln_norm, x=_beta_seed(v, a, b), lo=np.zeros(u.size),
                hi=np.ones(u.size), cap=np.full(u.size, 200.0))
    return np.where(mirror, 1.0 - x, x)


@_elementwise
def inv_reg_inc_gamma(u, a):
    """Quantile of Gamma(a, 1): solves reg_inc_gamma(a, x) = u by Newton on
    t = ln(x), well scaled over small shapes' left tails, in a bracket
    whose top grows 4-fold in x until it is found; until the residual, in
    the smaller of P and Q = 1 - P, is 1e-12 of min(u, 1 - u), or the
    bracket is as fine as doubles allow."""
    _require((u > 0.0) & (u < 1.0), "inv_reg_inc_gamma requires u in (0,1)", u=u)
    _require(a > 0.0, "inv_reg_inc_gamma requires a > 0", a=a)
    lg_a = _lgamma(a)

    def step(i, s):
        t, u = s["t"], s["u"]
        x = np.exp(t)
        p, q, ln_slope = _gamma_cdf(s["a"], x, s["lg_a"])
        f = np.where(u > 0.5, (1.0 - u) - q, p - u)
        hi_t = np.where(f > 0.0, t, s["hi_t"])
        lo_t = np.where(f > 0.0, s["lo_t"], t)
        # A bracket of a few ulps of t (1.1e-13 near t = -737), or of one
        # subnormal x (5e-4 in t near 1e-320), is as fine as doubles allow.
        grain = np.maximum(4.0 * np.spacing(np.abs(t)), np.spacing(x) / x)
        done = ((np.abs(f) < 1e-12 * np.minimum(u, 1.0 - u))
                | (hi_t - lo_t <= np.maximum(1e-15, grain)))
        # dF/dt = pdf(x) * x, so the log-space Newton step is exp-safe.
        # Halley's correction uses F''/F' = a - x; kept at 1/2 or above,
        # it at most doubles the Newton step and never turns it back.
        steep = ln_slope > -700.0
        newton = f * np.exp(-np.where(steep, ln_slope, 0.0))
        with np.errstate(over="ignore"):
            halley = np.maximum(1.0 - 0.5 * newton * (s["a"] - x), 0.5)
        t_new = np.where(steep, t - newton / halley, np.inf)
        # A step that cannot move x off its double leaves it within an ulp.
        # A step beyond the largest double cannot be such a step.
        with np.errstate(over="ignore"):
            done |= steep & (np.exp(t_new) == x)
        # Until there is an upper bracket, a step up is at most 4-fold in x.
        top = np.where(hi_t < np.inf, hi_t, t + math.log(4.0))
        fallback = np.where(hi_t < np.inf, 0.5 * (lo_t + hi_t), top)
        s.update(t=np.where((lo_t < t_new) & (t_new < top), t_new, fallback),
                 lo_t=lo_t, hi_t=hi_t, residual=np.abs(f))
        return done, x

    # Wilson-Hilferty start, or where it fails P(a, x) ~ x^a / Gamma(a+1).
    c = 1.0 / (9.0 * np.maximum(a, 0.6))
    wh = a * (1.0 - c + _norm_ppf(u) * np.sqrt(c)) ** 3
    power = np.exp(np.maximum((np.log(u) + lg_a + np.log(a)) / a, -690.0))
    t = np.log(np.maximum(np.where((a > 0.6) & (wh > 0.0), wh, power), 1e-323))
    return _masked("gamma quantile", step, ("u", "a", "t", "residual"),
                   u=u, a=a, lg_a=lg_a, lo_t=np.full(u.size, -745.0), hi_t=np.full(u.size, np.inf),
                   t=np.maximum(t, -745.0 + 1e-12), cap=np.full(u.size, 200.0))
