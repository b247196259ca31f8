"""Special-function accuracy against independent oracles (stdlib
math.lgamma, mpmath series, quadrature and the inverses of scipy) and
the documented domain/convergence contracts."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as ss

from domaingate import special as sp

# Frozen oracle values (mpmath, 30 digits; see docstrings).
DIGAMMA_10 = 2.2517525890667211076       # high-precision series
I_03_2_5 = 0.57982499999999997601        # quadrature of t(1-t)^4, normalized
KL_GRID = (0.5, 1.0, 2.0, 5.0, 20.0)


# Shapes log-uniform in [1e-3, 1e4]; noise anywhere in [1e-15, 1 - 1e-16],
# with both tails sampled on a log scale.
SHAPES = st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)
NOISE = st.one_of(st.floats(1e-15, 1.0 - 1e-16),
                  st.floats(-15.0, math.log10(0.5)).map(lambda e: 10.0 ** e),
                  st.floats(-16.0, math.log10(0.5)).map(lambda e: 1.0 - 10.0 ** e))
# lgamma(a) and ln B(a, b) are differences of values up to 8e4 at shapes
# up to 1e4, so they carry about 1e-11 absolute; on a tail mass of 1e-3
# taken as 1 - CDF that is 1e-8 relative.
ORACLE_RTOL = 1e-8


def _assert_inverts(x, u, ref, cdf, sf, mp_cdf, top):
    """Each x is the quantile at u: within ORACLE_RTOL of scipy's, or
    with scipy's CDF (survival function above the median) within
    ORACLE_RTOL of the smaller tail mass, or, at the grain of doubles,
    with the true quantile between x and a neighbouring double by the
    30-digit ``mp_cdf(i, x)`` (scipy's CDFs lose digits at subnormal x)."""
    low = u <= 0.5
    target = np.where(low, u, 1.0 - u)
    mass = np.where(low, cdf(x), sf(x))
    close = (np.abs(x - ref) <= ORACLE_RTOL * np.abs(ref)) \
        | (np.abs(mass - target) <= ORACLE_RTOL * target)
    with mpmath.workdps(30):
        for i in np.flatnonzero(~close):
            edges = [mp_cdf(i, mpmath.mpf(float(y)))
                     for y in (np.nextafter(x[i], 0.0), x[i], np.nextafter(x[i], top))]
            assert edges[0] <= u[i] <= edges[1] or edges[1] <= u[i] <= edges[2], \
                (float(u[i]), float(x[i]), float(ref[i]))


class TestArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(SHAPES, SHAPES, NOISE, st.floats(0.0, 1.0)),
                    min_size=2, max_size=24))
    def test_each_entry_as_if_alone(self, entries):
        # An entry's value does not depend on the other entries of the
        # call, bit for bit, so neither does a draw on how the batch is cut.
        a, b, u, y = (np.array(c) for c in zip(*entries))
        x = y * (a + 12.0)  # both sides of the gamma series reach a + 6
        calls = ((sp.inv_reg_inc_gamma, (u, a)), (sp.inv_reg_inc_beta, (u, a, b)),
                 (sp.reg_inc_gamma, (a, x)), (sp.reg_inc_beta, (y, a, b)),
                 (sp.digamma, (a,)), (sp.trigamma, (a,)), (sp.lgamma, (a,)))
        for fn, args in calls:
            alone = [fn(*(v[i] for v in args)) for i in range(len(entries))]
            np.testing.assert_array_equal(fn(*args), alone, err_msg=fn.__name__)

    def test_broadcast_shape(self):
        x = sp.inv_reg_inc_beta(np.array([[0.1], [0.9]]), np.array([1.0, 2.0, 3.0]), 2.0)
        assert x.shape == (2, 3)
        assert isinstance(sp.reg_inc_gamma(2.0, 1.0), float)


class TestOracleSweep:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SHAPES, NOISE), min_size=1, max_size=32))
    # A subnormal root (x ~ 2.7e-319), where one ulp of x moves the CDF
    # by more than the residual tolerance.
    @example([(0.0471201714822894, 1e-15)])
    def test_gamma_quantiles_match_scipy(self, entries):
        a, u = (np.array(c) for c in zip(*entries))
        _assert_inverts(sp.inv_reg_inc_gamma(u, a), u, ss.gammaincinv(a, u),
                        lambda x: ss.gammainc(a, x), lambda x: ss.gammaincc(a, x),
                        lambda i, x: mpmath.gammainc(a[i], 0, x, regularized=True), np.inf)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SHAPES, SHAPES, NOISE), min_size=1, max_size=32))
    def test_beta_quantiles_match_scipy(self, entries):
        a, b, u = (np.array(c) for c in zip(*entries))
        _assert_inverts(sp.inv_reg_inc_beta(u, a, b), u, ss.betaincinv(a, b, u),
                        lambda x: ss.betainc(a, b, x), lambda x: ss.betaincc(a, b, x),
                        lambda i, x: mpmath.betainc(a[i], b[i], 0, x, regularized=True), 1.0)


class TestLgamma:
    def test_factorial_value(self):
        assert sp.lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_at_one(self):
        assert sp.lgamma(1.0) == 0.0

    def test_half(self):
        assert sp.lgamma(0.5) == pytest.approx(0.57236494292470008707, rel=1e-14)

    def test_matches_stdlib_over_range(self):
        for x in np.geomspace(1e-3, 1e4, 500):
            assert sp.lgamma(x) == pytest.approx(math.lgamma(x), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            sp.lgamma(bad)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert sp.digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_recurrence(self):
        assert sp.digamma(2.0) - sp.digamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_at_ten_vs_series_oracle(self):
        assert sp.digamma(10.0) == pytest.approx(DIGAMMA_10, abs=1e-12)

    def test_absolute_error_over_range(self):
        for x in np.geomspace(1e-3, 1e4, 300):
            assert abs(sp.digamma(x) - float(mpmath.digamma(x))) <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sp.digamma(0.0)


class TestTrigamma:
    def test_pi_squared_over_six(self):
        assert sp.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)

    def test_is_derivative_of_digamma(self):
        for x in (0.3, 1.7, 8.0, 50.0):
            h = 1e-6 * max(1.0, x)
            fd = (sp.digamma(x + h) - sp.digamma(x - h)) / (2 * h)
            assert sp.trigamma(x) == pytest.approx(fd, rel=1e-7)


class TestIncompleteBeta:
    def test_uniform_cdf(self):
        assert sp.reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_quadrature_oracle(self):
        assert sp.reg_inc_beta(0.3, 2.0, 5.0) == pytest.approx(I_03_2_5, abs=1e-13)

    def test_quadrature_random_points(self):
        # the quadrature oracle itself is good to ~1e-10 at these settings
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.uniform(0.5, 8.0, 2)
            x = rng.uniform(0.05, 0.95)
            dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
            norm, _ = integrate.quad(dens, 0, 1, epsabs=1e-13, epsrel=1e-13)
            val, _ = integrate.quad(dens, 0, x, epsabs=1e-13, epsrel=1e-13)
            assert sp.reg_inc_beta(x, a, b) == pytest.approx(val / norm, abs=1e-9)

    def test_endpoints(self):
        assert sp.reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert sp.reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_monotone_in_x(self):
        for a in KL_GRID:
            for b in KL_GRID:
                grid = np.linspace(1e-6, 1 - 1e-6, 200)
                vals = [sp.reg_inc_beta(x, a, b) for x in grid]
                assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            sp.reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            sp.reg_inc_beta(0.5, 0.0, 1.0)


class TestIncompleteGamma:
    def test_exponential_cdf(self):
        for x in (0.1, 1.0, 2.0, 5.0):
            assert sp.reg_inc_gamma(1.0, x) == pytest.approx(-math.expm1(-x),
                                                             rel=1e-13)

    def test_quadrature_random_points(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(0.5, 10.0)
            x = rng.uniform(0.1, 3.0) * a
            dens = lambda t: t ** (a - 1) * math.exp(-t)
            val, _ = integrate.quad(dens, 0, x)
            assert sp.reg_inc_gamma(a, x) == pytest.approx(
                val / math.exp(math.lgamma(a)), rel=1e-10, abs=1e-12)

    def test_limits(self):
        assert sp.reg_inc_gamma(2.0, 0.0) == 0.0
        assert sp.reg_inc_gamma(2.0, 1e4) == pytest.approx(1.0, abs=1e-12)

    def test_many_terms_at_a_large_shape(self):
        # The power series needs about 555 terms here, more than the
        # fixed cap of 500 that once stalled; the cap grows with sqrt(a).
        assert sp.reg_inc_gamma(4863.87, 4818.79) == pytest.approx(
            ss.gammainc(4863.87, 4818.79), rel=1e-10)

    def test_monotone_in_x(self):
        for a in KL_GRID:
            grid = np.geomspace(1e-4, 50.0, 200)
            vals = [sp.reg_inc_gamma(a, x) for x in grid]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


class TestInverses:
    def test_uniform_identity(self):
        assert sp.inv_reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert sp.inv_reg_inc_beta(0.73, 1.0, 1.0) == pytest.approx(0.73, abs=1e-12)

    def test_exponential_inverse(self):
        assert sp.inv_reg_inc_gamma(-math.expm1(-2.0), 1.0) == pytest.approx(
            2.0, rel=1e-12)

    def test_beta_round_trip_grid(self):
        rng = np.random.default_rng(2)
        for a in KL_GRID:
            for b in KL_GRID:
                for u in rng.uniform(1e-4, 1 - 1e-4, 8):
                    x = sp.inv_reg_inc_beta(u, a, b)
                    assert abs(sp.reg_inc_beta(x, a, b) - u) < 1e-9

    def test_gamma_round_trip_grid(self):
        rng = np.random.default_rng(3)
        for a in KL_GRID:
            for u in rng.uniform(1e-4, 1 - 1e-4, 8):
                x = sp.inv_reg_inc_gamma(u, a)
                assert abs(sp.reg_inc_gamma(a, x) - u) < 1e-9

    def test_forward_then_inverse(self):
        # x-space error is (CDF residual) / pdf(x), so keep to quantiles
        # where the density is not vanishing
        rng = np.random.default_rng(4)
        for a in KL_GRID:
            for b in KL_GRID:
                for x in rng.uniform(0.02, 0.98, 4):
                    u = sp.reg_inc_beta(x, a, b)
                    if 1e-3 < u < 1 - 1e-3:
                        assert abs(sp.inv_reg_inc_beta(u, a, b) - x) < 1e-9

    def test_interior_residual_tight(self):
        # interior quantiles meet the 1e-10 residual contract
        for a in KL_GRID:
            for b in KL_GRID:
                for u in (1e-3, 0.1, 0.5, 0.9, 1 - 1e-3):
                    x = sp.inv_reg_inc_beta(u, a, b)
                    assert abs(sp.reg_inc_beta(x, a, b) - u) < 1e-10
        for a in KL_GRID:
            for u in (1e-3, 0.1, 0.5, 0.9, 1 - 1e-3):
                x = sp.inv_reg_inc_gamma(u, a)
                assert abs(sp.reg_inc_gamma(a, x) - u) < 1e-10

    def test_small_shape_gamma(self):
        for u in (0.01, 0.5, 0.99):
            x = sp.inv_reg_inc_gamma(u, 0.05)
            assert abs(sp.reg_inc_gamma(0.05, x) - u) < 1e-10

    def test_subnormal_gamma_quantile(self):
        # The quantile is 8.79e-321 (scipy gammaincinv): t = ln x is near
        # -737, where one ulp of t is 1.1e-13.
        x = sp.inv_reg_inc_gamma(0.102, 0.0031)
        assert x == pytest.approx(8.79e-321, rel=1e-3)
        assert abs(sp.reg_inc_gamma(0.0031, x) - 0.102) < 1e-6

    def test_gamma_quantile_at_the_top_noise_warns_of_nothing(self):
        # At the sampler's top noise u = 1 - 1e-16, shapes up to 3.2e-15
        # overflowed exp in the stopping test: 366 of these 613 emitted a
        # RuntimeWarning.
        a = np.logspace(-300, 6, 613)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sp.inv_reg_inc_gamma(np.full(a.size, 1.0 - 1e-16), a)
        assert np.all(np.isfinite(x) & (x > 0.0))

    def test_subnormal_gamma_quantile_among_few_bits(self):
        # The quantile is about 3.5e-323 (ln x near -742.49), where
        # adjacent subnormals are 1/7 of x apart: the search ends on a
        # double next to it instead of raising.
        u, a = 0.0063047, 0.0068288
        x = sp.inv_reg_inc_gamma(u, a)
        assert 0.0 < x < 1e-321
        assert ss.gammainc(a, x - math.ulp(0.0)) <= u <= ss.gammainc(a, x + math.ulp(0.0))

    def test_tail_quantiles_to_the_tail_mass(self):
        # The residual is taken in the smaller tail: an absolute 1e-12
        # would accept any x with P(x) below 1e-12 here, and any x with
        # Q(x) below 1e-12 above the median.
        for u, a in ((1e-15, 2.0), (1.0 - 1e-14, 2.0), (1.0 - 1e-14, 0.01)):
            assert sp.inv_reg_inc_gamma(u, a) == pytest.approx(ss.gammaincinv(a, u), rel=1e-9)
        assert sp.inv_reg_inc_beta(1e-15, 2.0, 2.0) == pytest.approx(
            ss.betaincinv(2.0, 2.0, 1e-15), rel=1e-9)

    def test_small_quantile_above_the_median_draw(self):
        # u > 1/2 but the quantile is 1e-61: it is solved for x, not for
        # 1 - x, which would round it to 1e-16.
        u, a, b = 0.7613938868885484, 0.002002019116065039, 39.35932495746238
        assert sp.inv_reg_inc_beta(u, a, b) == pytest.approx(ss.betaincinv(a, b, u), rel=1e-8)

    def test_deep_left_tail_beta_quantile(self):
        # scipy betaincinv(0.01, 50, 0.1) = 1.1434485249132965e-102, far
        # below what 200 halvings from 1 reach; its mirror rounds to 1.
        assert sp.inv_reg_inc_beta(0.1, 0.01, 50.0) == pytest.approx(
            1.1434485249132965e-102, rel=1e-12)
        assert sp.inv_reg_inc_beta(0.9, 50.0, 0.01) == 1.0

    def test_subnormal_beta_quantile_behind_a_wide_bracket(self):
        # The quantile is 5.4e-318, 125 decades below the first lower
        # bracket: arithmetic halving stalled near 1e-248. Adjacent
        # subnormals differ by 1e-6 of x here, which moves the CDF by
        # about 1e-9.
        x = sp.inv_reg_inc_beta(0.4826583074177656, 0.001, 5.0)
        assert 0.0 < x < 1e-316
        with mpmath.workdps(30):
            cdf = mpmath.betainc(0.001, 5.0, 0, x, regularized=True)
        assert abs(float(cdf) - 0.4826583074177656) < 1e-9
        assert sp.inv_reg_inc_beta(0.5173416925822343, 5.0, 0.001) == 1.0

    def test_quantiles_below_the_smallest_double(self):
        # The true quantiles are about 1e-333 and 1e-1000: the searches
        # end at the smallest positive double instead of stalling.
        assert sp.inv_reg_inc_beta(0.1, 0.003, 5.0) == math.ulp(0.0)
        assert sp.inv_reg_inc_gamma(0.1, 0.001) == math.ulp(0.0)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            sp.inv_reg_inc_beta(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sp.inv_reg_inc_beta(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sp.inv_reg_inc_gamma(0.5, -1.0)
