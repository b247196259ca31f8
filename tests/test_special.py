"""Special-function accuracy against independent oracles (stdlib
math.lgamma, mpmath series, quadrature via scipy) and the documented
domain/convergence contracts."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from domaingate import special as sp

# Frozen oracle values (mpmath, 30 digits; see docstrings).
DIGAMMA_10 = 2.2517525890667211076       # high-precision series
I_03_2_5 = 0.57982499999999997601        # quadrature of t(1-t)^4, normalized
KL_GRID = (0.5, 1.0, 2.0, 5.0, 20.0)


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
