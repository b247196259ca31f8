"""Latent-gate distributions: sampling invariants, densities against
quadrature and mpmath, closed-form KL against Monte Carlo, and pathwise gradients
against finite differences of the (frozen-noise) sampling map."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from domaingate import autodiff as ad
from domaingate import distributions as dist
from domaingate import special as sp
from domaingate.autodiff import Tape, backprop

from conftest import FixedNoise, RecordingNoise

GRID = (0.5, 1.0, 2.0, 5.0)
EPS_GRID = (0.1, 0.5, 0.9)


def beta_params(alpha, beta, tape=None):
    tape = tape or Tape()
    return dist.BetaParams(tape.const(np.atleast_1d(alpha)),
                           tape.const(np.atleast_1d(beta)))


def dirichlet_params(a0, ahat, tape=None):
    """Concentration a0 * ahat, built on the tape as the models build it."""
    tape = tape or Tape()
    return dist.DirichletParams(ad.mul(tape.const(np.asarray(float(a0))),
                                       tape.const(np.atleast_1d(ahat))))


class TestSampling:
    def test_dirichlet_sample_on_simplex(self):
        rng = np.random.default_rng(0)
        p = dirichlet_params(2.0, [0.2, 0.5, 0.8])
        for _ in range(50):
            z = dist.sample(p, rng)[0].value
            assert abs(z.sum() - 1.0) <= 1e-10
            assert np.all(z >= 0.0)

    def test_beta_uniform_case_returns_noise(self):
        p = beta_params([1.0], [1.0])
        noise = RecordingNoise(FixedNoise(np.array([0.73])))
        var, _ = dist.sample(p, noise)
        assert var.value[0] == pytest.approx(0.73, abs=1e-12)
        [u] = noise.draws
        assert u.shape == (1,) and u[0] == 0.73

    def test_beta_samples_in_box(self):
        rng = np.random.default_rng(1)
        p = beta_params([0.5, 2.0, 5.0], [5.0, 2.0, 0.5])
        for _ in range(50):
            z = dist.sample(p, rng)[0].value
            assert np.all((z >= 0.0) & (z <= 1.0))

    def test_beta_empirical_mean(self):
        rng = np.random.default_rng(2)
        p = beta_params([[2.0]], [[6.0]])
        draws = dist.draw_many(p, [rng], 100_000)[0]
        true_mean, n = 0.25, draws.shape[0]
        true_var = (2.0 * 6.0) / ((8.0) ** 2 * 9.0)
        se = math.sqrt(true_var / n)
        assert abs(draws.mean() - true_mean) <= 3 * se

    def test_frozen_noise_reproduces(self):
        p1 = beta_params([2.0, 3.0], [1.5, 0.7])
        v1, _ = dist.sample(p1, np.random.default_rng(5))
        p2 = beta_params([2.0, 3.0], [1.5, 0.7])
        v2, _ = dist.sample(p2, np.random.default_rng(5))
        np.testing.assert_array_equal(v1.value, v2.value)


class TestLogPdf:
    def test_uniform_beta_is_zero(self):
        p = beta_params([1.0, 1.0], [1.0, 1.0])
        got = dist.log_pdf_many(p, np.array([[0.3, 0.9], [0.5, 0.1]]))
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_symmetric_dirichlet_k3(self):
        p = dirichlet_params(3.0, [1.0 / 3] * 3)  # concentration (1,1,1)
        z = np.array([[0.2, 0.3, 0.5]])
        assert dist.log_pdf_many(p, z)[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_beta_matches_quadrature_normalized_density(self):
        a, b, z = 2.0, 5.0, 0.3
        p = beta_params([a], [b])
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
        norm, _ = integrate.quad(dens, 0, 1, epsabs=1e-13)
        assert dist.log_pdf_many(p, np.array([[z]]))[0] == pytest.approx(
            math.log(dens(z) / norm), abs=1e-10)

    @pytest.mark.parametrize("a, b", [(1e4, 1e4), (3.0, 1e4), (0.5, 2e4)])
    def test_beta_at_large_shapes_matches_mpmath(self, a, b):
        # Adding lgamma(a+b) - lgamma(a) - lgamma(b) term by term was off
        # by 1.2e-11, 1.9e-11 and 2.2e-11 here.
        z = a / (a + b)
        with mpmath.workdps(30):
            a_, b_, z_ = (mpmath.mpf(v) for v in (a, b, z))
            want = float((a_ - 1) * mpmath.log(z_) + (b_ - 1) * mpmath.log1p(-z_)
                         - mpmath.log(mpmath.beta(a_, b_)))
        got = dist.log_pdf_many(beta_params([a], [b]), np.array([[z]]))[0]
        assert abs(got - want) <= 3e-12

    def test_log_pdf_many_matches_scipy(self):
        rng = np.random.default_rng(3)
        a, b = np.array([2.0, 0.8]), np.array([1.5, 3.0])
        p = beta_params(a, b)
        zs = dist.draw_many(beta_params([a], [b]), [rng], 10)[0]
        np.testing.assert_allclose(dist.log_pdf_many(p, zs),
                                   stats.beta.logpdf(zs, a, b).sum(axis=1),
                                   rtol=1e-12)
        d = dirichlet_params(2.5, [0.4, 0.8, 0.9])
        zs = dist.draw_many(dirichlet_params(2.5, [[0.4, 0.8, 0.9]]), [rng], 10)[0]
        want = [stats.dirichlet.logpdf(z, d.conc.value) for z in zs]
        np.testing.assert_allclose(dist.log_pdf_many(d, zs), want, rtol=1e-12)


class TestMean:
    def test_beta_mean(self):
        assert dist.mean(beta_params([2.0], [2.0]))[0] == pytest.approx(0.5)
        assert dist.mean(beta_params([2.0], [6.0]))[0] == pytest.approx(0.25)

    def test_dirichlet_mean_uniform(self):
        p = dirichlet_params(4.0, [0.25] * 4)
        np.testing.assert_allclose(dist.mean(p), [0.25] * 4, atol=1e-14)

    def test_dirichlet_mean_normalizes_concentration(self):
        p = dirichlet_params(3.0, [0.1, 0.3, 0.6])
        np.testing.assert_allclose(dist.mean(p), [0.1, 0.3, 0.6], atol=1e-14)


class TestKL:
    def test_kl_self_is_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = Tape()
            a, b = rng.uniform(0.5, 5.0, 2)
            q = beta_params([a], [b], t)
            assert dist.kl_divergence(q, q).item() == pytest.approx(0.0, abs=1e-9)
        t = Tape()
        d = dirichlet_params(2.5, [0.2, 0.7], t)
        assert dist.kl_divergence(d, d).item() == pytest.approx(0.0, abs=1e-12)

    def test_frozen_quadrature_value(self):
        # KL(Beta(1,1) || Beta(2,2)) by quadrature of q ln(q/p) = 0.20824053...
        t = Tape()
        q = beta_params([1.0], [1.0], t)
        p = beta_params([2.0], [2.0], t)
        assert dist.kl_divergence(q, p).item() == pytest.approx(
            0.20824053077194499919, abs=1e-12)

    @pytest.mark.parametrize("family", ["beta", "dirichlet"])
    def test_kl_matches_monte_carlo(self, family):
        rng = np.random.default_rng(5)
        n = 100_000
        for _ in range(20):
            tape = Tape()
            if family == "beta":
                q = beta_params(rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2),
                                tape)
                p = beta_params(rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2),
                                tape)
                zs = np.column_stack([
                    rng.beta(q.alpha.value[i], q.beta.value[i], size=n)
                    for i in range(2)])
                diffs = dist.log_pdf_many(q, np.clip(zs, 1e-12, 1 - 1e-12)) \
                    - dist.log_pdf_many(p, np.clip(zs, 1e-12, 1 - 1e-12))
            else:
                q = dirichlet_params(rng.uniform(1.0, 4.0), rng.uniform(0.3, 0.9, 3),
                                     tape)
                p = dirichlet_params(rng.uniform(1.0, 4.0), rng.uniform(0.3, 0.9, 3),
                                     tape)
                zs = rng.dirichlet(q.conc.value, size=n)
                zs = np.clip(zs, 1e-12, None)
                zs /= zs.sum(axis=1, keepdims=True)
                diffs = dist.log_pdf_many(q, zs) - dist.log_pdf_many(p, zs)
            closed = dist.kl_divergence(q, p).item()
            mc = diffs.mean()
            se = diffs.std(ddof=1) / math.sqrt(n)
            assert abs(closed - mc) <= 3 * se + 1e-12
            assert closed >= 0.0

    def test_family_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(TypeError, match="matching families"):
            dist.kl_divergence(beta_params([1.0], [1.0], t),
                               dirichlet_params(1.0, [1.0], t))

    def test_dimension_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="dimension"):
            dist.kl_divergence(beta_params([1.0], [1.0], t),
                               beta_params([1.0, 2.0], [1.0, 2.0], t))

    def test_kl_differentiable_on_tape(self):
        t = Tape()
        a = t.param(np.array([1.5, 2.5]), "a")
        q = dist.BetaParams(a, t.const(np.array([2.0, 2.0])))
        p = beta_params([2.0, 2.0], [2.0, 2.0], t)
        grads = backprop(dist.kl_divergence(q, p))

        def kl_at(av):
            tt = Tape()
            qq = dist.BetaParams(tt.const(av), tt.const(np.array([2.0, 2.0])))
            pp = beta_params([2.0, 2.0], [2.0, 2.0], tt)
            return dist.kl_divergence(qq, pp).item()

        for i in range(2):
            h = 1e-6
            up = np.array([1.5, 2.5]); up[i] += h
            dn = np.array([1.5, 2.5]); dn[i] -= h
            fd = (kl_at(up) - kl_at(dn)) / (2 * h)
            assert grads["a"][i] == pytest.approx(fd, rel=1e-6)


def _fd_beta_quantile(u, a, b, h=1e-5):
    da = (sp.inv_reg_inc_beta(u, a + h, b) - sp.inv_reg_inc_beta(u, a - h, b)) / (2 * h)
    db = (sp.inv_reg_inc_beta(u, a, b + h) - sp.inv_reg_inc_beta(u, a, b - h)) / (2 * h)
    return da, db


def _beta_sample_grads(a, b, u):
    """(dz/da, dz/db) of a frozen-noise Beta draw, by backprop."""
    t = Tape()
    av = t.param(np.array([a]), "a")
    bv = t.param(np.array([b]), "b")
    z_var, _ = dist.sample(dist.BetaParams(av, bv), FixedNoise(np.array([u])))
    grads = backprop(ad.reduce_sum(z_var))
    return grads["a"][0], grads["b"][0]


class TestImplicitGradients:
    def test_beta_grid_matches_fd(self):
        worst = 0.0
        for a in GRID:
            for b in GRID:
                for u in EPS_GRID:
                    ga, gb = _beta_sample_grads(a, b, u)
                    da, db = _fd_beta_quantile(u, a, b)
                    worst = max(worst,
                                abs(ga - da) / max(1e-8, abs(da)),
                                abs(gb - db) / max(1e-8, abs(db)))
        assert worst < 1e-3

    def test_gamma_shape_gradient_at_two(self):
        # z_0 = g_0 / (g_0 + g_1) of a 2-channel Dirichlet draw through the
        # Gamma quantiles g_j at frozen noise, by backprop and by central
        # differences in each concentration
        u, conc = np.array([0.5, 0.3]), np.array([2.0, 3.0])
        t = Tape()
        z, _ = dist.sample(dist.DirichletParams(t.param(conc, "c")), FixedNoise(u))
        got = backprop(ad.gather(z, 0))["c"]

        def z0(c):
            g = np.array([sp.inv_reg_inc_gamma(u[j], c[j]) for j in range(2)])
            return g[0] / g.sum()
        h = 1e-5
        for j in range(2):
            step = h * np.eye(2)[j]
            fd = (z0(conc + step) - z0(conc - step)) / (2 * h)
            assert got[j] == pytest.approx(fd, rel=1e-4)

    def test_beta_alpha_beta_gradients_have_opposite_signs(self):
        # raising alpha shifts mass right, raising beta shifts it left
        for a in (1.0, 2.0):
            for b in (1.0, 3.0):
                for u in EPS_GRID:
                    ga, gb = _beta_sample_grads(a, b, u)
                    assert ga > 0.0
                    assert gb < 0.0

    def test_dirichlet_chain_rule_composition(self):
        # backprop composes the Gamma partials with the product and
        # normalization nodes; compare every dz_j against differences of
        # the frozen-noise sampling map
        def z_of(a0, ahat, u):
            c = a0 * np.asarray(ahat)
            g = np.array([sp.inv_reg_inc_gamma(u[i], c[i]) for i in range(len(c))])
            return g / g.sum()

        rng = np.random.default_rng(6)
        for _ in range(10):
            a0 = rng.uniform(0.8, 5.0)
            ahat = rng.uniform(0.2, 0.9, 3)
            u = rng.uniform(0.1, 0.9, 3)
            h = 1e-5 * max(1.0, a0)
            fd0 = (z_of(a0 + h, ahat, u) - z_of(a0 - h, ahat, u)) / (2 * h)
            fd_hat = np.empty((3, 3))
            for i in range(3):
                hh = 1e-6
                up, dn = ahat.copy(), ahat.copy()
                up[i] += hh
                dn[i] -= hh
                fd_hat[:, i] = (z_of(a0, up, u) - z_of(a0, dn, u)) / (2 * hh)
            for j in range(3):
                t = Tape()
                conc = ad.mul(t.param(np.asarray(a0), "a0"), t.param(ahat, "ahat"))
                z_var, _ = dist.sample(dist.DirichletParams(conc), FixedNoise(u))
                grads = backprop(ad.gather(z_var, j))
                assert grads["a0"] == pytest.approx(fd0[j], rel=1e-3, abs=1e-8)
                np.testing.assert_allclose(grads["ahat"], fd_hat[j],
                                           rtol=1e-3, atol=1e-8)

    def test_cdf_param_derivative_two_ways(self):
        # analytic d/db of the Beta(1, b) CDF vs the finite-difference
        # path, read back from the pathwise dz/db = -(dF/db) / pdf(z)
        z, b = np.meshgrid([0.2, 0.5, 0.8], [0.5, 1.0, 3.0])
        a = np.ones_like(b)
        _, dz_db = dist._pathwise(sp.reg_inc_beta, dist._beta_log_density,
                                  z, np.ones_like(z), a, b)
        fd = -dz_db * np.exp(dist._beta_log_density(z, a, b))
        analytic = -((1 - z) ** b) * np.log1p(-z)
        assert np.all(np.abs(analytic - fd) < 1e-5)

    def test_gradient_flows_through_tape_sample(self):
        eps = np.array([0.4])
        t = Tape()
        a = t.param(np.array([1.8]), "a")
        b = t.param(np.array([2.2]), "b")
        z_var, _ = dist.sample(dist.BetaParams(a, b), FixedNoise(eps))
        grads = backprop(ad.reduce_sum(z_var))
        da, db = _fd_beta_quantile(0.4, 1.8, 2.2)
        assert grads["a"][0] == pytest.approx(da, rel=1e-3)
        assert grads["b"][0] == pytest.approx(db, rel=1e-3)


class TestDegenerateDraws:
    def test_beta_draw_rounded_to_one_is_degenerate(self):
        # u = 0.7 of Beta(5, 0.02) is 1 - 1e-16 or closer, so z = 1.0.
        t = Tape()
        params = dist.BetaParams(t.param(np.array([5.0]), "a"),
                                 t.param(np.array([0.02]), "b"))
        z_var, degenerate = dist.sample(params, FixedNoise([0.7]))
        assert z_var.value[0] == 1.0
        assert degenerate  # flagged at draw time ...
        with pytest.raises(dist.DegenerateSampleError,
                           match=r"z=1\.0, alpha=5\.0, beta=0\.02"):
            backprop(ad.reduce_sum(z_var))  # ... and never differentiated

    def test_beta_quantile_near_the_smallest_double_is_flagged(self):
        # u = 0.5173416925822343 of Beta(5, 0.001) mirrors a quantile of
        # 5.4e-318, so z = 1.0: the row is flagged instead of ending the
        # draw with a ConvergenceError.
        t = Tape()
        params = dist.BetaParams(t.param(np.array([[5.0], [2.0]]), "a"),
                                 t.param(np.array([[0.001], [3.0]]), "b"))
        z_var, degenerate = dist.sample(params, FixedNoise([[0.5173416925822343], [0.5]]))
        assert z_var.value[0, 0] == 1.0
        np.testing.assert_array_equal(degenerate, [True, False])

    def test_degenerate_rows_are_flagged_and_left_out(self):
        # Rows [B,k]: row 1 draws z = 1.0 from Beta(5, 0.02). Its flag is
        # set at draw time; a loss that leaves it out backpropagates, and
        # the kept rows get the gradients of their own draws.
        t = Tape()
        a = t.param(np.array([[1.8, 2.0], [5.0, 5.0], [0.9, 3.0]]), "a")
        b = t.param(np.array([[2.2, 1.0], [0.02, 0.02], [1.5, 0.7]]), "b")
        eps = np.array([[0.4, 0.6], [0.7, 0.7], [0.3, 0.5]])
        z_var, degenerate = dist.sample(dist.BetaParams(a, b), FixedNoise(eps))
        np.testing.assert_array_equal(degenerate, [False, True, False])
        keep = t.const((~degenerate).astype(float)[:, None])
        grads = backprop(ad.reduce_sum(ad.mul(z_var, keep)))
        np.testing.assert_array_equal(grads["a"][1], [0.0, 0.0])
        for row in (0, 2):
            for j in range(2):
                ga, gb = _beta_sample_grads(a.value[row, j], b.value[row, j], eps[row, j])
                assert grads["a"][row, j] == ga and grads["b"][row, j] == gb

    def test_dirichlet_at_a_subnormal_gamma_draw(self):
        # Concentration 0.0031 at u = 0.102 draws the Gamma 8.79e-321.
        t = Tape()
        conc = ad.mul(t.param(np.asarray(1.0), "a0"),
                      t.param(np.array([0.0031, 0.5]), "ahat"))
        z_var, degenerate = dist.sample(dist.DirichletParams(conc), FixedNoise([0.102, 0.5]))
        assert 0.0 < z_var.value[0] < 1e-300 and not degenerate
        grads = backprop(ad.gather(z_var, 1))
        assert np.isfinite(grads["a0"]) and np.all(np.isfinite(grads["ahat"]))

    def test_beta_draws_rounded_to_one_have_no_log_density(self):
        # 12 of these 20 rows are exactly 1.0, where the log-density of q
        # would be +inf and that of a Beta(2, 3) prior -inf.
        q = beta_params([5.0], [0.02])
        z = dist.draw_many(beta_params([[5.0]], [[0.02]]), [np.random.default_rng(0)], 20)[0]
        assert np.count_nonzero(z == 1.0) == 12
        for params, a, b in ((q, 5.0, 0.02), (beta_params([2.0], [3.0]), 2.0, 3.0)):
            with pytest.raises(dist.DegenerateSampleError,
                               match=rf"z=1\.0, alpha={a}, beta={b}"):
                dist.log_pdf_many(params, z)

    def test_dirichlet_entries_rounded_to_zero_have_no_log_density(self):
        # The Gamma quantile 5e-324 over a row sum near 11.6 rounds to 0
        # in 3 of these 20 rows.
        p = dist.DirichletParams(Tape().const(np.array([0.001, 5.0])))
        z = dist.draw_many(dist.DirichletParams(Tape().const(np.array([[0.001, 5.0]]))),
                           [np.random.default_rng(0)], 20)[0]
        assert np.count_nonzero(z == 0.0) == 3
        with pytest.raises(dist.DegenerateSampleError,
                           match=r"z=0\.0, concentration=0\.001"):
            dist.log_pdf_many(p, z)
