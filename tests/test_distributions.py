"""Latent-gate distributions: sampling invariants, densities against
quadrature and mpmath, closed-form KL against Monte Carlo, the Beta gate
as part 0 of a two-part Dirichlet against the Beta formulas it replaced,
and pathwise gradients against finite differences of the (frozen-noise)
sampling map."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special as ss, stats

from domaingate import autodiff as ad
from domaingate import distributions as dist
from domaingate import special as sp
from domaingate.autodiff import Tape, backprop

from conftest import FixedNoise, RecordingNoise

GRID = (0.5, 1.0, 2.0, 5.0)
EPS_GRID = (0.1, 0.5, 0.9)
# Shapes of the Beta-formula oracles, 1e-3 to 1e5.
SHAPE_GRID = (1e-3, 0.02, 0.5, 1.0, 3.0, 40.0, 1e3, 1e5)
# A concentration whose Gamma draw at the top noise u = 1 - 1e-16 is 1.0,
# where its density (about 2e-300) falls below the floor.
EDGE_CONC = 2.171738281389827e-300


def beta_pairs(alpha, beta, tape=None):
    """Beta(alpha, beta) gates as the Dirichlet pairs [..., k, 2] of a
    csda-beta head."""
    tape = tape or Tape()
    return dist.DirichletParams(tape.const(np.stack(np.broadcast_arrays(
        np.atleast_1d(alpha), np.atleast_1d(beta)), axis=-1).astype(float)))


def dirichlet_params(a0, ahat, tape=None):
    """Concentration a0 * ahat, built on the tape as the models build it."""
    tape = tape or Tape()
    return dist.DirichletParams(ad.mul(tape.const(np.asarray(float(a0))),
                                       tape.const(np.atleast_1d(ahat))))


def pairs(z):
    """Gates z as the pairs (z, 1 - z)."""
    z = np.asarray(z, dtype=float)
    return np.stack([z, 1.0 - z], axis=-1)


# -- the Beta formulas that the pair path replaced, as oracles ---------------

def beta_kl_oracle(a1, b1, a2, b2):
    s1, s2 = a1 + b1, a2 + b2
    return (sp.lgamma(a2) + sp.lgamma(b2) - sp.lgamma(s2)) \
        - (sp.lgamma(a1) + sp.lgamma(b1) - sp.lgamma(s1)) \
        + (a1 - a2) * sp.digamma(a1) + (b1 - b2) * sp.digamma(b1) \
        + ((a2 - a1) + (b2 - b1)) * sp.digamma(s1)


def beta_log_density_oracle(z, a, b):
    return (a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z) + sp.ln_inv_beta(a, b)


def beta_mean_oracle(a, b):
    return a / (a + b)


def shape_grid():
    a, b = np.meshgrid(SHAPE_GRID, SHAPE_GRID)
    return a.ravel(), b.ravel()


def gate_from_noise(u, a, b):
    """The Beta gate G_a / (G_a + G_b) of the Gamma quantiles at u = (u_a, u_b)."""
    g_a, g_b = sp.inv_reg_inc_gamma(u[0], a), sp.inv_reg_inc_gamma(u[1], b)
    return g_a / (g_a + g_b)


def _fd_beta_gate(u, a, b, h=1e-5):
    da = (gate_from_noise(u, a + h, b) - gate_from_noise(u, a - h, b)) / (2 * h)
    db = (gate_from_noise(u, a, b + h) - gate_from_noise(u, a, b - h)) / (2 * h)
    return da, db


def _beta_sample_grads(a, b, u):
    """(dz/da, dz/db) of a frozen-noise Beta gate, by backprop through
    its pair draw."""
    t = Tape()
    c = t.param(np.array([a, b]), "c")
    z_var, _ = dist.sample(dist.DirichletParams(c), FixedNoise(u))
    return tuple(backprop(ad.gather(z_var, 0))["c"])


class TestSampling:
    def test_dirichlet_sample_on_simplex(self):
        rng = np.random.default_rng(0)
        p = dirichlet_params(2.0, [0.2, 0.5, 0.8])
        for _ in range(50):
            z = dist.sample(p, rng)[0].value
            assert abs(z.sum() - 1.0) <= 1e-10
            assert np.all(z >= 0.0)

    def test_beta_gate_is_part_0_of_a_gamma_pair(self):
        # Beta(2, 3) at noise (u_a, u_b): one uniform per pair entry, and
        # the pair normalizes the two Gamma quantiles.
        noise = RecordingNoise(FixedNoise(np.array([[0.73, 0.2]])))
        var, _ = dist.sample(beta_pairs([2.0], [3.0]), noise)
        [u] = noise.draws
        assert u.shape == (1, 2)
        g = sp.inv_reg_inc_gamma(u[0], np.array([2.0, 3.0]))
        np.testing.assert_array_equal(var.value[0], g / g.sum())

    def test_beta_samples_in_box(self):
        rng = np.random.default_rng(1)
        p = beta_pairs([0.5, 2.0, 5.0], [5.0, 2.0, 0.5])
        for _ in range(50):
            z = dist.sample(p, rng)[0].value
            assert np.all((z >= 0.0) & (z <= 1.0))
            np.testing.assert_allclose(z.sum(axis=-1), 1.0, rtol=1e-15)

    def test_beta_empirical_mean(self):
        rng = np.random.default_rng(2)
        p = beta_pairs([[2.0]], [[6.0]])
        draws = dist.draw_many(p, [rng], 100_000)[0, :, 0, 0]
        true_mean, n = 0.25, draws.shape[0]
        true_var = (2.0 * 6.0) / ((8.0) ** 2 * 9.0)
        se = math.sqrt(true_var / n)
        assert abs(draws.mean() - true_mean) <= 3 * se

    def test_frozen_noise_reproduces(self):
        p1 = beta_pairs([2.0, 3.0], [1.5, 0.7])
        v1, _ = dist.sample(p1, np.random.default_rng(5))
        p2 = beta_pairs([2.0, 3.0], [1.5, 0.7])
        v2, _ = dist.sample(p2, np.random.default_rng(5))
        np.testing.assert_array_equal(v1.value, v2.value)

    def test_draws_go_at_the_requested_axis(self):
        # Candidate-label rows [B,C,k,2] draw at axis 2: [B,C,m,k,2], in the
        # order of each generator's axes.
        conc = np.random.default_rng(3).uniform(0.5, 3.0, (2, 3, 4, 2))
        p = dist.DirichletParams(Tape().const(conc))
        z = dist.draw_many(p, [np.random.default_rng(i) for i in range(2)], 5, axis=2)
        assert z.shape == (2, 3, 5, 4, 2)
        u = np.clip(np.random.default_rng(1).random((3, 5, 4, 2)), 1e-15, 1.0 - 1e-16)
        g = sp.inv_reg_inc_gamma(u, conc[1][:, None])
        np.testing.assert_array_equal(z[1], g / g.sum(axis=-1, keepdims=True))
        with pytest.raises(ValueError, match="axis"):
            dist.draw_many(p, [np.random.default_rng(i) for i in range(2)], 5, axis=4)

    def test_fixed_noise_names_the_shape_it_was_asked_for(self):
        with pytest.raises(ValueError, match=r"3 uniforms.*shape \(2, 2\)"):
            dist.sample(beta_pairs([2.0, 3.0], [1.5, 0.7]), FixedNoise([0.1, 0.2, 0.3]))


class TestLogPdf:
    def test_uniform_beta_is_zero(self):
        p = beta_pairs([1.0, 1.0], [1.0, 1.0])
        got = dist.log_pdf_many(p, pairs([[0.3, 0.9], [0.5, 0.1]]), axis=0)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_symmetric_dirichlet_k3(self):
        p = dirichlet_params(3.0, [1.0 / 3] * 3)  # concentration (1,1,1)
        z = np.array([[0.2, 0.3, 0.5]])
        assert dist.log_pdf_many(p, z, axis=0)[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_beta_matches_quadrature_normalized_density(self):
        a, b, z = 2.0, 5.0, 0.3
        p = beta_pairs([a], [b])
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
        norm, _ = integrate.quad(dens, 0, 1, epsabs=1e-13)
        assert dist.log_pdf_many(p, pairs([[z]]), axis=0)[0] == pytest.approx(
            math.log(dens(z) / norm), abs=1e-10)

    @pytest.mark.parametrize("a, b", [(1e4, 1e4), (3.0, 1e4), (0.5, 2e4)])
    def test_beta_at_large_shapes_matches_mpmath(self, a, b):
        # Adding lgamma(a+b) - lgamma(a) - lgamma(b) term by term was off
        # by 1.2e-11, 1.9e-11 and 2.2e-11 here.
        z = np.array([a, b]) / (a + b)
        with mpmath.workdps(30):
            a_, b_, z0, z1 = (mpmath.mpf(float(v)) for v in (a, b, *z))
            want = float((a_ - 1) * mpmath.log(z0) + (b_ - 1) * mpmath.log(z1)
                         - mpmath.log(mpmath.beta(a_, b_)))
        got = dist.log_pdf_many(beta_pairs([a], [b]), z[None, None], axis=0)[0]
        assert abs(got - want) <= 3e-12

    @pytest.mark.parametrize("conc", [(1e5, 2.0, 0.5), (1e4, 1e4, 1e4), (3.0, 1e4, 0.5),
                                      (0.5, 2e4, 1e-3)])
    def test_dirichlet_at_large_concentrations_matches_mpmath(self, conc):
        # The normalizer is chained pair by pair; as the difference
        # lgamma(sum c) - sum lgamma(c_j) it was off by 6.6e-10, 4.1e-11,
        # 2.3e-11 and 3.0e-11 here.
        c = np.array(conc)
        z = c / c.sum()
        with mpmath.workdps(40):
            c_, z_ = [mpmath.mpf(float(v)) for v in c], [mpmath.mpf(float(v)) for v in z]
            want = float(mpmath.loggamma(sum(c_)) - sum(mpmath.loggamma(v) for v in c_)
                         + sum((cj - 1) * mpmath.log(zj) for cj, zj in zip(c_, z_)))
        got = dist.log_pdf_many(dist.DirichletParams(Tape().const(c)), z[None], axis=0)[0]
        assert abs(got - want) <= 2e-11

    def test_log_pdf_many_matches_scipy(self):
        rng = np.random.default_rng(3)
        a, b = np.array([2.0, 0.8]), np.array([1.5, 3.0])
        zs = dist.draw_many(beta_pairs([a], [b]), [rng], 10)[0]
        np.testing.assert_allclose(dist.log_pdf_many(beta_pairs(a, b), zs, axis=0),
                                   stats.beta.logpdf(zs[..., 0], a, b).sum(axis=1),
                                   rtol=1e-12)
        d = dirichlet_params(2.5, [0.4, 0.8, 0.9])
        zs = dist.draw_many(dirichlet_params(2.5, [[0.4, 0.8, 0.9]]), [rng], 10)[0]
        want = [stats.dirichlet.logpdf(z, d.conc.value) for z in zs]
        np.testing.assert_allclose(dist.log_pdf_many(d, zs, axis=0), want, rtol=1e-12)

    def test_beta_pairs_give_the_beta_density(self):
        # At z of 1/8, 1/2 and 7/8, where 1 - z is exact.
        a, b = shape_grid()
        for z in (0.125, 0.5, 0.875):
            got = dist.log_pdf_many(beta_pairs(a, b), pairs(np.full((1, a.size), z)), axis=0)
            want = beta_log_density_oracle(z, a, b)
            np.testing.assert_allclose(got[0], want.sum(), rtol=1e-12)
            each = [dist.log_pdf_many(beta_pairs(ai, bi), pairs([[z]]), axis=0)[0]
                    for ai, bi in zip(a, b)]
            np.testing.assert_allclose(each, want, rtol=1e-12)


class TestMean:
    def test_beta_mean(self):
        assert dist.mean(beta_pairs([2.0], [2.0]))[0, 0] == pytest.approx(0.5)
        assert dist.mean(beta_pairs([2.0], [6.0]))[0, 0] == pytest.approx(0.25)

    def test_beta_pair_mean_is_the_beta_mean_bitwise(self):
        a, b = shape_grid()
        np.testing.assert_array_equal(dist.mean(beta_pairs(a, b))[:, 0],
                                      beta_mean_oracle(a, b))

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
            q = beta_pairs([a], [b], t)
            assert dist.kl_divergence(q, q).value[0] == pytest.approx(0.0, abs=1e-9)
        t = Tape()
        d = dirichlet_params(2.5, [0.2, 0.7], t)
        assert dist.kl_divergence(d, d).item() == pytest.approx(0.0, abs=1e-12)

    def test_frozen_quadrature_value(self):
        # KL(Beta(1,1) || Beta(2,2)) by quadrature of q ln(q/p) = 0.20824053...
        t = Tape()
        q = beta_pairs([1.0], [1.0], t)
        p = beta_pairs([2.0], [2.0], t)
        assert dist.kl_divergence(q, p).value[0] == pytest.approx(
            0.20824053077194499919, abs=1e-12)

    @pytest.mark.parametrize("family", ["beta", "dirichlet"])
    def test_kl_matches_monte_carlo(self, family):
        rng = np.random.default_rng(5)
        n = 100_000
        for _ in range(20):
            tape = Tape()
            if family == "beta":
                qa, qb = rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2)
                q = beta_pairs(qa, qb, tape)
                p = beta_pairs(rng.uniform(0.5, 5.0, 2), rng.uniform(0.5, 5.0, 2), tape)
                zs = pairs(np.clip(np.column_stack(
                    [rng.beta(qa[i], qb[i], size=n) for i in range(2)]), 1e-12, 1 - 1e-12))
                diffs = dist.log_pdf_many(q, zs, axis=0) - dist.log_pdf_many(p, zs, axis=0)
                closed = ad.reduce_sum(dist.kl_divergence(q, p)).item()
            else:
                q = dirichlet_params(rng.uniform(1.0, 4.0), rng.uniform(0.3, 0.9, 3),
                                     tape)
                p = dirichlet_params(rng.uniform(1.0, 4.0), rng.uniform(0.3, 0.9, 3),
                                     tape)
                zs = rng.dirichlet(q.conc.value, size=n)
                zs = np.clip(zs, 1e-12, None)
                zs /= zs.sum(axis=1, keepdims=True)
                diffs = dist.log_pdf_many(q, zs, axis=0) - dist.log_pdf_many(p, zs, axis=0)
                closed = dist.kl_divergence(q, p).item()
            mc = diffs.mean()
            se = diffs.std(ddof=1) / math.sqrt(n)
            assert abs(closed - mc) <= 3 * se + 1e-12
            assert closed >= 0.0

    def test_beta_pairs_give_the_beta_kl(self):
        a, b = shape_grid()
        t = Tape()
        for a2, b2 in ((a[::-1], b), (np.full(a.size, 2.0), np.full(a.size, 0.5))):
            got = dist.kl_divergence(beta_pairs(a, b, t), beta_pairs(a2, b2, t)).value
            want = beta_kl_oracle(a, b, a2, b2)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_family_mismatch_rejected(self):
        # Beta pairs [k,2] against a Dirichlet over the same k channels.
        t = Tape()
        with pytest.raises(ValueError, match="dimension"):
            dist.kl_divergence(beta_pairs([1.0, 1.0], [1.0, 1.0], t),
                               dirichlet_params(1.0, [1.0, 1.0], t))

    def test_dimension_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="dimension"):
            dist.kl_divergence(beta_pairs([1.0], [1.0], t),
                               beta_pairs([1.0, 2.0], [1.0, 2.0], t))

    def test_kl_differentiable_on_tape(self):
        t = Tape()
        a = t.param(np.array([1.5, 2.5]), "a")
        b = t.const(np.array([2.0, 2.0]))
        q = dist.DirichletParams(ad.concat([ad.reshape(v, (2, 1)) for v in (a, b)]))
        p = beta_pairs([2.0, 2.0], [2.0, 2.0], t)
        grads = backprop(ad.reduce_sum(dist.kl_divergence(q, p)))

        def kl_at(av):
            return beta_kl_oracle(av, 2.0, 2.0, 2.0).sum()

        for i in range(2):
            h = 1e-6
            up = np.array([1.5, 2.5]); up[i] += h
            dn = np.array([1.5, 2.5]); dn[i] -= h
            fd = (kl_at(up) - kl_at(dn)) / (2 * h)
            assert grads["a"][i] == pytest.approx(fd, rel=1e-6)


class TestImplicitGradients:
    def test_beta_grid_matches_fd(self):
        worst = 0.0
        for a in GRID:
            for b in GRID:
                for u in itertools.product(EPS_GRID, repeat=2):
                    ga, gb = _beta_sample_grads(a, b, u)
                    da, db = _fd_beta_gate(u, a, b)
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
                for u in itertools.product(EPS_GRID, repeat=2):
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
        # analytic d/da of the Gamma(1) CDF, -e^-x (ln x + euler_gamma) -
        # E1(x), vs the finite-difference path, read back from the pathwise
        # dx/da = -(dP/da) / pdf(x)
        x = np.array([[0.2, 0.5, 0.8], [1.5, 3.0, 7.0]])
        c = np.ones_like(x)
        dx_da = dist._pathwise(x, np.ones_like(x), c)
        fd = -dx_da * np.exp(dist._gamma_log_density(x, c))
        analytic = -np.exp(-x) * (np.log(x) + np.euler_gamma) - ss.exp1(x)
        assert np.all(np.abs(analytic - fd) < 1e-5)

    def test_gradient_flows_through_tape_sample(self):
        u = (0.4, 0.6)
        da, db = _fd_beta_gate(u, 1.8, 2.2)
        ga, gb = _beta_sample_grads(1.8, 2.2, u)
        assert ga == pytest.approx(da, rel=1e-3)
        assert gb == pytest.approx(db, rel=1e-3)


class TestDegenerateDraws:
    def test_beta_pair_with_an_underflowing_density_is_degenerate(self):
        # The Gamma draw of EDGE_CONC at the top noise is 1.0, at a density
        # below the floor, so its pair has no pathwise gradient.
        t = Tape()
        c = t.param(np.array([EDGE_CONC, 2.0]), "c")
        z_var, degenerate = dist.sample(dist.DirichletParams(c), FixedNoise([1.0, 0.5]))
        g = sp.inv_reg_inc_gamma(np.array([dist._U_HI, 0.5]), c.value)
        assert g[0] == 1.0
        np.testing.assert_array_equal(z_var.value, g / g.sum())
        assert degenerate  # flagged at draw time ...
        with pytest.raises(dist.DegenerateSampleError,
                           match=rf"z=1\.0, concentration={EDGE_CONC}"):
            backprop(ad.gather(z_var, 0))  # ... and never differentiated

    def test_degenerate_rows_are_flagged_and_left_out(self):
        # Rows [B,k,2] of Beta pairs: pair 1 of row 1 draws the Gamma of
        # EDGE_CONC at the top noise. Its flag is set at draw time, for its
        # pair; a loss that leaves row 1 out backpropagates, and the kept
        # rows get the gradients of their own draws.
        t = Tape()
        a = np.array([[1.8, 2.0], [5.0, EDGE_CONC], [0.9, 3.0]])
        b = np.array([[2.2, 1.0], [0.02, 2.0], [1.5, 0.7]])
        c = t.param(np.stack([a, b], axis=-1), "c")
        u = np.array([[[0.4, 0.6], [0.6, 0.2]], [[0.7, 0.7], [1.0, 0.5]],
                      [[0.3, 0.5], [0.5, 0.5]]])
        z_var, degenerate = dist.sample(dist.DirichletParams(c), FixedNoise(u))
        np.testing.assert_array_equal(degenerate, [[False, False], [False, True],
                                                   [False, False]])
        keep = t.const(np.array([1.0, 0.0, 1.0])[:, None])
        grads = backprop(ad.reduce_sum(ad.mul(ad.gather(z_var, 0), keep)))["c"]
        np.testing.assert_array_equal(grads[1], 0.0)
        for row in (0, 2):
            for j in range(2):
                want = _beta_sample_grads(a[row, j], b[row, j], u[row, j])
                np.testing.assert_array_equal(grads[row, j], want)

    def test_beta_pair_with_a_subnormal_quantile_is_kept(self):
        # Rows of Beta(5, 0.001) and Beta(2, 3) pairs: u = 0.4818 of
        # concentration 0.001 draws the Gamma 4.1e-318, so the gate of row 0
        # is 1.0. Its second part stays above 0 with a density far above
        # the floor: no row is flagged, and both rows differentiate.
        t = Tape()
        c = t.param(np.array([[5.0, 0.001], [2.0, 3.0]]), "c")
        u = np.array([[0.5, 0.4818], [0.5, 0.5]])
        z_var, degenerate = dist.sample(dist.DirichletParams(c), FixedNoise(u))
        g = sp.inv_reg_inc_gamma(u, c.value)
        assert 0.0 < g[0, 1] < 1e-317
        np.testing.assert_array_equal(z_var.value, g / g.sum(axis=-1, keepdims=True))
        assert z_var.value[0, 0] == 1.0 and z_var.value[0, 1] > 0.0
        np.testing.assert_array_equal(degenerate, [False, False])
        grads = backprop(ad.reduce_sum(ad.gather(z_var, 0)))["c"]
        assert np.all(np.isfinite(grads))

    def test_dirichlet_at_a_subnormal_gamma_draw(self):
        # Concentration 0.0031 at u = 0.102 draws the Gamma 8.79e-321.
        t = Tape()
        conc = ad.mul(t.param(np.asarray(1.0), "a0"),
                      t.param(np.array([0.0031, 0.5]), "ahat"))
        z_var, degenerate = dist.sample(dist.DirichletParams(conc), FixedNoise([0.102, 0.5]))
        assert 0.0 < z_var.value[0] < 1e-300 and not degenerate
        grads = backprop(ad.gather(z_var, 1))
        assert np.isfinite(grads["a0"]) and np.all(np.isfinite(grads["ahat"]))

    def test_beta_gates_rounded_to_one_keep_their_pair_density(self):
        # 11 of these 20 Beta(5, 0.02) gates are exactly 1.0, but each pair
        # keeps its second part above 0, so q and a Beta(2, 3) prior both
        # give finite log-densities, and no draw is degenerate.
        p = beta_pairs([[5.0]], [[0.02]])
        z = dist.draw_many(p, [np.random.default_rng(0)], 20)[0]
        assert np.count_nonzero(z[..., 0] == 1.0) == 11 and np.all(z[..., 1] > 0.0)
        for params in (beta_pairs([5.0], [0.02]), beta_pairs([2.0], [3.0])):
            assert np.all(np.isfinite(dist.log_pdf_many(params, z, axis=0)))
        t = Tape()
        z_var, degenerate = dist.sample(
            dist.DirichletParams(t.param(np.array([[5.0, 0.02]] * 20), "c")),
            np.random.default_rng(0))
        assert not degenerate.any()
        assert np.all(np.isfinite(backprop(ad.reduce_sum(ad.gather(z_var, 0)))["c"]))

    def test_dirichlet_entries_rounded_to_zero_have_no_log_density(self):
        # The Gamma quantile 5e-324 over a row sum near 11.6 rounds to 0
        # in 3 of these 20 rows.
        p = dist.DirichletParams(Tape().const(np.array([0.001, 5.0])))
        z = dist.draw_many(dist.DirichletParams(Tape().const(np.array([[0.001, 5.0]]))),
                           [np.random.default_rng(0)], 20)[0]
        assert np.count_nonzero(z == 0.0) == 3
        with pytest.raises(dist.DegenerateSampleError,
                           match=r"z=0\.0, concentration=0\.001"):
            dist.log_pdf_many(p, z, axis=0)
