"""Model-level contracts: gating arithmetic, classifier head, discrete
marginalization, the continuous gate parameterizations, and the
single-sample variational objective."""

import math

import numpy as np
import pytest

from domaingate import autodiff as ad
from domaingate.autodiff import RowGrad, Tape, backprop
from domaingate.encoder import EncoderConfig
from domaingate.models import Model, ModelConfig, classify_batch, gate_channels

ENC = EncoderConfig(embed_dim=8, n_filters=4, windows=(2, 3))


def toy_model(kind, k=2, seed=0, n_labels=2, n_domains=2, dropout=0.0):
    cfg = ModelConfig(kind=kind, n_labels=n_labels, n_domains=n_domains,
                      vocab_size=20, k=k, encoder=ENC, mlp_hidden=6,
                      dropout=dropout)
    return Model.init(cfg, np.random.default_rng(seed))


IDS = (3, 7, 1, 12, 5, 9)


class TestGating:
    def test_indicator_gate_selects_channel_bitwise(self):
        t = Tape()
        h_mat = t.const(np.random.default_rng(0).normal(size=(4, 5)))
        out = gate_channels(h_mat, t.const(np.eye(4)[2]))
        np.testing.assert_array_equal(out.value, h_mat.value[2])
        rows = gate_channels(h_mat, t.const(np.eye(4)))
        np.testing.assert_array_equal(rows.value, h_mat.value)

    def test_half_half_averages(self):
        t = Tape()
        h_mat = t.const(np.array([[2.0, 4.0], [0.0, 2.0]]))
        out = gate_channels(h_mat, t.const(np.array([0.5, 0.5])))
        np.testing.assert_allclose(out.value, [1.0, 3.0], atol=1e-15)

    def test_zero_gate_gives_zero_vector(self):
        t = Tape()
        out = gate_channels(t.const(np.ones((2, 3))), t.const(np.zeros(2)))
        np.testing.assert_array_equal(out.value, np.zeros(3))

    def test_gate_rows_match_vector_gates(self):
        t = Tape()
        rng = np.random.default_rng(1)
        h_mat = t.const(rng.normal(size=(3, 5)))
        z_rows = rng.dirichlet(np.ones(3), size=4)
        out = gate_channels(h_mat, t.const(z_rows))
        assert out.shape == (4, 5)
        for i in range(4):
            np.testing.assert_allclose(
                out.value[i], gate_channels(h_mat, t.const(z_rows[i])).value,
                rtol=0, atol=1e-12)

    def test_length_mismatch_rejected(self):
        t = Tape()
        h_mat = t.const(np.ones((1, 3)))
        with pytest.raises(ad.ShapeError):
            gate_channels(h_mat, t.const(np.ones(2)))
        with pytest.raises(ad.ShapeError):
            gate_channels(h_mat, t.const(np.ones((4, 2))))


class TestClassify:
    def test_zero_weights_uniform(self):
        model = toy_model("scnn", k=1, n_labels=3)
        for name in ("theta.head.l1.w", "theta.head.l1.b",
                     "theta.head.l2.w", "theta.head.l2.b"):
            model.params[name][:] = 0.0
        t = Tape()
        binder = model.binder(t)
        logp = classify_batch(binder, model.config, t.const(np.ones(ENC.out_dim)))
        np.testing.assert_allclose(np.exp(logp.value), np.ones(3) / 3, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        model = toy_model("scnn", k=1, n_labels=4)
        t = Tape()
        binder = model.binder(t)
        h = t.const(np.random.default_rng(1).normal(size=ENC.out_dim))
        logp = classify_batch(binder, model.config, h)
        assert abs(np.exp(logp.value).sum() - 1.0) <= 1e-12

    def test_head_gradient_matches_fd(self):
        model = toy_model("scnn", k=1, n_labels=3)
        h0 = np.random.default_rng(2).normal(size=ENC.out_dim)

        def loss_value():
            t = Tape()
            logp = classify_batch(model.binder(t), model.config, t.const(h0))
            return -float(logp.value[1])

        t = Tape()
        logp = classify_batch(model.binder(t), model.config, t.const(h0))
        grads = backprop(ad.neg(ad.gather(logp, 1)))
        w = model.params["theta.head.l2.w"]
        rng = np.random.default_rng(3)
        for idx in rng.choice(w.size, size=8, replace=False):
            r, c = np.unravel_index(idx, w.shape)
            old = w[r, c]
            w[r, c] = old + 1e-6
            up = loss_value()
            w[r, c] = old - 1e-6
            down = loss_value()
            w[r, c] = old
            fd = (up - down) / 2e-6
            assert grads["theta.head.l2.w"][r, c] == pytest.approx(
                fd, rel=1e-4, abs=1e-9)

    def test_batch_head_matches_tape_head(self):
        # Rows of one call equal per-row vector calls; a one-row call
        # equals the vector call bitwise.
        model = toy_model("scnn", k=1, n_labels=3)
        rows = np.random.default_rng(4).normal(size=(5, ENC.out_dim))
        t = Tape()
        binder = model.binder(t)
        batch = classify_batch(binder, model.config, t.const(rows))
        assert batch.shape == (5, 3)
        for i in range(5):
            logp = classify_batch(binder, model.config, t.const(rows[i]))
            np.testing.assert_allclose(batch.value[i], logp.value, rtol=0, atol=1e-12)
            one = classify_batch(binder, model.config, t.const(rows[i:i + 1]))
            np.testing.assert_array_equal(one.value[0], logp.value)

    def test_row_head_gradient_sums_row_gradients(self):
        model = toy_model("scnn", k=1, n_labels=3)
        rows = np.random.default_rng(5).normal(size=(4, ENC.out_dim))
        t = Tape()
        logp = classify_batch(model.binder(t), model.config, t.const(rows))
        batch_grads = backprop(ad.neg(ad.reduce_sum(ad.gather(logp, 1))))
        summed = None
        for row in rows:
            t = Tape()
            logp = classify_batch(model.binder(t), model.config, t.const(row))
            g = backprop(ad.neg(ad.gather(logp, 1)))
            summed = g if summed is None else {n: summed[n] + g[n] for n in g}
        for name in summed:
            np.testing.assert_allclose(batch_grads[name], summed[name],
                                       rtol=1e-12, atol=1e-14)


class TestDiscreteLoss:
    def test_matches_direct_mixture_arithmetic(self):
        # prior (0.3, 0.7), per-channel likelihoods (0.8, 0.5):
        # marginal = 0.3*0.8 + 0.7*0.5 = 0.59
        t = Tape()
        log_prior = t.const(np.log([0.3, 0.7]))
        log_lik = t.const(np.log([0.8, 0.5]))
        marginal = ad.logsumexp(ad.add(log_prior, log_lik))
        assert marginal.item() == pytest.approx(math.log(0.59), abs=1e-12)

    def test_k1_reduces_to_single_channel_nll(self):
        model = toy_model("dsda", k=1, n_domains=1)
        res = model.loss(IDS, 1)
        single = toy_model("scnn", k=1)
        # same channel parameters -> same conditional likelihood
        for name, val in model.params.items():
            if name.startswith("theta."):
                single.params[name] = val.copy()
        res_single = single.loss(IDS, 1)
        assert res.loss.item() == pytest.approx(res_single.loss.item(), abs=1e-12)

    def test_logsumexp_matches_probability_space_enumeration(self):
        for k in (1, 2, 4, 9):
            model = toy_model("dsda", k=k, n_domains=k, seed=k)
            res = model.loss(IDS, 0)
            t = Tape()
            binder = model.binder(t)
            prior = model.prior_gate(binder, IDS)
            logits = prior.params.logits.value
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            h_mat = model.channel_encodings(binder, IDS, None)
            total = 0.0
            for i in range(k):
                logp = classify_batch(binder, model.config, ad.take_row(h_mat, i))
                total += weights[i] * math.exp(logp.value[0])
            assert res.loss.item() == pytest.approx(-math.log(total), abs=1e-10)

    def test_domain_supervision_adds_prior_term(self):
        model = toy_model("dsda", k=2, n_domains=2)
        plain = model.loss(IDS, 1, None)
        with_d = model.loss(IDS, 1, 0, w_dom=1.0)
        t = Tape()
        prior = model.prior_gate(model.binder(t), IDS)
        log_prior = ad.log_softmax(prior.params.logits).value
        assert with_d.loss.item() == pytest.approx(
            plain.loss.item() - log_prior[0], abs=1e-12)

    def test_observed_domain_beyond_k_rejected(self):
        model = toy_model("dsda", k=2, n_domains=4)
        with pytest.raises(ValueError, match="channels"):
            model.loss(IDS, 0, 3)


class TestContinuousGateParameterization:
    def test_beta_zero_projection_gives_uniform_prior(self):
        model = toy_model("csda-beta", k=3)
        for name in ("phi.alpha.w", "phi.alpha.b", "phi.beta.w", "phi.beta.b"):
            model.params[name][:] = 0.0
        t = Tape()
        prior = model.prior_gate(model.binder(t), IDS)
        np.testing.assert_allclose(prior.params.alpha.value, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(prior.params.beta.value, np.ones(3), atol=1e-12)

    def test_dirichlet_zero_projection_gives_half_concentration(self):
        model = toy_model("csda-dirichlet", k=3)
        for name in ("phi.conc.w", "phi.conc.b", "phi.base.w", "phi.base.b"):
            model.params[name][:] = 0.0
        t = Tape()
        prior = model.prior_gate(model.binder(t), IDS)
        assert prior.params.alpha0.item() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(prior.params.alpha_hat.value,
                                   np.full(3, 0.5), atol=1e-12)
        np.testing.assert_allclose(prior.params.concentration().value,
                                   np.full(3, 0.5), atol=1e-12)

    def test_posterior_feature_width_includes_label_and_domain(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        binder = model.binder(t)
        model.posterior_gate(binder, IDS, 1, 0)
        concat_nodes = [n for n in t.nodes if n.kind == "concat"]
        assert concat_nodes, "posterior should concatenate features"
        assert concat_nodes[-1].value.shape == (ENC.out_dim + 4 + 16,)

    def test_posterior_accepts_unk_sentinels(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        q = model.posterior_gate(model.binder(t), IDS, None, None)
        assert np.all(q.params.alpha.value > 0.0)

    def test_posterior_depends_on_domain_embedding(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        binder = model.binder(t)
        q0 = model.posterior_gate(binder, IDS, 0, 0)
        q1 = model.posterior_gate(binder, IDS, 0, 1)
        assert not np.allclose(q0.params.alpha.value, q1.params.alpha.value)

    def test_unknown_ids_rejected(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        with pytest.raises(ValueError, match="inventory"):
            model.posterior_gate(model.binder(t), IDS, 5, None)
        with pytest.raises(ValueError, match="inventory"):
            model.posterior_gate(model.binder(t), IDS, None, 7)


class TestVariationalObjective:
    def test_lambda_zero_is_pure_loglik(self):
        model = toy_model("csda-beta", k=2)
        eps = np.array([0.4, 0.7])
        res = model.loss(IDS, 1, 0, lam=0.0, eps=eps)
        assert res.loss.item() == pytest.approx(-res.loglik, abs=1e-12)

    def test_matching_q_and_p_gives_zero_kl(self):
        model = toy_model("csda-beta", k=2)
        # force both networks to produce the parameter-free uniform gate
        for group in ("phi", "sigma"):
            for head in ("alpha", "beta"):
                model.params[f"{group}.{head}.w"][:] = 0.0
                model.params[f"{group}.{head}.b"][:] = 0.0
        res = model.loss(IDS, 1, 0, lam=1.0, eps=np.array([0.2, 0.9]))
        assert res.kl == pytest.approx(0.0, abs=1e-12)
        assert res.loss.item() == pytest.approx(-res.loglik, abs=1e-12)

    def test_loss_is_neg_loglik_plus_weighted_kl(self):
        model = toy_model("csda-dirichlet", k=3)
        eps = np.array([0.3, 0.5, 0.8])
        lam = 0.7
        res = model.loss(IDS, 0, 1, lam=lam, eps=eps)
        assert res.loss.item() == pytest.approx(
            -res.loglik + lam * res.kl, abs=1e-12)

    def test_gate_sample_recorded(self):
        model = toy_model("csda-dirichlet", k=3)
        res = model.loss(IDS, 0, rng=np.random.default_rng(0))
        assert res.gate is not None
        assert res.gate.family == "simplex"
        assert abs(res.gate.z.sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("kind", ["csda-beta", "csda-dirichlet", "dsda"])
    def test_full_gradient_matches_fd(self, kind):
        model = toy_model(kind, k=2)
        eps = np.array([0.35, 0.65]) if kind.startswith("csda") else None
        lam = 0.4

        def loss_value():
            return model.loss(IDS, 1, 0, lam=lam, eps=eps).loss.item()

        res = model.loss(IDS, 1, 0, lam=lam, eps=eps)
        grads = backprop(res.loss)
        rng = np.random.default_rng(9)
        worst = 0.0
        for name, g in grads.items():
            flat = model.params[name].reshape(-1)
            gf = (g.dense() if isinstance(g, RowGrad) else g).reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                old = flat[i]
                h = 1e-5 * max(1.0, abs(old))
                flat[i] = old + h
                up = loss_value()
                flat[i] = old - h
                down = loss_value()
                flat[i] = old
                fd = (up - down) / (2 * h)
                denom = max(1e-6, abs(fd), abs(gf[i]))
                worst = max(worst, abs(gf[i] - fd) / denom)
        assert worst < 1e-3

    def test_dirichlet_k1_gate_is_constant_one(self):
        model = toy_model("csda-dirichlet", k=1, n_domains=1)
        res = model.loss(IDS, 1, rng=np.random.default_rng(0))
        np.testing.assert_allclose(res.gate.z, [1.0], atol=1e-12)
