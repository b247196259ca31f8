"""Model-level contracts: gating arithmetic, channel dropout, classifier
head, discrete marginalization, the continuous gate parameterizations,
the single-sample variational objective, a mini-batch loss against the
mean of its instances' losses, non-finite parameters named at the
first primitive that reads them, training and prediction tapes that
reference counting frees, a store checked against the config's
parameter layout, and each parameter of a fresh store drawn by its
rule."""

import gc
import math
import weakref

import numpy as np
import pytest

from domaingate import ConfigError
from domaingate import autodiff as ad
from domaingate import distributions as dist
from domaingate import inference
from domaingate.autodiff import NonFiniteError, RowGrad, Tape, backprop
from domaingate.encoder import EncoderConfig
from domaingate.inference import InferConfig, predict
from domaingate.models import MODEL_KINDS, Model, ModelConfig, classify_batch, gate_channels
from domaingate.optim import AdamState, adam_step
from domaingate.training import TrainConfig

from conftest import FixedNoise, to_float64

ENC = EncoderConfig(embed_dim=8, n_filters=4, windows=(2, 3))


def toy_model(kind, k=2, seed=0, n_labels=2, n_domains=2, dropout=0.0):
    cfg = ModelConfig(kind=kind, n_labels=n_labels, n_domains=n_domains,
                      vocab_size=20, k=k, encoder=ENC, mlp_hidden=6,
                      dropout=dropout)
    return Model.init(cfg, np.random.default_rng(seed))


IDS = (3, 7, 1, 12, 5, 9)
# The KL weight, as TrainConfig sets it by default.
WEIGHTS = {"lam": TrainConfig.lam}


def csda_loglik(model, y_id, d_id, eps):
    """log p(y | x, z) for the gate drawn from q with frozen noise ``eps``,
    from one head call on a fresh tape."""
    t = Tape()
    binder = model.binder(t)
    batch = model.pack([IDS])
    h_mat = model.channel_encodings(binder, batch, None)
    z, _ = dist.sample(model.posterior_gate(binder, batch, [y_id], [d_id]), FixedNoise(eps))
    if model.config.family == "beta":
        z = ad.gather(z, 0)
    z = ad.reshape(z, (1, 1, model.config.k))
    return classify_batch(binder, gate_channels(h_mat, z)).value[0, 0, y_id]


def worst_fd_error(model, seqs, y_ids, d_ids):
    """The largest relative error of the float64 backprop gradient of the
    loss against central differences, over three entries of every
    parameter (of the looked-up rows, for a table)."""
    to_float64(model.params)
    # (0.35, 0.65) per instance, or per channel pair of a csda-beta gate
    pairs = model.config.k if model.config.family == "beta" else 1
    noise = FixedNoise([0.35, 0.65] * len(seqs) * pairs) if model.config.is_variational \
        else None

    def loss():
        return model.loss(seqs, y_ids, d_ids, lam=0.4, rng=noise)

    grads = backprop(loss().loss)
    rng = np.random.default_rng(9)
    worst = 0.0
    for name, g in grads.items():
        flat = model.params[name].reshape(-1)
        entries = np.arange(flat.size)
        if isinstance(g, RowGrad):
            entries = entries.reshape(g.shape)[g.ids].ravel()
        gf = (g.dense() if isinstance(g, RowGrad) else g).reshape(-1)
        for i in rng.choice(entries, size=min(3, entries.size), replace=False):
            old = flat[i]
            h = 1e-5 * max(1.0, abs(old))
            flat[i] = old + h
            up = loss().loss.item()
            flat[i] = old - h
            down = loss().loss.item()
            flat[i] = old
            fd = (up - down) / (2 * h)
            denom = max(1e-6, abs(fd), abs(gf[i]))
            worst = max(worst, abs(gf[i] - fd) / denom)
    return worst


def head_gate(tape):
    """The first gate row [B,k] that ``gate_channels`` mixed the channels with."""
    [node] = [n for n in tape.nodes
              if n.kind == "matmul" and tape.nodes[n.inputs[1]].value.ndim == 3]
    return tape.nodes[node.inputs[0]].value[:, 0, :]


class TestGating:
    def test_indicator_gate_selects_channel_bitwise(self):
        t = Tape()
        h_mat = t.const(np.random.default_rng(0).normal(size=(2, 4, 5)))
        out = gate_channels(h_mat, t.const(np.eye(4)[[2, 0]][:, None]))
        np.testing.assert_array_equal(out.value[:, 0], h_mat.value[[0, 1], [2, 0]])
        rows = gate_channels(h_mat, t.const(np.stack([np.eye(4)] * 2)))
        np.testing.assert_array_equal(rows.value, h_mat.value)

    def test_half_half_averages(self):
        t = Tape()
        h_mat = t.const(np.array([[[2.0, 4.0], [0.0, 2.0]]]))
        out = gate_channels(h_mat, t.const(np.array([[[0.5, 0.5]]])))
        np.testing.assert_allclose(out.value, [[[1.0, 3.0]]], atol=1e-15)

    def test_zero_gate_gives_zero_vector(self):
        t = Tape()
        out = gate_channels(t.const(np.ones((1, 2, 3))), t.const(np.zeros((1, 1, 2))))
        np.testing.assert_array_equal(out.value, np.zeros((1, 1, 3)))

    def test_gate_rows_match_vector_gates(self):
        t = Tape()
        rng = np.random.default_rng(1)
        h_mat = t.const(rng.normal(size=(2, 3, 5)))
        z_rows = rng.dirichlet(np.ones(3), size=(2, 4))
        out = gate_channels(h_mat, t.const(z_rows))
        assert out.shape == (2, 4, 5)
        for i in range(4):
            np.testing.assert_allclose(
                out.value[:, i], gate_channels(h_mat, t.const(z_rows[:, i:i + 1])).value[:, 0],
                rtol=0, atol=1e-12)

    def test_length_mismatch_rejected(self):
        t = Tape()
        h_mat = t.const(np.ones((1, 1, 3)))
        with pytest.raises(ad.ShapeError):
            gate_channels(h_mat, t.const(np.ones((1, 1, 2))))
        with pytest.raises(ad.ShapeError):
            gate_channels(h_mat, t.const(np.ones((1, 4, 2))))
        with pytest.raises(ad.ShapeError):  # gate rows of each instance
            gate_channels(h_mat, t.const(np.ones((2, 1, 1))))
        with pytest.raises(ad.ShapeError):  # gates are rows [B,r,k], never [B,k]
            gate_channels(h_mat, t.const(np.ones((1, 1))))

    def test_channel_dropout_only_with_rng(self):
        # One dropout over the stacked channels, from one draw [B,k,H].
        model = toy_model("mcnn", k=3, dropout=0.5)
        batch = model.pack([IDS, (4, 2)])

        def encodings(rng):
            t = Tape()
            h_mat = model.channel_encodings(model.binder(t), batch, rng)
            return h_mat.value, sum(n.kind == "dropout" for n in t.nodes)

        clean, n_clean = encodings(None)
        dropped, n_dropped = encodings(np.random.default_rng(0))
        u = np.random.default_rng(0).random((2, 3, ENC.out_dim))
        assert (n_clean, n_dropped) == (0, 1)
        np.testing.assert_array_equal(dropped, clean * ((u >= 0.5) / 0.5))
        assert not np.array_equal(clean, dropped)


class TestClassify:
    def test_zero_weights_uniform(self):
        model = toy_model("scnn", k=1, n_labels=3)
        for name in ("theta.head.l1.w", "theta.head.l1.b",
                     "theta.head.l2.w", "theta.head.l2.b"):
            model.params[name][:] = 0.0
        t = Tape()
        binder = model.binder(t)
        logp = classify_batch(binder, t.const(np.ones(ENC.out_dim)))
        np.testing.assert_allclose(np.exp(logp.value), np.ones(3) / 3, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        model = toy_model("scnn", k=1, n_labels=4)
        t = Tape()
        binder = model.binder(t)
        h = t.const(np.random.default_rng(1).normal(size=ENC.out_dim))
        logp = classify_batch(binder, h)
        assert abs(np.exp(logp.value).sum() - 1.0) <= 1e-12

    def test_head_gradient_matches_fd(self):
        model = toy_model("scnn", k=1, n_labels=3)
        h0 = np.random.default_rng(2).normal(size=ENC.out_dim)

        def loss_value():
            t = Tape()
            logp = classify_batch(model.binder(t), t.const(h0))
            return -float(logp.value[1])

        t = Tape()
        logp = classify_batch(model.binder(t), t.const(h0))
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
        batch = classify_batch(binder, t.const(rows))
        assert batch.shape == (5, 3)
        for i in range(5):
            logp = classify_batch(binder, t.const(rows[i]))
            np.testing.assert_allclose(batch.value[i], logp.value, rtol=0, atol=1e-12)
            one = classify_batch(binder, t.const(rows[i:i + 1]))
            np.testing.assert_array_equal(one.value[0], logp.value)

    def test_row_head_gradient_sums_row_gradients(self):
        model = toy_model("scnn", k=1, n_labels=3)
        rows = np.random.default_rng(5).normal(size=(4, ENC.out_dim))
        t = Tape()
        logp = classify_batch(model.binder(t), t.const(rows))
        batch_grads = backprop(ad.neg(ad.reduce_sum(ad.gather(logp, 1))))
        summed = None
        for row in rows:
            t = Tape()
            logp = classify_batch(model.binder(t), t.const(row))
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
        res = model.loss([IDS], [1], **WEIGHTS)
        single = toy_model("scnn", k=1)
        # same channel parameters -> same conditional likelihood
        for name, val in model.params.items():
            if name.startswith("theta."):
                single.params[name] = val.copy()
        res_single = single.loss([IDS], [1], **WEIGHTS)
        assert res.loss.item() == pytest.approx(res_single.loss.item(), abs=1e-12)

    def test_logsumexp_matches_probability_space_enumeration(self):
        for k in (1, 2, 4, 9):
            model = toy_model("dsda", k=k, n_domains=k, seed=k)
            res = model.loss([IDS], [0], **WEIGHTS)
            t = Tape()
            binder = model.binder(t)
            batch = model.pack([IDS])
            prior = model.prior_gate(binder, batch)
            logits = prior.value[0]
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            h_mat = model.channel_encodings(binder, batch, None)
            logp = classify_batch(binder, h_mat).value[0]
            total = 0.0
            for i in range(k):
                total += weights[i] * math.exp(logp[i, 0])
            assert res.loss.item() == pytest.approx(-math.log(total), abs=1e-10)

    def test_domain_supervision_adds_prior_term(self):
        model = toy_model("dsda", k=2, n_domains=2)
        plain = model.loss([IDS], [1], [None], **WEIGHTS)
        with_d = model.loss([IDS], [1], [0], **WEIGHTS)
        t = Tape()
        prior = model.prior_gate(model.binder(t), model.pack([IDS]))
        log_prior = ad.log_softmax(prior).value[0]
        assert with_d.loss.item() == pytest.approx(
            plain.loss.item() - log_prior[0], abs=1e-12)

    def test_observed_domain_beyond_k_rejected(self):
        model = toy_model("dsda", k=2, n_domains=4)
        with pytest.raises(ValueError, match="channels.*batch position 1"):
            model.loss([IDS, IDS], [0, 0], [1, 3], **WEIGHTS)


class TestContinuousGateParameterization:
    def test_beta_zero_projection_gives_uniform_prior(self):
        model = toy_model("csda-beta", k=3)
        for name in ("phi.alpha.w", "phi.alpha.b", "phi.beta.w", "phi.beta.b"):
            model.params[name][:] = 0.0
        t = Tape()
        prior = model.prior_gate(model.binder(t), model.pack([IDS]))
        # one pair of concentrations (alpha, beta) per channel
        np.testing.assert_allclose(prior.conc.value, np.ones((1, 3, 2)), atol=1e-12)

    def test_dirichlet_zero_projection_gives_half_concentration(self):
        model = toy_model("csda-dirichlet", k=3)
        for name in ("phi.conc.w", "phi.conc.b", "phi.base.w", "phi.base.b"):
            model.params[name][:] = 0.0
        t = Tape()
        prior = model.prior_gate(model.binder(t), model.pack([IDS]))
        # the concentration is the product node scale [B,1] * affinity [B,k]
        product = t.nodes[prior.conc._i]
        scale, affinity = (t.nodes[i].value for i in product.inputs)
        assert product.kind == "mul" and scale.shape == (1, 1)
        assert scale[0, 0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(affinity, np.full((1, 3), 0.5), atol=1e-12)
        np.testing.assert_allclose(prior.conc.value, np.full((1, 3), 0.5), atol=1e-12)

    def test_posterior_feature_width_includes_label_and_domain(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        binder = model.binder(t)
        model.posterior_gate(binder, model.pack([IDS]), [1], [0])
        # (the heads' concatenation of pairs comes after the features')
        concat_nodes = [n for n in t.nodes if n.kind == "concat" and n.value.ndim == 2]
        assert concat_nodes, "posterior should concatenate features"
        assert concat_nodes[-1].value.shape == (1, ENC.out_dim + 4 + 16)

    def test_posterior_accepts_unk_sentinels(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        q = model.posterior_gate(model.binder(t), model.pack([IDS]), [None], [None])
        assert np.all(q.conc.value > 0.0)
        assert q.conc.shape == (1, 2, 2)

    def test_candidate_labels_share_one_encoding(self):
        # Rows [B,C,k] for C candidate labels equal C separate calls.
        model = toy_model("csda-dirichlet", k=2)
        t = Tape()
        binder = model.binder(t)
        batch = model.pack([IDS, IDS[:3]])
        q = model.posterior_gate(binder, batch, [range(2), range(2)], None)
        assert q.conc.shape == (2, 2, 2)
        assert sum(n.kind == "conv_pool" for n in t.nodes) == len(model.config.encoder.windows)
        for y in range(2):
            one = model.posterior_gate(binder, batch, [y, y], None)
            np.testing.assert_allclose(q.conc.value[:, y], one.conc.value, rtol=1e-13)

    def test_posterior_depends_on_domain_embedding(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        binder = model.binder(t)
        batch = model.pack([IDS])
        q0 = model.posterior_gate(binder, batch, [0], [0])
        q1 = model.posterior_gate(binder, batch, [0], [1])
        assert not np.allclose(q0.conc.value, q1.conc.value)

    def test_unknown_ids_rejected(self):
        model = toy_model("csda-beta", k=2)
        t = Tape()
        batch = model.pack([IDS, IDS])
        with pytest.raises(ValueError, match="inventory.*batch position 1"):
            model.posterior_gate(model.binder(t), batch, [0, 5], None)
        with pytest.raises(ValueError, match="inventory.*batch position 0"):
            model.posterior_gate(model.binder(t), batch, [None, None], [7, 0])
        with pytest.raises(ValueError, match="inventory.*batch position 1"):
            model.loss([IDS, IDS], [1, 2], **WEIGHTS)


class TestSharedMixture:
    # Training and prediction score one mixture: without dropout and with
    # no domain observed, the loss of a kind whose gate is not drawn is the
    # mean of -log p(y | x) that prediction gives.
    @pytest.mark.parametrize("kind", ["scnn", "mcnn", "dsda"])
    def test_loss_is_mean_neg_log_predicted_probability(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 3, n_labels=3)
        seqs, y = [IDS, (4, 2, 9), (11, 3, 3, 8, 0)], [2, 0, 1]
        res = model.loss(seqs, y, **WEIGHTS)
        probs, _ = predict(model, seqs, InferConfig(),
                           [np.random.default_rng(i) for i in range(3)])
        assert res.loss.item() == pytest.approx(
            -np.mean(np.log(probs[np.arange(3), y])), abs=1e-12)

    def test_mixture_rows_and_log_weights(self):
        model = toy_model("dsda", k=3)
        binder = model.binder(Tape())
        batch = model.pack([IDS, (4, 2, 9)])
        rows, log_w = model.mixture(binder, batch)
        np.testing.assert_array_equal(rows, np.broadcast_to(np.eye(3), (2, 3, 3)))
        np.testing.assert_allclose(np.exp(log_w.value).sum(axis=1), 1.0, rtol=1e-13)
        rows, log_w = toy_model("mcnn", k=3).mixture(binder, batch)
        np.testing.assert_array_equal(rows, np.full((2, 1, 3), 1.0 / 3))
        np.testing.assert_array_equal(log_w.value, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="draws its gate"):
            toy_model("csda-beta").mixture(binder, batch)


class TestVariationalObjective:
    def test_lambda_zero_is_pure_loglik(self):
        model = toy_model("csda-beta", k=2)
        eps = np.array([[0.4, 0.7], [0.7, 0.2]])  # a noise pair per channel
        res = model.loss([IDS], [1], [0], lam=0.0, rng=FixedNoise(eps))
        assert res.loss.item() == pytest.approx(
            -csda_loglik(model, 1, 0, eps), abs=1e-12)

    def test_matching_q_and_p_gives_zero_kl(self):
        model = toy_model("csda-beta", k=2)
        # force both networks to produce the parameter-free uniform gate
        for group in ("phi", "sigma"):
            for head in ("alpha", "beta"):
                model.params[f"{group}.{head}.w"][:] = 0.0
                model.params[f"{group}.{head}.b"][:] = 0.0
        eps = np.array([[0.2, 0.9], [0.5, 0.3]])
        res = model.loss([IDS], [1], [0], lam=1.0, rng=FixedNoise(eps))
        assert res.kl == pytest.approx(0.0, abs=1e-12)
        assert res.loss.item() == pytest.approx(
            -csda_loglik(model, 1, 0, eps), abs=1e-12)

    def test_loss_is_neg_loglik_plus_weighted_kl(self):
        model = toy_model("csda-dirichlet", k=3)
        eps = np.array([0.3, 0.5, 0.8])
        lam = 0.7
        res = model.loss([IDS], [0], [1], lam=lam, rng=FixedNoise(eps))
        assert res.loss.item() == pytest.approx(
            -csda_loglik(model, 0, 1, eps) + lam * res.kl, abs=1e-12)

    @pytest.mark.parametrize("kind", ["csda-beta", "csda-dirichlet"])
    def test_loss_without_a_generator_names_rng(self, kind):
        with pytest.raises(ValueError, match="rng"):
            toy_model(kind).loss([IDS], [1], [0], **WEIGHTS)

    def test_gate_sample_recorded(self):
        # the Dirichlet gate lies on the simplex, the Beta gate in the box
        res = toy_model("csda-dirichlet", k=3).loss([IDS], [0], rng=np.random.default_rng(0),
                                                   **WEIGHTS)
        [z] = head_gate(res.tape)
        assert z.shape == (3,) and np.all(z >= 0.0)
        assert abs(z.sum() - 1.0) <= 1e-10
        res = toy_model("csda-beta", k=3).loss([IDS], [0], rng=np.random.default_rng(0),
                                              **WEIGHTS)
        [z] = head_gate(res.tape)
        assert z.shape == (3,) and np.all((z >= 0.0) & (z <= 1.0))

    @pytest.mark.parametrize("kind", ["csda-beta", "csda-dirichlet", "dsda"])
    def test_full_gradient_matches_fd(self, kind):
        assert worst_fd_error(toy_model(kind, k=2), [IDS], [1], [0]) < 1e-3

    @pytest.mark.parametrize("kind", ["csda-dirichlet", "dsda"])
    def test_gradient_matches_fd_when_few_ids_repeat(self, kind):
        # 36 positions over 4 distinct ids: many argmax windows of one
        # filter read one distinct row at one offset, and the encoder's
        # gradients sum them.
        rng = np.random.default_rng(4)
        seqs = [tuple(rng.choice([3, 7, 1, 12], size=n)) for n in (20, 16)]
        assert worst_fd_error(toy_model(kind, k=2), seqs, [1, 0], [0, 1]) < 1e-3

    def test_dirichlet_k1_gate_is_constant_one(self):
        model = toy_model("csda-dirichlet", k=1, n_domains=1)
        res = model.loss([IDS], [1], rng=np.random.default_rng(0), **WEIGHTS)
        np.testing.assert_allclose(head_gate(res.tape), [[1.0]], atol=1e-12)


def dense(g):
    return g.dense() if isinstance(g, RowGrad) else g


class TestMiniBatch:
    SEQS = [IDS, (4,), (11, 2, 8, 0, 0), (6, 6, 13, 1, 17, 2, 9, 3)]
    Y = [1, 0, 0, 1]
    D = [0, None, 1, 1]

    @pytest.mark.parametrize("kind", ["scnn", "mcnn", "dsda", "csda-beta",
                                      "csda-dirichlet"])
    def test_batch_loss_is_mean_of_instance_losses(self, kind):
        # One tape for B instances equals B one-instance tapes under the
        # same generators, for the loss, the KL and every gradient.
        model = toy_model(kind, k=1 if kind == "scnn" else 2, dropout=0.5)
        to_float64(model.params)

        def run(idx):
            return model.loss([self.SEQS[i] for i in idx], [self.Y[i] for i in idx],
                              [self.D[i] for i in idx], lam=0.3, rng=rngs[0],
                              dropout_rng=rngs[1])

        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        batch = run(range(4))
        batch_grads = backprop(batch.loss)
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        singles = [run([i]) for i in range(4)]
        assert batch.degenerate == 0
        assert batch.loss.item() == pytest.approx(
            np.mean([r.loss.item() for r in singles]), rel=1e-10)
        if kind.startswith("csda"):
            assert batch.kl == pytest.approx(np.mean([r.kl for r in singles]), rel=1e-10)
        single_grads = [backprop(r.loss) for r in singles]
        for name, g in batch_grads.items():
            want = np.mean([dense(sg[name]) for sg in single_grads], axis=0)
            np.testing.assert_allclose(dense(g), want, rtol=1e-10, atol=1e-13)

    def test_every_row_degenerate_gives_no_loss(self):
        # q's channel 0 has concentration sigmoid(-690) = 2.17e-300 in every
        # row, whose Gamma draw at the top noise has an underflowing density.
        model = toy_model("csda-dirichlet", k=2, n_domains=2)
        for head in ("conc", "base"):
            model.params[f"sigma.{head}.w"][:] = 0.0
        model.params["sigma.conc.b"][:] = 0.0
        model.params["sigma.base.b"][:] = (-690.0, 0.0)
        res = model.loss(self.SEQS[:2], [0, 1], rng=FixedNoise([[1.0, 0.5], [1.0, 0.5]]),
                         **WEIGHTS)
        assert res.loss is None and res.kl is None and res.degenerate == 2


class TestNonFiniteParameters:
    """``Tape.param`` does not scan parameters; a NaN in an embedding row
    that the instance looks up raises at ``embedding``, and one in a row
    it does not look up cannot change the result."""

    @pytest.fixture
    def model(self):
        model = toy_model("csda-dirichlet")
        model.params["phi.enc.emb"][IDS[2]] = np.nan
        return model

    def test_loss_names_embedding(self, model):
        with pytest.raises(NonFiniteError, match="'embedding'"):
            model.loss([IDS], [0], [1], rng=np.random.default_rng(0), **WEIGHTS)

    def test_predict_names_embedding(self, model):
        with pytest.raises(NonFiniteError, match="'embedding'"):
            predict(model, [IDS], InferConfig("prior-mean"), [np.random.default_rng(0)])

    def test_row_not_looked_up_is_not_read(self, model):
        clean = toy_model("csda-dirichlet")
        other = tuple(i for i in IDS if i != IDS[2])
        want = clean.loss([other], [0], [1], rng=np.random.default_rng(0), **WEIGHTS).loss.item()
        got = model.loss([other], [0], [1], rng=np.random.default_rng(0), **WEIGHTS).loss.item()
        assert got == want


def encoder_names(model):
    """The names of the parameters of each encoder of ``model``."""
    cfg = model.config
    prefixes = ["theta.ch"] + ["phi.enc"] * cfg.is_latent + ["sigma.enc"] * cfg.is_variational
    return {f"{p}.{leaf}" for p in prefixes
            for leaf in ["emb"] + [f"conv{w}.{x}" for w in ENC.windows for x in "wb"]}


class TestEncoderDtype:
    @pytest.mark.parametrize("kind", ["csda-dirichlet", "dsda"])
    def test_encoder_path_is_float32_and_the_rest_float64(self, kind):
        # Parameters, gradients and Adam moments of the encoders are
        # float32, everything else float64: a silent upcast (e.g. from a
        # numpy float64 scalar) or downcast anywhere on the path fails.
        model = toy_model(kind)
        encoder = encoder_names(model)
        res = model.loss(TestMiniBatch.SEQS, TestMiniBatch.Y, TestMiniBatch.D, lam=0.3,
                         rng=np.random.default_rng(0))
        grads = backprop(res.loss)
        opt = AdamState(lr=1e-3)
        adam_step(model.params, grads, opt)
        assert encoder < model.params.keys() == grads.keys()
        for name, p in model.params.items():
            want = np.float32 if name in encoder else np.float64
            g = grads[name]
            assert p.dtype == dense(g).dtype == want, name
            assert not isinstance(g, RowGrad) or g.values.dtype == want, name
            assert opt.m[name].dtype == opt.v[name].dtype == want, name
        nodes = res.tape.nodes
        tables = {nodes[n.inputs[0]].name: n.value.dtype
                  for n in nodes if n.kind == "embedding"}
        embs = {n for n in encoder if n.endswith(".emb")}
        assert embs <= tables.keys()
        for name, dtype in tables.items():
            assert dtype == (np.float32 if name in embs else np.float64), name
        pooled = [n.value.dtype for n in nodes if n.kind == "conv_pool"]
        assert len(pooled) == len(embs) * len(ENC.windows)
        assert set(pooled) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_float32_agrees_with_the_model_cast_to_float64(self, kind):
        # float32 rounds at 6e-8 relative. At these sizes the loss agrees
        # to about 1e-10 relative and each gradient to about 2e-7 of its
        # largest entry, so the tolerances, 1e-8 and 1e-5, leave a margin
        # of 50 or more.
        model = toy_model(kind, k=1 if kind == "scnn" else 2, dropout=0.5)
        wide = model.copy()
        to_float64(wide.params)

        def run(m):
            res = m.loss(TestMiniBatch.SEQS, TestMiniBatch.Y, TestMiniBatch.D, lam=0.3,
                         rng=np.random.default_rng(1), dropout_rng=np.random.default_rng(2))
            return res.loss.item(), backprop(res.loss)

        loss32, grads32 = run(model)
        loss64, grads64 = run(wide)
        assert loss32 == pytest.approx(loss64, rel=1e-8)
        assert grads32.keys() == grads64.keys()
        for name, g in grads64.items():
            g = dense(g)
            np.testing.assert_allclose(dense(grads32[name]), g, rtol=0,
                                       atol=1e-5 * np.abs(g).max(), err_msg=name)


class TestStoreCheck:
    """``Model(config, params)`` takes only the store the config's layout
    makes, and names the first parameter that differs."""

    @staticmethod
    def refusal(model, store):
        with pytest.raises(ConfigError) as exc:
            Model(model.config, store)
        return exc.value

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_init_store_passes(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 2)
        assert Model(model.config, model.params).params is model.params

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_missing_parameter_is_named(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 2)
        store = dict(model.params)
        del store["theta.head.l2.b"]
        err = self.refusal(model, store)
        assert err.field == "theta.head.l2.b"
        assert "holds nothing" in str(err) and "makes float64 (2,)" in str(err)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_extra_parameter_is_named(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 2)
        err = self.refusal(model, dict(model.params, **{"theta.ch9.emb": np.zeros((20, 8))}))
        assert err.field == "theta.ch9.emb" and "the config makes nothing" in str(err)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_reshaped_parameter_is_named(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 2)
        store = dict(model.params, **{"theta.ch.conv3.w": np.zeros((3, 8, 2), np.float32)})
        err = self.refusal(model, store)
        assert err.field == "theta.ch.conv3.w"
        assert "holds float32 (3, 8, 2)" in str(err)
        assert f"makes float32 (3, 8, {4 * model.config.k})" in str(err)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_float64_encoder_parameter_is_named(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 2)
        last = "sigma.enc" if kind.startswith("csda") else "phi.enc" if kind == "dsda" \
            else "theta.ch"
        store = dict(model.params)
        store[f"{last}.emb"] = store[f"{last}.emb"].astype(np.float64)
        width = store[f"{last}.emb"].shape[1]
        err = self.refusal(model, store)
        assert err.field == f"{last}.emb" and f"holds float64 (20, {width})" in str(err)

    def test_first_difference_in_layout_order_is_named(self):
        # Every encoder cast to float64: the channel group's table is named.
        model = toy_model("csda-beta")
        assert self.refusal(model, to_float64(dict(model.params))).field == "theta.ch.emb"


    @pytest.mark.parametrize("kind", ["mcnn", "csda-dirichlet"])
    def test_per_channel_store_is_refused(self, kind):
        # The layout before channel groups: one encoder per channel,
        # theta.ch{i}.*, each channel's slice of the group.
        model = toy_model(kind, k=2)
        store = {name: arr for name, arr in model.params.items()
                 if not name.startswith("theta.ch.")}
        for name, arr in model.params.items():
            if name.startswith("theta.ch."):
                n = arr.shape[-1] // 2
                for i in range(2):
                    store[f"theta.ch{i}.{name[len('theta.ch.'):]}"] = arr[..., i * n:(i + 1) * n]
        err = self.refusal(model, store)
        assert err.field == "theta.ch.emb"
        assert "holds nothing" in str(err) and "makes float32 (20, 16)" in str(err)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_init_draws_each_parameter_by_its_rule(kind):
    # Dims large enough for stable statistics: every He weight, and each
    # channel's slice of the group's weights, has the standard deviation
    # sqrt(2 / fan-in) of its own fan-in (w * E for a convolution).
    enc = EncoderConfig(embed_dim=32, n_filters=32, windows=(2, 3))
    k = 1 if kind == "scnn" else 3
    cfg = ModelConfig(kind=kind, n_labels=3, n_domains=4, vocab_size=200, k=k,
                      encoder=enc, mlp_hidden=32)
    params = Model.init(cfg, np.random.default_rng(0)).params
    uniform = []
    for name, arr in params.items():
        encoder = name.startswith(("theta.ch.", "phi.enc.", "sigma.enc."))
        assert arr.dtype == (np.float32 if encoder else np.float64), name
        if name.endswith(".b"):
            assert not arr.any(), name
        elif ".conv" in name or name == "theta.head.l1.w":
            fan_in = math.prod(arr.shape[:-1])
            n = enc.n_filters
            slices = [arr[..., c * n:(c + 1) * n] for c in range(k)] \
                if name.startswith("theta.ch.") else [arr]
            for part in [arr, *slices]:
                assert part.std() == pytest.approx(math.sqrt(2.0 / fan_in), rel=0.05), name
        else:
            assert (-0.05 <= arr).all() and (arr < 0.05).all(), name
            uniform.append(arr.ravel())
    uniform = np.concatenate(uniform)
    assert uniform.std() == pytest.approx(0.1 / math.sqrt(12.0), rel=0.02)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_tapes_are_freed_by_reference_counting(kind, monkeypatch):
    # No backward rule may hold a Var, the tape or a node, or a tape would
    # be a reference cycle that outlives its step until the cyclic
    # collector runs.
    model = toy_model(kind, k=1 if kind == "scnn" else 2)
    tapes = []

    def recording_tape():
        tape = Tape()
        tapes.append(weakref.ref(tape))
        return tape
    monkeypatch.setattr(inference, "Tape", recording_tape)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        res = model.loss([IDS, IDS[:4]], [1, 0], [0, None], rng=np.random.default_rng(0),
                         **WEIGHTS)
        tapes.append(weakref.ref(res.tape))
        backprop(res.loss)
        del res
        predict(model, [IDS, IDS[:4]], InferConfig(m=3),
                [np.random.default_rng(i) for i in range(2)])
        assert len(tapes) == 2
        assert [ref() for ref in tapes] == [None, None]
    finally:
        if was_enabled:
            gc.enable()
