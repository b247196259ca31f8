"""Importance-sampled prediction: the log-space estimator against the
linear-space average it replaces, and the peaked-prior case where every
linear-space weight underflows."""

import warnings

import numpy as np

from domaingate import distributions as dist
from domaingate.autodiff import Tape
from domaingate.encoder import EncoderConfig
from domaingate.inference import InferConfig, predict
from domaingate.models import Model, ModelConfig, classify_batch

IDS = (3, 7, 1, 12, 5, 9)


def dirichlet_model(conc_bias=None):
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                      vocab_size=20, k=8, encoder=EncoderConfig(8, 4, (2, 3)),
                      mlp_hidden=6, dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    if conc_bias is not None:
        model.params["phi.conc.b"][:] = conc_bias
    return model


def linear_space_estimates(model, m, seed):
    """Mean of exp(log w) per label, replaying the draws of ``predict``."""
    rng = np.random.default_rng(seed)
    binder = model.binder(Tape())
    h_mat = np.stack([h.value for h in
                      model.channel_encodings(binder, IDS, dropout_rng=None)])
    prior = model.prior_gate(binder, IDS)
    out = []
    for y in range(model.config.n_labels):
        q = model.posterior_gate(binder, IDS, y, None)
        z = dist.draw_many(q.params, rng, m)
        loglik = classify_batch(model.params, model.config, z @ h_mat)[:, y]
        log_w = dist.log_pdf_many(prior.params, z) + loglik \
            - dist.log_pdf_many(q.params, z)
        out.append(np.exp(log_w).mean())
    return np.array(out)


def test_matches_linear_space_average_without_underflow():
    model = dirichlet_model()
    want = linear_space_estimates(model, 100, 0)
    assert np.all(want > 0.0)
    label, probs = predict(model, IDS, InferConfig("importance-sampling", 100),
                           np.random.default_rng(0))
    np.testing.assert_allclose(probs, want / want.sum(), rtol=1e-12)
    assert label == int(want.argmax())


def test_peaked_prior_gives_finite_probabilities():
    model = dirichlet_model(conc_bias=7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.all(linear_space_estimates(model, 10, 0) == 0.0)
    label, probs = predict(model, IDS, InferConfig("importance-sampling", 10),
                           np.random.default_rng(0))
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) <= 1e-12
    # label 1's largest log-weight beats all of label 0's by over 1000 nats
    assert label == 1 == int(probs.argmax())
