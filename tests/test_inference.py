"""Prediction: records that do not depend on how the instances are cut
into chunks; one gate source, under which dsda marginalizes exactly
whatever the strategy and one mc-average draw is the prior sample;
importance sampling's log-space estimator against the linear-space
average it replaces, the peaked-prior case where every linear-space
weight underflows, the effective sample size that flags an estimate
carried by one draw, and draws on the edge of the support."""

import logging
import warnings

import numpy as np
import pytest

from domaingate import autodiff as ad
from domaingate import distributions as dist
from domaingate.autodiff import Tape
from domaingate.data import Instance
from domaingate.encoder import EncoderConfig
from domaingate import inference
from domaingate.inference import STRATEGIES, InferConfig, predict, predict_batch
from domaingate.models import Model, ModelConfig, classify_batch, gate_channels

IDS = (3, 7, 1, 12, 5, 9)


def dirichlet_model(conc_bias=None):
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                      vocab_size=20, k=8, encoder=EncoderConfig(8, 4, (2, 3)),
                      mlp_hidden=6, dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    if conc_bias is not None:
        model.params["phi.conc.b"][:] = conc_bias
    return model


def dirichlet_model_with_edge_posterior():
    """A csda-dirichlet model whose q head gives the concentration
    (0.001, 5), where some draws' first entry rounds to exactly 0."""
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(8, 4, (2, 3)), mlp_hidden=6,
                      dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    for head in ("conc", "base"):
        model.params[f"sigma.{head}.w"][:] = 0.0
    model.params["sigma.conc.b"][:] = np.log(10.0)             # scale 10
    model.params["sigma.base.b"][:] = (np.log(1e-4 / (1.0 - 1e-4)), 0.0)
    return model


def linear_space_estimates(model, m, seed):
    """Mean of exp(log w) per label, replaying the draws of ``predict``."""
    rng = np.random.default_rng(seed)
    tape = Tape()
    binder = model.binder(tape)
    batch = model.pack([IDS])
    h_mat = model.channel_encodings(binder, batch, dropout_rng=None)
    prior = model.prior_gate(binder, batch)
    out = []
    for y in range(model.config.n_labels):
        q = model.posterior_gate(binder, batch, [y], None)
        z = dist.draw_many(q, [rng], m)
        loglik = np.array([
            classify_batch(binder, gate_channels(h_mat, tape.const(row[None, None])))
            .value[0, 0, y] for row in z[0]])
        log_w = dist.log_pdf_many(prior, z)[0] + loglik \
            - dist.log_pdf_many(q, z)[0]
        out.append(np.exp(log_w).mean())
    return np.array(out)


def test_matches_linear_space_average_without_underflow():
    model = dirichlet_model()
    want = linear_space_estimates(model, 100, 0)
    assert np.all(want > 0.0)
    [probs], _ = predict(model, [IDS], InferConfig("importance-sampling", 100),
                         [np.random.default_rng(0)])
    np.testing.assert_allclose(probs, want / want.sum(), rtol=1e-12)
    assert int(probs.argmax()) == int(want.argmax())


def test_peaked_prior_gives_finite_probabilities():
    model = dirichlet_model(conc_bias=7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.all(linear_space_estimates(model, 10, 0) == 0.0)
    [probs], _ = predict(model, [IDS], InferConfig("importance-sampling", 10),
                         [np.random.default_rng(0)])
    assert np.all(np.isfinite(probs))
    assert abs(probs.sum() - 1.0) <= 1e-12
    # label 1's largest log-weight beats all of label 0's by over 1000 nats
    assert int(probs.argmax()) == 1


def test_effective_sample_size_flags_a_dominated_estimate(caplog):
    # With the peaked prior one draw carries each label's estimate, and
    # m=10 and m=100 pick different labels from one seed.
    insts = [Instance("doc-peaked", IDS, 0, None, "l0", None)]
    cfg = InferConfig("importance-sampling", 100)
    with caplog.at_level(logging.WARNING, logger="domaingate.inference"):
        [even] = predict_batch(dirichlet_model(), insts, cfg)
        assert not caplog.records
        [peaked] = predict_batch(dirichlet_model(conc_bias=7.0), insts, cfg)
    assert even.ess > 90.0
    assert 1.0 <= peaked.ess < 2.0
    [warning] = caplog.records
    assert "doc-peaked" in warning.getMessage()
    [mean] = predict_batch(dirichlet_model(), insts, InferConfig("prior-mean"))
    assert mean.ess is None


def test_draws_on_the_edge_of_the_support_raise():
    # Rather than weigh the draws rounded to z = 0 with log-weight -inf
    # (or NaN), importance sampling names the draw and its parameters.
    model = dirichlet_model_with_edge_posterior()
    with pytest.raises(dist.DegenerateSampleError, match=r"z=0\.0, concentration="):
        predict(model, [IDS], InferConfig("importance-sampling", 20),
                [np.random.default_rng(0)])
    # In a chunk, the error names the instance whose draw it was.
    insts = [Instance(f"doc{i}", IDS, 0, None, "l0", None) for i in range(3)]
    with pytest.raises(dist.DegenerateSampleError,
                       match=r"^doc0: draw on the edge .* z=0\.0"):
        predict_batch(model, insts, InferConfig("importance-sampling", 20))


def chunk_model(kind):
    cfg = ModelConfig(kind=kind, n_labels=3, n_domains=2, vocab_size=20, k=2,
                      encoder=EncoderConfig(8, 4, (2, 3)), mlp_hidden=6, dropout=0.5)
    return Model.init(cfg, np.random.default_rng(4))


def ragged_instances(n=5):
    rng = np.random.default_rng(5)
    return [Instance(f"doc{i}", tuple(int(t) for t in rng.integers(0, 20, 1 + 3 * i)),
                     None, None, None, None) for i in range(n)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", ["dsda", "csda-beta", "csda-dirichlet"])
def test_records_do_not_depend_on_the_chunks(monkeypatch, kind, strategy):
    model, insts = chunk_model(kind), ragged_instances()
    infer = InferConfig(strategy, m=7, seed=3)
    monkeypatch.setattr(inference, "CHUNK_SIZE", 1)
    one_by_one = predict_batch(model, insts, infer)
    monkeypatch.setattr(inference, "CHUNK_SIZE", 100)
    together = predict_batch(model, insts, infer)
    for a, b in zip(one_by_one, together):
        assert (a.doc_id, a.label_id) == (b.doc_id, b.label_id)
        np.testing.assert_allclose(a.probs, b.probs, rtol=0, atol=1e-12)
        assert (a.ess is None) == (b.ess is None)
        if a.ess is not None:
            assert a.ess == pytest.approx(b.ess, rel=1e-12)


def test_dsda_marginalizes_exactly_under_every_strategy():
    model, insts = chunk_model("dsda"), ragged_instances(20)
    records = [predict_batch(model, insts, InferConfig(s, m=5, seed=2)) for s in STRATEGIES]
    for rec in records[1:]:
        assert [(r.doc_id, r.label_id, r.ess) for r in rec] == \
            [(r.doc_id, r.label_id, r.ess) for r in records[0]]
        assert all(np.array_equal(a.probs, b.probs) for a, b in zip(rec, records[0]))
    # the exact mixture: p(y|x) = sum_d p(d|x) p(y|x,d)
    binder = model.binder(Tape())
    batch = model.pack([inst.ids for inst in insts])
    weights = np.exp(ad.log_softmax(model.prior_gate(binder, batch)).value)
    per_channel = np.exp(classify_batch(
        binder, model.channel_encodings(binder, batch, dropout_rng=None)).value)
    want = np.einsum("bd,bdl->bl", weights, per_channel)
    np.testing.assert_allclose([r.probs for r in records[0]], want, rtol=1e-12)


@pytest.mark.parametrize("kind", ["csda-beta", "csda-dirichlet"])
def test_one_mc_average_draw_is_the_prior_sample(kind):
    model, insts = chunk_model(kind), ragged_instances(20)
    sample, average = (predict_batch(model, insts, InferConfig(s, m=1, seed=9))
                       for s in ("prior-sample", "mc-average"))
    for a, b in zip(sample, average):
        assert (a.doc_id, a.label_id) == (b.doc_id, b.label_id)
        assert np.array_equal(a.probs, b.probs)
