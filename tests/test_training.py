"""Training-loop policies: evaluation refuses non-finite label
probabilities instead of scoring their default argmax, an instance
whose gate draw has no usable gradient is skipped and counted instead
of ending the run, and row-sparse embedding gradients train exactly as
dense ones would."""

import copy

import numpy as np
import pytest

from domaingate import training
from domaingate.autodiff import RowGrad
from domaingate.data import Instance
from domaingate.distributions import DegenerateSampleError
from domaingate.encoder import EncoderConfig
from domaingate.inference import InferConfig, PredictionRecord
from domaingate.models import Model, ModelConfig
from test_optim import dense_adam_step


def dense(g):
    return g.dense() if isinstance(g, RowGrad) else g


def test_evaluate_names_instance_with_non_finite_probs(monkeypatch):
    insts = [Instance(f"doc{i}", (1, 2, 3), 0, 0, "pos", "dom0") for i in range(2)]

    def stub_predict_batch(model, instances, cfg):
        probs = [np.array([0.9, 0.1]), np.array([np.nan, np.nan])]
        return [PredictionRecord(inst.doc_id, 0, p, cfg.strategy, cfg.seed)
                for inst, p in zip(instances, probs)]

    monkeypatch.setattr(training, "predict_batch", stub_predict_batch)
    with pytest.raises(FloatingPointError, match="doc1"):
        training.evaluate(None, insts, InferConfig())


def test_degenerate_sample_is_skipped_and_counted(monkeypatch):
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                      vocab_size=20, k=2, encoder=EncoderConfig(8, 4, (2, 3)),
                      mlp_hidden=6, dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    real_backprop, real_adam = training.backprop, training.adam_step
    calls, kept, applied = [], [], []

    def flaky_backprop(loss):
        # Batch 1 loses its first instance, batch 2 loses both.
        calls.append(loss.item())
        if len(calls) in (1, 3, 4):
            raise DegenerateSampleError("density underflow")
        grads = real_backprop(loss)
        kept.append((loss.item(), copy.deepcopy(grads)))
        return grads

    def recording_adam(params, grads, opt):
        applied.append(copy.deepcopy(grads))
        return real_adam(params, grads, opt)

    monkeypatch.setattr(training, "backprop", flaky_backprop)
    monkeypatch.setattr(training, "adam_step", recording_adam)
    result = training.train(model, insts, insts[:2], training.TrainConfig(
        batch_size=2, max_epochs=1, lr=1e-3, seed=3))

    assert len(calls) == 4
    assert [e["degenerate"] for e in result.log] == [1, 2]
    # The step averages over the one instance it kept ...
    assert len(kept) == 1 and len(applied) == 1
    assert result.log[0]["loss"] == kept[0][0]
    for name, g in kept[0][1].items():
        assert type(applied[0][name]) is type(g)
        np.testing.assert_array_equal(dense(applied[0][name]), dense(g))
    # ... and a batch that keeps none takes no step.
    assert result.log[1]["loss"] is None and result.log[1]["kl"] is None
    assert result.steps == 2


def test_row_gradients_train_like_dense_gradients(monkeypatch):
    """Two epochs with row gradients give parameters bitwise equal to
    densifying every gradient and taking the dense reference Adam step;
    each log entry's grad_norm is the norm of the averaged gradient."""
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                      vocab_size=30, k=2, encoder=EncoderConfig(6, 3, (2, 3)),
                      mlp_hidden=5, dropout=0.5)
    model = Model.init(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    insts = [Instance(f"doc{i}", tuple(int(t) for t in rng.integers(1, 30, 4 + i)),
                      i % 2, i % 2, f"l{i % 2}", f"d{i % 2}") for i in range(7)]
    tcfg = training.TrainConfig(batch_size=3, max_epochs=2, lr=1e-2, seed=5)
    real_backprop, real_adam = training.backprop, training.adam_step
    kinds, norms = set(), []

    def spying_adam(params, grads, opt):
        kinds.add(type(grads["theta.ch0.emb"]))
        return real_adam(params, grads, opt)

    monkeypatch.setattr(training, "adam_step", spying_adam)
    rows = model.copy()
    rows_log = training.train(rows, insts, insts[:2], tcfg).log
    assert kinds == {RowGrad}

    def reference_adam(params, grads, opt):
        norms.append(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
        dense_adam_step(params, grads, opt)

    monkeypatch.setattr(training, "backprop", lambda loss: {
        n: dense(g) for n, g in real_backprop(loss).items()})
    monkeypatch.setattr(training, "adam_step", reference_adam)
    ref = model.copy()
    ref_log = training.train(ref, insts, insts[:2], tcfg).log

    for name in model.params:
        np.testing.assert_array_equal(rows.params[name], ref.params[name])
    strip = [{k: v for k, v in e.items() if k != "grad_norm"} for e in rows_log]
    assert strip == [{k: v for k, v in e.items() if k != "grad_norm"} for e in ref_log]
    assert len(norms) == len(rows_log) == 6
    np.testing.assert_allclose([e["grad_norm"] for e in rows_log], norms, rtol=1e-12)
