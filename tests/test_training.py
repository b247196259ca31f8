"""Training-loop policies: the config refuses an unknown lambda schedule
and an anneal horizon below one step, lambda follows its schedule step
by step, evaluation refuses non-finite label probabilities instead of
scoring their default argmax, an instance
whose gate draw has no usable gradient is left out of its step's mean
and counted instead of ending the run, non-finite gradients raise
before Adam changes a parameter while a norm that overflows on finite
ones does not, row-sparse embedding gradients train exactly as
dense ones would, the result holds the best-dev parameters, and a step's
tape is freed before the dev evaluation."""

import copy
import gc
import weakref

import numpy as np
import pytest

from domaingate import training
from domaingate.autodiff import NonFiniteError, RowGrad
from domaingate.data import Instance
from domaingate.encoder import EncoderConfig
from domaingate.inference import InferConfig, PredictionRecord
from domaingate.training import EvalResult
from domaingate.models import Model, ModelConfig
from conftest import FixedNoise, RecordingNoise, to_float64
from test_optim import dense_adam_step, dense_moments


def dense(g):
    return g.dense() if isinstance(g, RowGrad) else g


def test_evaluate_names_instance_with_non_finite_probs(monkeypatch):
    insts = [Instance(f"doc{i}", (1, 2, 3), 0, 0, "pos", "dom0") for i in range(2)]

    def stub_predict_batch(model, instances, cfg):
        probs = [np.array([0.9, 0.1]), np.array([np.nan, np.nan])]
        return [PredictionRecord(inst.doc_id, 0, p)
                for inst, p in zip(instances, probs)]

    monkeypatch.setattr(training, "predict_batch", stub_predict_batch)
    with pytest.raises(FloatingPointError, match="doc1"):
        training.evaluate(None, insts, InferConfig())


def test_grad_norm_sums_float32_gradients_in_float64():
    # Float32 encoder gradients of a paper-size table and a convolution:
    # summed in float32, the squares would lose digits across their
    # 1.3 million entries.
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4000, 300)).astype(np.float32)
    grads = {"emb": RowGrad(np.arange(0, 20000, 5), rows, 20000),
             "conv": rng.normal(size=(3, 300, 128)).astype(np.float32)}
    want = np.sqrt(sum(np.sum(np.square(x, dtype=np.float64))
                       for x in (grads["emb"].values, grads["conv"])))
    assert training._global_norm(grads) == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradients_raise_before_adam_changes_anything():
    # q's channel 0 has concentration sigmoid(-690) = 2.17e-300 in every
    # row: an ordinary draw keeps the row, and the KL's backward through
    # trigamma(2e-300) makes every sigma.* gradient inf or NaN.
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(6, 3, (2, 3)), mlp_hidden=5,
                      dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    for head in ("conc", "base"):
        model.params[f"sigma.{head}.w"][:] = 0.0
    model.params["sigma.conc.b"][:] = 0.0
    model.params["sigma.base.b"][:] = (-690.0, 0.0)
    before = {name: arr.copy() for name, arr in model.params.items()}
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    with pytest.raises(NonFiniteError, match=r"step 1: .*'sigma\."):
        training.train(model, insts, insts[:2],
                       training.TrainConfig(batch_size=2, max_epochs=1, lr=1e-3, seed=3))
    for name, arr in before.items():
        assert model.params[name].tobytes() == arr.tobytes(), name


def test_norm_overflow_of_finite_gradients_takes_the_step(monkeypatch):
    # A float64 sum of squares can overflow while every gradient entry is
    # finite; such a step is logged with its infinite norm and taken.
    monkeypatch.setattr(training, "_global_norm", lambda grads: float("inf"))
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(6, 3, (2, 3)), mlp_hidden=5)
    steps = []
    real_adam = training.adam_step
    monkeypatch.setattr(training, "adam_step",
                        lambda *args: (steps.append(1), real_adam(*args)))
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    result = training.train(Model.init(cfg, np.random.default_rng(0)), insts, insts[:2],
                            training.TrainConfig(batch_size=2, max_epochs=1, lr=1e-3, seed=3))
    assert [e["grad_norm"] for e in result.log] == [float("inf")] * 2
    assert len(steps) == 2


@pytest.mark.parametrize("kwargs", [{"lam_schedule": "cosine"}, {"anneal_steps": 0},
                                    {"anneal_steps": -5}])
def test_config_refuses_unknown_schedule_and_short_anneal(kwargs):
    # A negative horizon would make lambda a negative KL weight; 0 would
    # silently mean one epoch.
    with pytest.raises(ValueError):
        training.TrainConfig(**kwargs)


@pytest.mark.parametrize("schedule, anneal_steps, horizon", [
    ("linear-anneal", 3, 3), ("linear-anneal", None, 4), ("fixed", None, None)])
def test_kl_weight_follows_its_schedule(schedule, anneal_steps, horizon):
    # Eight instances in batches of two: four steps an epoch, two epochs.
    # A linear anneal raises lambda from 0 at the first step to lam after
    # ``anneal_steps`` steps (None: one epoch); fixed holds lam.
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(6, 3, (2, 3)), mlp_hidden=5)
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(8)]
    tcfg = training.TrainConfig(lam=0.5, lam_schedule=schedule, anneal_steps=anneal_steps,
                                batch_size=2, max_epochs=2, patience=100, seed=2)
    result = training.train(Model.init(cfg, np.random.default_rng(0)), insts, insts[:2], tcfg)
    assert [e["step"] for e in result.log] == list(range(1, 9))
    want = [0.5 * (1.0 if horizon is None else min(1.0, (step - 1) / horizon))
            for step in range(1, 9)]
    assert [e["lambda"] for e in result.log] == pytest.approx(want, rel=1e-15)


class TopNoiseOnChannel0:
    """A generator stand-in that passes ``random(shape)`` on to ``rng``
    with every uniform of gate channel 0 (the first entry of the last
    axis) set to 1."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        u = self.rng.random(shape)
        u[..., 0] = 1.0
        return u


def test_degenerate_sample_is_skipped_and_counted(monkeypatch):
    # q's channel 0 has concentration sigmoid(-690) = 2.17e-300 for domain
    # 0, whose Gamma draw at the top noise has an underflowing density (no
    # pathwise gradient), and 0.5 for domain 1; channel 0 always draws at
    # the top noise. With three domain-0 instances and one domain-1
    # instance in batches of two, one batch keeps one instance and the
    # other keeps none.
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                      vocab_size=20, k=2, encoder=EncoderConfig(8, 4, (2, 3)),
                      mlp_hidden=6, dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    d_coord = cfg.encoder.out_dim + 4      # first domain-embedding input
    model.params["sigma.d_emb"][:] = 0.0
    model.params["sigma.d_emb"][0, 0] = 1.0
    for head in ("conc", "base"):
        model.params[f"sigma.{head}.w"][:] = 0.0
        model.params[f"sigma.{head}.b"][:] = 0.0
    model.params["sigma.base.w"][d_coord, 0] = -690.0
    initial = model.copy()
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, int(i == 2),
                      f"l{i % 2}", f"d{int(i == 2)}") for i in range(4)]
    real_loss, real_backprop, real_adam = Model.loss, training.backprop, training.adam_step
    noise, kept, applied = [], [], []

    def recording_loss(self, *args, rng, **kwargs):
        noise.append(RecordingNoise(TopNoiseOnChannel0(rng)))
        return real_loss(self, *args, rng=noise[-1], **kwargs)

    def recording_backprop(loss):
        grads = real_backprop(loss)
        [u] = noise[-1].draws
        kept.append((loss, copy.deepcopy(grads), u))
        return grads

    def recording_adam(params, grads, opt):
        applied.append(copy.deepcopy(grads))
        return real_adam(params, grads, opt)

    monkeypatch.setattr(Model, "loss", recording_loss)
    monkeypatch.setattr(training, "backprop", recording_backprop)
    monkeypatch.setattr(training, "adam_step", recording_adam)
    tcfg = training.TrainConfig(batch_size=2, max_epochs=1, lr=1e-3, seed=3)
    result = training.train(model, insts, insts[:2], tcfg)

    # The degenerate rows are flagged at draw time: only the batch that
    # keeps a row reaches backprop, and no error is raised.
    assert sorted(e["degenerate"] for e in result.log) == [1, 2]
    assert len(kept) == 1 and len(applied) == 1
    one = next(e for e in result.log if e["degenerate"] == 1)
    none = next(e for e in result.log if e["degenerate"] == 2)
    # The step averages over the one instance it kept: its loss and
    # gradients are those of that instance alone under its own draw ...
    loss, grads, u = kept[0]
    [node] = [n for n in loss._tape.nodes if n.kind == "gamma_sample"]
    [row] = np.flatnonzero(loss._tape.nodes[node.inputs[0]].value[:, 0] == 0.5)
    alone = initial.loss([insts[2].ids], [insts[2].y_id], [insts[2].d_id],
                         lam=tcfg.lam, rng=FixedNoise(u[row:row + 1]))
    assert one["loss"] == loss.item() == pytest.approx(alone.loss.item(), rel=1e-12)
    assert one["kl"] == pytest.approx(alone.kl, rel=1e-12)
    for name, g in real_backprop(alone.loss).items():
        assert type(applied[0][name]) is type(grads[name])
        np.testing.assert_allclose(dense(applied[0][name]), dense(g), rtol=1e-10, atol=1e-15)
    # ... and a batch that keeps none takes no step.
    assert none["loss"] is None and none["kl"] is None and none["grad_norm"] is None
    assert result.steps == 2


def test_importance_sampled_dev_evaluation_of_an_edge_beta_posterior():
    # q about Beta(5, 0.02) on every channel, whose gates round to 1.0 in
    # about half the draws. Scored as pairs, no draw is on the edge, so
    # training keeps every row and the importance-sampled dev evaluation
    # scores every draw.
    cfg = ModelConfig(kind="csda-beta", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(8, 4, (2, 3)), mlp_hidden=6,
                      dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    model.params["sigma.alpha.b"][:] = 4.0            # elu(4) + 1 = 5
    model.params["sigma.beta.b"][:] = np.log(0.02)    # elu(ln 0.02) + 1 = 0.02
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    tcfg = training.TrainConfig(batch_size=2, max_epochs=2, lr=1e-3, seed=3,
                                infer=InferConfig("importance-sampling", 20))
    result = training.train(model, insts, insts[:2], tcfg)
    assert result.steps == 4
    assert [e["degenerate"] for e in result.log] == [0] * 4
    assert sum("dev_acc" in e for e in result.log) == 4


def test_row_gradients_train_like_dense_gradients(monkeypatch):
    """Two epochs with row gradients give parameters bitwise equal to
    densifying every gradient and taking the dense reference Adam step;
    each log entry's grad_norm is the norm of the averaged gradient."""
    cfg = ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                      vocab_size=30, k=2, encoder=EncoderConfig(6, 3, (2, 3)),
                      mlp_hidden=5, dropout=0.5)
    model = Model.init(cfg, np.random.default_rng(0))
    to_float64(model.params)
    rng = np.random.default_rng(1)
    insts = [Instance(f"doc{i}", tuple(int(t) for t in rng.integers(1, 30, 4 + i)),
                      i % 2, i % 2, f"l{i % 2}", f"d{i % 2}") for i in range(7)]
    tcfg = training.TrainConfig(batch_size=3, max_epochs=2, lr=1e-2, seed=5)
    real_backprop, real_adam = training.backprop, training.adam_step
    kinds, norms = set(), []

    def spying_adam(params, grads, opt):
        kinds.add(type(grads["theta.ch.emb"]))
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


def test_label_embedding_row_gradient_steps_like_its_dense_form(monkeypatch):
    """A csda-beta step looks ``sigma.y_emb`` up once, so it gets a
    ``RowGrad`` over the batch's labels, and Adam moves the table and its
    moments bitwise as it would with the dense gradient."""
    cfg = ModelConfig(kind="csda-beta", n_labels=3, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(6, 3, (2, 3)), mlp_hidden=5,
                      dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    insts = [Instance(f"doc{i}", (3, 7, 1 + i, 12, 5), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    real_adam = training.adam_step
    seen = []

    def checking_adam(params, grads, opt):
        g = grads["sigma.y_emb"]
        ref_params, ref_opt = copy.deepcopy(params), copy.deepcopy(opt)
        real_adam(ref_params, {**grads, "sigma.y_emb": g.dense()}, ref_opt)
        real_adam(params, grads, opt)
        seen.append(g)
        np.testing.assert_array_equal(params["sigma.y_emb"], ref_params["sigma.y_emb"])
        m, v = dense_moments(opt, "sigma.y_emb", params["sigma.y_emb"].shape)
        ref_m, ref_v = dense_moments(ref_opt, "sigma.y_emb", params["sigma.y_emb"].shape)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(v, ref_v)

    monkeypatch.setattr(training, "adam_step", checking_adam)
    training.train(model, insts, insts[:2],
                   training.TrainConfig(batch_size=2, max_epochs=2, lr=1e-2, seed=3))
    assert len(seen) == 4 and all(isinstance(g, RowGrad) for g in seen)
    # Labels 0 and 1 only: row 2 and the UNK row 3 carry no gradient.
    assert set(np.concatenate([g.ids for g in seen]).tolist()) == {0, 1}


@pytest.mark.parametrize("accuracies, best", [((0.5, 0.8, 0.6, 0.7), 1),
                                              ((0.5, 0.6, 0.7, 0.8), 3)])
def test_result_holds_best_dev_parameters(monkeypatch, accuracies, best):
    """Scripted dev accuracies over four evaluations (two per epoch): the
    result equals, bitwise, the parameters at the best evaluation, and
    shares ``model``'s arrays when training ends on its best state."""
    cfg = ModelConfig(kind="mcnn", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(6, 3, (2, 3)), mlp_hidden=5,
                      dropout=0.0)
    model = Model.init(cfg, np.random.default_rng(0))
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    seen = []

    def scripted_evaluate(m, instances, infer_cfg):
        seen.append({n: a.copy() for n, a in m.params.items()})
        return EvalResult(accuracies[len(seen) - 1], {})

    monkeypatch.setattr(training, "evaluate", scripted_evaluate)
    result = training.train(model, insts, insts[:2], training.TrainConfig(
        batch_size=2, max_epochs=2, lr=1e-2, seed=1))

    assert len(seen) == 4 and result.best_dev_accuracy == accuracies[best]
    for name, arr in result.model.params.items():
        assert arr.tobytes() == seen[best][name].tobytes()
        assert (arr is model.params[name]) == (best == 3)
    assert any(not np.array_equal(seen[1][n], seen[3][n]) for n in seen[1])


def test_step_tape_is_freed_before_the_dev_evaluation(monkeypatch):
    """The dev evaluation runs after the step's tape and gradients are
    dropped, so its peak does not add to theirs. With the cyclic
    collector off, the tape dies by reference counting alone."""
    cfg = ModelConfig(kind="csda-beta", n_labels=2, n_domains=2, vocab_size=20,
                      k=2, encoder=EncoderConfig(6, 3, (2, 3)), mlp_hidden=5)
    model = Model.init(cfg, np.random.default_rng(0))
    insts = [Instance(f"doc{i}", (3, 7, 1, 12, 5 + i, 9), i % 2, i % 2,
                      f"l{i % 2}", f"d{i % 2}") for i in range(4)]
    tapes, alive = [], []
    real_loss = Model.loss

    def recording_loss(self, *args, **kwargs):
        res = real_loss(self, *args, **kwargs)
        tapes.append(weakref.ref(res.tape))
        return res

    def checking_evaluate(m, instances, infer_cfg):
        alive.append(tapes[-1]() is not None)
        return EvalResult(0.5, {})

    monkeypatch.setattr(Model, "loss", recording_loss)
    monkeypatch.setattr(training, "evaluate", checking_evaluate)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        training.train(model, insts, insts[:2], training.TrainConfig(
            batch_size=2, max_epochs=1, lr=1e-2, seed=1))
    finally:
        if was_enabled:
            gc.enable()
    assert alive == [False, False]
