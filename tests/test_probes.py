"""Diagnostic probes: the logistic-regression fit, the 70/30 probe split,
gate-sample collection and its input checks, and representation
export; collection and export draw from per-instance streams, so their
rows do not depend on how the instances are cut into chunks."""

import numpy as np
import pytest

from domaingate import distributions as dist
from domaingate import inference, probes
from domaingate.autodiff import Tape
from domaingate.data import Instance
from domaingate.encoder import EncoderConfig
from domaingate.models import Model, ModelConfig, gate_channels

ENC = EncoderConfig(embed_dim=8, n_filters=4, windows=(2, 3))


def toy_model(kind, k=3):
    cfg = ModelConfig(kind=kind, n_labels=2, n_domains=2, vocab_size=20, k=k,
                      encoder=ENC, mlp_hidden=6, dropout=0.0)
    return Model.init(cfg, np.random.default_rng(0))


def instances(n=4):
    return [Instance(f"doc{i}", (3, 7, 1 + i, 12, 5, 9), i % 2, (i // 2) % 2,
                     f"l{i % 2}", f"d{(i // 2) % 2}") for i in range(n)]


class TestFitLogistic:
    def test_separable_data_is_fit_to_tolerance(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-2.0, 0.5, (20, 2)), rng.normal(2.0, 0.5, (20, 2))])
        y = np.repeat([0, 1], 20)
        w, b = probes.fit_logistic(x, y, 2)
        assert w.shape == (2, 2) and b.shape == (2,)
        assert np.all((x @ w + b).argmax(axis=1) == y)
        # converged: the regularized gradient vanishes at (w, b)
        logits = x @ w + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        delta = (p - np.eye(2)[y]) / len(y)
        assert np.abs(x.T @ delta + probes.L2_STRENGTH * w).max() < probes.GRAD_TOL
        assert np.abs(delta.sum(axis=0)).max() < probes.GRAD_TOL


def records(n, rng):
    # z carries y in its first entry and d in its second
    out = []
    for i in range(n):
        y, d = i % 2, (i // 2) % 2
        z = np.array([y, d, 0.5]) + rng.normal(0.0, 0.05, 3)
        out.append(probes.ProbeRecord(z, y, d))
    return out


class TestProbe:
    def test_splits_70_30_and_scores_held_out_side(self, monkeypatch):
        sizes = []
        real_fit = probes.fit_logistic

        def recording_fit(x, y, n_classes):
            sizes.append(len(x))
            return real_fit(x, y, n_classes)

        monkeypatch.setattr(probes, "fit_logistic", recording_fit)
        recs = records(20, np.random.default_rng(1))
        assert probes.probe(recs, "y", split_seed=0) == 1.0
        assert probes.probe(recs, "d", split_seed=0) == 1.0
        assert sizes == [14, 14]

    def test_split_is_seeded(self):
        recs = records(20, np.random.default_rng(2))
        for r in recs[:6]:  # make some records uninformative
            r.z[:] = 0.5
        accs = {probes.probe(recs, "y", split_seed=s) for s in range(6)}
        assert probes.probe(recs, "y", split_seed=3) == probes.probe(recs, "y", split_seed=3)
        assert len(accs) > 1

    @pytest.mark.parametrize("recs, target, message", [
        (records(10, np.random.default_rng(0)), "x", "'y' or 'd'"),
        ([probes.ProbeRecord(np.zeros(3), 0, i % 2) for i in range(10)], "y",
         "single class"),
        # two records of two classes: the 70% side holds one class only
        (records(2, np.random.default_rng(0)), "y", "training side .* lacks"),
    ])
    def test_rejects_bad_input(self, recs, target, message):
        with pytest.raises(ValueError, match=message):
            probes.probe(recs, target, split_seed=0)


class TestCollect:
    def test_one_gate_sample_per_instance_from_q(self):
        model = toy_model("csda-dirichlet")
        insts = instances()
        recs = probes.collect(model, insts, 0)
        assert [(r.y_id, r.d_id) for r in recs] == [(i.y_id, i.d_id) for i in insts]
        for r in recs:
            assert r.z.shape == (3,) and np.all(r.z >= 0.0)
            assert abs(r.z.sum() - 1.0) <= 1e-10
        # the same seed replays the same draws, another seed draws afresh
        again = probes.collect(model, insts, 0)
        assert all(np.array_equal(a.z, b.z) for a, b in zip(recs, again))
        other = probes.collect(model, insts, 1)
        assert not any(np.array_equal(a.z, b.z) for a, b in zip(recs, other))

    @pytest.mark.parametrize("kind", ["scnn", "mcnn", "dsda"])
    def test_rejects_non_variational_models(self, kind):
        model = toy_model(kind, k=1 if kind == "scnn" else 3)
        with pytest.raises(ValueError, match="variational"):
            probes.collect(model, instances(), 0)

    @pytest.mark.parametrize("y_id, d_id", [(None, 0), (0, None)])
    def test_rejects_unobserved_label_or_domain(self, y_id, d_id):
        insts = instances(2) + [Instance("partial", (3, 4, 5), y_id, d_id, None, None)]
        with pytest.raises(ValueError, match="partial"):
            probes.collect(toy_model("csda-beta"), insts, 0)


class TestExport:
    def test_h_rows_gate_channels_with_prior_mean(self):
        model = toy_model("csda-dirichlet")
        insts = instances(2)
        rows = probes.export_representations(model, insts, "h", 0)
        assert [(r["id"], r["label"], r["domain"]) for r in rows] == [
            (i.doc_id, i.label, i.domain) for i in insts]
        tape = Tape()
        binder = model.binder(tape)
        batch = model.pack([insts[0].ids])
        gate = dist.mean(model.prior_gate(binder, batch))
        h_mat = model.channel_encodings(binder, batch, dropout_rng=None)
        want = gate_channels(h_mat, tape.const(gate[:, None])).value[0, 0]
        assert rows[0]["vector"].shape == (ENC.out_dim,)
        np.testing.assert_allclose(rows[0]["vector"], want, rtol=1e-13, atol=1e-15)

    def test_z_rows_are_prior_draws(self):
        model = toy_model("csda-beta")
        insts = instances(3)
        rows = probes.export_representations(model, insts, "z", 5)
        for i, (inst, row) in enumerate(zip(insts, rows)):
            rng = np.random.default_rng(np.random.SeedSequence((5, i)))
            prior = model.prior_gate(model.binder(Tape()), model.pack([inst.ids]))
            np.testing.assert_allclose(row["vector"],
                                       model.gate(dist.draw_many(prior, [rng], 1))[0, 0],
                                       rtol=1e-12)

    def test_dsda_rows_follow_the_prior_logits(self):
        # logits (5, -5): h rows gate with softmax(5, -5), the categorical's
        # mean, and z rows are one-hot draws from it.
        model = toy_model("dsda", k=2)
        model.params["phi.logits.w"][:] = 0.0
        model.params["phi.logits.b"][:] = (5.0, -5.0)
        insts = instances(3)
        probs = np.exp([5.0, -5.0]) / np.exp([5.0, -5.0]).sum()
        z_rows = probes.export_representations(model, insts, "z", 0)
        for row in z_rows:
            np.testing.assert_array_equal(row["vector"], [1.0, 0.0])
        model.params["phi.logits.b"][:] = (-5.0, 5.0)
        flipped = probes.export_representations(model, insts, "z", 0)
        assert all(list(r["vector"]) == [0.0, 1.0] for r in flipped)
        tape = Tape()
        binder = model.binder(tape)
        batch = model.pack([i.ids for i in insts])
        h_mat = model.channel_encodings(binder, batch, dropout_rng=None)
        want = gate_channels(h_mat, tape.const(np.tile(probs[::-1], (3, 1, 1)))).value[:, 0]
        h_rows = probes.export_representations(model, insts, "h", 0)
        np.testing.assert_allclose([r["vector"] for r in h_rows], want, rtol=1e-12)

    def test_non_variational_rows_use_uniform_gate(self):
        rows = probes.export_representations(toy_model("mcnn"), instances(1), "z", 0)
        np.testing.assert_array_equal(rows[0]["vector"], np.full(3, 1.0 / 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'h' or 'z'"):
            probes.export_representations(toy_model("mcnn"), instances(1), "x", 0)


@pytest.mark.parametrize("kind", ["mcnn", "dsda", "csda-beta", "csda-dirichlet"])
def test_rows_do_not_depend_on_the_chunks(monkeypatch, kind):
    model, insts = toy_model(kind), instances(5)

    def rows():
        out = [[r["vector"] for r in probes.export_representations(model, insts, repr_, 3)]
               for repr_ in ("h", "z")]
        if model.config.is_variational:
            out.append([r.z for r in probes.collect(model, insts, 3)])
        return out
    monkeypatch.setattr(inference, "CHUNK_SIZE", 1)
    one_by_one = rows()
    monkeypatch.setattr(inference, "CHUNK_SIZE", 100)
    for got, want in zip(rows(), one_by_one):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
