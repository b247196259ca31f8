"""Diagnostic probes: linear classifiers trained on recorded gate
samples to measure how much label and domain information the latent
variable carries, plus representation export for external plotting.

Gate samples come from the variational network on training instances
(label and domain observed). The probe is a multinomial logistic
regression with L2 regularization 1e-3, fit by full-batch gradient
descent to gradient norm < 1e-6, trained on 70% of the records and
scored on the remaining 30%; reported accuracies average three runs
with freshly drawn gate samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConfigError
from . import autodiff as ad
from . import distributions as dist
from .autodiff import Tape
from .data import Instance
from .inference import CHUNK_SIZE
from .models import Model, gate_channels

__all__ = ["ProbeRecord", "collect", "probe", "probe_averaged",
           "export_representations", "fit_logistic"]

L2_STRENGTH = 1e-3
GRAD_TOL = 1e-6


@dataclass(frozen=True)
class ProbeRecord:
    z: np.ndarray
    y_id: int
    d_id: int


def _chunks(instances: list[Instance]):
    for start in range(0, len(instances), CHUNK_SIZE):
        yield instances[start:start + CHUNK_SIZE]


def collect(model: Model, instances: list[Instance],
            rng: np.random.Generator) -> list[ProbeRecord]:
    """One gate sample per instance from q(z|x, y, d), drawn from ``rng``
    instance by instance. Instances must carry observed labels and
    domains."""
    if not model.config.is_variational:
        raise ValueError("probe collection needs a variational (csda) model")
    for inst in instances:
        if inst.y_id is None or inst.d_id is None:
            raise ValueError(
                f"instance {inst.doc_id} lacks an observed label or domain")
    records = []
    for chunk in _chunks(instances):
        q = model.posterior_gate(model.binder(Tape()), model.pack([i.ids for i in chunk]),
                                 [i.y_id for i in chunk], [i.d_id for i in chunk])
        z = dist.draw_many(q, [rng] * len(chunk), 1)[:, 0]
        records.extend(ProbeRecord(row, inst.y_id, inst.d_id)
                       for row, inst in zip(z, chunk))
    return records


def fit_logistic(x: np.ndarray, y: np.ndarray,
                 n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression with L2 strength ``L2_STRENGTH``
    by full-batch gradient descent with a backtracking step size; stops
    when the gradient's max norm drops below ``GRAD_TOL``, or after
    50,000 steps."""
    n, d = x.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    def loss_and_grad(w, b):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        nll = -np.mean(np.log(probs[np.arange(n), y]))
        loss = nll + 0.5 * L2_STRENGTH * np.sum(w * w)
        delta = (probs - onehot) / n
        return loss, x.T @ delta + L2_STRENGTH * w, delta.sum(axis=0)

    lr = 1.0
    loss, gw, gb = loss_and_grad(w, b)
    for _ in range(50_000):
        if max(np.abs(gw).max(), np.abs(gb).max()) < GRAD_TOL:
            break
        while True:
            w_new = w - lr * gw
            b_new = b - lr * gb
            loss_new, gw_new, gb_new = loss_and_grad(w_new, b_new)
            if loss_new <= loss or lr < 1e-12:
                break
            lr *= 0.5
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
        lr *= 1.1
    return w, b


def probe(records: list[ProbeRecord], target: str, split_seed: int) -> float:
    """Train on a 70% split of the records, return accuracy on the 30%."""
    if target not in ("y", "d"):
        raise ValueError(f"probe target must be 'y' or 'd', got {target!r}")
    labels = np.array([r.y_id if target == "y" else r.d_id for r in records])
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError(f"probe target {target!r} has a single class")
    remap = {c: i for i, c in enumerate(classes)}
    y = np.array([remap[v] for v in labels])
    x = np.stack([r.z for r in records])
    perm = np.random.default_rng(split_seed).permutation(len(records))
    tr, te = np.split(perm, [round(0.7 * len(records))])
    missing = sorted(set(classes.tolist()) - set(labels[tr].tolist()))
    if missing:
        raise ValueError(f"the 70% training side of the {target!r} probe lacks "
                         f"class(es) {missing}")
    w, b = fit_logistic(x[tr], y[tr], len(classes))
    pred = (x[te] @ w + b).argmax(axis=1)
    return float((pred == y[te]).mean())


def probe_averaged(model: Model, instances: list[Instance], target: str,
                   seed: int, runs: int = 3) -> float:
    """Average probe accuracy over ``runs`` collections, each with its own
    gate samples and split."""
    if runs < 1:
        raise ConfigError("runs", f"must be >= 1, got {runs}")
    accs = []
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        records = collect(model, instances, rng)
        accs.append(probe(records, target, split_seed=seed + r))
    return float(np.mean(accs))


def export_representations(model: Model, instances: list[Instance],
                           kind: str, rng: Optional[np.random.Generator] = None
                           ) -> list[dict]:
    """One row per instance: the gated hidden vector (kind='h', gated by
    the prior mean: csda's mean gate, dsda's prior probabilities) or a
    gate sample from the prior drawn with ``rng`` (kind='z': a csda draw,
    or a one-hot dsda draw), with the raw label/domain strings for
    plotting. The plain baselines use the uniform gate for both."""
    if kind not in ("h", "z"):
        raise ValueError(f"export kind must be 'h' or 'z', got {kind!r}")
    if kind == "z" and rng is None:
        raise ValueError("export kind 'z' draws gate samples and needs an rng")
    cfg = model.config
    rows = []
    for chunk in _chunks(instances):
        tape = Tape()
        binder = model.binder(tape)
        batch = model.pack([inst.ids for inst in chunk])
        if cfg.is_variational:
            prior = model.prior_gate(binder, batch)
            gates = (dist.draw_many(prior, [rng] * batch.size, 1)[:, 0] if kind == "z"
                     else dist.mean(prior))
        elif cfg.family == "categorical":
            gates = np.exp(ad.log_softmax(model.prior_gate(binder, batch)).value)
            if kind == "z":
                # Inverse CDF of each row's categorical at one uniform.
                u = rng.random(batch.size)[:, None]
                picks = np.minimum((u >= np.cumsum(gates, axis=1)).sum(axis=1), cfg.k - 1)
                gates = np.eye(cfg.k)[picks]
        else:
            gates = np.full((batch.size, cfg.k), 1.0 / cfg.k)
        if kind == "h":
            h_mat = model.channel_encodings(binder, batch, dropout_rng=None)
            gates = gate_channels(h_mat, tape.const(gates)).value
        rows.extend({"id": inst.doc_id, "vector": vec, "label": inst.label,
                     "domain": inst.domain} for inst, vec in zip(chunk, gates))
    return rows
