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

from . import distributions as dist
from .autodiff import Tape
from .data import Instance
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


def collect(model: Model, instances: list[Instance],
            rng: np.random.Generator) -> list[ProbeRecord]:
    """One gate sample per instance from q(z|x, y, d). Instances must
    carry observed labels and domains."""
    if not model.config.is_variational:
        raise ValueError("probe collection needs a variational (csda) model")
    records = []
    for inst in instances:
        if inst.y_id is None or inst.d_id is None:
            raise ValueError(
                f"instance {inst.doc_id} lacks an observed label or domain")
        q = model.posterior_gate(model.binder(Tape()), inst.ids, inst.y_id, inst.d_id)
        z = dist.draw_many(q, rng, 1)[0]
        records.append(ProbeRecord(z, inst.y_id, inst.d_id))
    return records


def fit_logistic(x: np.ndarray, y: np.ndarray, n_classes: int,
                 l2: float = L2_STRENGTH, tol: float = GRAD_TOL,
                 max_iter: int = 50_000) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression by full-batch gradient descent
    with a backtracking step size; converges when the gradient's max
    norm drops below ``tol``."""
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
        loss = nll + 0.5 * l2 * np.sum(w * w)
        delta = (probs - onehot) / n
        return loss, x.T @ delta + l2 * w, delta.sum(axis=0)

    lr = 1.0
    loss, gw, gb = loss_and_grad(w, b)
    for _ in range(max_iter):
        if max(np.abs(gw).max(), np.abs(gb).max()) < tol:
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
    n_train = round(0.7 * len(records))
    if n_train == 0 or n_train == len(records):
        raise ValueError("too few records for a 70/30 split")
    tr, te = perm[:n_train], perm[n_train:]
    w, b = fit_logistic(x[tr], y[tr], len(classes))
    pred = (x[te] @ w + b).argmax(axis=1)
    return float((pred == y[te]).mean())


def probe_averaged(model: Model, instances: list[Instance], target: str,
                   seed: int, runs: int = 3) -> float:
    """Average probe accuracy over ``runs`` collections, each with its own
    gate samples and split."""
    accs = []
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        records = collect(model, instances, rng)
        accs.append(probe(records, target, split_seed=seed + r))
    return float(np.mean(accs))


def export_representations(model: Model, instances: list[Instance],
                           kind: str, rng: Optional[np.random.Generator] = None
                           ) -> list[dict]:
    """One row per instance: the gated hidden vector (kind='h', using the
    prior mean as gate) or a gate sample from the prior drawn with ``rng``
    (kind='z'), with the raw label/domain strings for plotting."""
    if kind not in ("h", "z"):
        raise ValueError(f"export kind must be 'h' or 'z', got {kind!r}")
    if kind == "z" and rng is None:
        raise ValueError("export kind 'z' draws gate samples and needs an rng")
    rows = []
    for inst in instances:
        tape = Tape()
        binder = model.binder(tape)
        if not model.config.is_variational:
            vec = np.full(model.config.k, 1.0 / model.config.k)
        elif kind == "z":
            vec = dist.draw_many(model.prior_gate(binder, inst.ids), rng, 1)[0]
        else:
            vec = dist.mean(model.prior_gate(binder, inst.ids))
        if kind == "h":
            h_mat = model.channel_encodings(binder, inst.ids, dropout_rng=None)
            vec = gate_channels(h_mat, tape.const(vec)).value
        rows.append({"id": inst.doc_id, "vector": vec,
                     "label": inst.label, "domain": inst.domain})
    return rows
