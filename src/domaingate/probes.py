"""Diagnostic probes: linear classifiers trained on recorded gate
samples to measure how much label and domain information the latent
variable carries, plus representation export for external plotting.

Gate samples come from the variational network on training instances
(label and domain observed). The probe is a multinomial logistic
regression with L2 regularization 1e-3, fit by full-batch gradient
descent to gradient norm < 1e-6, trained on 70% of the records and
scored on the remaining 30%; reported accuracies average three runs,
each scoring both targets on one collection of freshly drawn gate
samples.

Collection and export run on ``inference.chunks``: instance i draws
from its own stream, seeded with (seed, i), whatever the chunk size.
Export reads the prior gate from ``inference.gates``, the one gate
source that prediction uses too, so dsda marginalizes p(d|x) here as
it does under every prediction strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError
from . import distributions as dist
from .autodiff import Tape
from .data import Instance
from .inference import chunks, gates
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


def collect(model: Model, instances: list[Instance], seed: int) -> list[ProbeRecord]:
    """One gate sample per instance from q(z|x, y, d), instance i drawing
    from its stream of (``seed``, i). Instances must carry observed labels
    and domains."""
    if not model.config.is_variational:
        raise ValueError("probe collection needs a variational (csda) model")
    for inst in instances:
        if inst.y_id is None or inst.d_id is None:
            raise ValueError(
                f"instance {inst.doc_id} lacks an observed label or domain")
    records = []
    for chunk, rngs in chunks(instances, seed):
        q = model.posterior_gate(model.binder(Tape()), model.pack([i.ids for i in chunk]),
                                 [i.y_id for i in chunk], [i.d_id for i in chunk])
        z = model.gate(dist.draw_many(q, rngs, 1)[:, 0])
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


def probe_averaged(model: Model, instances: list[Instance], seed: int,
                   runs: int = 3) -> dict[str, float]:
    """The label ("y") and domain ("d") probe accuracies, each averaged
    over ``runs`` runs. Run r collects its own gate samples, from streams
    of seed + r, and scores both targets on them with split seed seed + r."""
    if runs < 1:
        raise ConfigError("runs", f"must be >= 1, got {runs}")
    accs = {"y": [], "d": []}
    for r in range(runs):
        records = collect(model, instances, seed + r)
        for target, got in accs.items():
            got.append(probe(records, target, split_seed=seed + r))
    return {target: float(np.mean(got)) for target, got in accs.items()}


def export_representations(model: Model, instances: list[Instance], kind: str,
                           seed: int) -> list[dict]:
    """One row per instance, with the raw label/domain strings for
    plotting: the hidden vector (kind='h') gated by the weighted average
    of the instance's prior-mean gate rows (csda's mean gate, dsda's
    prior probabilities, the baselines' uniform gate), or one of its
    prior-sample gate rows (kind='z': a csda draw, a dsda indicator, the
    uniform gate), picked by the inverse CDF of the rows' weights at one
    uniform from the instance's stream of (``seed``, i)."""
    if kind not in ("h", "z"):
        raise ValueError(f"export kind must be 'h' or 'z', got {kind!r}")
    out = []
    for chunk, rngs in chunks(instances, seed):
        binder = model.binder(Tape())
        batch = model.pack([inst.ids for inst in chunk])
        rows, weights = gates(model, binder, batch,
                              "prior-mean" if kind == "h" else "prior-sample", rngs)
        if kind == "h":
            h_mat = model.channel_encodings(binder, batch, dropout_rng=None)
            gate = binder.tape.const(weights[:, None, :] @ rows)
            vectors = gate_channels(h_mat, gate).value[:, 0]
        else:
            u = np.array([rng.random() for rng in rngs])[:, None]
            picks = np.minimum((u >= np.cumsum(weights, axis=1)).sum(axis=1), rows.shape[1] - 1)
            vectors = rows[np.arange(batch.size), picks]
        out.extend({"id": inst.doc_id, "vector": vec, "label": inst.label,
                    "domain": inst.domain} for inst, vec in zip(chunk, vectors))
    return out
