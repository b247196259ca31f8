"""Test-time prediction from x alone.

Strategies for the variational models:

- prior-sample (default): one gate draw from p(z|x)
- prior-mean:             gate fixed at the prior mean
- mc-average:             average the label distribution over m draws
- importance-sampling:    estimate p(y|x) = E_q[p(y,z|x) / q(z|x,y,d)]
  per candidate label with d = UNK, then take the argmax; the record's
  ``ess`` is the smallest effective sample size over the labels, and
  ``predict_batch`` warns when it is below m/10

``gates`` is the one source of a trained model's prior gate, here and
in ``probes``: r gate rows per instance with mixture weights. A kind
whose gate is not drawn has the rows and weights that training scores
too, from ``Model.mixture``: the baselines' uniform gate, or dsda's k
indicator rows weighted by p(d|x), which marginalizes d exactly under
every strategy. csda has its prior mean, one draw, or m draws at
weight 1/m.

``chunks`` cuts the instances into slices of ``CHUNK_SIZE``, which bounds
the memory of one tape, with one generator per instance seeded with
(seed, i), so draws do not depend on the cut. ``predict`` runs one chunk
on one ``Tape`` through the training graph of ``models``: every encoder
runs once over the chunk's ragged batch, one ``classify_batch`` call
over the gate rows [B,r,k] gives a label distribution per row, and the
weights mix them. Prediction never calls ``backprop``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConfigError
from . import distributions as dist
from .autodiff import Tape
from .data import Instance
from .models import Model, classify_batch, gate_channels

__all__ = ["InferConfig", "PredictionRecord", "chunks", "gates", "predict",
           "predict_batch"]

log = logging.getLogger(__name__)

STRATEGIES = ("prior-sample", "prior-mean", "mc-average", "importance-sampling")

# Instances per prediction tape. Every node of a tape stays alive until
# the chunk is done, so this bounds the memory of predicting a corpus.
CHUNK_SIZE = 16


@dataclass(frozen=True)
class InferConfig:
    """How instances are predicted: one of ``STRATEGIES``, with ``m`` >= 1
    draws for mc-average and importance-sampling, from streams of ``seed``."""

    strategy: str = "prior-sample"
    m: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}")
        if self.m < 1:
            raise ConfigError("m", f"sample count must be >= 1, got {self.m}")


@dataclass(frozen=True)
class PredictionRecord:
    doc_id: str
    label_id: int
    probs: np.ndarray
    ess: Optional[float] = None


def chunks(instances: list, seed: int):
    """Each ``CHUNK_SIZE`` slice of ``instances`` with one generator per
    instance, seeded with (seed, its position in ``instances``)."""
    for start in range(0, len(instances), CHUNK_SIZE):
        chunk = instances[start:start + CHUNK_SIZE]
        yield chunk, [np.random.default_rng(np.random.SeedSequence((seed, start + j)))
                      for j in range(len(chunk))]


def gates(model: Model, binder, batch, strategy: str, rngs: list,
          m: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The gate rows [B,r,k] of each instance of ``batch`` under
    ``strategy`` (any but importance-sampling) and their mixture weights
    [B,r]: those of ``Model.mixture`` where the gate is not drawn, or
    csda's prior mean, one draw, or (mc-average) ``m`` draws at weight
    1/m, instance i drawing from ``rngs[i]``."""
    if not model.config.is_variational:
        rows, log_w = model.mixture(binder, batch)
        return rows, np.exp(log_w.value)
    n, prior = batch.size, model.prior_gate(binder, batch)
    if strategy == "prior-mean":
        return model.gate(dist.mean(prior))[:, None, :], np.ones((n, 1))
    r = m if strategy == "mc-average" else 1
    return model.gate(dist.draw_many(prior, rngs, r)), np.full((n, r), 1.0 / r)


def predict(model: Model, seqs, cfg: InferConfig, rngs: list
            ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Predict one chunk of instances on one tape, instance i drawing from
    ``rngs[i]``; returns the label distributions [B,L] and, for
    importance sampling of a csda model, the effective sample sizes [B]
    (else None)."""
    binder = model.binder(Tape())
    batch = model.pack(seqs)
    h_mat = model.channel_encodings(binder, batch, dropout_rng=None)
    if cfg.strategy == "importance-sampling" and model.config.is_variational:
        probs, ess = _importance_sampling(model, binder, batch, h_mat, cfg, rngs)
    else:
        rows, weights = gates(model, binder, batch, cfg.strategy, rngs, cfg.m)
        logp = classify_batch(binder, gate_channels(h_mat, binder.tape.const(rows)))
        probs, ess = (weights[:, None, :] @ np.exp(logp.value))[:, 0], None
    return probs / probs.sum(axis=1, keepdims=True), ess


def _importance_sampling(model, binder, batch, h_mat, cfg, rngs):
    mcfg = model.config
    n, labels, m = batch.size, mcfg.n_labels, cfg.m
    prior = model.prior_gate(binder, batch)
    # One encoding of x serves q for every candidate label: rows [B,L,k].
    # Both densities score the whole draws (csda-beta pairs [B,L,m,k,2]);
    # the head reads their gates [B,L,m,k].
    q = model.posterior_gate(binder, batch, [range(labels)] * n, None)
    z = dist.draw_many(q, rngs, m, axis=2)
    rows = model.gate(z).reshape(n, labels * m, mcfg.k)
    logp = classify_batch(binder, gate_channels(h_mat, binder.tape.const(rows)))
    logp = logp.value.reshape(n, labels, m, labels)
    loglik = np.stack([logp[:, y, :, y] for y in range(labels)], axis=1)
    log_w = dist.log_pdf_many(prior, z.reshape(n, labels * m, *z.shape[3:])) \
        .reshape(n, labels, m) + loglik - dist.log_pdf_many(q, z, axis=2)
    # Average the weights per label in log space (log-mean-exp) and
    # normalize there too: with a peaked prior every exp(log_w) underflows.
    # The effective sample size (sum w)^2 / sum w^2 of the max-scaled
    # weights tells how many draws carry a label's estimate.
    top = log_w.max(axis=2, keepdims=True)
    w = np.exp(log_w - top)
    log_est = top[..., 0] + np.log(w.mean(axis=2))
    ess = w.sum(axis=2) ** 2 / (w * w).sum(axis=2)
    return np.exp(log_est - log_est.max(axis=1, keepdims=True)), ess.min(axis=1)


def predict_batch(model: Model, instances: list[Instance],
                  cfg: InferConfig) -> list[PredictionRecord]:
    """Predict instances chunk by chunk (``chunks``), so records are
    order-stable and reproducible regardless of how the chunks are cut.
    An importance-sampling estimate carried by fewer than m/10 effective
    draws is logged as a warning naming the instance; a draw on the edge
    of the support raises ``DegenerateSampleError`` naming it too."""
    records = []
    for chunk, rngs in chunks(instances, cfg.seed):
        try:
            probs, ess = predict(model, [inst.ids for inst in chunk], cfg, rngs)
        except dist.DegenerateSampleError as exc:
            if exc.index is None:
                raise
            raise dist.DegenerateSampleError(
                f"{chunk[exc.index[0]].doc_id}: {exc}", exc.index) from None
        for inst, p, e in zip(chunk, probs, [None] * len(chunk) if ess is None else ess.tolist()):
            if e is not None and e < cfg.m / 10:
                log.warning("%s: importance-sampling effective sample size %.3g "
                            "of m=%d", inst.doc_id, e, cfg.m)
            records.append(PredictionRecord(inst.doc_id, int(p.argmax()), p, e))
    return records
