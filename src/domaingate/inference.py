"""Test-time prediction from x alone.

Strategies for the variational models:

- prior-sample (default): one gate draw from p(z|x)
- prior-mean:             gate fixed at the prior mean
- mc-average:             average the label distribution over m draws
- importance-sampling:    estimate p(y|x) = E_q[p(y,z|x) / q(z|x,y,d)]
  per candidate label with d = UNK, then take the argmax; the record's
  ``ess`` is the smallest effective sample size over the labels, and
  ``predict_batch`` warns when it is below m/10

The discrete mixture marginalizes its k states exactly, so sampling
strategies degrade to that exact computation (with a log note). The
plain baselines are deterministic forwards.

``predict_batch`` cuts the instances into chunks of ``CHUNK_SIZE``, which
bounds the memory of one tape, and ``predict`` runs one chunk on one
``Tape`` through the training graph of ``models``: every encoder runs
once over the chunk's ragged batch, the gate draws (or the uniform
gate, or for dsda the channel rows themselves) enter as constant rows
[B,r,k], and one ``classify_batch`` call gives a label distribution per
row. Instance i draws its noise from its own generator, seeded with
(seed, i), so records do not depend on how the chunks are cut.
Prediction never calls ``backprop``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ConfigError
from . import autodiff as ad
from . import distributions as dist
from .autodiff import Tape
from .data import Instance
from .models import Model, classify_batch, gate_channels

__all__ = ["InferConfig", "PredictionRecord", "predict", "predict_batch"]

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


def predict(model: Model, seqs, cfg: InferConfig, rngs: list
            ) -> list[tuple[int, np.ndarray, Optional[float]]]:
    """Predict one chunk of instances on one tape, instance i drawing from
    ``rngs[i]``; returns (label id, label distribution, ess) per
    instance. ``ess`` is the importance-sampling effective sample size,
    None for the other strategies."""
    mcfg = model.config
    binder = model.binder(Tape())
    batch = model.pack(seqs)
    h_mat = model.channel_encodings(binder, batch, dropout_rng=None)

    if mcfg.family == "categorical":
        if cfg.strategy != "prior-sample":
            log.info("strategy %s is redundant for the discrete mixture; "
                     "marginalizing exactly", cfg.strategy)
        prior = model.prior_gate(binder, batch)
        weights = np.exp(ad.log_softmax(prior).value)[:, None, :]
        return _normalized((weights @ np.exp(classify_batch(binder, h_mat).value))[:, 0])

    if mcfg.kind in ("scnn", "mcnn"):
        z_rows = np.full((batch.size, 1, mcfg.k), 1.0 / mcfg.k)
    else:
        prior = model.prior_gate(binder, batch)
        if cfg.strategy == "importance-sampling":
            return _importance_sampling(model, binder, batch, h_mat, prior, cfg, rngs)
        if cfg.strategy == "prior-mean":
            z_rows = dist.mean(prior)[:, None, :]
        else:
            m = cfg.m if cfg.strategy == "mc-average" else 1
            z_rows = dist.draw_many(prior, rngs, m)
    logp = classify_batch(binder, gate_channels(h_mat, binder.tape.const(z_rows)))
    return _normalized(np.exp(logp.value).mean(axis=1))


def _normalized(probs: np.ndarray, ess: Optional[np.ndarray] = None):
    probs /= probs.sum(axis=1, keepdims=True)
    return [(int(p.argmax()), p, None if ess is None else float(ess[i]))
            for i, p in enumerate(probs)]


def _importance_sampling(model, binder, batch, h_mat, prior, cfg, rngs):
    mcfg = model.config
    n, labels, m = batch.size, mcfg.n_labels, cfg.m
    # One encoding of x serves q for every candidate label: rows [B,L,k].
    q = model.posterior_gate(binder, batch, [range(labels)] * n, None)
    z = dist.draw_many(q, rngs, m)                               # [B,L,m,k]
    rows = z.reshape(n, labels * m, mcfg.k)
    logp = classify_batch(binder, gate_channels(h_mat, binder.tape.const(rows)))
    logp = logp.value.reshape(n, labels, m, labels)
    loglik = np.stack([logp[:, y, :, y] for y in range(labels)], axis=1)
    log_w = dist.log_pdf_many(prior, rows).reshape(n, labels, m) + loglik \
        - dist.log_pdf_many(q, z)
    # Average the weights per label in log space (log-mean-exp) and
    # normalize there too: with a peaked prior every exp(log_w) underflows.
    # The effective sample size (sum w)^2 / sum w^2 of the max-scaled
    # weights tells how many draws carry a label's estimate.
    top = log_w.max(axis=2, keepdims=True)
    w = np.exp(log_w - top)
    log_est = top[..., 0] + np.log(w.mean(axis=2))
    ess = w.sum(axis=2) ** 2 / (w * w).sum(axis=2)
    return _normalized(np.exp(log_est - log_est.max(axis=1, keepdims=True)),
                       ess.min(axis=1))


def predict_batch(model: Model, instances: list[Instance],
                  cfg: InferConfig) -> list[PredictionRecord]:
    """Predict instances chunk by chunk, with per-instance RNG streams
    derived from (seed, instance position), so records are order-stable
    and reproducible regardless of how the chunks are cut. An
    importance-sampling estimate carried by fewer than m/10 effective
    draws is logged as a warning naming the instance; a draw on the edge
    of the support raises ``DegenerateSampleError`` naming it too."""
    records = []
    for start in range(0, len(instances), CHUNK_SIZE):
        chunk = instances[start:start + CHUNK_SIZE]
        rngs = [np.random.default_rng(np.random.SeedSequence((cfg.seed, start + j)))
                for j in range(len(chunk))]
        try:
            results = predict(model, [inst.ids for inst in chunk], cfg, rngs)
        except dist.DegenerateSampleError as exc:
            if exc.index is None:
                raise
            raise dist.DegenerateSampleError(
                f"{chunk[exc.index[0]].doc_id}: {exc}", exc.index) from None
        for inst, (label_id, probs, ess) in zip(chunk, results):
            if ess is not None and ess < cfg.m / 10:
                log.warning("%s: importance-sampling effective sample size %.3g "
                            "of m=%d", inst.doc_id, ess, cfg.m)
            records.append(PredictionRecord(inst.doc_id, label_id, probs, ess))
    return records
