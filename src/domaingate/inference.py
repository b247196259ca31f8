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

Every strategy runs the training graph of ``models`` on a ``Tape``: the
gate draws (or the uniform gate, or for dsda the channel rows
themselves) enter as constant rows, and one ``classify_batch`` call
gives a label distribution per row. Prediction never calls ``backprop``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import distributions as dist
from .autodiff import Tape
from .data import Instance
from .models import Model, classify_batch, gate_channels

__all__ = ["InferConfig", "PredictionRecord", "predict", "predict_batch"]

log = logging.getLogger(__name__)

STRATEGIES = ("prior-sample", "prior-mean", "mc-average", "importance-sampling")


@dataclass(frozen=True)
class InferConfig:
    strategy: str = "prior-sample"
    m: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown inference strategy {self.strategy!r}")
        if self.m < 1:
            raise ValueError("sample count m must be >= 1")


@dataclass(frozen=True)
class PredictionRecord:
    doc_id: str
    label_id: int
    probs: np.ndarray
    strategy: str
    seed: int
    ess: Optional[float] = None


def predict(model: Model, ids, cfg: InferConfig, rng: np.random.Generator
            ) -> tuple[int, np.ndarray, Optional[float]]:
    """Predict one instance; returns (label id, label distribution, ess).
    ``ess`` is the importance-sampling effective sample size, None for
    the other strategies."""
    mcfg = model.config
    binder = model.binder(Tape())
    h_mat = model.channel_encodings(binder, ids, dropout_rng=None)

    if mcfg.family == "categorical":
        if cfg.strategy != "prior-sample":
            log.info("strategy %s is redundant for the discrete mixture; "
                     "marginalizing exactly", cfg.strategy)
        prior = model.prior_gate(binder, ids)
        weights = np.exp(ad.log_softmax(prior).value)
        return _normalized(weights @ np.exp(classify_batch(binder, mcfg, h_mat).value))

    if mcfg.kind in ("scnn", "mcnn"):
        z_rows = np.full((1, mcfg.k), 1.0 / mcfg.k)
    else:
        prior = model.prior_gate(binder, ids)
        if cfg.strategy == "importance-sampling":
            return _importance_sampling(model, binder, ids, h_mat, prior, cfg, rng)
        if cfg.strategy == "prior-mean":
            z_rows = dist.mean(prior)[None, :]
        else:
            m = cfg.m if cfg.strategy == "mc-average" else 1
            z_rows = dist.draw_many(prior, rng, m)
    logp = classify_batch(binder, mcfg, gate_channels(h_mat, binder.tape.const(z_rows)))
    return _normalized(np.exp(logp.value).mean(axis=0))


def _normalized(probs: np.ndarray, ess: Optional[float] = None):
    probs /= probs.sum()
    return int(probs.argmax()), probs, ess


def _importance_sampling(model, binder, ids, h_mat, prior, cfg, rng):
    mcfg = model.config
    # Average the weights per label in log space (log-mean-exp) and
    # normalize there too: with a peaked prior every exp(log_w) underflows.
    # The effective sample size (sum w)^2 / sum w^2 of the max-scaled
    # weights tells how many draws carry a label's estimate.
    log_est = np.empty(mcfg.n_labels)
    ess = np.empty(mcfg.n_labels)
    for y_cand in range(mcfg.n_labels):
        q = model.posterior_gate(binder, ids, y_cand, None)
        z_rows = dist.draw_many(q, rng, cfg.m)
        logp = classify_batch(binder, mcfg,
                              gate_channels(h_mat, binder.tape.const(z_rows)))
        log_w = dist.log_pdf_many(prior, z_rows) + logp.value[:, y_cand] \
            - dist.log_pdf_many(q, z_rows)
        top = log_w.max()
        w = np.exp(log_w - top)
        log_est[y_cand] = top + np.log(w.mean())
        ess[y_cand] = w.sum() ** 2 / np.dot(w, w)
    return _normalized(np.exp(log_est - log_est.max()), float(ess.min()))


def predict_batch(model: Model, instances: list[Instance],
                  cfg: InferConfig) -> list[PredictionRecord]:
    """Predict a batch with per-instance RNG streams derived from
    (seed, instance position), so records are order-stable and
    reproducible regardless of batch slicing elsewhere. An importance-
    sampling estimate carried by fewer than m/10 effective draws is
    logged as a warning naming the instance."""
    records = []
    for i, inst in enumerate(instances):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i)))
        label_id, probs, ess = predict(model, inst.ids, cfg, rng)
        if ess is not None and ess < cfg.m / 10:
            log.warning("%s: importance-sampling effective sample size %.3g "
                        "of m=%d", inst.doc_id, ess, cfg.m)
        records.append(PredictionRecord(inst.doc_id, label_id, probs,
                                        cfg.strategy, cfg.seed, ess))
    return records
