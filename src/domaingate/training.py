"""Mini-batch training loop with semi-supervised masking, KL-weight
scheduling, early stopping on dev accuracy, and strict seed discipline.

Every stochastic component draws from its own child stream of the config
seed (shuffling, gate sampling, dropout, dev-time prediction), so
identical configs reproduce identical loss curves and parameters
bitwise. The training log is a list of plain dicts (one per batch, plus
dev entries) that serializes to the documented JSONL schema.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ConfigError
from .autodiff import NonFiniteError, RowGrad, backprop
from .data import Instance
from .inference import InferConfig, predict_batch
from .models import Model
from .optim import AdamState, adam_step

__all__ = ["TrainConfig", "TrainResult", "EvalResult", "train", "evaluate",
           "LAMBDA_SCHEDULES"]

LAMBDA_SCHEDULES = ("fixed", "linear-anneal")


@dataclass(frozen=True)
class TrainConfig:
    """The training loop's settings: KL weight ``lam`` >= 0, held
    (``fixed``) or raised from 0 over ``anneal_steps`` >= 1 steps
    (``linear-anneal``; None: one epoch); Adam step ``lr`` > 0; at most
    ``max_epochs`` of ``batch_size`` >= 1 instances per step, stopping
    after ``patience`` dev evaluations without gain; ``seed`` of every
    stream; dev prediction by ``infer``."""

    lam: float = 0.1
    lam_schedule: str = "fixed"        # one of LAMBDA_SCHEDULES
    anneal_steps: Optional[int] = None
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    infer: InferConfig = field(default_factory=InferConfig)

    def __post_init__(self):
        if self.lam < 0.0:
            raise ConfigError("lam", "must be nonnegative")
        if self.lam_schedule not in LAMBDA_SCHEDULES:
            raise ConfigError("lam_schedule", f"must be one of {LAMBDA_SCHEDULES}")
        if self.anneal_steps is not None and self.anneal_steps < 1:
            raise ConfigError("anneal_steps", "must be >= 1, or none for an epoch")
        if not self.lr > 0:
            raise ConfigError("lr", "must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be >= 1")


@dataclass
class EvalResult:
    accuracy: float
    per_domain: dict[str, float]


@dataclass
class TrainResult:
    model: Model
    log: list[dict]
    best_dev_accuracy: float
    steps: int


def _lambda_at(cfg: TrainConfig, step: int, steps_per_epoch: int) -> float:
    if cfg.lam_schedule == "fixed":
        return cfg.lam
    return cfg.lam * min(1.0, step / (cfg.anneal_steps or steps_per_epoch))


def _global_norm(grads: dict) -> float:
    """L2 norm over every gradient entry; a ``RowGrad`` counts its rows only.
    Squares are summed in float64 for every gradient dtype."""
    total = 0.0
    for g in grads.values():
        x = (g.values if isinstance(g, RowGrad) else g).astype(np.float64, copy=False).ravel()
        total += float(np.dot(x, x))
    return math.sqrt(total)


def evaluate(model: Model, instances: list[Instance],
             infer_cfg: InferConfig) -> EvalResult:
    """Micro accuracy over labeled instances, plus a per-domain breakdown
    keyed by the raw domain string (UNK for domain-unlabeled ones).

    Raises ``FloatingPointError`` naming the instance when a prediction's
    label probabilities are not finite, since its argmax would be
    meaningless."""
    labeled = [inst for inst in instances if inst.y_id is not None]
    if not labeled:
        raise ValueError("evaluation needs at least one labeled instance")
    records = predict_batch(model, labeled, infer_cfg)
    correct: dict[str, int] = {}
    totals: dict[str, int] = {}
    hits = 0
    for inst, rec in zip(labeled, records):
        if not np.all(np.isfinite(rec.probs)):
            raise FloatingPointError(
                f"non-finite label probabilities for {rec.doc_id}: {rec.probs}")
        key = inst.domain if inst.domain is not None else "UNK"
        totals[key] = totals.get(key, 0) + 1
        if rec.label_id == inst.y_id:
            hits += 1
            correct[key] = correct.get(key, 0) + 1
    per_domain = {k: correct.get(k, 0) / totals[k] for k in sorted(totals)}
    return EvalResult(hits / len(labeled), per_domain)


def train(model: Model, train_set: list[Instance], dev_set: list[Instance],
          cfg: TrainConfig) -> TrainResult:
    """Train in place and return the best-dev checkpoint.

    Each step runs one mini-batch on one tape: one ``Model.loss`` call,
    one ``backprop`` and one Adam step. Instances without a label are
    skipped (the unlabeled-label objective is not part of this
    implementation); instances without a domain pass the UNK sentinel
    into the variational network. An instance whose gate draw has no
    usable pathwise gradient is left out of its step's mean and counted
    in the log entry's ``degenerate``; a step that keeps no instance
    takes no Adam step. ``grad_norm`` is the global L2 norm of the step's
    averaged gradient (null when no step is taken). Gradients that are
    not finite raise ``NonFiniteError`` naming the step and their
    parameters before Adam changes any of them; they are looked for only
    when the norm is not finite. Dev accuracy is checked twice per epoch;
    training stops after ``patience`` evaluations without improvement.

    The best state is copied only when it is about to change: while it is
    the current state no copy exists, and the result then shares
    ``model``'s arrays.
    """
    usable = [inst for inst in train_set if inst.y_id is not None]
    if not usable:
        raise ValueError("training set has no labeled instances")
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, sample_rng, dropout_rng = [
        np.random.default_rng(child) for child in ss.spawn(3)]

    opt = AdamState(lr=cfg.lr)
    log_records: list[dict] = []
    best_acc = -math.inf
    best_params = None     # buffers holding the best state once it is left
    best_is_current = False
    stale = 0
    step = 0
    n = len(usable)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    eval_points = {steps_per_epoch // 2, steps_per_epoch} - {0}
    stop = False

    for epoch in range(cfg.max_epochs):
        if stop:
            break
        order = shuffle_rng.permutation(n)
        for b in range(steps_per_epoch):
            batch = [usable[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            lam_t = _lambda_at(cfg, step, steps_per_epoch)
            res = model.loss([inst.ids for inst in batch], [inst.y_id for inst in batch],
                             [inst.d_id for inst in batch], lam=lam_t,
                             rng=sample_rng, dropout_rng=dropout_rng)
            step += 1
            entry = {"step": step, "epoch": epoch, "loss": None, "kl": None,
                     "lambda": lam_t, "degenerate": res.degenerate, "grad_norm": None}
            if res.loss is not None:
                grads = backprop(res.loss)
                entry["grad_norm"] = _global_norm(grads)
                if not math.isfinite(entry["grad_norm"]):
                    bad = [name for name, g in grads.items()
                           if not np.isfinite(g.values if isinstance(g, RowGrad) else g).all()]
                    if bad:
                        raise NonFiniteError(f"step {step}: the gradients of {bad} are not finite")
                if best_is_current:  # keep the best state before Adam overwrites it
                    if best_params is None:
                        best_params = {name: np.empty_like(arr)
                                       for name, arr in model.params.items()}
                    for name, arr in model.params.items():
                        np.copyto(best_params[name], arr)
                    best_is_current = False
                adam_step(model.params, grads, opt)
                entry["loss"] = res.loss.item()
                entry["kl"] = res.kl
            res = grads = None  # the step's tape and gradients die before the dev evaluation
            if b + 1 in eval_points:
                result = evaluate(model, dev_set, cfg.infer)
                entry["dev_acc"] = result.accuracy
                if result.accuracy > best_acc:
                    best_acc = result.accuracy
                    best_is_current = True
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        stop = True
            log_records.append(entry)
            if stop:
                break

    if best_acc == -math.inf:
        best_acc = evaluate(model, dev_set, cfg.infer).accuracy
        best_is_current = True
    best = copy.copy(model)  # a store of model's own layout: no second check
    best.params = model.params if best_is_current else best_params
    return TrainResult(best, log_records, best_acc, step)
