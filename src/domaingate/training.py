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

from .autodiff import RowGrad, accumulate, backprop
from .data import Instance
from .distributions import DegenerateSampleError
from .inference import InferConfig, predict_batch
from .models import Model
from .optim import AdamState, adam_step

__all__ = ["TrainConfig", "TrainResult", "EvalResult", "train", "evaluate",
           "LAMBDA_GRID"]

# The default sweep grid for the KL weight.
LAMBDA_GRID = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0)


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.1
    lam_schedule: str = "fixed"        # fixed | linear-anneal
    anneal_steps: Optional[int] = None  # default: one epoch of steps
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    w_dom: float = 1.0
    infer: InferConfig = field(default_factory=InferConfig)

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lambda must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.lam_schedule not in ("fixed", "linear-anneal"):
            raise ValueError(f"unknown lambda schedule {self.lam_schedule!r}")


@dataclass
class EvalResult:
    accuracy: float
    per_domain: dict[str, float]
    n: int


@dataclass
class TrainResult:
    model: Model
    log: list[dict]
    best_dev_accuracy: float
    steps: int


def _lambda_at(cfg: TrainConfig, step: int, steps_per_epoch: int) -> float:
    if cfg.lam_schedule == "fixed":
        return cfg.lam
    horizon = cfg.anneal_steps if cfg.anneal_steps else max(steps_per_epoch, 1)
    return cfg.lam * min(1.0, step / horizon)


def _global_norm(grads: dict) -> float:
    """L2 norm over every gradient entry; a ``RowGrad`` counts its rows only."""
    total = 0.0
    for g in grads.values():
        x = (g.values if isinstance(g, RowGrad) else g).ravel()
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
    return EvalResult(hits / len(labeled), per_domain, len(labeled))


def train(model: Model, train_set: list[Instance], dev_set: list[Instance],
          cfg: TrainConfig) -> TrainResult:
    """Train in place and return the best-dev checkpoint.

    Instances without a label are skipped (the unlabeled-label objective
    is not part of this implementation); instances without a domain pass
    the UNK sentinel into the variational network. An instance whose
    gate draw has no usable pathwise gradient (``DegenerateSampleError``)
    is left out of its step and counted in the log entry's
    ``degenerate``; ``grad_norm`` is the global L2 norm of the step's
    averaged gradient (null when no step is taken). Dev accuracy is
    checked twice per epoch; training stops after ``patience``
    evaluations without improvement.
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
    best_params = None
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
            if not batch:
                continue
            lam_t = _lambda_at(cfg, step, steps_per_epoch)
            grad_sum: dict = {}
            loss_sum = 0.0
            kl_sum = 0.0
            kl_seen = False
            degenerate = 0
            for inst in batch:
                res = model.loss(inst.ids, inst.y_id, inst.d_id,
                                 lam=lam_t, w_dom=cfg.w_dom,
                                 rng=sample_rng, dropout_rng=dropout_rng)
                try:
                    grads = backprop(res.loss)
                except DegenerateSampleError:
                    degenerate += 1
                    continue
                for name, g in grads.items():
                    grad_sum[name] = (accumulate(grad_sum[name], g)
                                      if name in grad_sum else g)
                loss_sum += res.loss.item()
                if res.kl is not None:
                    kl_sum += res.kl
                    kl_seen = True
            step += 1
            entry = {"step": step, "epoch": epoch, "loss": None, "kl": None,
                     "lambda": lam_t, "degenerate": degenerate, "grad_norm": None}
            # The step averages over the kept instances; none kept, no step.
            if degenerate < len(batch):
                scale = 1.0 / (len(batch) - degenerate)
                for name in grad_sum:
                    grad_sum[name] *= scale
                entry["grad_norm"] = _global_norm(grad_sum)
                adam_step(model.params, grad_sum, opt)
                entry["loss"] = loss_sum * scale
                entry["kl"] = kl_sum * scale if kl_seen else None
            if b + 1 in eval_points:
                result = evaluate(model, dev_set, cfg.infer)
                entry["dev_acc"] = result.accuracy
                if result.accuracy > best_acc:
                    best_acc = result.accuracy
                    best_params = copy.deepcopy(model.params)
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        stop = True
            log_records.append(entry)
            if stop:
                break

    if best_params is None:
        best_params = copy.deepcopy(model.params)
        best_acc = evaluate(model, dev_set, cfg.infer).accuracy
    return TrainResult(Model(model.config, best_params), log_records,
                       best_acc, step)
