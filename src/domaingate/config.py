"""Flat key=value config files and the one reader that types them.

Config syntax: one ``key = value`` pair per line, ``#`` starts a
comment, blank lines ignored. ``read_config`` reads such pairs into a
``RunConfig`` (``domaingate train --config``, and the base config of
``grid``, whose ``--vary`` flags set keys per cell) or a
``data.SynthSpec`` (``gen-synth --spec``). The keys are the fields of
that class, each documented, with its default and range, in the class
that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

from . import ConfigError
from .encoder import EncoderConfig
from .inference import InferConfig
from .models import ModelConfig
from .text import BYTE_VOCAB_SIZE
from .training import TrainConfig

__all__ = ["ConfigError", "parse_kv_file", "read_config", "RunConfig"]

REGIMES = ("supervised", "semi-supervised", "unsupervised")
MODES = ("word", "byte")


def parse_kv_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(key, f"duplicated on line {lineno}")
        out[key] = value.strip()
    return out


def _read_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# How a value of each field type is read.
_READERS = {
    str: str, int: int, float: float, bool: _read_bool,
    Optional[int]: lambda raw: None if raw.lower() in ("", "none") else int(raw),
    tuple[int, ...]: lambda raw: tuple(int(part) for part in raw.split(",")),
}


def read_config(cls, kv: dict[str, str]):
    """A ``cls`` (``RunConfig`` or ``data.SynthSpec``) from key=value
    strings, each read by its field's type; every check of ``cls`` runs
    before it returns. A key is exactly a field name."""
    types = get_type_hints(cls)
    values = {}
    for key, raw in kv.items():
        read = _READERS.get(types.get(key))
        if read is None:
            raise ConfigError(key, "unknown key")
        try:
            values[key] = read(raw)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
    return cls(**values)


# Library config fields that a run spells differently.
_RUN_KEYS = {"kind": "model", "strategy": "infer_strategy", "m": "infer_m"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs, held in its checkpoint's meta.

    - ``model``: a ``ModelConfig.kind``; ``k``: channels, 0 (auto) for
      the number of training domains (1 for scnn).
    - ``regime``: ``supervised`` keeps instances with label and domain,
      ``semi-supervised`` keeps all, ``unsupervised`` drops domains.
    - ``train_data``, ``eval_data``: JSONL corpora, read per ``mode``
      (``word`` or ``byte``); the eval corpus splits into dev and test
      by ``data.split_dev_test``.
    - ``out_dir``: output directory when ``--out`` is not given.
    - Every other key is a field of ``TrainConfig``, ``InferConfig``
      (prefixed ``infer_``; ``seed`` seeds it too), ``EncoderConfig`` or
      ``ModelConfig``, with its default and range there; ``windows`` is
      comma-separated, so ``grid --vary`` cannot vary it.
    """

    model: str = "csda-dirichlet"
    k: int = 0
    lam: float = TrainConfig.lam
    lam_schedule: str = TrainConfig.lam_schedule
    anneal_steps: Optional[int] = TrainConfig.anneal_steps
    regime: str = "semi-supervised"
    train_data: str = ""
    eval_data: str = ""
    mode: str = "word"
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    seed: int = TrainConfig.seed
    dropout: float = ModelConfig.dropout
    embed_dim: int = EncoderConfig.embed_dim
    n_filters: int = EncoderConfig.n_filters
    windows: tuple[int, ...] = EncoderConfig.windows
    mlp_hidden: int = ModelConfig.mlp_hidden
    infer_strategy: str = InferConfig.strategy
    infer_m: int = InferConfig.m
    out_dir: str = "run"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError("regime", f"must be one of {REGIMES}")
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}")
        if self.k < 0:
            raise ConfigError("k", "must be >= 1, or 0 for auto")
        # Run every check that needs no data, on the smallest data.
        self.library_configs({"k": self.k or 1, "labels": (0, 1), "domains": (),
                              "vocab": ()})

    def library_configs(self, meta: dict) -> tuple[TrainConfig, ModelConfig]:
        """This run's training and model configs on the data that a
        checkpoint ``meta`` describes (its ``k``, ``labels``, ``domains``
        and, in word mode, ``vocab`` tokens). An out-of-range value raises
        ``ConfigError`` naming its run key."""
        try:
            infer_cfg = InferConfig(self.infer_strategy, self.infer_m, self.seed)
            train_cfg = TrainConfig(infer=infer_cfg, **{
                f.name: getattr(self, f.name) for f in fields(TrainConfig) if f.name != "infer"})
            model_cfg = ModelConfig(
                kind=self.model, n_labels=len(meta["labels"]),
                n_domains=max(len(meta["domains"]), 1),
                vocab_size=BYTE_VOCAB_SIZE if self.mode == "byte" else len(meta["vocab"]),
                k=meta["k"], encoder=EncoderConfig(self.embed_dim, self.n_filters, self.windows),
                mlp_hidden=self.mlp_hidden, dropout=self.dropout)
        except ConfigError as exc:
            raise ConfigError(_RUN_KEYS.get(exc.field, exc.field), exc.detail) from None
        return train_cfg, model_cfg
