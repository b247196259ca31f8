"""Flat key=value config files and run manifests.

Config syntax: one ``key = value`` pair per line, ``#`` starts a
comment, blank lines ignored. The keys of a run config (``domaingate
train --config``, and the base config of ``grid``, whose ``--vary``
flags set keys per cell) are the fields of ``RunConfig``, documented in
its docstring; the keys of a generator spec (``gen-synth --spec``) are
the fields of ``data.SynthSpec``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .data import SynthSpec
from .inference import STRATEGIES
from .models import MODEL_KINDS
from .training import LAMBDA_SCHEDULES

__all__ = ["ConfigError", "parse_kv_file", "RunConfig", "synth_spec_from_dict",
           "write_manifest", "file_sha256"]

REGIMES = ("supervised", "semi-supervised", "unsupervised")
MODES = ("word", "byte")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


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


def _convert(name, raw, typ):
    try:
        if typ is bool:
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from None


@dataclass
class RunConfig:
    """Everything a training run needs, resolvable to a manifest.

    Keys (``windows`` is comma-separated, so ``grid --vary`` cannot vary it):

    - ``model``: one of ``MODEL_KINDS``; ``k``: channels, 0 for the
      number of training domains (1 for scnn).
    - ``lambda``: KL weight >= 0; ``lambda_schedule``: ``fixed`` or
      ``linear-anneal`` from 0 over ``anneal_steps`` >= 1 (``none``: one epoch).
    - ``regime``: ``supervised`` keeps instances with label and domain,
      ``semi-supervised`` keeps all, ``unsupervised`` drops domains.
    - ``train_data``, ``eval_data``: JSONL corpora, read per ``mode``
      (``word`` or ``byte``); the eval corpus splits 4:6 into dev and
      test by ``split_seed``; ``min_count``: word vocabulary cut-off.
    - ``lr`` > 0, ``batch_size`` >= 1, ``max_epochs``, ``patience``
      (dev evaluations without gain), ``w_dom`` (dsda domain-prior
      weight), ``dropout`` in [0, 1); ``seed`` drives every stream.
    - ``embed_dim``, ``n_filters``, ``windows``, ``mlp_hidden``: encoder
      and head sizes, each >= 1.
    - ``infer_strategy``: one of ``STRATEGIES``, with ``infer_m`` >= 1
      draws; ``out_dir``: output directory when ``--out`` is not given.
    """

    model: str = "csda-dirichlet"
    k: int = 0                        # 0 = auto (number of training domains)
    lam: float = 0.1
    lam_schedule: str = "fixed"
    anneal_steps: Optional[int] = None
    regime: str = "semi-supervised"
    train_data: str = ""
    eval_data: str = ""
    mode: str = "word"
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    w_dom: float = 1.0
    dropout: float = 0.5
    embed_dim: int = 300
    n_filters: int = 128
    windows: tuple[int, ...] = (3, 4, 5)
    mlp_hidden: int = 300
    infer_strategy: str = "prior-sample"
    infer_m: int = 100
    split_seed: int = 0
    min_count: int = 1
    out_dir: str = "run"

    _KEY_ALIASES = {"lambda": "lam", "lambda_schedule": "lam_schedule"}

    @classmethod
    def from_dict(cls, kv: dict[str, str]) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        values = {}
        for key, raw in kv.items():
            name = cls._KEY_ALIASES.get(key, key)
            if name not in known:
                raise ConfigError(key, "unknown key")
            if name == "windows":
                values[name] = tuple(_convert(key, part, int)
                                     for part in raw.split(","))
            elif name == "anneal_steps":
                values[name] = None if raw.lower() in ("", "none") \
                    else _convert(key, raw, int)
            else:
                values[name] = _convert(key, raw, type(getattr(cls, name)))
        cfg = cls(**values)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(parse_kv_file(path))

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError("model", f"must be one of {MODEL_KINDS}")
        if self.regime not in REGIMES:
            raise ConfigError("regime", f"must be one of {REGIMES}")
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}")
        if self.infer_strategy not in STRATEGIES:
            raise ConfigError("infer_strategy", f"must be one of {STRATEGIES}")
        if self.lam < 0:
            raise ConfigError("lambda", "must be nonnegative")
        if self.lam_schedule not in LAMBDA_SCHEDULES:
            raise ConfigError("lambda_schedule", f"must be one of {LAMBDA_SCHEDULES}")
        if self.anneal_steps is not None and self.anneal_steps < 1:
            raise ConfigError("anneal_steps", "must be >= 1, or none for an epoch")
        if not self.lr > 0:
            raise ConfigError("lr", "must be positive")
        for name in ("batch_size", "infer_m", "embed_dim", "n_filters", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if any(w < 1 for w in self.windows):
            raise ConfigError("windows", "every window must be >= 1")
        if self.k < 0:
            raise ConfigError("k", "must be >= 1, or 0 for auto")
        if self.model == "scnn" and self.k not in (0, 1):
            raise ConfigError("k", "scnn is single-channel")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout", "must be in [0, 1)")


_SYNTH_KEYS = {f.name for f in fields(SynthSpec)} - {"label_names"}


def synth_spec_from_dict(kv: dict[str, str]) -> SynthSpec:
    """Key=value front-end for the synthetic generator: any ``SynthSpec``
    field but the label names, validated by ``SynthSpec`` itself."""
    defaults = SynthSpec()
    values = {}
    for key, raw in kv.items():
        if key not in _SYNTH_KEYS:
            raise ConfigError(key, "unknown key")
        if key == "held_out":
            values[key] = tuple(_convert(key, p, int) for p in raw.split(","))
        else:
            values[key] = _convert(key, raw, type(getattr(defaults, key)))
    return SynthSpec(**values)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, command: str, config: dict, extra: dict) -> None:
    from . import __version__

    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
    }
    manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
