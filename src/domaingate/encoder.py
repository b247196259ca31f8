"""Convolutional text encoder (Kim, arXiv 1408.5882): embed, convolve
over time with several window sizes, max-pool over time, ReLU,
concatenate.

An encoder is a group of k channels under one parameter prefix inside
a flat store: channel c is slice c of the last axis of each parameter
(the table [V, k*E], each window's weights [w, E, k*F] and bias [k*F]).
``layout`` gives a group at these joined shapes, and ``Model.init``
draws each parameter whole. A model's k gated channels are one group,
and the prior and inference networks each have a group of one. At full
scale a channel has 300-d embeddings and 128 filters for each of the
window sizes {3,4,5}, giving a 384-d output; tests shrink them.

A batch is encoded on one tape as one ragged sequence: ``pack`` strips
each instance's trailing PAD, left-pads it to the widest window and
concatenates the instances into N positions, instance j at
``starts[j]:starts[j+1]``, each holding the row of its id among the
batch's sorted distinct ids (``TokenBatch.index`` into ``.ids``).
``encode`` then gathers U embedding rows [U, k*E], not N (a byte batch
has thousands of positions over at most 258 ids), and makes one fused
``conv_pool`` per window size for all k channels, which pools each
instance over its own windows only, and returns rows [B, k, out_dim].

Encoder parameters are ``PARAM_DTYPE`` (float32), and so are the gather,
the convolution, the max-pool, their gradients and Adam moments;
``conv_pool`` returns float64 rows to the heads. ``Model(...)`` refuses
float64 encoder parameters, but a built model's store cast to float64 in
place runs the same code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError
from . import autodiff as ad
from .autodiff import ParamBinder, Var
from .text import PAD_ID

__all__ = ["PARAM_DTYPE", "EncoderConfig", "TokenBatch", "pack", "layout", "encode"]

# Float32 halves the arithmetic and memory traffic of the encoder, which
# sets the pace at the paper's dimensions; no caller needs float64.
PARAM_DTYPE = np.float32


@dataclass(frozen=True)
class EncoderConfig:
    """``embed_dim``-d embeddings and ``n_filters`` filters per window size
    in ``windows``, each >= 1."""

    embed_dim: int = 300
    n_filters: int = 128
    windows: tuple[int, ...] = (3, 4, 5)

    def __post_init__(self):
        for name in ("embed_dim", "n_filters"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if not self.windows or min(self.windows) < 1:
            raise ConfigError("windows", "needs windows, each >= 1")

    @property
    def out_dim(self) -> int:
        return self.n_filters * len(self.windows)


@dataclass(frozen=True)
class TokenBatch:
    """B token sequences concatenated into N positions over the sorted
    distinct ``ids`` [U]: instance j is ``ids[index[starts[j]:starts[j+1]]]``."""

    ids: np.ndarray
    index: np.ndarray
    starts: np.ndarray

    @property
    def size(self) -> int:
        return self.starts.size - 1


def pack(seqs, cfg: EncoderConfig) -> TokenBatch:
    """Concatenate a batch of id sequences for ``encode``.

    Trailing PAD is stripped first (it carries no content, and windows
    straddling real tokens and padding would otherwise leak into the
    pooled maxima), so the encoding is invariant to trailing padding.
    Sequences shorter than the largest window are left-padded with PAD.
    An empty sequence raises ``ValueError`` naming its batch position.
    """
    longest = max(cfg.windows)
    parts = []
    for j, seq in enumerate(seqs):
        ids = np.asarray(seq, dtype=np.int64)
        if ids.size == 0:
            raise ValueError(f"cannot encode an empty id sequence (batch position {j})")
        content = np.flatnonzero(ids != PAD_ID)
        end = content[-1] + 1 if content.size else 1
        pad = max(0, longest - end)
        parts.append(np.concatenate([np.full(pad, PAD_ID, dtype=np.int64), ids[:end]])
                     if pad else ids[:end])
    if not parts:
        raise ValueError("cannot encode an empty batch")
    starts = np.zeros(len(parts) + 1, dtype=np.intp)
    np.cumsum([p.size for p in parts], out=starts[1:])
    ids, index = np.unique(np.concatenate(parts), return_inverse=True)
    return TokenBatch(ids, index, starts)


def layout(vocab_size: int, cfg: EncoderConfig, prefix: str, k: int = 1) -> dict:
    """A group of k channels' share of a model's parameter layout (see
    ``models``): {name: (rule, shape)} under ``prefix`` at the joined
    shapes, each in ``PARAM_DTYPE``. Embeddings [V, k*E] are uniform in
    [-0.05, 0.05); convolution weights [w, E, k*F] are He-scaled normals
    of fan-in w*E, each channel's own; biases [k*F] are zeros."""
    params = {f"{prefix}.emb": (("uniform", PARAM_DTYPE), (vocab_size, k * cfg.embed_dim))}
    for w in cfg.windows:
        params[f"{prefix}.conv{w}.w"] = (("he", PARAM_DTYPE),
                                         (w, cfg.embed_dim, k * cfg.n_filters))
        params[f"{prefix}.conv{w}.b"] = (("zeros", PARAM_DTYPE), (k * cfg.n_filters,))
    return params


def encode(binder: ParamBinder, prefix: str, batch: TokenBatch, cfg: EncoderConfig) -> Var:
    """Encode a packed batch with the group of channels under ``prefix``
    to pooled rows [B, k, cfg.out_dim]: one gather and one ``conv_pool``
    per window for all k channels."""
    rows = ad.embedding(binder(f"{prefix}.emb"), batch.ids)
    shape = (batch.size, rows.shape[1] // cfg.embed_dim, cfg.n_filters)
    return ad.concat([ad.reshape(ad.conv_pool(rows, binder(f"{prefix}.conv{w}.w"),
                                              binder(f"{prefix}.conv{w}.b"),
                                              batch.index, batch.starts), shape)
                      for w in cfg.windows])
