"""Model architectures: single/multi-channel baselines, the discrete
latent-domain mixture (dsda), and the continuous Beta/Dirichlet gated
models (csda).

All of them share one likelihood, a mixture over gate rows: k channel
encoders, held as one channel group ``theta.ch`` (see ``encoder``),
produce hidden vectors h_1..h_k as the rows of a [k,H] matrix; a gate
row z mixes them into h = sum_i z_i h_i, and a one-hidden-layer
MLP with a softmax head (``classify_batch``) gives p(y | x, z). An
instance's rows z_r at weights w_r give p(y|x) = sum_r w_r p(y | x, z_r).
The kinds differ in the rows (``Model.mixture`` gives them to training
and prediction alike where the gate is not drawn):

- scnn:  k = 1, one row z = (1,)
- mcnn:  one fixed uniform row z = (1/k, ..., 1/k)
- dsda:  z is a latent categorical, marginalized exactly by its k
  indicator rows at weights p(d|x); training adds a supervised prior
  term when the domain is observed
- csda:  z ~ Beta per channel or Dirichlet, parameterized by a prior
  network from x alone and, during training, a variational network
  that additionally conditions on the label and domain (with UNK
  sentinels); trained on a single-sample bound (one row drawn from q)
  with a lambda-weighted closed-form KL

Everything works on rows: a batch of B instances is packed once
(``encoder.pack``) and every graph piece returns one row per instance:
channel encodings [B,k,H], gate parameters [B,k], gate rows [B,r,k] and
label log-probabilities [B,r,L]. ``Model.loss`` builds one tape for a
whole mini-batch and returns the mean over its rows; prediction builds
the same graph and never calls ``backprop``.

The gate networks return the distribution parameters themselves: the
dsda prior's logits ``Var``, or ``DirichletParams``. A Dirichlet head's
concentration is the product node scale * affinity of an overall scale
[B,1] and per-channel affinities in (0,1), recorded once per head;
backprop carries the Gamma pathwise partials of a draw through it, so
the multi-variable chain rule is handled by the tape itself. A Beta
gate is the first part of a two-part Dirichlet: its heads' alpha and
beta [B,k] are joined into pairs of concentrations [B,k,2], and
``Model.gate`` reads part 0 of each drawn pair (or of the mean), so
that densities see whole pairs and never rebuild 1 - z from a gate
rounded to 1.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ConfigError
from . import autodiff as ad
from . import distributions as dist
from .autodiff import ParamBinder, Tape, Var
from .distributions import DirichletParams
from .encoder import EncoderConfig, TokenBatch, encode, layout as encoder_layout, pack

__all__ = ["MODEL_KINDS", "ModelConfig", "Model", "gate_channels", "classify_batch"]

MODEL_KINDS = ("scnn", "mcnn", "dsda", "csda-beta", "csda-dirichlet")

UNK = None  # sentinel spelling for an unobserved label/domain id

# Widths of the label and domain embeddings the variational network reads.
LABEL_EMB_DIM = 4
DOMAIN_EMB_DIM = 16

# Weight of the dsda domain-prior term on rows whose domain is observed.
DOMAIN_PRIOR_WEIGHT = 1.0


@dataclass(frozen=True)
class ModelConfig:
    """One of ``MODEL_KINDS`` with k >= 1 channels (1 for scnn), sized by
    the data; a head of ``mlp_hidden`` >= 1 units, and channel dropout at
    rate ``dropout`` in [0, 1) in training."""

    kind: str
    n_labels: int
    n_domains: int
    vocab_size: int
    k: int = 1
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    mlp_hidden: int = 300
    dropout: float = 0.5

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError("kind", f"must be one of {MODEL_KINDS}")
        if self.k < 1 or (self.kind == "scnn" and self.k != 1):
            raise ConfigError("k", "must be >= 1, and 1 for the single-channel scnn")
        if self.mlp_hidden < 1:
            raise ConfigError("mlp_hidden", "must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout", "must be in [0, 1)")

    @property
    def family(self) -> Optional[str]:
        return {"dsda": "categorical", "csda-beta": "beta",
                "csda-dirichlet": "dirichlet"}.get(self.kind)

    @property
    def is_latent(self) -> bool:
        return self.kind in ("dsda", "csda-beta", "csda-dirichlet")

    @property
    def is_variational(self) -> bool:
        return self.kind in ("csda-beta", "csda-dirichlet")


@dataclass
class LossResult:
    """One mini-batch's loss: the mean over the kept rows (None when every
    row's gate draw is degenerate), their mean KL for the variational
    models, and the number of rows left out."""

    tape: Tape
    loss: Optional[Var]
    kl: Optional[float] = None
    degenerate: int = 0


def _layout(config: ModelConfig) -> dict:
    """Every parameter of a model of ``config`` in draw order, as
    {name: (rule, shape)} at its stored shape (a channel group's joined
    one). A rule is (init, dtype), init one of "uniform" (in
    [-0.05, 0.05)), "he" (normal of variance 2 / fan-in, the product of
    all but the last axis) or "zeros"."""
    def linear(n_in, n_out, prefix, init="uniform"):
        return {f"{prefix}.w": ((init, np.float64), (n_in, n_out)),
                f"{prefix}.b": (("zeros", np.float64), (n_out,))}

    def gate_heads(n_in, group):
        # dsda logits, Beta alpha and beta, or a Dirichlet's overall
        # concentration and channel affinities
        heads = {"categorical": {"logits": k}, "beta": {"alpha": k, "beta": k},
                 "dirichlet": {"conc": 1, "base": k}}[config.family]
        return {name: spec for head, n_out in heads.items()
                for name, spec in linear(n_in, n_out, f"{group}.{head}").items()}

    enc, k, vocab = config.encoder, config.k, config.vocab_size
    params = {**encoder_layout(vocab, enc, "theta.ch", k),
              **linear(enc.out_dim, config.mlp_hidden, "theta.head.l1", "he"),
              **linear(config.mlp_hidden, config.n_labels, "theta.head.l2")}
    if config.is_latent:
        params |= {**encoder_layout(vocab, enc, "phi.enc"), **gate_heads(enc.out_dim, "phi")}
    if config.is_variational:
        # +1 rows hold the UNK sentinel embedding (last row).
        params |= {**encoder_layout(vocab, enc, "sigma.enc"),
                   "sigma.y_emb": (("uniform", np.float64), (config.n_labels + 1, LABEL_EMB_DIM)),
                   "sigma.d_emb": (("uniform", np.float64),
                                   (config.n_domains + 1, DOMAIN_EMB_DIM)),
                   **gate_heads(enc.out_dim + LABEL_EMB_DIM + DOMAIN_EMB_DIM, "sigma")}
    return params


def _linear(binder, prefix, x: Var) -> Var:
    return ad.matmul(x, binder(f"{prefix}.w")) + binder(f"{prefix}.b")


def _table_rows(ids, n: int, what: str) -> np.ndarray:
    """Rows of an id table, one per batch position: the id itself, or the
    UNK row n for None. An entry may also be a sequence of ids (one row
    per candidate). An id outside [0, n) raises naming its position."""
    rows = np.array([n if i is None else i for i in ids], dtype=np.intp)
    bad = (rows < 0) | (rows >= n)
    bad &= np.array([i is not None for i in ids]).reshape((-1,) + (1,) * (rows.ndim - 1))
    if bad.any():
        j = int(np.argwhere(bad)[0][0])
        raise ValueError(f"{what} id {ids[j]} outside inventory of {n} "
                         f"(batch position {j})")
    return rows


def gate_channels(h_mat: Var, z: Var) -> Var:
    """h = sum_i z_i h_i for each instance's stacked channels h_mat
    [B,k,H] and each of its r gate rows z [B,r,k], giving [B,r,H]. An
    indicator gate reproduces the selected channel bitwise (multiplying
    by exact 0/1 and summing zeros is lossless)."""
    if h_mat.value.ndim != 3 or z.value.ndim != 3 \
            or z.shape[0] != h_mat.shape[0] or z.shape[-1] != h_mat.shape[1]:
        raise ad.ShapeError(
            f"gate shape {z.shape} does not match channels {h_mat.shape}")
    return ad.matmul(z, h_mat)


def classify_batch(binder: ParamBinder, h: Var) -> Var:
    """Label log-probabilities from a gated hidden vector [H], or one
    distribution per row of h [..., H]."""
    hidden = ad.relu(_linear(binder, "theta.head.l1", h))
    return ad.log_softmax(_linear(binder, "theta.head.l2", hidden))


class Model:
    """A parameterized model: config plus a flat {name: array} store, which
    must hold the names, shapes and dtypes that the config's layout makes:
    ``Model(...)`` raises ``ConfigError`` naming the first parameter that
    differs. A built model's store may be cast in place (to float64)."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        want = {name: (shape, np.dtype(dtype))
                for name, ((_, dtype), shape) in _layout(config).items()}
        for name in [*want, *sorted(params.keys() - want.keys())]:
            got = (params[name].shape, params[name].dtype) if name in params else None
            if got != want.get(name):
                held, made = (f"{s[1]} {s[0]}" if s else "nothing"
                              for s in (got, want.get(name)))
                raise ConfigError(name, f"the store holds {held}, the config makes {made}")
        self.config = config
        self.params = params

    # -- construction --------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        """A fresh model, each parameter drawn whole from ``rng`` by its
        rule, in layout order and in its own dtype, in place."""
        params = {}
        for name, ((init, dtype), shape) in _layout(config).items():
            if init == "zeros":
                x = np.zeros(shape, dtype)
            elif init == "he":
                x = rng.standard_normal(shape, dtype)
                x *= math.sqrt(2.0 / math.prod(shape[:-1]))
            else:
                x = rng.random(shape, dtype)
                x -= 0.5
                x *= 0.1
            params[name] = x
        return cls(config, params)

    def copy(self) -> "Model":
        return copy.deepcopy(self)

    def binder(self, tape: Tape) -> ParamBinder:
        return ParamBinder(tape, self.params)

    def pack(self, seqs) -> TokenBatch:
        """A batch of token-id sequences, packed once for every encoder."""
        return pack(seqs, self.config.encoder)

    # -- graph pieces ---------------------------------------------------------

    def channel_encodings(self, binder, batch: TokenBatch,
                          dropout_rng: Optional[np.random.Generator]) -> Var:
        """The k channel encodings of each instance [B,k,H], from the one
        channel group. With ``dropout_rng``, channel dropout applies to
        them from one noise draw [B,k,H]: instance by instance, channel by
        channel."""
        cfg = self.config
        h_mat = encode(binder, "theta.ch", batch, cfg.encoder)
        if dropout_rng is not None and cfg.dropout > 0.0:
            h_mat = ad.dropout(h_mat, cfg.dropout, dropout_rng.random(h_mat.shape))
        return h_mat

    def _continuous_heads(self, binder, feats: Var, group: str) -> DirichletParams:
        if self.config.family == "beta":
            parts = [ad.elu(_linear(binder, f"{group}.{head}", feats)) + 1.0
                     for head in ("alpha", "beta")]
            return DirichletParams(ad.concat([ad.reshape(v, v.shape + (1,)) for v in parts]))
        scale = ad.exp(_linear(binder, f"{group}.conc", feats))
        affinity = ad.sigmoid(_linear(binder, f"{group}.base", feats))
        return DirichletParams(ad.mul(scale, affinity))

    def prior_gate(self, binder, batch: TokenBatch):
        """p(z | x) for each instance: encoder over x with family-specific
        heads. Returns the dsda logits ``Var`` [B,k], or the
        ``DirichletParams`` rows (pairs [B,k,2] for csda-beta)."""
        cfg = self.config
        feats = ad.reshape(encode(binder, "phi.enc", batch, cfg.encoder),
                           (batch.size, cfg.encoder.out_dim))
        if cfg.family == "categorical":
            return _linear(binder, "phi.logits", feats)
        return self._continuous_heads(binder, feats, "phi")

    def posterior_gate(self, binder, batch: TokenBatch, y_ids, d_ids=None):
        """q(z | x, y, d) for each instance, with UNK sentinels where y or d
        is None (``d_ids=None``: no domain observed); returns its
        ``DirichletParams`` rows [B,k] (pairs [B,k,2] for csda-beta). Each
        y entry may also be a sequence of C candidate labels, giving rows
        [B,C,k] from one encoding of x."""
        cfg = self.config
        y_rows = _table_rows(y_ids, cfg.n_labels, "label")
        d_rows = np.broadcast_to(
            _table_rows([None] * batch.size if d_ids is None else d_ids,
                        cfg.n_domains, "domain").reshape((-1,) + (1,) * (y_rows.ndim - 1)),
            y_rows.shape)
        feats = ad.reshape(encode(binder, "sigma.enc", batch, cfg.encoder),
                           (batch.size, cfg.encoder.out_dim))
        if y_rows.ndim == 2:
            feats = ad.embedding(feats, np.repeat(
                np.arange(batch.size)[:, None], y_rows.shape[1], axis=1))
        feats = ad.concat([feats, ad.embedding(binder("sigma.y_emb"), y_rows),
                           ad.embedding(binder("sigma.d_emb"), d_rows)])
        return self._continuous_heads(binder, feats, "sigma")

    def gate(self, z: np.ndarray) -> np.ndarray:
        """The gate rows [...,k] of draws or means z of a csda gate
        distribution: part 0 of each Beta pair [...,k,2], or the Dirichlet
        simplex itself. A Beta gate is copied out of its pairs: numpy's
        product of a strided array can round differently."""
        return np.ascontiguousarray(z[..., 0]) if self.config.family == "beta" else z

    def mixture(self, binder, batch: TokenBatch) -> tuple[np.ndarray, Var]:
        """The gate rows [B,r,k] of a kind whose gate is not drawn, and
        their log mixture weights [B,r]: the uniform row at log weight 0
        (scnn, mcnn), or dsda's k indicator rows at log p(d|x)."""
        cfg = self.config
        n, k = batch.size, cfg.k
        if cfg.is_variational:
            raise ValueError(f"{cfg.kind} draws its gate: it has no fixed mixture")
        if cfg.family == "categorical":
            return (np.broadcast_to(np.eye(k), (n, k, k)),
                    ad.log_softmax(self.prior_gate(binder, batch)))
        return np.full((n, 1, k), 1.0 / k), binder.tape.const(np.zeros((n, 1)))

    # -- losses ---------------------------------------------------------------

    def loss(self, seqs, y_ids, d_ids=None, *, lam: float,
             rng: Optional[np.random.Generator] = None,
             dropout_rng: Optional[np.random.Generator] = None) -> LossResult:
        """Training loss (negative objective) of a mini-batch on one tape:
        the mean over its instances of -log sum_r w_r p(y | x, z_r), over
        the rows of ``mixture`` or, for the variational models, one draw
        from q plus ``lam`` times its KL to the prior.

        ``seqs`` are the B token-id sequences, ``y_ids`` their labels and
        ``d_ids`` their domains (None entries, or None for all, where
        unobserved). dsda adds ``-log p(d | x)`` at ``DOMAIN_PRIOR_WEIGHT``
        on each row whose domain is observed. ``rng`` drives gate sampling
        and is required by the variational models; ``dropout_rng``
        enables channel dropout. A row whose gate draw has no pathwise
        gradient is left out of the mean and counted in ``degenerate``.
        An invalid id raises ``ValueError`` naming its batch position.
        """
        cfg = self.config
        n = len(seqs)
        if len(y_ids) != n or any(v is None for v in y_ids):
            raise ValueError(f"loss needs one observed label per instance, got {y_ids}")
        y = _table_rows(y_ids, cfg.n_labels, "label")
        d_ids = [None] * n if d_ids is None else list(d_ids)
        tape = Tape()
        binder = self.binder(tape)
        batch = self.pack(seqs)
        h_mat = self.channel_encodings(binder, batch, dropout_rng)
        keep, kl, extra = np.ones(n, dtype=bool), None, None

        if cfg.is_variational:
            if rng is None:
                raise ValueError(f"{cfg.kind} samples its gate: loss needs a generator rng")
            q = self.posterior_gate(binder, batch, y_ids, d_ids)
            p = self.prior_gate(binder, batch)
            z_var, degenerate = dist.sample(q, rng)
            keep = ~degenerate.reshape(n, -1).any(axis=1)
            kl = dist.kl_divergence(q, p)
            if cfg.family == "beta":  # part 0 of each pair; the k pairs' KLs add up
                z_var, kl = ad.gather(z_var, 0), ad.reduce_sum(kl, axis=-1)
            z, log_w = ad.reshape(z_var, (n, 1, cfg.k)), tape.const(np.zeros((n, 1)))
            extra = lam * kl
        else:
            z_rows, log_w = self.mixture(binder, batch)
            z = tape.const(z_rows)
            observed = np.array([d is not None for d in d_ids])
            if cfg.kind == "dsda" and observed.any():
                for j, d in enumerate(d_ids):
                    if d is not None and not 0 <= d < cfg.k:
                        raise ValueError(f"observed domain {d} outside the {cfg.k} "
                                         f"channels (batch position {j})")
                d = np.array([0 if d is None else d for d in d_ids])
                extra = tape.const(np.where(observed, DOMAIN_PRIOR_WEIGHT, 0.0)) \
                    * ad.neg(ad.gather(log_w, d))
        loglik = ad.gather(classify_batch(binder, gate_channels(h_mat, z)),
                           np.broadcast_to(y[:, None], log_w.shape))
        rows = ad.neg(ad.logsumexp(log_w + loglik))
        if extra is not None:
            rows = rows + extra

        kept = int(keep.sum())
        if kept == 0:
            return LossResult(tape, None, None, n)
        weights = keep / kept
        loss = ad.reduce_sum(rows * tape.const(weights))
        return LossResult(tape, loss, None if kl is None else float(kl.value @ weights),
                          n - kept)
