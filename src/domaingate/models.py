"""Model architectures: single/multi-channel baselines, the discrete
latent-domain mixture (dsda), and the continuous Beta/Dirichlet gated
models (csda).

All of them share the same likelihood shape: k channel encoders produce
hidden vectors h_1..h_k, stacked into a [k,H] matrix; a gate vector z
mixes them into h = sum_i z_i h_i, and a one-hidden-layer MLP with a
softmax head (``classify_batch``) predicts the label. The gate and the
head also take rows: gate rows [r,k] give r hidden vectors and r label
distributions in one call. Training and prediction build the same graph
on a ``Tape``; prediction passes its gate draws as rows and never calls
``backprop``. They differ in where z comes from:

- scnn:  k = 1, z = (1,)
- mcnn:  fixed uniform gate z = (1/k, ..., 1/k)
- dsda:  z is a latent categorical; training marginalizes it exactly
  (one head call over the channel rows gives the per-channel
  likelihoods, summed in probability space via log-sum-exp), optionally
  adding a supervised prior term when the domain is observed
- csda:  z ~ Beta or Dirichlet, parameterized by a prior network from x
  alone and, during training, a variational network that additionally
  conditions on the label and domain (with UNK sentinels); trained on a
  single-sample bound with a lambda-weighted closed-form KL

The gate networks return the distribution parameters themselves: the
dsda prior's logits ``Var``, or ``BetaParams``/``DirichletParams``. A
Dirichlet head's concentration is the product node scale * affinity of
an overall scale and per-channel affinities in (0,1), recorded once per
head; backprop carries the Gamma pathwise partials of a draw through
it, so the multi-variable chain rule is handled by the tape itself.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import distributions as dist
from .autodiff import ParamBinder, Tape, Var
from .distributions import BetaParams, DirichletParams
from .encoder import EncoderConfig, encode, init_encoder_params

__all__ = ["MODEL_KINDS", "ModelConfig", "Model", "gate_channels", "classify_batch"]

MODEL_KINDS = ("scnn", "mcnn", "dsda", "csda-beta", "csda-dirichlet")

UNK = None  # sentinel spelling for an unobserved label/domain id

# Widths of the label and domain embeddings the variational network reads.
LABEL_EMB_DIM = 4
DOMAIN_EMB_DIM = 16


@dataclass(frozen=True)
class ModelConfig:
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
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "scnn" and self.k != 1:
            raise ValueError("scnn is single-channel; k must be 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")

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
    tape: Tape
    loss: Var
    kl: Optional[float] = None


def _init_linear(rng, n_in, n_out, prefix, he=False):
    if he:
        w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
    else:
        w = rng.uniform(-0.05, 0.05, size=(n_in, n_out))
    return {f"{prefix}.w": w, f"{prefix}.b": np.zeros(n_out)}


def _init_gate_heads(rng, family: str, n_in: int, k: int, group: str) -> dict:
    """The output heads of a gate network: dsda logits, Beta alpha and
    beta, or a Dirichlet's overall concentration and channel affinities."""
    if family == "categorical":
        return _init_linear(rng, n_in, k, f"{group}.logits")
    if family == "beta":
        heads = _init_linear(rng, n_in, k, f"{group}.alpha")
        heads.update(_init_linear(rng, n_in, k, f"{group}.beta"))
    else:
        heads = _init_linear(rng, n_in, 1, f"{group}.conc")
        heads.update(_init_linear(rng, n_in, k, f"{group}.base"))
    return heads


def _linear(binder, prefix, x: Var) -> Var:
    return ad.matmul(x, binder(f"{prefix}.w")) + binder(f"{prefix}.b")


def gate_channels(h_mat: Var, z: Var) -> Var:
    """h = sum_i z_i h_i over the stacked channels h_mat [k,H], for a gate
    vector [k] (giving [H]) or gate rows [r,k] (giving [r,H]). An
    indicator gate reproduces the selected channel bitwise (multiplying
    by exact 0/1 and summing zeros is lossless)."""
    if z.value.ndim not in (1, 2) or z.shape[-1] != h_mat.shape[0]:
        raise ad.ShapeError(
            f"gate shape {z.shape} does not match {h_mat.shape[0]} channels")
    return ad.matmul(z, h_mat)


def classify_batch(binder: ParamBinder, cfg: ModelConfig, h: Var) -> Var:
    """Label log-probabilities from a gated hidden vector [H], or one
    distribution per row of h [r,H]."""
    hidden = ad.relu(_linear(binder, "theta.head.l1", h))
    return ad.log_softmax(_linear(binder, "theta.head.l2", hidden))


class Model:
    """A parameterized model: config plus a flat {name: array} store."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    # -- construction --------------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        p: dict[str, np.ndarray] = {}
        enc = config.encoder
        for i in range(config.k):
            p.update(init_encoder_params(rng, config.vocab_size, enc, f"theta.ch{i}"))
        p.update(_init_linear(rng, enc.out_dim, config.mlp_hidden,
                              "theta.head.l1", he=True))
        p.update(_init_linear(rng, config.mlp_hidden, config.n_labels,
                              "theta.head.l2"))
        if config.is_latent:
            p.update(init_encoder_params(rng, config.vocab_size, enc, "phi.enc"))
            p.update(_init_gate_heads(rng, config.family, enc.out_dim, config.k, "phi"))
        if config.is_variational:
            p.update(init_encoder_params(rng, config.vocab_size, enc, "sigma.enc"))
            # +1 rows hold the UNK sentinel embedding (last row).
            p["sigma.y_emb"] = rng.uniform(
                -0.05, 0.05, size=(config.n_labels + 1, LABEL_EMB_DIM))
            p["sigma.d_emb"] = rng.uniform(
                -0.05, 0.05, size=(config.n_domains + 1, DOMAIN_EMB_DIM))
            q_in = enc.out_dim + LABEL_EMB_DIM + DOMAIN_EMB_DIM
            p.update(_init_gate_heads(rng, config.family, q_in, config.k, "sigma"))
        return cls(config, p)

    def copy(self) -> "Model":
        return Model(self.config, copy.deepcopy(self.params))

    def binder(self, tape: Tape) -> ParamBinder:
        return ParamBinder(tape, self.params)

    # -- graph pieces ---------------------------------------------------------

    def channel_encodings(self, binder, ids,
                          dropout_rng: Optional[np.random.Generator]) -> Var:
        """The k channel encodings of x, stacked into [k,H]."""
        cfg = self.config
        return ad.stack([encode(binder, f"theta.ch{i}", ids, cfg.encoder,
                                dropout_rng=dropout_rng, dropout_rate=cfg.dropout)
                         for i in range(cfg.k)])

    def _continuous_heads(self, binder, feats: Var, group: str):
        if self.config.family == "beta":
            alpha = ad.elu(_linear(binder, f"{group}.alpha", feats)) + 1.0
            beta = ad.elu(_linear(binder, f"{group}.beta", feats)) + 1.0
            return BetaParams(alpha, beta)
        scale = ad.exp(ad.gather(_linear(binder, f"{group}.conc", feats), 0))
        affinity = ad.sigmoid(_linear(binder, f"{group}.base", feats))
        return DirichletParams(ad.mul(scale, affinity))

    def prior_gate(self, binder, ids):
        """p(z | x): encoder over x with family-specific heads. Returns the
        dsda logits ``Var``, or the ``BetaParams``/``DirichletParams``."""
        cfg = self.config
        feats = encode(binder, "phi.enc", ids, cfg.encoder)
        if cfg.family == "categorical":
            return _linear(binder, "phi.logits", feats)
        return self._continuous_heads(binder, feats, "phi")

    def posterior_gate(self, binder, ids, y_id: Optional[int],
                       d_id: Optional[int]):
        """q(z | x, y, d) with UNK sentinels when y or d is unobserved;
        returns its ``BetaParams``/``DirichletParams``."""
        cfg = self.config
        if y_id is not None and not 0 <= y_id < cfg.n_labels:
            raise ValueError(f"label id {y_id} outside inventory of {cfg.n_labels}")
        if d_id is not None and not 0 <= d_id < cfg.n_domains:
            raise ValueError(f"domain id {d_id} outside inventory of {cfg.n_domains}")
        y_row = cfg.n_labels if y_id is None else y_id
        d_row = cfg.n_domains if d_id is None else d_id
        feats = encode(binder, "sigma.enc", ids, cfg.encoder)
        y_emb = ad.take_row(binder("sigma.y_emb"), y_row)
        d_emb = ad.take_row(binder("sigma.d_emb"), d_row)
        feats = ad.concat([feats, y_emb, d_emb])
        return self._continuous_heads(binder, feats, "sigma")

    # -- losses ---------------------------------------------------------------

    def loss(self, ids, y_id: int, d_id: Optional[int] = None, *,
             lam: float = 0.1, w_dom: float = 1.0,
             rng: Optional[np.random.Generator] = None,
             dropout_rng: Optional[np.random.Generator] = None,
             eps: Optional[np.ndarray] = None) -> LossResult:
        """Per-instance training loss (negative objective) on a fresh tape.

        ``rng`` drives gate sampling (variational models); ``dropout_rng``
        enables channel dropout; ``eps`` freezes the sampling noise.
        """
        cfg = self.config
        if not 0 <= y_id < cfg.n_labels:
            raise ValueError(f"label id {y_id} outside inventory of {cfg.n_labels}")
        tape = Tape()
        binder = self.binder(tape)
        h_mat = self.channel_encodings(binder, ids, dropout_rng)

        if cfg.kind in ("scnn", "mcnn"):
            z = tape.const(np.full(cfg.k, 1.0 / cfg.k))
            logprobs = classify_batch(binder, cfg, gate_channels(h_mat, z))
            return LossResult(tape, ad.neg(ad.gather(logprobs, y_id)))

        if cfg.kind == "dsda":
            if d_id is not None and d_id >= cfg.k:
                raise ValueError(
                    f"observed domain {d_id} >= number of channels {cfg.k}")
            log_prior = ad.log_softmax(self.prior_gate(binder, ids))
            per_channel = ad.gather(classify_batch(binder, cfg, h_mat), y_id)
            joint = per_channel + log_prior
            loss = ad.neg(ad.logsumexp(joint))
            if d_id is not None:
                loss = loss + w_dom * ad.neg(ad.gather(log_prior, d_id))
            return LossResult(tape, loss)

        # variational csda
        q = self.posterior_gate(binder, ids, y_id, d_id)
        p = self.prior_gate(binder, ids)
        z_var = dist.sample(q, rng, eps=eps)
        logprobs = classify_batch(binder, cfg, gate_channels(h_mat, z_var))
        loglik = ad.gather(logprobs, y_id)
        kl = dist.kl_divergence(q, p)
        loss = ad.neg(loglik - lam * kl)
        return LossResult(tape, loss, kl=kl.item())
