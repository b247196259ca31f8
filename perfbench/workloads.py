"""Workload definitions: seeded corpora, model shapes and the fixed work
one episode performs.

Each workload is built only from its seed. ``Workload.setup`` makes the
corpus, the vocabulary, the model-ready instances and the initial models
through the public ``domaingate`` API; everything the timed phases need
is returned in a ``Prepared`` value. The timed phases themselves live in
``run.py``.

Input sizes:

- desk-synth: ``data.generate_synthetic`` at its default spec (4 training
  and 2 held-out domains, 150 documents each, T=20, vocabulary ~190),
  E=32, F=16, windows {3,4,5}, mlp 32, k=4. Trains dsda, csda-beta and
  csda-dirichlet on 24 instances for 2 epochs (batch 12, 16 dev
  instances, no early stop) and predicts 32 held-out instances with
  prior-sample and prior-mean and 6 with mc-average and
  importance-sampling (m=100), on both csda kinds.
- paper-word: csda-dirichlet at E=300, F=128 x {3,4,5}, mlp 300, k=4 in
  word mode. The corpus has 2000 documents drawn from a Zipfian
  (s=1) distribution over 27000 word types, which leaves a vocabulary of
  about 20k words; lengths are lognormal with mean 100, capped at 256.
  One episode trains 4 instances (one batch, 4 dev instances) and
  predicts 4 with each strategy.
- paper-byte: the same model and flow in byte mode (vocabulary 258,
  T=1000) on texts of 300 to 1000 bytes.

Document lengths inside each slice (train, dev, predict) are spread by
stratified sampling: slice i of n draws its quantile from
[i/n, (i+1)/n). Lengths still differ from document to document and from
seed to seed, but the total length of a slice, and with it the cost of
the slice, varies little between seeds.
"""

from __future__ import annotations

import hashlib
import statistics
import string
from dataclasses import dataclass

import numpy as np

from domaingate import data, models, text
from domaingate.encoder import EncoderConfig

__all__ = ["WORKLOADS", "Workload", "Prepared", "get_workload"]

LABELS = ("neg", "pos")


@dataclass(frozen=True)
class Sizes:
    """Everything that sets how much work one episode does."""

    embed_dim: int
    n_filters: int
    windows: tuple[int, ...]
    mlp_hidden: int
    k: int
    n_train: int          # labelled training instances per model
    n_dev: int            # dev instances evaluated inside train()
    epochs: int
    batch_size: int
    lr: float
    n_predict_fast: int   # held-out instances for prior-sample / prior-mean
    n_predict_slow: int   # held-out instances for mc-average / importance-sampling
    m: int                # Monte-Carlo samples for the slow strategies
    # corpus knobs (paper workloads)
    word_types: int = 0
    vocab_docs: int = 0
    mean_len: float = 100.0
    min_bytes: int = 300
    max_bytes: int = 1000


@dataclass
class Prepared:
    """The output of one set-up: instances, vocabulary size and models."""

    train: list
    dev: list
    predict_fast: list
    predict_slow: list
    vocab_size: int
    models: dict[str, models.Model]

    def digest(self) -> str:
        h = hashlib.sha256()
        for group in (self.train, self.dev, self.predict_fast, self.predict_slow):
            for inst in group:
                h.update(repr((inst.ids, inst.y_id, inst.d_id)).encode())
        for kind in sorted(self.models):
            params = self.models[kind].params
            for name in sorted(params):
                h.update(name.encode())
                h.update(params[name].tobytes())
        return h.hexdigest()


# -- corpus generators for the paper-scale workloads ----------------------------

def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms, one in each of the strata [i/n, (i+1)/n), shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _word_list(n: int, rng: np.random.Generator) -> list[str]:
    """n distinct four-letter pseudo-words, in a seeded frequency order."""
    letters = string.ascii_lowercase
    words = ["".join(letters[(i // 26 ** p) % 26] for p in range(4)) for i in range(n)]
    return [words[i] for i in rng.permutation(n)]


def _zipf_probs(n: int, s: float = 1.0) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def _labelled_doc(doc_id: str, toks: list[str], i: int, n_domains: int,
                  cue_words: dict, rng: np.random.Generator) -> data.Document:
    """Attach a label and a domain, and plant label cues: about 5% of the
    tokens come from a (domain group, label) cue set whose polarity flips
    between the two domain groups, as in ``data.generate_synthetic``."""
    domain = i % n_domains
    label = int(rng.integers(2))
    cues = cue_words[(domain % 2, label)]
    n_cue = max(1, len(toks) // 20)
    pos = rng.choice(len(toks), size=min(n_cue, len(toks)), replace=False)
    for p in pos:
        toks[p] = cues[int(rng.integers(len(cues)))]
    return data.Document(doc_id, " ".join(toks), label=LABELS[label],
                         domain=f"dom{domain}")


def _cue_sets(words: list[str]) -> dict:
    # Mid-frequency words serve as cues: ranks 200..279 split four ways.
    mid = words[200:280]
    return {(g, y): mid[(2 * g + y) * 20:(2 * g + y + 1) * 20]
            for g in (0, 1) for y in (0, 1)}


def word_corpus(seed: int, sz: Sizes, slices: tuple[int, ...]) -> list[list[data.Document]]:
    """Slices of labelled documents plus one unlabelled-for-us block that
    only feeds the vocabulary, all with Zipfian tokens and lognormal
    lengths of mean ``sz.mean_len`` capped at ``WORD_MAX_LEN``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    words = _word_list(sz.word_types, rng)
    probs = _zipf_probs(sz.word_types)
    cues = _cue_sets(words)
    sigma = 0.6
    mu = np.log(sz.mean_len) - 0.5 * sigma * sigma
    norm = statistics.NormalDist()
    out = []
    counter = 0
    for n in slices + (sz.vocab_docs,):
        u = _stratified(rng, n)
        lens = [min(text.WORD_MAX_LEN,
                    max(1, int(round(np.exp(mu + sigma * norm.inv_cdf(float(x)))))))
                for x in u]
        ids = rng.choice(sz.word_types, size=sum(lens), p=probs)
        docs, off = [], 0
        for length in lens:
            toks = [words[j] for j in ids[off:off + length]]
            off += length
            docs.append(_labelled_doc(f"w{counter}", toks, counter, sz.k, cues, rng))
            counter += 1
        out.append(docs)
    return out


def byte_corpus(seed: int, sz: Sizes, slices: tuple[int, ...]) -> list[list[data.Document]]:
    """Slices of ASCII texts of ``sz.min_bytes``..``sz.max_bytes`` bytes
    built from a small Zipfian word list."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 12)))
    words = _word_list(2000, rng)
    probs = _zipf_probs(len(words))
    cues = _cue_sets(words)
    out = []
    counter = 0
    span = sz.max_bytes - sz.min_bytes + 1
    for n in slices:
        u = _stratified(rng, n)
        docs = []
        for x in u:
            n_bytes = sz.min_bytes + int(x * span)
            toks = [words[j] for j in rng.choice(len(words), size=n_bytes // 3 + 1, p=probs)]
            doc = _labelled_doc(f"b{counter}", toks, counter, sz.k, cues, rng)
            docs.append(data.Document(doc.id, doc.text[:n_bytes].rstrip() or "a",
                                      doc.label, doc.domain))
            counter += 1
        out.append(docs)
    return out


# -- workloads ---------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                     # word | byte
    kinds: tuple[str, ...]        # model kinds trained each episode
    predict_kinds: tuple[str, ...]
    sizes: dict                   # size name -> Sizes
    # Scale call times by run.SpeedProbe. Off where the work is bound by
    # memory traffic and does not slow down in step with the probe.
    speed_corrected: bool = True

    def model_config(self, kind: str, sz: Sizes, vocab_size: int,
                     n_domains: int) -> models.ModelConfig:
        return models.ModelConfig(
            kind=kind, n_labels=len(LABELS), n_domains=n_domains,
            vocab_size=vocab_size, k=sz.k,
            encoder=EncoderConfig(sz.embed_dim, sz.n_filters, sz.windows),
            mlp_hidden=sz.mlp_hidden)

    def setup(self, seed: int, sz: Sizes, span) -> Prepared:
        """One full set-up. ``span(name)`` is a context manager that times
        each stage (a no-op outside the traced run)."""
        if self.name == "desk-synth":
            return self._setup_synth(seed, sz, span)
        return self._setup_paper(seed, sz, span)

    def _finish(self, seed, sz, span, vocab_size, n_domains, train, dev,
                fast, slow) -> Prepared:
        init_rng = np.random.default_rng(np.random.SeedSequence((seed, 21)))
        built = {}
        with span("models.init"):
            for kind in self.kinds:
                cfg = self.model_config(kind, sz, vocab_size, n_domains)
                built[kind] = models.Model.init(cfg, init_rng)
        return Prepared(train, dev, fast, slow, vocab_size, built)

    def _setup_synth(self, seed, sz, span) -> Prepared:
        with span("data.generate"):
            spec = data.SynthSpec(seed=seed)
            corpus = data.generate_synthetic(spec)
        held = [f"dom{d}" for d in spec.held_out]
        train_c, held_c = data.split_held_out(corpus, held)
        with span("text.vocab_build"):
            vocab = text.Vocab.build(d.text for d in train_c.docs)
        with span("data.prepare"):
            train_i = data.prepare(train_c, vocab, "word", train_c.labels, train_c.domains)
            held_i = data.prepare(held_c, vocab, "word", train_c.labels, train_c.domains)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 20)))
        order = rng.permutation(len(train_i))
        train = [train_i[i] for i in order[:sz.n_train]]
        dev = [train_i[i] for i in order[sz.n_train:sz.n_train + sz.n_dev]]
        order = rng.permutation(len(held_i))
        fast = [held_i[i] for i in order[:sz.n_predict_fast]]
        slow = fast[:sz.n_predict_slow]
        return self._finish(seed, sz, span, len(vocab), len(train_c.domains),
                            train, dev, fast, slow)

    def _setup_paper(self, seed, sz, span) -> Prepared:
        slices = (sz.n_train, sz.n_dev, sz.n_predict_fast)
        with span("data.generate"):
            if self.mode == "word":
                parts = word_corpus(seed, sz, slices)
            else:
                parts = byte_corpus(seed, sz, slices)
            corpus = data.Corpus([d for part in parts for d in part])
        if self.mode == "word":
            with span("text.vocab_build"):
                vocab = text.Vocab.build(d.text for d in corpus.docs)
            vocab_size = len(vocab)
        else:
            vocab, vocab_size = None, text.BYTE_VOCAB_SIZE
        with span("data.prepare"):
            prepared = [data.prepare(data.Corpus(part, corpus.labels, corpus.domains),
                                     vocab, self.mode, corpus.labels, corpus.domains)
                        for part in parts[:3]]
        train, dev, fast = prepared
        slow = fast[:sz.n_predict_slow]
        return self._finish(seed, sz, span, vocab_size, len(corpus.domains),
                            train, dev, fast, slow)


_DESK = Sizes(embed_dim=32, n_filters=16, windows=(3, 4, 5), mlp_hidden=32, k=4,
              n_train=24, n_dev=16, epochs=2, batch_size=12, lr=3e-3,
              n_predict_fast=32, n_predict_slow=6, m=100)
_PAPER = dict(embed_dim=300, n_filters=128, windows=(3, 4, 5), mlp_hidden=300, k=4,
              n_train=4, n_dev=4, epochs=1, batch_size=4, lr=1e-3,
              n_predict_fast=4, n_predict_slow=4, m=100)
# Tiny sizes keep the flow and every layer but run in about a second.
_TINY = dict(embed_dim=8, n_filters=4, windows=(3, 4, 5), mlp_hidden=8, k=4,
             n_train=4, n_dev=2, epochs=1, batch_size=2, lr=1e-3,
             n_predict_fast=3, n_predict_slow=2, m=4)

WORKLOADS = {
    "desk-synth": Workload(
        "desk-synth", "word", ("dsda", "csda-beta", "csda-dirichlet"),
        ("csda-beta", "csda-dirichlet"),
        {"full": _DESK, "tiny": Sizes(**_TINY)}),
    "paper-word": Workload(
        "paper-word", "word", ("csda-dirichlet",), ("csda-dirichlet",),
        {"full": Sizes(**_PAPER, word_types=27000, vocab_docs=2000),
         "tiny": Sizes(**_TINY, word_types=500, vocab_docs=20, mean_len=20)},
        speed_corrected=False),
    "paper-byte": Workload(
        "paper-byte", "byte", ("csda-dirichlet",), ("csda-dirichlet",),
        {"full": Sizes(**_PAPER),
         "tiny": Sizes(**_TINY, min_bytes=30, max_bytes=60)}),
}


def get_workload(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]
