"""Corpus loading, dev/test splitting, and the synthetic multi-domain
generator used by the desk-scale experiments.

Corpus interchange format (the repository's canonical format): UTF-8
JSON-lines, one record per line, fields:

    text    (string, required)
    label   (string, optional; absent means the label is unobserved)
    domain  (string, optional; absent means the domain is unobserved)

Records with both label and domain observed form the fully-supervised
sub-corpus; records with only a label form the domain-unlabeled
sub-corpus (their domain is the UNK sentinel inside the models). The
sentinels themselves never appear in the inventories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ConfigError

__all__ = [
    "Document", "Corpus", "CorpusFormatError", "load_corpus", "save_corpus",
    "split_dev_test", "SynthSpec", "generate_synthetic", "split_held_out",
    "Instance", "prepare",
]


class CorpusFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label: Optional[str] = None
    domain: Optional[str] = None

    @property
    def has_label(self) -> bool:
        return self.label is not None

    @property
    def has_domain(self) -> bool:
        return self.domain is not None


@dataclass
class Corpus:
    docs: list[Document]
    labels: list[str] = field(default_factory=list)
    domains: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.labels and not self.domains:
            self.labels = sorted({d.label for d in self.docs if d.label is not None})
            self.domains = sorted({d.domain for d in self.docs if d.domain is not None})
        for doc in self.docs:
            if doc.label is not None and doc.label not in self.labels:
                raise CorpusFormatError(f"label {doc.label!r} missing from inventory")
            if doc.domain is not None and doc.domain not in self.domains:
                raise CorpusFormatError(f"domain {doc.domain!r} missing from inventory")

    def __len__(self):
        return len(self.docs)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def load_corpus(path) -> Corpus:
    """Parse a JSON-lines corpus; malformed lines are rejected with their
    line number, and an empty corpus is rejected."""
    docs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line, object_pairs_hook=_reject_duplicate_keys)
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(rec, dict) or "text" not in rec:
                raise CorpusFormatError(f"{path}:{lineno}: record needs a 'text' field")
            if not isinstance(rec["text"], str):
                raise CorpusFormatError(f"{path}:{lineno}: 'text' must be a string")
            for opt in ("label", "domain"):
                if opt in rec and not isinstance(rec[opt], str):
                    raise CorpusFormatError(f"{path}:{lineno}: {opt!r} must be a string")
            docs.append(Document(
                id=str(rec.get("id", lineno)),
                text=rec["text"],
                label=rec.get("label"),
                domain=rec.get("domain"),
            ))
    if not docs:
        raise CorpusFormatError(f"{path}: empty corpus")
    return Corpus(docs)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.docs:
            rec = {"id": doc.id, "text": doc.text}
            if doc.label is not None:
                rec["label"] = doc.label
            if doc.domain is not None:
                rec["domain"] = doc.domain
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


# Dev and test parts of an evaluation corpus, and the seed of its shuffle.
DEV_TEST_RATIO = (4, 6)
DEV_TEST_SEED = 0


def split_dev_test(corpus: Corpus) -> tuple[Corpus, Corpus]:
    """A shuffle seeded by ``DEV_TEST_SEED``, then a ``DEV_TEST_RATIO``
    split; the two sides are disjoint and exhaustive."""
    n = len(corpus.docs)
    dev_part, test_part = DEV_TEST_RATIO
    n_dev = round(n * dev_part / (dev_part + test_part))
    if n_dev == 0 or n_dev == n:
        raise ValueError(f"split of {n} instances at {DEV_TEST_RATIO} leaves one side empty")
    perm = np.random.default_rng(DEV_TEST_SEED).permutation(n)
    dev = [corpus.docs[i] for i in perm[:n_dev]]
    test = [corpus.docs[i] for i in perm[n_dev:]]
    return (Corpus(dev, list(corpus.labels), list(corpus.domains)),
            Corpus(test, list(corpus.labels), list(corpus.domains)))


# -- synthetic corpus ---------------------------------------------------------

# The synthetic vocabulary: unique filler words per domain, shared filler
# words per domain group, and cue words, half of them per label.
UNIQUE_TOKENS = 30
SHARED_TOKENS = 30
N_CUES = 8
# Chance that a filler word is a group-shared one, and that a label flips.
OVERLAP = 0.5
LABEL_NOISE = 0.05
LABEL_NAMES = ("neg", "pos")


@dataclass(frozen=True)
class SynthSpec:
    """Generator for a multi-domain corpus with domain-dependent cue words.

    Domains fall into two groups (even/odd index). Documents of
    ``doc_len`` words mix filler words (domain-unique, or group-shared
    with probability ``OVERLAP``) with ``cues_per_doc`` cue words that
    determine the class; a label flips with probability ``LABEL_NOISE``.
    With ``flip_cues`` the cue polarity inverts between the groups, so a
    cue is uninformative when pooled across domains and a classifier must
    route by domain to use it; without flipping the corpus is separable by
    cue frequency alone. Of ``n_domains``, those in ``held_out`` emit
    ``heldout_per_domain`` documents for evaluation, and share only the
    group vocabulary, never their unique fillers, with the training
    domains; ``seed`` makes it deterministic.
    """

    n_domains: int = 6
    held_out: tuple[int, ...] = (4, 5)
    flip_cues: bool = True
    doc_len: int = 20
    cues_per_doc: int = 3
    instances_per_domain: int = 150
    unlabeled_per_domain: int = 0
    heldout_per_domain: int = 150
    seed: int = 0

    def __post_init__(self):
        if not set(self.held_out) <= set(range(self.n_domains)):
            raise ConfigError("held_out", "held-out ids must be a subset of the domain ids")
        if self.cues_per_doc > self.doc_len:
            raise ConfigError("cues_per_doc", "cannot exceed doc_len")


def _cue_polarity(spec: SynthSpec, domain: int, cue: int) -> int:
    base = cue % 2
    if spec.flip_cues and domain % 2 == 1:
        return 1 - base
    return base


def _make_doc(spec: SynthSpec, rng: np.random.Generator, domain: int,
              doc_id: str, hide_domain: bool) -> Document:
    y = int(rng.integers(2))
    cue_pool = [c for c in range(N_CUES) if _cue_polarity(spec, domain, c) == y]
    group = domain % 2
    tokens = []
    for _ in range(spec.cues_per_doc):
        tokens.append(f"cue{rng.choice(cue_pool)}")
    for _ in range(spec.doc_len - spec.cues_per_doc):
        if rng.random() < OVERLAP:
            tokens.append(f"g{group}_s{rng.integers(SHARED_TOKENS)}")
        else:
            tokens.append(f"d{domain}_t{rng.integers(UNIQUE_TOKENS)}")
    rng.shuffle(tokens)
    label = y
    if rng.random() < LABEL_NOISE:
        label = 1 - label
    return Document(
        id=doc_id,
        text=" ".join(tokens),
        label=LABEL_NAMES[label],
        domain=None if hide_domain else f"dom{domain}",
    )


def generate_synthetic(spec: SynthSpec) -> Corpus:
    """Deterministic per seed. Training domains emit ``instances_per_domain``
    fully-labeled documents plus ``unlabeled_per_domain`` domain-hidden
    ones; held-out domains emit fully-labeled documents for evaluation.
    The fully-labeled block is unchanged by ``unlabeled_per_domain``, so
    corpora with and without the extra block are directly comparable."""
    docs = []
    train_domains = [d for d in range(spec.n_domains) if d not in spec.held_out]
    for domain in train_domains:
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, domain, 0)))
        for i in range(spec.instances_per_domain):
            docs.append(_make_doc(spec, rng, domain, f"dom{domain}-f{i}", False))
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, domain, 1)))
        for i in range(spec.unlabeled_per_domain):
            docs.append(_make_doc(spec, rng, domain, f"dom{domain}-y{i}", True))
    for domain in spec.held_out:
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, domain, 2)))
        for i in range(spec.heldout_per_domain):
            docs.append(_make_doc(spec, rng, domain, f"dom{domain}-h{i}", False))
    return Corpus(docs)


def split_held_out(corpus: Corpus, held_out_domains: list[str]) -> tuple[Corpus, Corpus]:
    """Partition into (training-domain corpus, held-out corpus). Each side
    rebuilds its inventories from its own observed values, so held-out
    domain names never leak into the training inventory."""
    held = set(held_out_domains)
    train = [d for d in corpus.docs if d.domain not in held]
    out = [d for d in corpus.docs if d.domain in held]
    if not train or not out:
        raise ValueError("held-out split left one side empty")
    return Corpus(train), Corpus(out)


# -- model-ready instances ----------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A tokenized document with inventory-mapped ids. ``y_id``/``d_id``
    are None when unobserved (the UNK sentinel); ``domain`` keeps the raw
    string for per-domain reporting even when it is outside the training
    inventory."""

    doc_id: str
    ids: tuple[int, ...]
    y_id: Optional[int]
    d_id: Optional[int]
    label: Optional[str]
    domain: Optional[str]


def prepare(corpus: Corpus, vocab, mode: str, labels: list[str],
            domains: list[str]) -> list[Instance]:
    """Tokenize and map against explicit inventories (normally the
    training corpus's). Labels/domains outside the inventories map to
    UNK rather than erroring, which is exactly what happens to held-out
    domains at evaluation time."""
    from .text import tokenize

    label_idx = {name: i for i, name in enumerate(labels)}
    domain_idx = {name: i for i, name in enumerate(domains)}
    out = []
    for doc in corpus.docs:
        out.append(Instance(
            doc_id=doc.id,
            ids=tuple(tokenize(doc.text, mode, vocab)),
            y_id=label_idx.get(doc.label) if doc.label is not None else None,
            d_id=domain_idx.get(doc.domain) if doc.domain is not None else None,
            label=doc.label,
            domain=doc.domain,
        ))
    return out
