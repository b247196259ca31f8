"""Tokenization and vocabularies for word-level and byte-level inputs.

Word mode lower-cases, splits on whitespace, maps through the vocabulary
with OOV fallback, and truncates to 256 tokens. Byte mode encodes the
UTF-8 bytes shifted past the reserved ids and truncates or pads to
exactly 1000 positions.

Vocabulary file format: one token per line, the line number (0-based) is
the id. Line 0 must be the PAD token and line 1 the OOV token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "PAD_ID", "OOV_ID", "PAD_TOKEN", "OOV_TOKEN",
    "WORD_MAX_LEN", "BYTE_LEN", "BYTE_VOCAB_SIZE",
    "Vocab", "TokenSeq", "tokenize",
]

PAD_ID = 0
OOV_ID = 1
PAD_TOKEN = "<pad>"
OOV_TOKEN = "<oov>"
_N_SPECIALS = 2

WORD_MAX_LEN = 256
BYTE_LEN = 1000
BYTE_VOCAB_SIZE = 256 + _N_SPECIALS


@dataclass
class Vocab:
    tokens: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.tokens[:2] != [PAD_TOKEN, OOV_TOKEN]:
            raise ValueError(
                f"vocab must start with {PAD_TOKEN!r}, {OOV_TOKEN!r}")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocab contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    @classmethod
    def build(cls, texts, min_count: int = 1) -> "Vocab":
        counts: dict[str, int] = {}
        for text in texts:
            for tok in text.lower().split():
                counts[tok] = counts.get(tok, 0) + 1
        kept = sorted(t for t, c in counts.items() if c >= min_count)
        return cls([PAD_TOKEN, OOV_TOKEN] + kept)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(lines)


@dataclass
class TokenSeq:
    ids: list[int]
    mode: str  # word | byte

    def __post_init__(self):
        if self.mode == "word":
            if len(self.ids) > WORD_MAX_LEN:
                raise ValueError(f"word sequence longer than {WORD_MAX_LEN}")
        elif self.mode == "byte":
            if len(self.ids) != BYTE_LEN:
                raise ValueError(f"byte sequence must have length {BYTE_LEN}")
        else:
            raise ValueError(f"unknown token mode {self.mode!r}")


def tokenize(text: str, mode: str, vocab: Vocab | None = None) -> TokenSeq:
    """Map text to ids. Word mode requires a vocabulary; byte mode ignores it.

    Empty input yields a single PAD token (word) or an all-PAD sequence
    (byte).
    """
    if mode == "word":
        if vocab is None:
            raise ValueError("word-mode tokenization requires a vocabulary")
        toks = text.lower().split()
        if not toks:
            return TokenSeq([PAD_ID], "word")
        ids = [vocab.index.get(t, OOV_ID) for t in toks[:WORD_MAX_LEN]]
        return TokenSeq(ids, "word")
    if mode == "byte":
        raw = text.encode("utf-8")[:BYTE_LEN]
        ids = [b + _N_SPECIALS for b in raw]
        ids.extend([PAD_ID] * (BYTE_LEN - len(ids)))
        return TokenSeq(ids, "byte")
    raise ValueError(f"unknown token mode {mode!r}")
