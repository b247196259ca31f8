"""Tokenization and vocabularies for word-level and byte-level inputs.

Word mode lower-cases, splits on whitespace, maps through the vocabulary
with OOV fallback, and truncates to 256 tokens. Byte mode encodes the
UTF-8 bytes shifted past the reserved ids and truncates to 1000. Neither
mode pads: ``encoder.pack`` left-pads a sequence shorter than the widest
window, and only there.

A vocabulary is its list of tokens: the position is the id, and the PAD
and OOV tokens come first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "PAD_ID", "OOV_ID", "PAD_TOKEN", "OOV_TOKEN",
    "WORD_MAX_LEN", "BYTE_LEN", "BYTE_VOCAB_SIZE",
    "Vocab", "tokenize",
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
        if not (isinstance(self.tokens, list) and all(isinstance(t, str) for t in self.tokens)):
            raise ValueError("vocab must be a list of strings")
        if self.tokens[:2] != [PAD_TOKEN, OOV_TOKEN]:
            raise ValueError(
                f"vocab must start with {PAD_TOKEN!r}, {OOV_TOKEN!r}")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocab contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    @classmethod
    def build(cls, texts) -> "Vocab":
        """Every lower-cased word of ``texts``, sorted, after the reserved
        ones; a reserved word in the text keeps its reserved id."""
        words = {tok for text in texts for tok in text.lower().split()}
        return cls([PAD_TOKEN, OOV_TOKEN] + sorted(words - {PAD_TOKEN, OOV_TOKEN}))


def tokenize(text: str, mode: str, vocab: Vocab | None = None) -> list[int]:
    """Map text to ids. Word mode requires a vocabulary; byte mode ignores it.

    Empty input yields a single PAD token in both modes.
    """
    if mode == "word":
        if vocab is None:
            raise ValueError("word-mode tokenization requires a vocabulary")
        ids = [vocab.index.get(t, OOV_ID) for t in text.lower().split()[:WORD_MAX_LEN]]
    elif mode == "byte":
        ids = [b + _N_SPECIALS for b in text.encode("utf-8")[:BYTE_LEN]]
    else:
        raise ValueError(f"unknown token mode {mode!r}")
    return ids or [PAD_ID]
