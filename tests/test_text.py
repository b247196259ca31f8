"""Tokenization and vocabulary contracts."""

import pytest

from domaingate.text import (BYTE_LEN, BYTE_VOCAB_SIZE, OOV_ID, PAD_ID,
                             WORD_MAX_LEN, Vocab, tokenize)


@pytest.fixture
def vocab():
    return Vocab.build(["good book", "bad film", "good film"])


class TestWordMode:
    def test_lowercases_and_maps(self, vocab):
        assert tokenize("Good BOOK", "word", vocab) == [vocab.index["good"],
                                                        vocab.index["book"]]

    def test_oov_fallback(self, vocab):
        assert tokenize("good zebra", "word", vocab)[1] == OOV_ID

    def test_truncates_to_max(self, vocab):
        text = " ".join(["good"] * 300)
        assert len(tokenize(text, "word", vocab)) == WORD_MAX_LEN

    def test_empty_input_flagged_single_pad(self, vocab):
        assert tokenize("   ", "word", vocab) == [PAD_ID]

    def test_requires_vocab(self):
        with pytest.raises(ValueError):
            tokenize("hello", "word", None)


class TestByteMode:
    def test_long_document_truncated_to_exact_length(self):
        assert len(tokenize("x" * 1500, "byte")) == BYTE_LEN

    def test_short_document_not_padded(self):
        assert tokenize("ab", "byte") == [ord("a") + 2, ord("b") + 2]

    def test_ids_within_byte_vocab(self):
        assert all(0 <= i < BYTE_VOCAB_SIZE for i in tokenize("h\xe9llo ☃", "byte"))

    def test_empty_flagged(self):
        assert tokenize("", "byte") == [PAD_ID]


class TestVocab:
    def test_pad_is_zero(self, vocab):
        assert vocab.index["<pad>"] == PAD_ID
        assert vocab.index["<oov>"] == OOV_ID

    def test_ids_dense(self, vocab):
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    @pytest.mark.parametrize("word, reserved", [("<pad>", PAD_ID), ("<OOV>", OOV_ID)])
    def test_reserved_words_keep_their_ids(self, word, reserved):
        # A reserved word taken from the text would be listed twice.
        v = Vocab.build([f"hello {word} world", word])
        assert v.tokens == ["<pad>", "<oov>", "hello", "world"]
        assert tokenize(f"Hello {word}", "word", v) == [v.index["hello"], reserved]

    @pytest.mark.parametrize("tokens, message", [
        (None, "list of strings"),
        (("<pad>", "<oov>"), "list of strings"),
        (["<pad>", "<oov>", 3], "list of strings"),
        (["<oov>", "<pad>", "a"], "must start with"),
        (["<pad>", "<oov>", "a", "a"], "duplicate"),
    ])
    def test_malformed_tokens_rejected(self, tokens, message):
        with pytest.raises(ValueError, match=message):
            Vocab(tokens)

    def test_invalid_mode_rejected(self, vocab):
        with pytest.raises(ValueError):
            tokenize("x", "subword", vocab)

