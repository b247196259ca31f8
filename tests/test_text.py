"""Tokenization and vocabulary contracts."""

import pytest

from domaingate.text import (BYTE_LEN, BYTE_VOCAB_SIZE, OOV_ID, PAD_ID,
                             WORD_MAX_LEN, TokenSeq, Vocab, tokenize)


@pytest.fixture
def vocab():
    return Vocab.build(["good book", "bad film", "good film"])


class TestWordMode:
    def test_lowercases_and_maps(self, vocab):
        seq = tokenize("Good BOOK", "word", vocab)
        assert seq.ids == [vocab.index["good"], vocab.index["book"]]
        assert len(seq.ids) == 2

    def test_oov_fallback(self, vocab):
        seq = tokenize("good zebra", "word", vocab)
        assert seq.ids[1] == OOV_ID

    def test_truncates_to_max(self, vocab):
        text = " ".join(["good"] * 300)
        assert len(tokenize(text, "word", vocab).ids) == WORD_MAX_LEN

    def test_empty_input_flagged_single_pad(self, vocab):
        seq = tokenize("   ", "word", vocab)
        assert seq.ids == [PAD_ID]

    def test_requires_vocab(self):
        with pytest.raises(ValueError):
            tokenize("hello", "word", None)


class TestByteMode:
    def test_long_document_truncated_to_exact_length(self):
        seq = tokenize("x" * 1500, "byte")
        assert len(seq.ids) == BYTE_LEN

    def test_short_document_padded(self):
        seq = tokenize("ab", "byte")
        assert len(seq.ids) == BYTE_LEN
        assert seq.ids[0] == ord("a") + 2
        assert seq.ids[2:] == [PAD_ID] * (BYTE_LEN - 2)

    def test_ids_within_byte_vocab(self):
        seq = tokenize("h\xe9llo ☃", "byte")
        assert all(0 <= i < BYTE_VOCAB_SIZE for i in seq.ids)

    def test_empty_flagged(self):
        assert tokenize("", "byte").ids == [PAD_ID] * BYTE_LEN


class TestVocab:
    def test_pad_is_zero(self, vocab):
        assert vocab.index["<pad>"] == PAD_ID
        assert vocab.index["<oov>"] == OOV_ID

    def test_ids_dense(self, vocab):
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_save_load_round_trip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.index == vocab.index

    def test_file_format_line_number_is_id(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines()
        for tok, idx in vocab.index.items():
            assert lines[idx] == tok

    def test_min_count_filters(self):
        v = Vocab.build(["a a b", "a c"], min_count=2)
        assert "a" in v.index
        assert "b" not in v.index

    def test_invalid_mode_rejected(self, vocab):
        with pytest.raises(ValueError):
            tokenize("x", "subword", vocab)

    def test_token_seq_validates_lengths(self):
        with pytest.raises(ValueError):
            TokenSeq(list(range(WORD_MAX_LEN + 1)), "word")
        with pytest.raises(ValueError):
            TokenSeq([1, 2, 3], "byte")
