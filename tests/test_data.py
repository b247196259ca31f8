"""Corpora: JSON-lines loading with the offending line named, the seeded
dev/test and held-out splits, the synthetic generator's stable
fully-labeled block, and inventory mapping with unobserved or unknown
labels and domains as None."""

import json

import pytest

from domaingate import data as dio
from domaingate.text import Vocab


def write_jsonl(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_records_and_inventories(self, tmp_path):
        path = write_jsonl(tmp_path, [
            json.dumps({"id": "a", "text": "good film", "label": "pos", "domain": "dvd"}),
            "",
            json.dumps({"text": "bad", "label": "neg"}),
            json.dumps({"text": "meh"}),
        ])
        corpus = dio.load_corpus(path)
        assert [d.id for d in corpus.docs] == ["a", "3", "4"]
        assert corpus.labels == ["neg", "pos"] and corpus.domains == ["dvd"]
        assert not corpus.docs[1].has_domain and not corpus.docs[2].has_label

    @pytest.mark.parametrize("bad, message", [
        ("{not json", "corpus.jsonl:2"),
        (json.dumps({"label": "pos"}), "'text' field"),
        (json.dumps({"text": 3}), "'text' must be a string"),
        (json.dumps({"text": "x", "domain": 1}), "'domain' must be a string"),
        ('{"text": "x", "text": "y"}', "duplicate key 'text'"),
    ])
    def test_malformed_record_names_line(self, tmp_path, bad, message):
        path = write_jsonl(tmp_path, [json.dumps({"text": "fine"}), bad])
        with pytest.raises(dio.CorpusFormatError, match=message) as exc:
            dio.load_corpus(path)
        assert ":2:" in str(exc.value)

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(dio.CorpusFormatError, match="empty corpus"):
            dio.load_corpus(write_jsonl(tmp_path, ["", "  "]))

    def test_save_round_trip(self, tmp_path):
        corpus = dio.generate_synthetic(dio.SynthSpec(
            n_domains=2, held_out=(), instances_per_domain=3, unlabeled_per_domain=1))
        path = tmp_path / "out.jsonl"
        dio.save_corpus(corpus, path)
        assert dio.load_corpus(path).docs == corpus.docs


def small_corpus(n=10):
    return dio.Corpus([dio.Document(f"d{i}", f"t{i}", "pos" if i % 2 else "neg")
                       for i in range(n)])


class TestSplits:
    def test_dev_test_disjoint_exhaustive_and_seeded(self):
        corpus = small_corpus()
        dev, test = dio.split_dev_test(corpus)
        ids = lambda c: [d.id for d in c.docs]
        assert len(dev) == 4 and len(test) == 6
        assert not set(ids(dev)) & set(ids(test))
        assert sorted(ids(dev) + ids(test)) == sorted(ids(corpus))
        again, _ = dio.split_dev_test(corpus)
        assert ids(again) == ids(dev)
        assert dev.labels == test.labels == corpus.labels

    def test_dev_test_rejects_empty_side(self):
        # One instance: 4/10 of it rounds to an empty dev side.
        with pytest.raises(ValueError, match="leaves one side empty"):
            dio.split_dev_test(small_corpus(1))

    def test_held_out_partition_rebuilds_inventories(self):
        corpus = dio.generate_synthetic(dio.SynthSpec(
            n_domains=3, held_out=(2,), instances_per_domain=4, heldout_per_domain=5))
        train, held = dio.split_held_out(corpus, ["dom2"])
        assert train.domains == ["dom0", "dom1"] and held.domains == ["dom2"]
        assert len(train) == 8 and len(held) == 5
        with pytest.raises(ValueError, match="one side empty"):
            dio.split_held_out(corpus, ["dom9"])


class TestSynthetic:
    def test_deterministic_per_seed(self):
        spec = dio.SynthSpec(instances_per_domain=5, heldout_per_domain=5)
        assert dio.generate_synthetic(spec).docs == dio.generate_synthetic(spec).docs
        other = dio.generate_synthetic(dio.SynthSpec(instances_per_domain=5,
                                                     heldout_per_domain=5, seed=1))
        assert other.docs != dio.generate_synthetic(spec).docs

    def test_fully_labeled_block_ignores_unlabeled_count(self):
        base = dict(n_domains=4, held_out=(3,), instances_per_domain=6,
                    heldout_per_domain=4)
        plain = dio.generate_synthetic(dio.SynthSpec(**base))
        extra = dio.generate_synthetic(dio.SynthSpec(**base, unlabeled_per_domain=5))
        full = [d for d in extra.docs if d.has_domain]
        hidden = [d for d in extra.docs if not d.has_domain]
        assert full == plain.docs
        assert len(hidden) == 3 * 5 and all(d.has_label for d in hidden)

    def test_documents_follow_spec(self):
        spec = dio.SynthSpec(n_domains=2, held_out=(1,), instances_per_domain=10,
                             heldout_per_domain=3, doc_len=7, cues_per_doc=2)
        corpus = dio.generate_synthetic(spec)
        for doc in corpus.docs:
            tokens = doc.text.split()
            assert len(tokens) == 7
            assert sum(t.startswith("cue") for t in tokens) == 2
        assert corpus.labels == ["neg", "pos"]


class TestPrepare:
    def test_unknown_and_unobserved_map_to_none(self):
        corpus = dio.Corpus([
            dio.Document("a", "good film", "pos", "dvd"),
            dio.Document("b", "bad film", "neg", "books"),
            dio.Document("c", "film", "meh", None),
            dio.Document("d", "film", None, "dvd"),
        ])
        vocab = Vocab.build(["good film", "bad"])
        insts = dio.prepare(corpus, vocab, "word", ["neg", "pos"], ["dvd"])
        assert [(i.y_id, i.d_id) for i in insts] == [(1, 0), (0, None), (None, None),
                                                     (None, 0)]
        # the raw strings stay for per-domain reporting
        assert [(i.label, i.domain) for i in insts] == [
            ("pos", "dvd"), ("neg", "books"), ("meh", None), (None, "dvd")]
        assert insts[0].ids == (vocab.index["good"], vocab.index["film"])
