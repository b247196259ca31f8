"""Config files: the key=value parser, the one reader that types a
``RunConfig`` or a generator spec, and the range checks of the library
configs that a run's settings reach, each error naming its key."""

from dataclasses import replace

import pytest

import domaingate
from domaingate.config import ConfigError, RunConfig, parse_kv_file, read_config
from domaingate.data import SynthSpec
from domaingate.encoder import EncoderConfig
from domaingate.inference import InferConfig
from domaingate.models import ModelConfig
from domaingate.text import BYTE_VOCAB_SIZE
from domaingate.training import TrainConfig

MODEL = {"kind": "mcnn", "n_labels": 2, "n_domains": 1, "vocab_size": 10, "k": 2}
META = {"k": 2, "labels": ["neg", "pos"], "domains": ["a", "b"],
        "vocab": ["<pad>", "<oov>", *"abcdefg"]}


@pytest.mark.parametrize("cls, kwargs, field", [
    (TrainConfig, {"lam": -0.1}, "lam"),
    (TrainConfig, {"lam_schedule": "cosine"}, "lam_schedule"),
    (TrainConfig, {"anneal_steps": 0}, "anneal_steps"),
    (TrainConfig, {"lr": 0}, "lr"),
    (TrainConfig, {"lr": -1e-3}, "lr"),
    (TrainConfig, {"batch_size": 0}, "batch_size"),
    (InferConfig, {"strategy": "argmax"}, "strategy"),
    (InferConfig, {"m": 0}, "m"),
    (EncoderConfig, {"embed_dim": 0}, "embed_dim"),
    (EncoderConfig, {"n_filters": 0}, "n_filters"),
    (EncoderConfig, {"windows": (3, 0)}, "windows"),
    (EncoderConfig, {"windows": ()}, "windows"),
    (ModelConfig, {**MODEL, "kind": "cnn"}, "kind"),
    (ModelConfig, {**MODEL, "k": 0}, "k"),
    (ModelConfig, {**MODEL, "kind": "scnn"}, "k"),
    (ModelConfig, {**MODEL, "mlp_hidden": 0}, "mlp_hidden"),
    (ModelConfig, {**MODEL, "dropout": 1.0}, "dropout"),
    (ModelConfig, {**MODEL, "dropout": -0.1}, "dropout"),
    (SynthSpec, {"held_out": (6,)}, "held_out"),
    (SynthSpec, {"cues_per_doc": 21}, "cues_per_doc"),
])
def test_library_config_refuses_out_of_range_value_naming_field(cls, kwargs, field):
    with pytest.raises(ConfigError) as exc:
        cls(**kwargs)
    assert exc.value.field == field
    assert isinstance(exc.value, ValueError) and domaingate.ConfigError is ConfigError


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseKvFile:
    def test_comments_blank_lines_and_spacing(self, tmp_path):
        path = write(tmp_path, "# a run\n\n model = dsda   # trailing\nlr=0.01\n"
                               "out_dir = a=b\n")
        assert parse_kv_file(path) == {"model": "dsda", "lr": "0.01", "out_dir": "a=b"}

    def test_duplicate_key_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "seed = 1\n# again\nseed = 2\n")
        with pytest.raises(ConfigError, match="line 3") as exc:
            parse_kv_file(path)
        assert exc.value.field == "seed"

    def test_line_without_equals_names_line(self, tmp_path):
        path = write(tmp_path, "model = dsda\nbatch_size 4\n")
        with pytest.raises(ConfigError, match="batch_size 4") as exc:
            parse_kv_file(path)
        assert exc.value.field == "line 2"


class TestRunConfig:
    def test_defaults_need_no_keys(self):
        cfg = read_config(RunConfig, {})
        assert cfg == RunConfig()
        assert cfg.anneal_steps is None

    @pytest.mark.parametrize("raw, want", [("none", None), ("None", None), ("", None),
                                           ("7", 7)])
    def test_anneal_steps(self, raw, want):
        assert read_config(RunConfig, {"anneal_steps": raw}).anneal_steps == want

    def test_tuples(self):
        assert read_config(RunConfig, {"windows": "2, 5"}).windows == (2, 5)
        assert read_config(RunConfig, {"windows": "4"}).windows == (4,)

    def test_typed_values(self):
        cfg = read_config(RunConfig, {"k": "3", "lr": "1e-3", "model": "mcnn"})
        assert (cfg.k, cfg.lr, cfg.model) == (3, 1e-3, "mcnn")

    @pytest.mark.parametrize("kv, field", [
        ({"modle": "dsda"}, "modle"),
        ({"k": "two"}, "k"),
        ({"lambda": "-1"}, "lambda"),
        ({"model": "cnn"}, "model"),
        ({"regime": "weak"}, "regime"),
        ({"mode": "char"}, "mode"),
        ({"infer_strategy": "argmax"}, "infer_strategy"),
        ({"model": "scnn", "k": "2"}, "k"),
        ({"dropout": "1"}, "dropout"),
        ({"lr": "0"}, "lr"),
        ({"batch_size": "0"}, "batch_size"),
        ({"infer_m": "0"}, "infer_m"),
        ({"windows": "3,0"}, "windows"),
        ({"embed_dim": "0"}, "embed_dim"),
        ({"n_filters": "0"}, "n_filters"),
        ({"mlp_hidden": "0"}, "mlp_hidden"),
        ({"lambda_schedule": "cosine"}, "lambda_schedule"),
        ({"anneal_steps": "-5"}, "anneal_steps"),
        ({"anneal_steps": "0"}, "anneal_steps"),
        ({"k": "-1"}, "k"),
        ({"lam": "-1"}, "lam"),
        ({"lam_schedule": "cosine"}, "lam_schedule"),
    ])
    def test_bad_value_names_key(self, kv, field):
        with pytest.raises(ConfigError) as exc:
            read_config(RunConfig, kv)
        assert exc.value.field == field

    def test_defaults_are_the_library_defaults(self):
        train_cfg, model_cfg = RunConfig().library_configs(META)
        assert train_cfg == TrainConfig()
        assert model_cfg == ModelConfig(kind="csda-dirichlet", n_labels=2, n_domains=2,
                                        vocab_size=9, k=2)

    def test_vocab_size_follows_the_vocabulary(self):
        _, word_cfg = RunConfig().library_configs(META)
        _, byte_cfg = RunConfig(mode="byte").library_configs(dict(META, vocab=None))
        assert (word_cfg.vocab_size, byte_cfg.vocab_size) == (9, BYTE_VOCAB_SIZE)

    def test_inference_override_names_its_own_field(self):
        # ``eval --strategy/--m`` replace fields of the run's InferConfig.
        train_cfg, _ = RunConfig(seed=4, infer_m=3).library_configs(META)
        assert train_cfg.infer == InferConfig("prior-sample", 3, 4)
        assert replace(train_cfg.infer, strategy="mc-average", m=7) == \
            InferConfig("mc-average", 7, 4)
        with pytest.raises(ConfigError) as exc:
            replace(train_cfg.infer, m=0)
        assert exc.value.field == "m"

    def test_load_reads_file(self, tmp_path):
        path = write(tmp_path, "model = dsda\nk = 4\n")
        assert read_config(RunConfig, parse_kv_file(path)) == RunConfig(model="dsda", k=4)


class TestSynthSpecFromDict:
    def test_typed_fields(self):
        spec = read_config(SynthSpec, {"n_domains": "4", "held_out": "1,3",
                                       "flip_cues": "no", "doc_len": "12"})
        assert spec == SynthSpec(n_domains=4, held_out=(1, 3), flip_cues=False,
                                 doc_len=12)

    @pytest.mark.parametrize("kv, field", [
        ({"label_names": "a,b"}, "label_names"),
        ({"n_domain": "4"}, "n_domain"),
        ({"flip_cues": "maybe"}, "flip_cues"),
    ])
    def test_bad_key_or_value_names_key(self, kv, field):
        with pytest.raises(ConfigError) as exc:
            read_config(SynthSpec, kv)
        assert exc.value.field == field

    def test_spec_rules_apply(self):
        with pytest.raises(ValueError, match="held-out ids"):
            read_config(SynthSpec, {"held_out": "9"})
