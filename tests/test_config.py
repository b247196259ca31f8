"""Config files: the key=value parser, ``RunConfig`` typing, aliases and
range checks, and the generator-spec front end, each error naming its
key."""

import pytest

from domaingate.config import ConfigError, RunConfig, parse_kv_file, synth_spec_from_dict
from domaingate.data import SynthSpec


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
        cfg = RunConfig.from_dict({})
        assert cfg == RunConfig()
        assert cfg.anneal_steps is None

    def test_lambda_aliases(self):
        cfg = RunConfig.from_dict({"lambda": "0.3", "lambda_schedule": "linear-anneal"})
        assert cfg.lam == 0.3 and cfg.lam_schedule == "linear-anneal"

    @pytest.mark.parametrize("raw, want", [("none", None), ("None", None), ("", None),
                                           ("7", 7)])
    def test_anneal_steps(self, raw, want):
        assert RunConfig.from_dict({"anneal_steps": raw}).anneal_steps == want

    def test_tuples(self):
        assert RunConfig.from_dict({"windows": "2, 5"}).windows == (2, 5)
        assert RunConfig.from_dict({"windows": "4"}).windows == (4,)

    def test_typed_values(self):
        cfg = RunConfig.from_dict({"k": "3", "lr": "1e-3", "model": "mcnn"})
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
    ])
    def test_bad_value_names_key(self, kv, field):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(kv)
        assert exc.value.field == field

    def test_load_reads_file(self, tmp_path):
        path = write(tmp_path, "model = dsda\nk = 4\n")
        assert RunConfig.load(path) == RunConfig(model="dsda", k=4)


class TestSynthSpecFromDict:
    def test_typed_fields(self):
        spec = synth_spec_from_dict({"n_domains": "4", "held_out": "1,3",
                                     "flip_cues": "no", "overlap": "0.25"})
        assert spec == SynthSpec(n_domains=4, held_out=(1, 3), flip_cues=False,
                                 overlap=0.25)

    @pytest.mark.parametrize("kv, field", [
        ({"label_names": "a,b"}, "label_names"),
        ({"n_domain": "4"}, "n_domain"),
        ({"flip_cues": "maybe"}, "flip_cues"),
    ])
    def test_bad_key_or_value_names_key(self, kv, field):
        with pytest.raises(ConfigError) as exc:
            synth_spec_from_dict(kv)
        assert exc.value.field == field

    def test_spec_rules_apply(self):
        with pytest.raises(ValueError, match="held-out ids"):
            synth_spec_from_dict({"held_out": "9"})
