"""The command line: gen-synth from a spec file; a tiny end-to-end run
through every command, whose training is byte-reproducible; and a
non-zero exit with a JSON error naming the field on a bad spec or run
config."""

import json

import pytest

from domaingate import cli
from domaingate import data as dio

SPEC = """\
# tiny generator spec
n_domains = 4
held_out = 3
instances_per_domain = 5
heldout_per_domain = 4
doc_len = 6
cues_per_doc = 2
flip_cues = no
seed = 7
"""


def test_gen_synth_writes_corpora_from_spec(tmp_path):
    spec = tmp_path / "synth.cfg"
    spec.write_text(SPEC)
    out = tmp_path / "corpus"
    assert cli.main(["gen-synth", "--spec", str(spec), "--out", str(out)]) == 0

    train = dio.load_corpus(out / "train.jsonl")
    heldout = dio.load_corpus(out / "heldout.jsonl")
    assert len(train) == 15 and train.domains == ["dom0", "dom1", "dom2"]
    assert len(heldout) == 4 and heldout.domains == ["dom3"]
    assert all(len(d.text.split()) == 6 for d in train.docs + heldout.docs)
    expected = dio.generate_synthetic(dio.SynthSpec(
        n_domains=4, held_out=(3,), instances_per_domain=5,
        heldout_per_domain=4, doc_len=6, cues_per_doc=2, flip_cues=False, seed=7))
    assert [d.text for d in train.docs + heldout.docs] == \
        [d.text for d in expected.docs]

    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["held_out"] == [3] and config["flip_cues"] is False


@pytest.mark.parametrize("line, message", [
    ("n_domain = 4", "unknown key"),
    ("held_out = 9", "held-out ids"),
])
def test_gen_synth_bad_spec_exits_nonzero(tmp_path, capsys, line, message):
    spec = tmp_path / "synth.cfg"
    spec.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert message in error["error"]
    assert not (tmp_path / "o").exists()


TINY_SPEC = """\
n_domains = 4
held_out = 3
instances_per_domain = 8
heldout_per_domain = 6
doc_len = 8
cues_per_doc = 2
seed = 5
"""


def tiny_run_config(corpus):
    return f"""\
model = csda-dirichlet
train_data = {corpus / "train.jsonl"}
eval_data = {corpus / "heldout.jsonl"}
embed_dim = 8
n_filters = 4
mlp_hidden = 8
max_epochs = 1
batch_size = 4
lr = 0.003
infer_m = 4
lambda_grid = 0.1,1
seed = 11
"""


def test_tiny_run_through_every_command(tmp_path, capsys):
    spec = tmp_path / "synth.cfg"
    spec.write_text(TINY_SPEC)
    corpus = tmp_path / "corpus"
    assert cli.main(["gen-synth", "--spec", str(spec), "--out", str(corpus)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(tiny_run_config(corpus))
    heldout = str(corpus / "heldout.jsonl")

    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    for name in ("checkpoint.bin", "train_log.jsonl", "manifest.json", "vocab.txt"):
        assert (run / name).is_file(), name
    log = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == 6 and all(e["degenerate"] == 0 for e in log)

    # One config, two runs: byte-identical checkpoints and logs.
    again = tmp_path / "again"
    assert cli.main(["train", "--config", str(cfg), "--out", str(again)]) == 0
    for name in ("checkpoint.bin", "train_log.jsonl"):
        assert (run / name).read_bytes() == (again / name).read_bytes(), name

    for strategy, out in (("prior-sample", "eval_a"), ("prior-mean", "eval_b")):
        assert cli.main(["eval", "--run-dir", str(run), "--data", heldout,
                         "--strategy", strategy, "--out", str(tmp_path / out)]) == 0
        for name in ("results.tsv", "results.txt", "eval_manifest.json"):
            assert (tmp_path / out / name).is_file(), name

    sweep = tmp_path / "sweep"
    assert cli.main(["sweep-lambda", "--config", str(cfg), "--out", str(sweep)]) == 0
    rows = (sweep / "sweep.tsv").read_text().splitlines()
    assert [r.split("\t")[0] for r in rows[1:]] == ["0.1", "1"]
    assert (sweep / "lam_1" / "checkpoint.bin").is_file()

    assert cli.main(["probe", "--run-dir", str(run), "--data",
                     str(corpus / "train.jsonl"), "--runs", "1"]) == 0
    probe_rows = (run / "probe.tsv").read_text().splitlines()
    assert [r.split("\t")[1] for r in probe_rows[1:]] == ["y", "d"]

    n_heldout = 6
    for kind, width in (("h", 3 * 4), ("z", 3)):
        out = tmp_path / f"export_{kind}.tsv"
        assert cli.main(["export", "--run-dir", str(run), "--data", heldout,
                         "--repr", kind, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + n_heldout
        assert all(len(line.split("\t")) == 3 + width for line in lines)

    summary = tmp_path / "summary.tsv"
    assert cli.main(["summarize", str(tmp_path / "eval_a"), str(tmp_path / "eval_b"),
                     "--out", str(summary)]) == 0
    header, *cols = summary.read_text().splitlines()
    assert header == "column\tmean\tstd\tn"
    assert cols[-1].startswith("average\t") and cols[-1].endswith("\t2")


@pytest.mark.parametrize("lines, field", [
    ("modle = dsda", "modle"),
    ("batch_size = many", "batch_size"),
    ("seed = 1\nseed = 2", "seed"),
    ("windows = 3,x", "windows"),
])
def test_train_bad_config_exits_nonzero_naming_field(tmp_path, capsys, lines, field):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["field"] == field
    assert not (tmp_path / "o").exists()
