"""The command line: gen-synth from a spec file; a tiny end-to-end run
through every command, whose training is byte-reproducible and whose
grid cells train exactly as ``train`` does; grid cells in product order;
and a non-zero exit with a JSON error naming the field on a bad spec,
run config, grid flag or command-line count."""

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
    for name in ("checkpoint.bin", "train_log.jsonl", "manifest.json", "vocab.txt",
                 "results.tsv", "results.txt"):
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
    # train tests with the run's own strategy, as eval does by default.
    assert (tmp_path / "eval_a" / "results.tsv").read_bytes() == \
        (run / "results.tsv").read_bytes()

    # A count of 0 is refused, naming the option, rather than replaced or
    # averaged over nothing.
    capsys.readouterr()
    for argv, field in ((["eval", "--run-dir", str(run), "--data", heldout, "--m", "0",
                          "--out", str(tmp_path / "eval_m0")], "m"),
                        (["probe", "--run-dir", str(run), "--data",
                          str(corpus / "train.jsonl"), "--runs", "0",
                          "--out", str(tmp_path / "probe_r0")], "runs")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["field"] == field
        assert not (tmp_path / argv[-1]).exists()

    # Each grid cell is the run that train makes of that cell's config.
    grid = tmp_path / "grid"
    assert cli.main(["grid", "--config", str(cfg), "--vary", "lambda=0.1,1",
                     "--out", str(grid)]) == 0
    header, *rows = [r.split("\t") for r in (grid / "grid.tsv").read_text().splitlines()]
    assert header == ["cell", "lambda", "dev_accuracy", "test_accuracy"]
    assert [r[:2] for r in rows] == [["cell-000", "0.1"], ["cell-001", "1"]]
    lam1_cfg = tmp_path / "lam1.cfg"
    lam1_cfg.write_text(tiny_run_config(corpus) + "lambda = 1\n")
    assert cli.main(["train", "--config", str(lam1_cfg), "--out", str(tmp_path / "lam1")]) == 0
    for cell, single in (("cell-000", run), ("cell-001", tmp_path / "lam1")):
        for name in ("checkpoint.bin", "train_log.jsonl", "results.tsv"):
            assert (grid / cell / name).read_bytes() == (single / name).read_bytes(), name
    manifest = json.loads((grid / "manifest.json").read_text())
    devs = [float(r[2]) for r in rows]
    assert manifest["best_cell"] == rows[devs.index(max(devs))][0]
    assert manifest["vary"] == {"lambda": ["0.1", "1"]}

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
                     str(grid / "cell-000"), str(grid / "cell-001"),
                     "--out", str(summary)]) == 0
    header, *cols = summary.read_text().splitlines()
    assert header == "column\tmean\tstd\tn"
    assert cols[-1].startswith("average\t") and cols[-1].endswith("\t4")


@pytest.mark.parametrize("lines, field", [
    ("modle = dsda", "modle"),
    ("batch_size = many", "batch_size"),
    ("seed = 1\nseed = 2", "seed"),
    ("windows = 3,x", "windows"),
    ("windows = 3,0", "windows"),
    ("lr = -1", "lr"),
    ("lr = 0", "lr"),
    ("batch_size = 0", "batch_size"),
    ("infer_m = 0", "infer_m"),
    ("embed_dim = 0", "embed_dim"),
    ("n_filters = 0", "n_filters"),
    ("mlp_hidden = 0", "mlp_hidden"),
    ("lambda_schedule = cosine", "lambda_schedule"),
    ("anneal_steps = -5", "anneal_steps"),
    ("anneal_steps = 0", "anneal_steps"),
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


def test_grid_cells_follow_product_order_of_the_vary_flags():
    axes, cells = cli._grid_cells({"model": "dsda", "lr": "0.5"},
                                  ["lr=0.1, 0.2", "seed=1,2,3"])
    assert axes == {"lr": ["0.1", "0.2"], "seed": ["1", "2", "3"]}
    assert [values for values, _ in cells] == [
        ("0.1", "1"), ("0.1", "2"), ("0.1", "3"), ("0.2", "1"), ("0.2", "2"), ("0.2", "3")]
    assert [(c.model, c.lr, c.seed) for _, c in cells] == [
        ("dsda", lr, seed) for lr in (0.1, 0.2) for seed in (1, 2, 3)]


@pytest.mark.parametrize("vary, field", [
    (["lr=0.1,0"], "lr"),
    (["windows=3,4"], "windows"),
    (["lr=0.1", "lr=0.2"], "lr"),
    (["modle=dsda,mcnn"], "modle"),
    (["lr"], "vary"),
])
def test_grid_bad_vary_exits_nonzero_naming_field_before_any_run(tmp_path, capsys,
                                                                 vary, field):
    # The base config names no corpus: a cell that started training would
    # fail on it, after making its directory.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = dsda\n")
    argv = ["grid", "--config", str(cfg), "--out", str(tmp_path / "o")]
    for flag in vary:
        argv += ["--vary", flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["field"] == field
    assert not (tmp_path / "o").exists()
