"""The command line: gen-synth from a spec file; a tiny end-to-end run
through every command, whose training is byte-reproducible and whose
grid cells train exactly as ``train`` does; grid cells in product order;
a trained run read from its checkpoint alone, unmoved by an edited
manifest; and a non-zero exit with a JSON error naming the field, having
written nothing, on a bad spec, run config, grid flag, command-line
count, a run config that does not fit its data, a removed key, or a
trained run whose checkpoint meta or store was edited."""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from domaingate import cli
from domaingate import data as dio
from domaingate import probes
from domaingate.checkpoint import load_checkpoint, save_checkpoint
from domaingate.inference import predict_batch

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
    for name in ("checkpoint.bin", "train_log.jsonl", "manifest.json",
                 "results.tsv", "results.txt"):
        assert (run / name).is_file(), name
    assert not (run / "vocab.txt").exists()
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
    # averaged over nothing; so is a run whose checkpoint config holds a
    # bad value.
    edited = edited_run(tmp_path / "edited", run,
                        lambda meta: {**meta, "config": {**meta["config"], "lr": 0}})
    capsys.readouterr()
    for argv, field in ((["eval", "--run-dir", str(run), "--data", heldout, "--m", "0",
                          "--out", str(tmp_path / "eval_m0")], "m"),
                        (["probe", "--run-dir", str(run), "--data",
                          str(corpus / "train.jsonl"), "--runs", "0",
                          "--out", str(tmp_path / "probe_r0")], "runs"),
                        (["eval", "--run-dir", str(edited), "--data", heldout,
                          "--out", str(tmp_path / "eval_lr0")], "lr")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["field"] == field
        assert not (tmp_path / argv[-1]).exists()

    # Each grid cell is the run that train makes of that cell's config.
    grid = tmp_path / "grid"
    assert cli.main(["grid", "--config", str(cfg), "--vary", "lam=0.1,1",
                     "--out", str(grid)]) == 0
    header, *rows = [r.split("\t") for r in (grid / "grid.tsv").read_text().splitlines()]
    assert header == ["cell", "lam", "dev_accuracy", "test_accuracy"]
    assert [r[:2] for r in rows] == [["cell-000", "0.1"], ["cell-001", "1"]]
    lam1_cfg = tmp_path / "lam1.cfg"
    lam1_cfg.write_text(tiny_run_config(corpus) + "lam = 1\n")
    assert cli.main(["train", "--config", str(lam1_cfg), "--out", str(tmp_path / "lam1")]) == 0
    for cell, single in (("cell-000", run), ("cell-001", tmp_path / "lam1")):
        for name in ("checkpoint.bin", "train_log.jsonl", "results.tsv"):
            assert (grid / cell / name).read_bytes() == (single / name).read_bytes(), name
    manifest = json.loads((grid / "manifest.json").read_text())
    devs = [float(r[2]) for r in rows]
    assert manifest["best_cell"] == rows[devs.index(max(devs))][0]
    assert manifest["vary"] == {"lam": ["0.1", "1"]}

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
    ("model = dsda", "train_data"),
    ("train_data = {tmp}/missing.jsonl", "train_data"),
    ("train_data = {tmp}/bad.jsonl", "train_data"),
    ("train_data = {tmp}/one.jsonl\neval_data = {tmp}/missing.jsonl", "eval_data"),
    ("train_data = {tmp}/one.jsonl\neval_data = {tmp}/one.jsonl", "eval_data"),
])
def test_train_bad_config_exits_nonzero_naming_field(tmp_path, capsys, lines, field):
    # {tmp} holds a one-instance corpus, too small to split, and a malformed one.
    (tmp_path / "one.jsonl").write_text('{"text": "a b c", "label": "pos"}\n')
    (tmp_path / "bad.jsonl").write_text("not json\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines.format(tmp=tmp_path) + "\n")
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


def test_grid_vary_replaces_the_base_value():
    _, cells = cli._grid_cells({"model": "dsda", "lam": "0.5"}, ["lam=0.2,0.3"])
    assert [cfg.lam for _, cfg in cells] == [0.2, 0.3]


@pytest.mark.parametrize("vary, field", [
    (["lr=0.1,0"], "lr"),
    (["windows=3,4"], "windows"),
    (["lr=0.1", "lr=0.2"], "lr"),
    (["modle=dsda,mcnn"], "modle"),
    (["lr"], "vary"),
    (["lam=0.1", "lambda=0.2"], "lambda"),
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


def error_of(argv, capsys) -> dict:
    """The JSON error of a command that must exit 1."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["gen-synth", "--out", str(out)]) == 0
    return out


def small_config(tmp_path, train_data, eval_data, extra=""):
    # Small enough that a run which trained before failing would finish.
    path = tmp_path / "run.cfg"
    path.write_text(f"train_data = {train_data}\neval_data = {eval_data}\nembed_dim = 4\n"
                    f"n_filters = 2\nmlp_hidden = 4\nmax_epochs = 1\nbatch_size = 64\n"
                    + extra)
    return path


def test_train_checks_k_against_the_training_domains_before_writing(
        tmp_path, capsys, default_corpus):
    cfg = small_config(tmp_path, default_corpus / "train.jsonl",
                       default_corpus / "heldout.jsonl",
                       "model = dsda\nk = 3\nregime = supervised\n")
    error = error_of(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert error["field"] == "k" and "4" in error["error"]
    assert not (tmp_path / "o").exists()


def test_grid_checks_every_cell_before_the_first_trains(tmp_path, capsys, default_corpus):
    cfg = small_config(tmp_path, default_corpus / "train.jsonl",
                       default_corpus / "heldout.jsonl")
    error = error_of(["grid", "--config", str(cfg), "--out", str(tmp_path / "o"),
                      "--vary", "k=4,3", "--vary", "model=mcnn,dsda",
                      "--vary", "regime=supervised"], capsys)
    assert error["field"] == "k"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("labeled_side, missing", [(None, "dev"), ("dev", "test")])
def test_train_needs_labeled_instances_on_both_sides_of_the_eval_split(
        tmp_path, capsys, default_corpus, labeled_side, missing):
    heldout = dio.Corpus(dio.load_corpus(default_corpus / "heldout.jsonl").docs[:20])
    dev, _ = dio.split_dev_test(heldout)
    keep = {d.id for d in dev.docs} if labeled_side == "dev" else set()
    eval_path = tmp_path / "eval.jsonl"
    dio.save_corpus(dio.Corpus([d if d.id in keep else replace(d, label=None)
                                for d in heldout.docs]), eval_path)
    cfg = small_config(tmp_path, default_corpus / "train.jsonl", eval_path)
    error = error_of(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert error["field"] == "eval_data" and missing in error["error"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_summarize_refuses_runs_with_different_columns(tmp_path, capsys, order):
    # Runs tested on different held-out domains: b's columns are a subset of a's.
    for name, header, values in (("a", "dom3\tdom4\taverage", "0.5\t0.7\t0.6"),
                                 ("b", "dom3\taverage", "0.4\t0.4")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "results.tsv").write_text(f"model\t{header}\nmcnn\t{values}\n")
    error = error_of(["summarize", *(str(tmp_path / n) for n in order),
                      "--out", str(tmp_path / "summary.tsv")], capsys)
    assert str(tmp_path / order[1]) in error["error"]
    assert not (tmp_path / "summary.tsv").exists()


# Each key that a run config or a generator spec no longer has, with the
# value it used to default to.
@pytest.mark.parametrize("command, key, old_default", [
    ("train", "lambda", "0.1"), ("train", "lambda_schedule", "fixed"),
    ("train", "w_dom", "1.0"), ("train", "split_seed", "0"), ("train", "min_count", "1"),
    ("gen-synth", "overlap", "0.5"), ("gen-synth", "noise", "0.05"),
    ("gen-synth", "n_cues", "8"), ("gen-synth", "unique_tokens", "30"),
    ("gen-synth", "shared_tokens", "30"),
    ("grid", "lambda", "0.1"),
])
def test_removed_key_is_refused_as_unknown(tmp_path, capsys, command, key, old_default):
    path, out = tmp_path / "in.cfg", tmp_path / "o"
    if command == "grid":
        path.write_text("model = dsda\n")
        argv = ["grid", "--config", str(path), "--vary", f"{key}={old_default},1"]
    else:
        path.write_text(f"{key} = {old_default}\n")
        argv = [command, "--spec" if command == "gen-synth" else "--config", str(path)]
    error = error_of(argv + ["--out", str(out)], capsys)
    assert error["field"] == key and "unknown key" in error["error"]
    assert not out.exists()


def edited_run(path, run, edit):
    """A copy of ``run`` at ``path`` whose checkpoint meta is ``edit(meta)``."""
    shutil.copytree(run, path)
    params, meta = load_checkpoint(path / "checkpoint.bin")
    save_checkpoint(path / "checkpoint.bin", params, edit(meta))
    return path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A trained tiny run, and its held-out corpus."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "synth.cfg").write_text(TINY_SPEC)
    assert cli.main(["gen-synth", "--spec", str(root / "synth.cfg"),
                     "--out", str(root / "corpus")]) == 0
    (root / "run.cfg").write_text(tiny_run_config(root / "corpus"))
    assert cli.main(["train", "--config", str(root / "run.cfg"),
                     "--out", str(root / "run")]) == 0
    return root / "run", str(root / "corpus" / "heldout.jsonl")


def test_eval_predicts_bitwise_as_the_trained_model(tmp_path, monkeypatch):
    # The checkpoint keeps each parameter's dtype, so eval runs the
    # float32 encoders that training ran, bit for bit.
    (tmp_path / "synth.cfg").write_text(TINY_SPEC)
    corpus = tmp_path / "corpus"
    assert cli.main(["gen-synth", "--spec", str(tmp_path / "synth.cfg"),
                     "--out", str(corpus)]) == 0
    (tmp_path / "run.cfg").write_text(tiny_run_config(corpus))
    evaluated = []

    def recording_evaluate(model, insts, infer_cfg):
        evaluated.append((model, insts, infer_cfg))
        return real_evaluate(model, insts, infer_cfg)
    real_evaluate = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(tmp_path / "run.cfg"), "--out", str(run)]) == 0
    assert cli.main(["eval", "--run-dir", str(run), "--data", str(corpus / "heldout.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 0

    (trained, insts, infer_cfg), (loaded, loaded_insts, _) = evaluated
    assert [i.ids for i in loaded_insts] == [i.ids for i in insts]
    for name, arr in loaded.params.items():
        assert arr.dtype == trained.params[name].dtype, name
        np.testing.assert_array_equal(arr, trained.params[name])
    assert loaded.params["theta.ch.emb"].dtype == np.float32
    assert loaded.params["theta.ch.conv3.w"].dtype == np.float32
    want = predict_batch(trained, insts, infer_cfg)
    for got, rec in zip(predict_batch(loaded, insts, infer_cfg), want, strict=True):
        assert got.probs.tobytes() == rec.probs.tobytes()


@pytest.mark.parametrize("edit", [
    lambda tokens: None,
    lambda tokens: "<pad> <oov> a",
    lambda tokens: tokens[:2] + [7] + tokens[3:],
    lambda tokens: tokens[1:],
    lambda tokens: [tokens[1], tokens[0]] + tokens[2:],
    lambda tokens: tokens + [tokens[2]],
], ids=["null", "string", "not-a-string", "no-pad", "swapped", "repeated"])
def test_eval_refuses_a_checkpoint_vocab_that_is_no_vocabulary(tmp_path, capsys, tiny_run,
                                                                edit):
    run, heldout = tiny_run
    edited = edited_run(tmp_path / "run", run, lambda meta: dict(meta, vocab=edit(meta["vocab"])))
    error = error_of(["eval", "--run-dir", str(edited), "--data", heldout,
                      "--out", str(tmp_path / "o")], capsys)
    assert error["field"] == "vocab"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("w_dom", 1.0), ("lambda_grid", "0.1,1")])
def test_eval_names_a_checkpoint_config_key_that_is_no_run_key(tmp_path, capsys, tiny_run,
                                                                key, value):
    # A run trained before the key was removed.
    run, heldout = tiny_run
    edited = edited_run(tmp_path / "run", run,
                        lambda meta: {**meta, "config": {**meta["config"], key: value}})
    error = error_of(["eval", "--run-dir", str(edited), "--data", heldout,
                      "--out", str(tmp_path / "o")], capsys)
    assert error["field"] == key and "checkpoint config: unknown key" in error["error"]
    assert not (tmp_path / "o").exists()


def run_every_reader(run, heldout, out):
    """``eval``, ``probe`` (on the training corpus beside ``heldout``) and
    ``export`` of ``run``, each writing under ``out``."""
    train = str(Path(heldout).with_name("train.jsonl"))
    for argv in (["eval", "--data", heldout, "--out", str(out / "eval")],
                 ["probe", "--data", train, "--runs", "1", "--out", str(out / "probe")],
                 ["export", "--data", heldout, "--repr", "z", "--out", str(out / "export.tsv")]):
        assert cli.main(argv + ["--run-dir", str(run)]) == 0


def test_probe_collects_once_per_run_for_both_targets(tmp_path, tiny_run, monkeypatch):
    # Both targets score one collection per run; the table is the one that
    # collecting anew for each target gives, since both draw the same.
    run, heldout = tiny_run
    train = str(Path(heldout).with_name("train.jsonl"))
    real_collect = probes.collect
    calls = []

    def counting_collect(*args):
        calls.append(args[2])
        return real_collect(*args)
    monkeypatch.setattr(probes, "collect", counting_collect)
    assert cli.main(["probe", "--run-dir", str(run), "--data", train, "--runs", "2",
                     "--out", str(tmp_path)]) == 0
    model, insts, cfg, _ = cli._load_run(run, train, "all")
    assert calls == [cfg.seed, cfg.seed + 1]
    want = ["lambda\ttarget\taccuracy\truns"] + [
        f"{cfg.lam:g}\t{target}\t{acc:.6f}\t2"
        for target in ("y", "d")
        for acc in [np.mean([probes.probe(real_collect(model, insts, cfg.seed + r), target,
                                          split_seed=cfg.seed + r) for r in range(2)])]]
    assert (tmp_path / "probe.tsv").read_text().splitlines() == want


def test_a_run_is_its_checkpoint_alone(tmp_path, tiny_run):
    # The manifest and every other file of the run are records only.
    run, heldout = tiny_run
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(run / "checkpoint.bin", alone)
    run_every_reader(run, heldout, tmp_path / "intact")
    run_every_reader(alone, heldout, tmp_path / "alone_out")
    for name in ("eval/results.tsv", "eval/results.txt", "eval/eval_manifest.json",
                 "probe/probe.tsv", "export.tsv"):
        assert (tmp_path / "intact" / name).read_bytes() == \
            (tmp_path / "alone_out" / name).read_bytes(), name


def test_an_edited_manifest_changes_nothing(tmp_path, tiny_run):
    run, heldout = tiny_run
    edited = tmp_path / "run"
    shutil.copytree(run, edited)
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["config"]["n_filters"] = 2
    (edited / "manifest.json").write_text(json.dumps(manifest))
    for where, run_dir in (("intact", run), ("edited", edited)):
        assert cli.main(["eval", "--run-dir", str(run_dir), "--data", heldout,
                         "--out", str(tmp_path / where)]) == 0
    # eval records the config the run trained with, read back unchanged.
    recorded = json.loads((tmp_path / "edited" / "eval_manifest.json").read_text())["config"]
    assert recorded == json.loads((run / "manifest.json").read_text())["config"]
    assert recorded["n_filters"] == 4
    for name in ("results.tsv", "eval_manifest.json"):
        assert (tmp_path / "intact" / name).read_bytes() == \
            (tmp_path / "edited" / name).read_bytes(), name


def set_key(key, value):
    return lambda meta: {**meta, key: value}


def set_config(key, value):
    return lambda meta: {**meta, "config": {**meta["config"], key: value}}


def drop(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


@pytest.mark.parametrize("edit, field", [
    (set_config("n_filters", 2), "theta.ch.conv3.w"),
    (set_config("n_filters", "four"), "n_filters"),
    (set_config("windows", [3, 0]), "windows"),
    (lambda meta: {**meta, "domains": meta["domains"][1:]}, "sigma.d_emb"),
    (lambda meta: {**meta, "labels": meta["labels"] + ["extra"]}, "theta.head.l2.w"),
    (set_key("k", 2), "theta.ch.emb"),
    (drop("labels"), "labels"),
    (set_key("labels", ["neg", "neg"]), "labels"),
    (set_key("labels", "neg pos"), "labels"),
    (set_key("domains", [0, 1, 2]), "domains"),
    (set_key("k", "3"), "k"),
    (set_key("k", 0), "k"),
    (set_key("k", True), "k"),
    (drop("config"), "config"),
    (set_key("config", ["model", "csda-dirichlet"]), "config"),
], ids=["n_filters", "n_filters-string", "windows-zero", "dropped-domain", "added-label", "fewer-channels", "no-labels",
        "repeated-label", "labels-string", "domain-ids", "k-string", "k-zero", "k-bool",
        "no-config", "config-list"])
def test_eval_refuses_checkpoint_meta_that_is_not_the_run(tmp_path, capsys, tiny_run,
                                                          edit, field):
    # Every reader checks the meta and the store before it writes anything.
    run, heldout = tiny_run
    edited = edited_run(tmp_path / "run", run, edit)
    for command in ("eval", "probe", "export"):
        error = error_of([command, "--run-dir", str(edited), "--data", heldout,
                          "--out", str(tmp_path / "o")], capsys)
        assert error["field"] == field, command
        assert not (tmp_path / "o").exists()
    assert sorted(p.name for p in edited.iterdir()) == sorted(p.name for p in run.iterdir())
