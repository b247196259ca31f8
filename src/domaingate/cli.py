"""Command-line entry point.

Commands: train, eval, grid (a ``train`` run per cell of a product of
config values), probe, export, gen-synth, summarize. Each command writes
its artifacts under an output directory; the exit status is zero iff
all requested artifacts were written. ``train``, ``grid``, ``gen-synth``
(``manifest.json``) and ``eval`` (``eval_manifest.json``) also write a
manifest: the resolved config, seeds and code version, sufficient to
reproduce the run. ``probe``, ``export`` and ``summarize`` write none.
A trained run is its ``checkpoint.bin``: parameters, the resolved run
config and what the data decide, the vocabulary included. ``eval``,
``probe`` and ``export`` read only this file; a run's ``manifest.json``
is a record that nothing reads back. A run also holds its test split's
``results.tsv``, as ``eval`` writes it, for ``summarize``. A run checks
its config against its data before it writes anything, and a grid
checks every cell before the first one trains.
Failures are emitted as one JSON object per error on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import data as dio
from . import probes as probes_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, parse_kv_file, read_config
from .inference import STRATEGIES
from .models import Model
from .text import Vocab
from .training import evaluate, train


def _write_manifest(path, command: str, config: dict, extra: dict) -> None:
    manifest = {"command": command, "config": config, "version": __version__, **extra}
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _check_run(cfg: RunConfig, load=dio.load_corpus) -> tuple:
    """Read a run's corpora with ``load`` and check them against ``cfg``,
    writing nothing; returns its training and model configs, checkpoint
    meta, vocabulary (None in byte mode) and train, dev and test corpora.
    A corpus that cannot be read, or an eval corpus too small to split,
    raises naming its key."""
    def read(key):
        path = getattr(cfg, key)
        try:
            return load(path)
        except (OSError, UnicodeDecodeError, dio.CorpusFormatError) as exc:
            raise ConfigError(key, f"cannot read corpus {path!r}: {exc}") from exc

    train_corpus = read("train_data")
    if cfg.regime == "supervised":
        train_corpus = dio.Corpus([d for d in train_corpus.docs
                                   if d.has_domain and d.has_label])
    elif cfg.regime == "unsupervised":
        train_corpus = dio.Corpus([replace(d, domain=None) for d in train_corpus.docs])
    eval_corpus = read("eval_data")
    try:
        dev, test = dio.split_dev_test(eval_corpus)
    except ValueError as exc:
        raise ConfigError("eval_data", f"{cfg.eval_data!r}: {exc}") from exc
    labels, domains = train_corpus.labels, train_corpus.domains
    if len(labels) < 2:
        raise ConfigError("train_data", f"needs at least two labels on the instances "
                                        f"that regime {cfg.regime} keeps")
    for name, part in (("dev", dev), ("test", test)):
        if not any(d.label in labels for d in part.docs):
            raise ConfigError("eval_data", f"its {name} split has no instance "
                                           f"with a training label")
    k = cfg.k or (1 if cfg.model == "scnn" else len(domains))
    if not k:
        raise ConfigError("k", "set k explicitly when no training domain is observed")
    if cfg.model == "dsda" and cfg.regime != "unsupervised" and domains \
            and k != len(domains):
        raise ConfigError("k", f"dsda with domain supervision needs k == number of "
                               f"training domains ({len(domains)}), got k={k}")
    vocab = None if cfg.mode == "byte" else Vocab.build(d.text for d in train_corpus.docs)
    meta = {"k": k, "labels": labels, "domains": domains,
            "vocab": None if vocab is None else vocab.tokens}
    return (*cfg.library_configs(meta), meta, vocab, (train_corpus, dev, test))


def _train_one(cfg: RunConfig, checked: tuple, out_dir: Path) -> tuple[float, float]:
    """Train, checkpoint and test in ``out_dir`` the run that ``_check_run``
    checked; returns its best dev accuracy and its test accuracy."""
    train_cfg, model_cfg, meta, vocab, corpora = checked
    out_dir.mkdir(parents=True, exist_ok=True)
    model = Model.init(model_cfg, np.random.default_rng(
        np.random.SeedSequence((cfg.seed, 1))))
    train_insts, dev_insts, test_insts = (
        dio.prepare(corpus, vocab, cfg.mode, meta["labels"], meta["domains"])
        for corpus in corpora)
    result = train(model, train_insts, dev_insts, train_cfg)

    with open(out_dir / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    save_checkpoint(out_dir / "checkpoint.bin", result.model.params,
                    {**meta, "config": asdict(cfg)})

    test_eval = evaluate(result.model, test_insts, train_cfg.infer)
    _write_accuracy_table(out_dir, cfg.model, test_eval.per_domain, test_eval.accuracy)
    _write_manifest(out_dir / "manifest.json", "train", asdict(cfg), {
        "best_dev_accuracy": result.best_dev_accuracy,
        "test_accuracy": test_eval.accuracy,
    })
    return result.best_dev_accuracy, test_eval.accuracy


def _load_run(run_dir: Path, data_path: str, split: str) -> tuple:
    """A trained run's model, in the dtypes it trained in, run config and
    inference config, all read from its checkpoint, and the ``split`` of
    a corpus prepared as the run prepared its own. Meta that a run does
    not write (``k`` no int >= 1, ``labels`` or ``domains`` no distinct
    strings, ``config`` no object of run keys and values, ``vocab`` no
    vocabulary in word mode) raises ``ConfigError`` naming its key, and a
    store that is not the config's layout names the parameter."""
    params, meta = load_checkpoint(run_dir / "checkpoint.bin")
    k, config = meta.get("k"), meta.get("config")
    if type(k) is not int or k < 1:
        raise ConfigError("k", f"checkpoint meta: must be an int >= 1, got {k!r}")
    for key in ("labels", "domains"):
        names = meta.get(key)
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise ConfigError(key, f"checkpoint meta: must be distinct strings, got {names!r}")
    if not isinstance(config, dict):
        raise ConfigError("config", "checkpoint meta: must be the run config object")
    try:  # the one config reader types each value, spelled as in a config file
        cfg = read_config(RunConfig, {key: ",".join(map(str, v)) if isinstance(v, list)
                                      else str(v) for key, v in config.items()})
    except ConfigError as exc:
        raise ConfigError(exc.field, f"checkpoint config: {exc.detail}") from None
    vocab = None
    if cfg.mode == "word":
        try:
            vocab = Vocab(meta.get("vocab"))
        except ValueError as exc:
            raise ConfigError("vocab", f"checkpoint meta: {exc}") from None
    train_cfg, model_cfg = cfg.library_configs(meta)
    model = Model(model_cfg, params)
    corpus = dio.load_corpus(data_path)
    if split != "all":
        dev, test = dio.split_dev_test(corpus)
        corpus = dev if split == "dev" else test
    insts = dio.prepare(corpus, vocab, cfg.mode, meta["labels"], meta["domains"])
    return model, insts, cfg, train_cfg.infer


def _write_accuracy_table(out_dir: Path, name: str, per_domain: dict[str, float],
                          average: float) -> None:
    domains = sorted(per_domain)
    header = domains + ["average"]
    values = [per_domain[d] for d in domains] + [average]
    with open(out_dir / "results.tsv", "w", encoding="utf-8") as fh:
        fh.write("model\t" + "\t".join(header) + "\n")
        fh.write(name + "\t" + "\t".join(f"{v:.6f}" for v in values) + "\n")
    width = max(len(h) for h in header) + 2
    lines = [name,
             "".join(h.rjust(width) for h in header),
             "".join(f"{100 * v:.1f}".rjust(width) for v in values)]
    (out_dir / "results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args) -> None:
    cfg = read_config(RunConfig, parse_kv_file(args.config))
    checked = _check_run(cfg)
    out_dir = Path(args.out or cfg.out_dir)
    dev, test = _train_one(cfg, checked, out_dir)
    print(f"dev accuracy {dev:.4f}  test accuracy {test:.4f}")
    print(f"artifacts in {out_dir}")


def cmd_eval(args) -> None:
    run_dir = Path(args.run_dir)
    model, insts, cfg, infer_cfg = _load_run(run_dir, args.data, args.split)
    infer_cfg = replace(infer_cfg, **{k: v for k, v in (("strategy", args.strategy),
                                                         ("m", args.m)) if v is not None})
    result = evaluate(model, insts, infer_cfg)
    out_dir = Path(args.out or run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_accuracy_table(out_dir, cfg.model, result.per_domain, result.accuracy)
    _write_manifest(out_dir / "eval_manifest.json", "eval", asdict(cfg), {
        "data": args.data, "split": args.split,
        "strategy": infer_cfg.strategy, "m": infer_cfg.m,
        "accuracy": result.accuracy, "per_domain": result.per_domain,
    })
    print((out_dir / "results.txt").read_text(), end="")


def _grid_cells(base: dict[str, str], vary: list[str]) -> tuple[dict, list]:
    """The values of each ``key=v1,v2,...`` of ``vary``, and each cell's
    values and config, in Cartesian-product order. A varied key replaces
    the base config's value."""
    axes: dict[str, list[str]] = {}
    for spec in vary:
        key, eq, raw = (part.strip() for part in spec.partition("="))
        if not eq:
            raise ConfigError("vary", f"expected key=v1,v2,..., got {spec!r}")
        if key == "windows":
            raise ConfigError(key, "its value holds commas, so it cannot be varied")
        if key in axes:
            raise ConfigError(key, "varied twice")
        axes[key] = [v.strip() for v in raw.split(",")]
    return axes, [(values, read_config(RunConfig, {**base, **dict(zip(axes, values))}))
                  for values in itertools.product(*axes.values())]


def cmd_grid(args) -> None:
    base = parse_kv_file(args.config)
    axes, cells = _grid_cells(base, args.vary)
    load = functools.cache(dio.load_corpus)
    checked = [_check_run(cfg, load) for _, cfg in cells]
    out_dir = Path(args.out or cells[0][1].out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names, devs = [], []
    with open(out_dir / "grid.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(["cell", *axes, "dev_accuracy", "test_accuracy"]) + "\n")
        for i, ((values, cfg), run) in enumerate(zip(cells, checked)):
            names.append(f"cell-{i:03d}")
            dev, test = _train_one(cfg, run, out_dir / names[-1])
            devs.append(dev)
            fh.write("\t".join([names[-1], *values, f"{dev:.6f}", f"{test:.6f}"]) + "\n")
            fh.flush()
            print(names[-1], *(f"{k}={v}" for k, v in zip(axes, values)),
                  f"dev={dev:.4f}", f"test={test:.4f}", sep="  ")
    best = int(np.argmax(devs))
    _write_manifest(out_dir / "manifest.json", "grid", base, {
        "vary": axes, "cells": names, "best_cell": names[best],
        "best": dict(zip(axes, cells[best][0]))})
    print(f"best cell by dev accuracy: {names[best]}")


def cmd_probe(args) -> None:
    run_dir = Path(args.run_dir)
    model, insts, cfg, _ = _load_run(run_dir, args.data, "all")
    observed = [i for i in insts if i.y_id is not None and i.d_id is not None]
    if not observed:
        raise ValueError("probe needs instances with observed label and domain")
    accs = probes_mod.probe_averaged(model, observed, seed=cfg.seed, runs=args.runs)
    out_dir = Path(args.out or run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "probe.tsv", "w", encoding="utf-8") as fh:
        fh.write("lambda\ttarget\taccuracy\truns\n")
        for target, acc in accs.items():
            fh.write(f"{cfg.lam:g}\t{target}\t{acc:.6f}\t{args.runs}\n")
            print(f"{target}-probe accuracy {acc:.4f} (lambda={cfg.lam:g})")


def cmd_export(args) -> None:
    run_dir = Path(args.run_dir)
    model, insts, cfg, _ = _load_run(run_dir, args.data, "all")
    rows = probes_mod.export_representations(model, insts, args.repr, cfg.seed)
    out_path = Path(args.out or (run_dir / "export.tsv"))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    width = len(rows[0]["vector"]) if rows else 0
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("id\tlabel\tdomain\t"
                 + "\t".join(f"v{i}" for i in range(width)) + "\n")
        for row in rows:
            vec = "\t".join(f"{x:.8g}" for x in row["vector"])
            fh.write(f"{row['id']}\t{row['label'] or ''}\t"
                     f"{row['domain'] or ''}\t{vec}\n")
    print(f"wrote {len(rows)} rows to {out_path}")


def cmd_gen_synth(args) -> None:
    spec = read_config(dio.SynthSpec, parse_kv_file(args.spec)) if args.spec \
        else dio.SynthSpec()
    corpus = dio.generate_synthetic(spec)
    held_names = [f"dom{d}" for d in spec.held_out]
    train_corpus, heldout_corpus = dio.split_held_out(corpus, held_names)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dio.save_corpus(train_corpus, out_dir / "train.jsonl")
    dio.save_corpus(heldout_corpus, out_dir / "heldout.jsonl")
    _write_manifest(out_dir / "manifest.json", "gen-synth", asdict(spec),
                   {"train_instances": len(train_corpus),
                    "heldout_instances": len(heldout_corpus)})
    print(f"wrote {len(train_corpus)} training and {len(heldout_corpus)} "
          f"held-out instances to {out_dir}")


def cmd_summarize(args) -> None:
    columns, rows = None, []
    for run in args.runs:
        lines = (Path(run) / "results.tsv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")[1:]
        if columns is not None and header != columns:
            raise ValueError(f"{run}: result columns {header} differ from "
                             f"{columns} of {args.runs[0]}")
        columns = header
        rows.append([float(v) for v in lines[1].split("\t")[1:]])
    out_lines = ["column\tmean\tstd\tn"] + [
        f"{col}\t{vals.mean():.6f}\t{vals.std(ddof=0):.6f}\t{len(vals)}"
        for col, vals in zip(columns, np.array(rows).T)]
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domaingate",
        description="Latent-domain gated text classifiers: train, evaluate, "
                    "train grids over config keys, probe the latent space, "
                    "export representations, and generate synthetic corpora.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("--config", required=True, help="key=value run config")
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on held-out data")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True, help="held-out corpus (jsonl)")
    p.add_argument("--split", choices=("dev", "test", "all"), default="test")
    p.add_argument("--strategy", choices=STRATEGIES, help="override inference strategy")
    p.add_argument("--m", type=int, help="override sample count")
    p.add_argument("--out", help="output directory (default: run dir)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grid", help="train and test every cell of a grid over config keys")
    p.add_argument("--config", required=True, help="key=value base run config")
    p.add_argument("--vary", action="append", required=True, metavar="KEY=V1,V2,...",
                   help="values of one config key; repeat it for a product grid")
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("probe", help="linear probes for label/domain on gate samples")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True, help="corpus with observed labels+domains")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("export", help="export per-instance representations")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--repr", choices=("h", "z"), default="h")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("gen-synth", help="generate a synthetic multi-domain corpus")
    p.add_argument("--spec", help="key=value generator spec (defaults if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("summarize", help="mean/std across run result tables")
    p.add_argument("runs", nargs="+", help="run directories containing results.tsv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single reporting funnel
        error = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, ConfigError):
            error = {"error": str(exc), "field": exc.field}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        raise SystemExit(1) from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
