"""Command-line entry point.

Commands: train, eval, sweep-lambda, probe, export, gen-synth,
summarize. Each command writes its artifacts under an output directory
together with a manifest (resolved config + seeds + code version)
sufficient to reproduce the run; the exit status is zero iff all
requested artifacts were written. Failures are emitted as one JSON
object per error on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import data as dio
from . import probes as probes_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ConfigError, RunConfig, file_sha256, parse_kv_file,
                     synth_spec_from_dict, write_manifest)
from .encoder import EncoderConfig
from .inference import InferConfig
from .models import Model, ModelConfig
from .text import BYTE_VOCAB_SIZE, Vocab
from .training import TrainConfig, evaluate, train


def _fail(message: str, **fields) -> "SystemExit":
    print(json.dumps({"error": message, **fields}, sort_keys=True),
          file=sys.stderr)
    return SystemExit(1)


def _apply_regime(corpus: dio.Corpus, regime: str) -> dio.Corpus:
    if regime == "semi-supervised":
        return corpus
    if regime == "supervised":
        docs = [d for d in corpus.docs if d.has_domain and d.has_label]
        if not docs:
            raise ValueError("supervised regime left no fully-observed instances")
        return dio.Corpus(docs)
    return dio.Corpus([replace(d, domain=None) for d in corpus.docs])


def _build_vocab(cfg: RunConfig, corpus: dio.Corpus, out_dir: Path):
    if cfg.mode == "byte":
        return None, BYTE_VOCAB_SIZE, "byte-fixed"
    vocab = Vocab.build((d.text for d in corpus.docs), min_count=cfg.min_count)
    vocab_path = out_dir / "vocab.txt"
    vocab.save(vocab_path)
    return vocab, len(vocab), file_sha256(vocab_path)


def _resolve_k(cfg: RunConfig, n_domains: int) -> int:
    if cfg.k:
        return cfg.k
    if cfg.model == "scnn":
        return 1
    if n_domains == 0:
        raise ConfigError("k", "set k explicitly when no training domain is observed")
    return n_domains


def _train_one(cfg: RunConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = f"{cfg.mode}-jsonl"
    train_corpus = _apply_regime(dio.load_corpus(cfg.train_data, fmt), cfg.regime)
    eval_corpus = dio.load_corpus(cfg.eval_data, fmt)
    vocab, vocab_size, vocab_hash = _build_vocab(cfg, train_corpus, out_dir)

    labels = train_corpus.labels
    domains = train_corpus.domains
    if len(labels) < 2:
        raise ValueError("training corpus must contain at least two labels")
    k = _resolve_k(cfg, len(domains))
    if cfg.model == "dsda" and cfg.regime != "unsupervised" and domains \
            and k != len(domains):
        raise ValueError(
            f"dsda with domain supervision needs k == number of training "
            f"domains ({len(domains)}), got k={k}")

    mcfg = ModelConfig(
        kind=cfg.model, n_labels=len(labels), n_domains=max(len(domains), 1),
        vocab_size=vocab_size, k=k,
        encoder=EncoderConfig(cfg.embed_dim, cfg.n_filters, cfg.windows),
        mlp_hidden=cfg.mlp_hidden, dropout=cfg.dropout)
    model = Model.init(mcfg, np.random.default_rng(
        np.random.SeedSequence((cfg.seed, 1))))

    train_insts = dio.prepare(train_corpus, vocab, cfg.mode, labels, domains)
    dev_corpus, test_corpus = dio.split_dev_test(
        eval_corpus, (4, 6), cfg.split_seed)
    dev_insts = dio.prepare(dev_corpus, vocab, cfg.mode, labels, domains)
    test_insts = dio.prepare(test_corpus, vocab, cfg.mode, labels, domains)

    infer_cfg = InferConfig(cfg.infer_strategy, cfg.infer_m, cfg.seed)
    tcfg = TrainConfig(lam=cfg.lam, lam_schedule=cfg.lam_schedule,
                       anneal_steps=cfg.anneal_steps, lr=cfg.lr,
                       batch_size=cfg.batch_size, max_epochs=cfg.max_epochs,
                       patience=cfg.patience, seed=cfg.seed, w_dom=cfg.w_dom,
                       infer=infer_cfg)
    result = train(model, train_insts, dev_insts, tcfg)

    with open(out_dir / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    meta = {
        "kind": cfg.model, "k": k, "lambda": cfg.lam, "mode": cfg.mode,
        "vocab_hash": vocab_hash, "labels": labels, "domains": domains,
        "vocab_size": vocab_size, "mlp_hidden": cfg.mlp_hidden,
        "embed_dim": cfg.embed_dim, "n_filters": cfg.n_filters,
        "windows": list(cfg.windows), "dropout": cfg.dropout,
        "best_dev_accuracy": result.best_dev_accuracy,
    }
    save_checkpoint(out_dir / "checkpoint.bin", result.model.params, meta)

    test_eval = evaluate(result.model, test_insts, infer_cfg)
    write_manifest(out_dir / "manifest.json", "train", cfg.resolved(), {
        "vocab_hash": vocab_hash,
        "resolved_k": k,
        "best_dev_accuracy": result.best_dev_accuracy,
        "test_accuracy": test_eval.accuracy,
    })
    return {"dev": result.best_dev_accuracy, "test": test_eval.accuracy,
            "model": result.model, "meta": meta}


def _load_run(run_dir: Path) -> tuple[Model, dict, RunConfig]:
    params, meta = load_checkpoint(run_dir / "checkpoint.bin")
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    cfg = RunConfig(**{k: tuple(v) if isinstance(v, list) else v
                       for k, v in manifest["config"].items()})
    mcfg = ModelConfig(
        kind=meta["kind"], n_labels=len(meta["labels"]),
        n_domains=max(len(meta["domains"]), 1), vocab_size=meta["vocab_size"],
        k=meta["k"],
        encoder=EncoderConfig(meta["embed_dim"], meta["n_filters"],
                              tuple(meta["windows"])),
        mlp_hidden=meta["mlp_hidden"], dropout=meta["dropout"])
    return Model(mcfg, params), meta, cfg


def _load_instances(run_dir: Path, meta: dict, cfg: RunConfig, data_path: str,
                    split: str) -> list:
    fmt = f"{meta['mode']}-jsonl"
    corpus = dio.load_corpus(data_path, fmt)
    if split != "all":
        dev, test = dio.split_dev_test(corpus, (4, 6), cfg.split_seed)
        corpus = dev if split == "dev" else test
    vocab = Vocab.load(run_dir / "vocab.txt") if meta["mode"] == "word" else None
    return dio.prepare(corpus, vocab, meta["mode"], meta["labels"], meta["domains"])


def _write_accuracy_table(path_tsv: Path, path_txt: Path, name: str,
                          per_domain: dict[str, float], average: float) -> None:
    domains = sorted(per_domain)
    header = domains + ["average"]
    values = [per_domain[d] for d in domains] + [average]
    with open(path_tsv, "w", encoding="utf-8") as fh:
        fh.write("model\t" + "\t".join(header) + "\n")
        fh.write(name + "\t" + "\t".join(f"{v:.6f}" for v in values) + "\n")
    width = max(len(h) for h in header) + 2
    lines = [name,
             "".join(h.rjust(width) for h in header),
             "".join(f"{100 * v:.1f}".rjust(width) for v in values)]
    path_txt.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args) -> None:
    cfg = RunConfig.load(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    summary = _train_one(cfg, out_dir)
    print(f"dev accuracy {summary['dev']:.4f}  test accuracy {summary['test']:.4f}")
    print(f"artifacts in {out_dir}")


def cmd_eval(args) -> None:
    run_dir = Path(args.run_dir)
    model, meta, cfg = _load_run(run_dir)
    insts = _load_instances(run_dir, meta, cfg, args.data, args.split)
    infer_cfg = InferConfig(args.strategy or cfg.infer_strategy,
                            args.m or cfg.infer_m, cfg.seed)
    result = evaluate(model, insts, infer_cfg)
    out_dir = Path(args.out or run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_accuracy_table(out_dir / "results.tsv", out_dir / "results.txt",
                          meta["kind"], result.per_domain, result.accuracy)
    write_manifest(out_dir / "eval_manifest.json", "eval", cfg.resolved(), {
        "data": args.data, "split": args.split,
        "strategy": infer_cfg.strategy, "m": infer_cfg.m,
        "accuracy": result.accuracy, "per_domain": result.per_domain,
    })
    print((out_dir / "results.txt").read_text(), end="")


def cmd_sweep_lambda(args) -> None:
    cfg = RunConfig.load(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for lam in cfg.lambda_grid:
        sub = replace(cfg, lam=lam)
        sub_dir = out_dir / f"lam_{lam:g}"
        summary = _train_one(sub, sub_dir)
        rows.append((lam, summary["dev"], summary["test"]))
        print(f"lambda={lam:g}  dev={summary['dev']:.4f}  test={summary['test']:.4f}")
    with open(out_dir / "sweep.tsv", "w", encoding="utf-8") as fh:
        fh.write("lambda\tdev_accuracy\ttest_accuracy\n")
        for lam, dev, test in rows:
            fh.write(f"{lam:g}\t{dev:.6f}\t{test:.6f}\n")
    best = max(rows, key=lambda r: r[1])
    write_manifest(out_dir / "manifest.json", "sweep-lambda", cfg.resolved(),
                   {"grid": list(cfg.lambda_grid), "best_lambda": best[0]})
    print(f"best lambda by dev accuracy: {best[0]:g}")


def cmd_probe(args) -> None:
    run_dir = Path(args.run_dir)
    model, meta, cfg = _load_run(run_dir)
    insts = _load_instances(run_dir, meta, cfg, args.data, "all")
    observed = [i for i in insts if i.y_id is not None and i.d_id is not None]
    if not observed:
        raise _fail("probe needs instances with observed label and domain")
    out_dir = Path(args.out or run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for target in ("y", "d"):
        acc = probes_mod.probe_averaged(model, observed, target,
                                        seed=cfg.seed, runs=args.runs)
        rows.append((meta["lambda"], target, acc))
        print(f"{target}-probe accuracy {acc:.4f} (lambda={meta['lambda']:g})")
    with open(out_dir / "probe.tsv", "w", encoding="utf-8") as fh:
        fh.write("lambda\ttarget\taccuracy\truns\n")
        for lam, target, acc in rows:
            fh.write(f"{lam:g}\t{target}\t{acc:.6f}\t{args.runs}\n")


def cmd_export(args) -> None:
    run_dir = Path(args.run_dir)
    model, meta, cfg = _load_run(run_dir)
    insts = _load_instances(run_dir, meta, cfg, args.data, "all")
    rng = np.random.default_rng(cfg.seed) if args.repr == "z" else None
    rows = probes_mod.export_representations(model, insts, args.repr, rng)
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
    spec = synth_spec_from_dict(parse_kv_file(args.spec)) if args.spec \
        else dio.SynthSpec()
    corpus = dio.generate_synthetic(spec)
    held_names = [f"dom{d}" for d in spec.held_out]
    train_corpus, heldout_corpus = dio.split_held_out(corpus, held_names)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dio.save_corpus(train_corpus, out_dir / "train.jsonl")
    dio.save_corpus(heldout_corpus, out_dir / "heldout.jsonl")
    write_manifest(out_dir / "manifest.json", "gen-synth",
                   {k: list(v) if isinstance(v, tuple) else v
                    for k, v in vars(spec).items()},
                   {"train_instances": len(train_corpus),
                    "heldout_instances": len(heldout_corpus)})
    print(f"wrote {len(train_corpus)} training and {len(heldout_corpus)} "
          f"held-out instances to {out_dir}")


def cmd_summarize(args) -> None:
    tables = []
    for run in args.runs:
        path = Path(run) / "results.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")[1:]
        values = [float(v) for v in lines[1].split("\t")[1:]]
        tables.append(dict(zip(header, values)))
    columns = list(tables[0])
    out_lines = ["column\tmean\tstd\tn"]
    for col in columns:
        vals = np.array([t[col] for t in tables])
        out_lines.append(f"{col}\t{vals.mean():.6f}\t{vals.std(ddof=0):.6f}\t{len(vals)}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domaingate",
        description="Latent-domain gated text classifiers: train, evaluate, "
                    "sweep the KL weight, probe the latent space, export "
                    "representations, and generate synthetic corpora.")
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
    p.add_argument("--strategy", help="override inference strategy")
    p.add_argument("--m", type=int, help="override sample count")
    p.add_argument("--out", help="output directory (default: run dir)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep-lambda", help="train/evaluate across the KL-weight grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.set_defaults(fn=cmd_sweep_lambda)

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
    except SystemExit:
        raise
    except ConfigError as exc:
        raise _fail(str(exc), field=exc.field) from None
    except Exception as exc:  # noqa: BLE001 - single reporting funnel
        raise _fail(f"{type(exc).__name__}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
