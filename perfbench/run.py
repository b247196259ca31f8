#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of domaingate.

Runs one workload through the public API (corpus -> vocabulary ->
``data.prepare`` -> ``Model.init`` -> ``training.train`` ->
``inference.predict_batch``), checks the outputs, and prints every
metric by name with its unit. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload desk-synth --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see ``tracing.py``). Metric names and units
are those of ``BENCHMARK.json`` at the repository root; the run fails if
it would report any other set. Full results, including the environment,
every repetition's timing and digest, and the trace spans, are written
under ``perfbench/out/``. The exit status is 0 only if the correctness
gate passed.

A run is a series of episodes until ``--seconds`` is spent (at least
two). An episode sets up (corpus, vocabulary, instances, initial
models), trains every model kind of the workload from its initial
parameters, then predicts a held-out slice once with each inference
strategy. ``setup_s`` and the throughputs are medians over episodes. Every episode does identical
work from identical inputs, so its outputs must be byte-identical; that
is part of the gate. Times are corrected for the machine's speed by
``SpeedProbe``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk-synth", "paper-word", "paper-byte")
PREDICT_METRIC = {"prior-sample": "predict_inst_per_s",
                  "prior-mean": "predict_mean_inst_per_s",
                  "mc-average": "predict_mc_inst_per_s",
                  "importance-sampling": "predict_is_inst_per_s"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every dimension, for smoke tests")
    return ap.parse_args(argv)


# -- environment ------------------------------------------------------------------

def limit_blas_threads() -> int:
    """Run BLAS on one thread unless the caller chose a count, and return
    the usable cores; must run before numpy is imported. On a 2-core
    machine a second OpenBLAS thread spin-waits between calls and slows
    the main thread unpredictably."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    return nproc


def import_program() -> None:
    """Put this checkout's ``src`` first on the path; never fall back to an
    installed copy."""
    src = ROOT / "src"
    if not (src / "domaingate" / "__init__.py").is_file():
        raise SystemExit(f"error: no domaingate sources under {src}")
    sys.path.insert(0, str(src))
    import domaingate
    if Path(domaingate.__file__).resolve().parent != (src / "domaingate").resolve():
        raise SystemExit(f"error: imported domaingate from {domaingate.__file__}")


def blas_threads():
    """(vendor, threads) as reported by the BLAS library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{cfg.get('name')} {cfg.get('version')}"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return vendor, int(fn())
    return vendor, None


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "domaingate").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_block(nproc: int) -> dict:
    import numpy as np

    from domaingate import kernels

    vendor, threads = blas_threads()
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    if threads > nproc:
        raise SystemExit(f"error: BLAS uses {threads} threads but only {nproc} "
                         f"cores are usable; set OPENBLAS_NUM_THREADS<={nproc}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# -- measurement --------------------------------------------------------------------

class Gate:
    """Operation counts and correctness problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok and why not in self.problems:
            self.problems.append(why)


class SpeedProbe:
    """Fixed reference work, independent of domaingate, timed right
    before and right after every timed call of the program.

    A shared virtual machine can change speed by 1.5x for seconds to
    minutes at a time, because of other tenants on the host. In workloads
    with ``speed_corrected``, each program call is scaled by
    ``NOMINAL_S / probe time`` (the mean of the probes before and after it). That reports its time at the machine speed
    where the probe takes ``NOMINAL_S``. The probe mixes what the program
    does: scalar Python, small-array numpy, a GEMM and a large memory
    copy. Raw times are kept in the result file.
    """

    NOMINAL_S = 0.02

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._mat = rng.random((192, 192))
        self._vec = rng.random(64)
        self._big = rng.random(1_000_000)

    def _work(self) -> None:
        np = self._np
        s, d = 0.0, {}
        for i in range(1, 12000):
            s += math.log(i) * math.exp(-i * 1e-4)
        for i in range(6000):
            d[i] = (i, str(i))
        x = self._vec
        for _ in range(600):
            x = np.tanh(x * 0.5 + 0.1)
            np.einsum("i,i->", x, x)
        for _ in range(6):
            self._mat @ self._mat
        for _ in range(2):
            c = self._big.copy()
            c *= 2.0
            c.sum()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def _hash_params(h, params: dict) -> None:
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].tobytes())


class Bench:
    def __init__(self, workload, size: str, seed: int, gate: Gate, tracer=None):
        self.wl = workload
        self.sz = workload.sizes[size]
        self.seed = seed
        self.gate = gate
        self.tracer = tracer
        self.trained: dict = {}
        self.probe = SpeedProbe() if workload.speed_corrected else None

    def timed(self, span: str, fn):
        """Run ``fn()`` inside span ``span``; return (result or None,
        exception or None, raw seconds, seconds corrected for machine speed
        where the workload asks for it)."""
        probe = self.probe
        before = probe() if probe else 0.0
        t0 = time.perf_counter()
        try:
            with self.span(span):
                out, err = fn(), None
        except (ArithmeticError, ValueError) as exc:
            out, err = None, exc
        raw = time.perf_counter() - t0
        if probe is None:
            return out, err, raw, raw
        return out, err, raw, raw * SpeedProbe.NOMINAL_S * 2 / (before + probe())

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.set_phase(name)

    # -- set-up ---------------------------------------------------------------

    def setup_rep(self, rep: int):
        """One set-up; return (prepared inputs, repetition record)."""
        self.phase(f"setup/{rep}")
        prep, err, raw, seconds = self.timed(
            "bench.setup", lambda: self.wl.setup(self.seed, self.sz, self.span))
        if err is not None:
            raise err
        return prep, {"seconds": seconds, "raw_seconds": raw, "digest": prep.digest(),
                      "vocab_size": prep.vocab_size}

    # -- training -----------------------------------------------------------------

    def train_rep(self, prep, rep: int) -> dict:
        from domaingate import training
        from domaingate.inference import InferConfig

        sz = self.sz
        self.trained = {}
        self.phase(f"train/{rep}")
        cfg = training.TrainConfig(
            lr=sz.lr, batch_size=sz.batch_size, max_epochs=sz.epochs,
            patience=10 ** 9, seed=self.seed,
            infer=InferConfig("prior-sample", sz.m, self.seed))
        n_each = len(prep.train) * sz.epochs
        raw, seconds, losses, h = 0.0, 0.0, [], hashlib.sha256()
        for kind in self.wl.kinds:
            model = prep.models[kind].copy()
            self.gate.attempted += n_each
            res, err, t_raw, t = self.timed(
                "bench.train", lambda: training.train(model, prep.train, prep.dev, cfg))
            raw, seconds = raw + t_raw, seconds + t
            if err is not None:
                self.gate.fail(n_each, f"train {kind}: {type(err).__name__}: {err}")
                continue
            step_losses = [e["loss"] for e in res.log]
            self.gate.check(all(math.isfinite(x) for x in step_losses),
                            f"non-finite training loss ({kind})")
            tail = step_losses[len(step_losses) // 2:]
            losses.append(sum(tail) / len(tail))
            _hash_params(h, res.model.params)
            h.update(repr((kind, step_losses, res.best_dev_accuracy, res.steps)).encode())
            self.trained[kind] = res.model
        return {"seconds": seconds, "raw_seconds": raw,
                "instances": n_each * len(self.wl.kinds),
                "loss": sum(losses) / len(losses) if losses else math.nan,
                "digest": h.hexdigest()}

    # -- prediction ------------------------------------------------------------

    def predict_rep(self, prep, strategy: str, rep: int) -> dict:
        import numpy as np

        from domaingate import inference

        slow = strategy in ("mc-average", "importance-sampling")
        batch = prep.predict_slow if slow else prep.predict_fast
        cfg = inference.InferConfig(strategy, self.sz.m, self.seed)
        self.phase(f"predict.{strategy}/{rep}")
        raw, seconds, correct, h = 0.0, 0.0, 0, hashlib.sha256()
        for kind in self.wl.predict_kinds:
            self.gate.attempted += len(batch)
            if kind not in self.trained:
                self.gate.fail(len(batch), f"predict {kind}: no trained model")
                continue
            model = self.trained[kind]
            records, err, t_raw, t = self.timed(
                "bench.predict", lambda: inference.predict_batch(model, batch, cfg))
            raw, seconds = raw + t_raw, seconds + t
            if err is not None:
                self.gate.fail(len(batch), f"predict {kind} {strategy}: "
                                           f"{type(err).__name__}: {err}")
                continue
            self.gate.check(len(records) == len(batch), "prediction count mismatch")
            for inst, rec in zip(batch, records):
                probs = np.asarray(rec.probs)
                h.update(repr(rec.label_id).encode())
                h.update(probs.tobytes())
                if not np.all(np.isfinite(probs)):
                    self.gate.fail(1, f"predict {kind} {strategy} {rec.doc_id}: "
                                      f"non-finite probs {probs.tolist()}")
                    continue
                self.gate.check(abs(float(probs.sum()) - 1.0) <= 1e-9,
                                f"probs do not sum to 1 ({strategy})")
                self.gate.check(rec.label_id == int(probs.argmax()),
                                f"label is not the argmax of probs ({strategy})")
                correct += int(rec.label_id == inst.y_id)
        n = len(batch) * len(self.wl.predict_kinds)
        return {"seconds": seconds, "raw_seconds": raw, "instances": n,
                "accuracy": correct / n,
                "digest": h.hexdigest()}

    # -- episodes ----------------------------------------------------------------

    def episodes(self, seconds: float, min_eps: int, max_eps: int = 0) -> dict:
        """Run episodes (a set-up, one training repetition, then one
        prediction repetition per strategy) until the next one would
        overrun ``seconds``, at least ``min_eps`` times. Interleaving the
        phases spreads any slow spell of the machine over all metrics."""
        from domaingate.inference import STRATEGIES

        reps: dict[str, list] = {"setup": [], "train": [], **{s: [] for s in STRATEGIES}}
        t0 = time.perf_counter()
        while True:
            n = len(reps["train"])
            prep, self.trained = None, {}  # release the last episode's models
            prep, rec = self.setup_rep(n)
            reps["setup"].append(rec)
            reps["train"].append(self.train_rep(prep, n))
            for s in STRATEGIES:
                reps[s].append(self.predict_rep(prep, s, n))
            n, spent = n + 1, time.perf_counter() - t0
            if (max_eps and n >= max_eps) or (n >= min_eps and spent + spent / n > seconds):
                return reps


def throughput(reps: list) -> float:
    return statistics.median(r["instances"] / r["seconds"] for r in reps)


def check_repeats(gate: Gate, *groups: dict) -> None:
    """Every repetition of a phase, across all groups, has one digest."""
    for phase in groups[0]:
        digests = {r["digest"] for g in groups for r in g[phase]}
        gate.check(len(digests) == 1, f"{phase}: repetitions differ (not deterministic)")


def run_workload(args, nproc: int) -> int:
    from domaingate.inference import STRATEGIES
    from workloads import get_workload

    env = env_block(nproc)
    spec = load_spec()
    wl = get_workload(args.workload)
    gate = Gate()
    details: dict = {}
    if not args.trace:
        bench = Bench(wl, args.size, args.seed, gate)
        reps = bench.episodes(args.seconds, min_eps=2)
        check_repeats(gate, reps)
        metrics = {"setup_s": statistics.median(r["seconds"] for r in reps["setup"]),
                   "train_inst_per_s": throughput(reps["train"])}
        for s in STRATEGIES:
            metrics[PREDICT_METRIC[s]] = throughput(reps[s])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["train_loss"] = reps["train"][0]["loss"]
        units = spec["end_to_end"]
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        bench = Bench(wl, args.size, args.seed, gate)
        t0 = time.perf_counter()
        plain = bench.episodes(args.seconds, min_eps=1, max_eps=1)
        left = args.seconds - (time.perf_counter() - t0)
        bench.tracer = tracer
        tracer.install()
        try:
            reps = bench.episodes(left, min_eps=1)
        finally:
            tracer.uninstall()
        check_repeats(gate, plain, reps)
        metrics, layer_details = layer_metrics(tracer, STRATEGIES)
        gate.check(layer_details["counts_repeat_exactly"],
                   "exact counts differ between repetitions")
        traced_s = sum(statistics.median(r["seconds"] for r in reps[p]) for p in reps)
        plain_s = sum(plain[p][0]["seconds"] for p in plain)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        units = spec["per_layer"]
        details["layers"] = layer_details
        details["untraced_reference"] = plain
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env,
        "vocab_size": reps["setup"][0]["vocab_size"],
        "repetitions": {p: reps[p] for p in reps},
        "problems": gate.problems, "errors": gate.errors,
        "held_out_accuracy": {p: reps[p][0]["accuracy"] for p in STRATEGIES},
    })
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "details": details}, indent=1,
                                   default=float) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}  -> {out_path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
    print(f"  attempted {gate.attempted}  failed {gate.failed}  correct {result['correct']}")
    for p in gate.problems:
        print(f"  PROBLEM: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = limit_blas_threads()
    import_program()
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
