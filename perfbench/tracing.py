"""Span tracing for the traced benchmark run.

``Tracer.install`` wraps the public functions of ``domaingate`` at the
module attributes that callers look up at call time (``training.backprop``
rather than ``autodiff.backprop``, because ``training`` imports it by
name). The program's own files are not modified. Each wrapped call
records one span: its name, start, end, parent span and the benchmark
phase it ran in. Some wrappers also add exact counts (tape nodes, bytes,
FLOPs). Spans are kept in flat arrays in memory and written out once,
when the run ends.

``layer_metrics`` turns the spans into the per-layer metrics. Times and
counts without a percentile suffix are per episode: the total over the
traced repetitions of each phase divided by that phase's repetition
count, summed over the phases of an episode (one training repetition
and one prediction repetition per strategy). Set-up metrics are the
median over the set-up repetitions.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from domaingate import distributions, inference, kernels, models, training

__all__ = ["Tracer", "layer_metrics", "SETUP", "TRAIN"]

SETUP = "setup"
TRAIN = "train"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phases: list[str] = []
        self._phase = -1
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Tag the spans that follow; ``phase`` is ``<phase>/<repetition>``."""
        if phase not in self.phases:
            self.phases.append(phase)
        self._phase = self.phases.index(phase)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        k = (self.phases[self._phase], key)
        self.counts[k] = self.counts.get(k, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span and, if
        given, calls ``counter(tracer, args, result)`` after the call."""
        original = getattr(owner, attr)
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                out = original(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                counter(self, args, out)
            return out

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        w = self.wrap
        w(training, "backprop", "autodiff.backprop", _count_grads)
        w(training, "adam_step", "optim.adam_step")
        w(training, "evaluate", "training.evaluate")
        w(training, "predict_batch", "inference.predict_batch")
        w(models.Model, "loss", "models.loss", _count_tape)
        w(models.Model, "prior_gate", "models.prior_gate")
        w(models.Model, "posterior_gate", "models.posterior_gate")
        w(models, "encode", "encoder.encode")
        w(inference, "predict", "inference.predict")
        w(inference, "classify_batch", "models.classify_batch")
        w(kernels, "conv1d_forward", "kernels.conv1d_forward", _count_conv(1))
        w(kernels, "conv1d_backward", "kernels.conv1d_backward", _count_conv(2))
        w(kernels, "maxpool_forward", "kernels.maxpool_forward")
        w(kernels, "maxpool_backward", "kernels.maxpool_backward")
        w(kernels, "embedding_backward", "kernels.embedding_backward", _count_emb)
        w(distributions, "sample", "distributions.sample")
        w(distributions, "kl_divergence", "distributions.kl_divergence")
        w(distributions, "draw_many", "distributions.draw_many")
        w(distributions, "log_pdf_many", "distributions.log_pdf_many")
        # The special functions as bound inside ``distributions``: the
        # quantiles used for sampling and the CDFs that the finite-difference
        # pathwise gradients evaluate.
        w(distributions, "inv_reg_inc_gamma", "special.inv")
        w(distributions, "inv_reg_inc_beta", "special.inv")
        w(distributions, "reg_inc_gamma", "special.cdf")
        w(distributions, "reg_inc_beta", "special.cdf")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            phases=np.array(self.phases), **self.arrays())


def _count_tape(tracer, args, res):
    nodes = res.tape.nodes
    tracer.count("tape_nodes", len(nodes))
    tracer.count("param_bytes", sum(n.value.nbytes for n in nodes if n.kind == "param"))


def _count_grads(tracer, args, grads):
    tracer.count("grad_bytes", sum(g.nbytes for g in grads.values()))


def _count_conv(passes: int):
    # Forward: 2*To*win*E*F FLOPs. Backward computes dw and dx, twice that.
    def counter(tracer, args, out):
        x, w = args[0], args[1]
        win, emb, nf = w.shape
        t_out = x.shape[0] - win + 1
        tracer.count("conv_flop", 2 * passes * t_out * win * emb * nf)
    return counter


def _count_emb(tracer, args, out):
    tracer.count("embedding_backward_bytes", out.nbytes)



# -- per-layer metrics ------------------------------------------------------------

def _pct_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values.size else 0.0


def layer_metrics(tracer: Tracer, strategies: tuple[str, ...]) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans and counts.

    Returns (metrics, details). Details hold the sample counts behind each
    percentile, the per-episode exact counts, whether those counts were
    identical in every repetition, and the share of each phase's wall
    time that each layer spent in its own code (self time).
    """
    a = tracer.arrays()
    start, end, parent = a["start"], a["end"], a["parent"]
    dur = end - start
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
    span_name = np.array(tracer.names)[a["name"]]
    base_of = {p: p.split("/")[0] for p in tracer.phases}
    span_base = np.array([base_of[p] for p in tracer.phases])[a["phase"]]
    reps: dict[str, int] = {}
    for p in tracer.phases:
        reps[base_of[p]] = reps.get(base_of[p], 0) + 1
    episode = [p for p in reps if p != SETUP]
    weight = np.zeros(dur.size)
    for p in episode:
        weight[span_base == p] = 1.0 / reps[p]

    def total(name: str, values=dur) -> float:
        sel = span_name == name
        return float(np.sum(values[sel] * weight[sel]))

    # Exact counts, per repetition: span calls per name and the counters.
    per_rep: dict[str, dict[str, int]] = {p: {} for p in tracer.phases}
    ids, n = np.unique(np.stack([a["phase"], a["name"]]), axis=1, return_counts=True)
    for (ph, nm), c in zip(ids.T, n):
        per_rep[tracer.phases[ph]][f"calls.{tracer.names[nm]}"] = int(c)
    for (p, key), v in tracer.counts.items():
        per_rep[p][key] = v
    exact = True
    counts: dict[str, float] = {}
    for p in episode:
        reps_p = [per_rep[q] for q in tracer.phases if base_of[q] == p]
        exact &= all(r == reps_p[0] for r in reps_p)
        for key, v in reps_p[0].items():
            counts[key] = counts.get(key, 0) + v

    def count(key: str) -> float:
        return float(counts.get(key, 0))

    m: dict[str, float] = {}
    d: dict = {"counts_per_episode": counts, "counts_repeat_exactly": bool(exact),
               "repetitions": reps}

    # Training step: one Adam step to the next, minus dev evaluations between.
    steps = []
    for t in np.flatnonzero((span_base == TRAIN) & (span_name == "bench.train")):
        kids = np.flatnonzero(parent == t)
        evals = kids[span_name[kids] == "training.evaluate"]
        prev = start[t]
        for i in kids[span_name[kids] == "optim.adam_step"]:
            inside = evals[(start[evals] >= prev) & (end[evals] <= end[i])]
            steps.append(end[i] - prev - dur[inside].sum())
            prev = end[i]
    steps = np.array(steps)
    m["training.step_ms.p50"] = _pct_ms(steps, 50)
    m["training.step_ms.p90"] = _pct_ms(steps, 90)
    m["training.dev_eval_s"] = total("training.evaluate")
    d["samples.training.step"] = int(steps.size)

    loss = dur[(span_name == "models.loss") & (span_base == TRAIN)]
    m["models.loss_ms.p50"] = _pct_ms(loss, 50)
    m["models.loss_self_ms"] = 1e3 * total("models.loss", self_t)
    d["samples.models.loss"] = int(loss.size)
    loss_calls = count("calls.models.loss") or 1.0
    m["autodiff.tape_nodes_per_inst"] = count("tape_nodes") / loss_calls
    m["autodiff.param_bytes_per_inst"] = count("param_bytes") / loss_calls
    m["autodiff.grad_bytes_per_inst"] = \
        count("grad_bytes") / (count("calls.autodiff.backprop") or 1.0)
    m["autodiff.backprop_self_ms"] = 1e3 * total("autodiff.backprop", self_t)
    m["kernels.embedding_backward_ms"] = 1e3 * total("kernels.embedding_backward")
    m["kernels.embedding_backward_bytes"] = count("embedding_backward_bytes")
    m["optim.adam_ms"] = 1e3 * total("optim.adam_step")

    conv_s = 0.0
    for k in ("conv1d_forward", "conv1d_backward", "maxpool_forward", "maxpool_backward"):
        t = total(f"kernels.{k}")
        m[f"kernels.{k}_ms"] = 1e3 * t
        conv_s += t if k.startswith("conv") else 0.0
    gflop = count("conv_flop") / 1e9
    m["kernels.conv1d_gflop"] = gflop
    m["kernels.conv1d_gflops"] = gflop / conv_s if conv_s else 0.0
    m["encoder.encode_ms"] = 1e3 * total("encoder.encode")
    insts = count("calls.models.loss") + count("calls.inference.predict")
    m["encoder.encode_calls_per_inst"] = count("calls.encoder.encode") / insts if insts else 0.0

    for k, name in (("sample", "sample"), ("kl", "kl_divergence"),
                    ("draw_many", "draw_many"), ("log_pdf_many", "log_pdf_many")):
        m[f"distributions.{k}_ms"] = 1e3 * total(f"distributions.{name}")
    for k in ("inv", "cdf"):
        m[f"special.{k}_calls"] = count(f"calls.special.{k}")
        m[f"special.{k}_ms"] = 1e3 * total(f"special.{k}")

    for s in strategies:
        sel = (span_name == "inference.predict") & (span_base == f"predict.{s}")
        m[f"inference.{s}.ms.p50"] = _pct_ms(dur[sel], 50)
        m[f"inference.{s}.ms.p90"] = _pct_ms(dur[sel], 90)
        d[f"samples.inference.{s}"] = int(sel.sum())
    m["models.classify_batch_ms"] = 1e3 * total("models.classify_batch")

    setups = np.flatnonzero((span_base == SETUP) & (span_name == "bench.setup"))
    for name in ("data.generate", "text.vocab_build", "data.prepare", "models.init"):
        per = [float(dur[(parent == s) & (span_name == name)].sum()) for s in setups]
        m[f"{name}_s"] = float(np.median(per)) if per else 0.0

    shares = {}
    for p in episode:
        in_p = span_base == p
        wall = float(dur[in_p & (parent == -1)].sum())
        if wall > 0.0:
            shares[p] = {str(nm): round(float(self_t[in_p & (span_name == nm)].sum()) / wall, 4)
                         for nm in tracer.names if np.any(in_p & (span_name == nm))}
    d["self_time_share"] = shares
    d["n_spans"] = int(dur.size)
    return m, d
