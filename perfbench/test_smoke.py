"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, prints every metric that BENCHMARK.json names, with its unit,
and passes its own correctness gate. Outputs and exact counts repeat
across processes at one seed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("autodiff.tape_nodes_per_inst", "autodiff.param_bytes_per_inst",
         "autodiff.grad_bytes_per_inst", "kernels.embedding_backward_bytes",
         "kernels.conv1d_gflop", "encoder.encode_calls_per_inst",
         "special.inv_calls", "special.cdf_calls")


def run(workload: str, trace: int, seed: int = 3) -> dict:
    """One tiny run; returns its result line plus the digests of its first
    episode from the result file."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    reps = json.loads(out.read_text())["details"]["repetitions"]
    return result, {phase: r[0]["digest"] for phase, r in reps.items()}


def check(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, _ = run(workload, trace=0)
    check(result, "end_to_end")
    for name in ("setup_s", "train_inst_per_s", "predict_inst_per_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_repeats_exactly(workload):
    """Two processes with one seed give the same outputs and exact counts."""
    (first, digests), (second, digests_again) = run(workload, trace=1), run(workload, trace=1)
    check(first, "per_layer")
    assert digests == digests_again
    for name in EXACT:
        assert first["metrics"][name]["value"] > 0.0, name
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_program_sources():
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
