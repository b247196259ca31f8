#!/usr/bin/env python3
"""Summarize result files of ``run.py``: for each workload and metric,
the median, the quartiles and the spread (interquartile range over the
median) across all result files given, as one JSON object.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json > summary.json
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(paths) -> dict:
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    runs: dict[str, list] = {}
    env = None
    for path in paths:
        res = json.loads(Path(path).read_text())
        wl = res["details"]["workload"]
        runs.setdefault(wl, []).append({
            "seed": res["details"]["seed"], "correct": res["correct"],
            "attempted": res["attempted"], "failed": res["failed"]})
        env = env or res["details"]["env"]
        for name, m in res["metrics"].items():
            values.setdefault(wl, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {"env": env, "workloads": {}}
    for wl, metrics in sorted(values.items()):
        rows = {}
        for name, v in metrics.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                          "spread": (q3 - q1) / med if med else 0.0, "n": len(v)}
        out["workloads"][wl] = {"runs": runs[wl], "metrics": rows}
    return out


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
