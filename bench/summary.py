#!/usr/bin/env python3
"""Summarize run records: median and quartiles of each metric over seeds.

    python3 bench/summary.py                      # every record in bench/results
    python3 bench/summary.py bench/results/BENCH_trace-dense_*_trace0.json

For each workload it prints, over the untraced records, each end-to-end
metric's median, first and third quartile and their distance as a share of
the median (the spread the bounds in BENCHMARK.json are held against), the
failed share of ops, the median op-time tail, and the traced-to-untraced ratio
of mean op time over the seeds that have both records.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(RESULTS.glob("BENCH_*.json"))
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for f in files:
        r = json.loads(f.read_text())
        runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace:
            continue
        recs = list(by_seed.values())
        print(f"{workload}: {len(recs)} untraced runs, seeds {sorted(by_seed)}")
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            unit = recs[0]["metrics"][name]["unit"]
            print(f"  {name:12s} median {med:10.4f} {unit:6s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {(q3 - q1) / med:.4f}")
        shares = {r["failed"] / r["attempted"] for r in recs}
        print(f"  failed share {sorted(shares)}  ops/run {[r['attempted'] for r in recs]}")
        tails = [r["op_time"]["tail"] for r in recs if r["op_time"]["tail"]]
        if tails:
            print(f"  tail p{statistics.median(t['pct'] for t in tails):.1f} "
                  f"median {statistics.median(t['ms'] for t in tails):.2f} ms "
                  f"(n per run {[r['op_time']['n'] for r in recs]})")
        traced = runs.get((workload, 1), {})
        ratios = [
            (traced[s]["op_time"]["sum_s"] / traced[s]["op_time"]["n"])
            / (r["op_time"]["sum_s"] / r["op_time"]["n"])
            for s, r in by_seed.items() if s in traced
        ]
        if ratios:
            print(f"  traced/untraced mean op time {statistics.median(ratios):.3f} "
                  f"over {len(ratios)} seed(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
