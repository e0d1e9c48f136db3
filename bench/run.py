#!/usr/bin/env python3
"""weilchar benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload trace-dense --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The run imports the package, builds the workload's inputs from the
seed, then repeats whole rounds of ops until `--seconds` have passed, one op
at a time in this process.  Every op's output is checked outside its timed
interval.  With `--trace 0` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with `--trace 1` the calls into each layer are
traced and the line carries the per-layer metrics instead.  The full run
record goes to bench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json.
Exit code: 0 when every check passed, 1 when one failed, 2 on bad usage or
when the package cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
# set-up is timed in this process and in this many fresh ones; the median counts
SETUP_PROBES = 4


def setup(workload: str, seed: int):
    """Import weilchar and weilchar.cli from this checkout and build one round."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import weilchar
        import weilchar.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import weilchar from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if not Path(weilchar.__file__).resolve().is_relative_to(SRC):
        print(f"error: weilchar was imported from {weilchar.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    ops = workloads.build(workload, seed)
    return ops, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    env = {k: v for k, v in os.environ.items() if k != "WEILCHAR_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import weilchar

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "weilchar": weilchar.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def tail(times_ms: list[float]) -> dict | None:
    """The highest percentile with ten ops beyond it; none below forty ops."""
    n = len(times_ms)
    if n < 40:
        return None
    return {"pct": 100.0 * (n - 10) / n, "ms": sorted(times_ms)[n - 11]}


def run_ops(ops, seconds: float, tracer, pair_kernel):
    """Repeat whole rounds of ops until `seconds` have passed since the first."""
    from checks import CheckFailed

    done = []  # (label, seconds) of each op that was not refused
    labels = []
    op_time = 0.0
    failures: dict[str, int] = {}
    errors: list[str] = []
    counters: dict[str, float] = {}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            idx = len(labels)
            labels.append(op.label)
            if tracer is not None:
                tracer.op = idx
                before = pair_kernel.cache_info()
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = op.run()
                err = op.error(out)
            except (Exception, SystemExit) as exc:
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            op_time += dt
            if tracer is not None:
                tracer.on = False
                after = pair_kernel.cache_info()
                for key, a, b in (("hits", after.hits, before.hits),
                                  ("misses", after.misses, before.misses)):
                    counters[f"schrodinger.pair_kernel.{key}"] = (
                        counters.get(f"schrodinger.pair_kernel.{key}", 0) + a - b)
            if err is not None:
                key = f"{op.label}: {err}"
                failures[key] = failures.get(key, 0) + 1
                continue
            done.append((op.label, dt))
            try:
                for key, val in op.check(out).items():
                    counters[key] = counters.get(key, 0) + val
            except CheckFailed as exc:
                errors.append(f"{op.label}: {exc}")
        rounds += 1
    return done, labels, failures, errors, counters, rounds, op_time


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this process, print it and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    # verify runs at the library's own default parallelism
    os.environ.pop("WEILCHAR_THREADS", None)

    ops, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    setups = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import weilchar.schrodinger

    tracer = None
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    done, labels, failures, errors, counters, rounds, op_time = run_ops(
        ops, args.seconds, tracer, weilchar.schrodinger._pair_kernel)

    attempted = len(labels)
    times = [dt for _, dt in done]
    if not times:
        print(f"error: every op failed: {failures}", file=sys.stderr)
        return 1
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_label: dict[str, list[float]] = {}
    for label, dt in done:
        by_label.setdefault(label, []).append(dt * 1e3)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "failures": failures,
        "check_errors": errors[:20],
        "setup_samples_s": setups,
        "op_time": {"n": len(times), "sum_s": sum(times),
                    "p50_ms": e2e["op_p50_ms"], "tail": tail([t * 1e3 for t in times])},
        "by_label": {k: {"n": len(v), "p50_ms": statistics.median(v)}
                     for k, v in by_label.items()},
    }
    if tracer is None:
        metrics, declared = e2e, spec["end_to_end"]
    else:
        layer, self_s = tracer.layer_metrics(attempted)
        hits = counters.get("schrodinger.pair_kernel.hits", 0)
        misses = counters.get("schrodinger.pair_kernel.misses", 0)
        layer["schrodinger.pair_kernel.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layer["schrodinger.pair_kernel.misses"] = misses / attempted
        layer["verify.checks"] = counters.get("verify.checks", 0) / attempted
        layer["cli.output_bytes"] = counters.get("cli.output_bytes", 0) / attempted
        metrics, declared = layer, spec["per_layer"]
        spans = RESULTS / f"SPANS_{args.workload}_seed{args.seed}.npz"
        tracer.save(spans)
        record["traced_e2e"] = e2e
        record["trace_detail"] = {
            "layer_self_share_of_op_time": self_s / op_time,
            "spans": len(tracer.start),
            "spans_file": str(spans.relative_to(ROOT)),
            "functions": tracer.per_function(labels),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted - len(done),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record.update(result)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.SubprocessError as exc:
        print(f"error: set-up probe failed: {exc}\n{getattr(exc, 'stderr', '')}", file=sys.stderr)
        sys.exit(2)
