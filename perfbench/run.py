"""The permutokit benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload {laws,windows,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; the library is imported from ./src. Each
pass of a workload runs in a fresh interpreter (worker.py), which imports
the library, fills its caches (set-up), then runs every operation of the
workload once, timing each call and checking each output against
expected.json outside the timed region.

--trace 0: at least MIN_PASSES passes, more until S seconds of operations
are measured, then set-up-only processes until MIN_SETUPS set-up times are
known. The end-to-end metrics:

  wall_s        time to run every operation of the workload once: the sum
                over operations of each one's median time over the passes
  setup_s       median time from interpreter start through import and cache
                warm-up
  peak_rss_mib  median over passes of the peak resident memory
  req_p50_ms    median over operations of their median latency (on cli:
                one request)
  req_p99_ms    99th percentile of the same; on laws, with 25 operations,
                this is the slowest one

--trace 1: one untraced pass, then one traced pass (see tracer.py), which
gives per-layer self time and calls, the kernel, point, law and JSON
counters, and the tracing overhead (traced minus untraced wall time). The
spans go to perfbench/out/spans-<workload>.npz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give the run facts and each
metric with its unit and sample count. Exit 2, with nothing printed, when the
library or the expected values are missing.

Workloads (closed loop, one client, one process):
  laws     the law harness: exhaustive o-bullet n=3, sampled checks of all
           four instances on n=4 and of o-bullet on n=5, check_indexing
           n<=4. Never enters _kernels. Not listed in BENCHMARK.json: a run
           needs about 45 s for two passes, and its quartile spread over
           ten seeds on a shared 2-core host reached its 0.25 bound.
  windows  cone windows of the total preposet of every composition of 5,
           plate windows of the same against the permutohedron and seeded
           submodular z, global sections on n=6, products of small bases.
  cli      1000 small requests (n<=4) through cli.main with in-memory
           stdin and stdout, covering all nine command groups, one in
           twelve malformed (must exit 2 with a one-line message).
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import BENCH, LAYERS  # noqa: E402

MIN_PASSES = 2
MIN_SETUPS = 3
MAX_PASSES = 20
WORKER_TIMEOUT_S = 170
DEADLINE_S = 120

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
}
COUNTER_UNITS = {
    "_kernels.enumerate_s": "s",
    "_kernels.filter_s": "s",
    "_kernels.rows_enumerated": "count",
    "_kernels.rows_kept": "count",
    "_kernels.filter_macs": "count",
    "_kernels.cand_bytes": "B",
    "cones.points_out": "count",
    "plates.points_out": "count",
    "sections.points_out": "count",
    "sections.basis_s": "s",
    "axioms.cases_checked": "count",
    "opens.identities_checked": "count",
    "jsonio.bytes_in": "B",
    "jsonio.bytes_out": "B",
    "python.gc_s": "s",
    "python.gc_collections": "count",
}


class BenchError(Exception):
    pass


def spawn(workload, seed, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload, seed, seconds):
    """At least MIN_PASSES fresh-process passes, more until `seconds` of
    operations are measured; then set-up-only processes until MIN_SETUPS
    set-up times are known."""
    started = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or (
            sum(r["wall_s"] for r in passes) < seconds
            and time.perf_counter() - started < DEADLINE_S and len(passes) < MAX_PASSES):
        passes.append(spawn(workload, seed))
    setups = [r["setup_s"] for r in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "--setup-only")["setup_s"])
    per_op = [statistics.median(xs) for xs in zip(*(r["latencies_ms"] for r in passes))]
    cuts = statistics.quantiles(per_op, n=100, method="inclusive")
    metrics = {
        "wall_s": (sum(per_op) / 1e3, len(passes)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in passes), len(passes)),
        "req_p50_ms": (cuts[49], len(per_op)),
        "req_p99_ms": (cuts[98], len(per_op)),
    }
    return passes, {k: (v, E2E_UNITS[k], n) for k, (v, n) in metrics.items()}


def traced(workload, seed):
    plain = spawn(workload, seed)
    spans = os.path.join("perfbench", "out", f"spans-{workload}.npz")
    r = spawn(workload, seed, "--trace", "1", "--spans", spans)
    stats, counters = r["layer_stats"], r["counters"]
    metrics = {}
    for layer in LAYERS + (BENCH,):
        metrics[f"{layer}.self_s"] = (stats[f"{layer}.self_s"], "s", 1)
        metrics[f"{layer}.calls"] = (stats[f"{layer}.calls"], "count", 1)
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (counters.get(name, 0), unit, 1)
    enumerated = counters.get("_kernels.rows_enumerated", 0)
    kept = counters.get("_kernels.rows_kept", 0)
    metrics["_kernels.keep_ratio"] = (kept / enumerated if enumerated else 0.0, "ratio", 1)
    self_sum = sum(stats[f"{layer}.self_s"] for layer in LAYERS + (BENCH,))
    metrics["trace.wall_s"] = (r["wall_s"], "s", 1)
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s", 1)
    metrics["trace.overhead_s"] = (r["wall_s"] - plain["wall_s"], "s", 1)
    metrics["trace.self_sum_s"] = (self_sum, "s", 1)
    metrics["trace.spans"] = (stats["spans"], "count", 1)
    return [plain, r], metrics


def facts(workload, seed, passes):
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": passes[0]["use_numba"],
        "input_digest": passes[0]["input_digest"],
        "operations_per_pass": {w: len(wl.specs(w, seed)) for w in wl.WORKLOADS},
        "passes": len(passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="permutokit benchmark")
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "permutokit", "__init__.py")):
        print("error: run from the repository root; src/permutokit not found", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(HERE, "expected.json")):
        print("error: perfbench/expected.json not found", file=sys.stderr)
        return 2
    try:
        if args.trace:
            passes, metrics = traced(args.workload, args.seed)
        else:
            passes, metrics = untraced(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    print("facts: " + json.dumps(facts(args.workload, args.seed, passes), sort_keys=True))
    for r in passes:
        for line in r["failures"]:
            print(f"FAILED {line}")
    print(f"failed_frac: {failed / attempted!r} ({failed} of {attempted} operations)")
    for name, (value, unit, n) in metrics.items():
        print(f"{name}: {value!r} {unit} (samples: {n})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
