#!/usr/bin/env python3
"""perfbench: the picirc benchmark.

One workload, one process:

    python3 perfbench/run.py --workload pic-train --seed 0 --seconds 25 --trace 0

prints a report line (environment, the workload's named metrics, checks)
and, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, taken by wrapping
picirc's entry points from outside (see tracing.py).

All workloads, each in its own process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 0 --seconds 25

prints every named end-to-end metric, the per-layer table, the tracing
overhead and the span coverage per workload.  The exit code is nonzero
when any check fails or any run fails.
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
import tempfile
from pathlib import Path

# numpy, picirc and the benchmark's own modules are imported inside the
# functions below, after pin_threads has set the BLAS thread variables that
# OpenBLAS reads once, when numpy is first imported.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("pic-train", "qpc-query", "hclt-em", "gauss-sanity")

# One process per workload and one BLAS thread: BLAS threads x workers <= nproc.
WORKERS = 1
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_ms.p50": "ms",
    "rows_per_s": "rows/s",
}

# Each workload's primary step, and the rows that rows_per_s counts.
STEP_OF = {
    "pic-train": "train_pic_step at N=64, batch 64 (train.step_ms)",
    "qpc-query": "one serving round: build, fused 8192 rows, explicit 1024 rows, 256 samples",
    "hclt-em": "em_step on 256 rows (em.step_ms)",
    "gauss-sanity": "one model: 4 cells of N x rule (1000 rows each)",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    if BLAS_THREADS * WORKERS > nproc():
        raise SystemExit(f"perfbench: {BLAS_THREADS} BLAS threads x {WORKERS} workers exceed nproc={nproc()}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(s, peak_rss_mb: float) -> dict:
    from workloads import percentile

    return {
        "setup_s": metric(statistics.median(s.setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "step_ms.p50": metric(percentile(s.step_ms, 50), "ms"),
        "rows_per_s": metric(s.rows / (s.t1 - s.t0), "rows/s"),
    }


def per_layer_metrics(s) -> dict:
    """Self ms per round (per set-up for set-up spans), per-round counts, coverage.

    ``trace.overhead_pct`` estimates the tracing cost in-process: spans and
    counted records per round times their calibrated per-call cost, over
    the wall time per round.
    """
    import tracing
    from workloads import percentile

    totals, covered = s.tracer.self_times(s.t0, s.t1)
    setup_totals, _ = s.tracer.self_times(float("-inf"), s.t0)
    out = {}
    for name in tracing.ALL_SPANS:
        if name in tracing.SETUP_SPANS:
            out[f"{name}_ms"] = metric(1e3 * setup_totals[name] / len(s.setup_s), "ms")
        else:
            out[f"{name}_ms"] = metric(1e3 * totals[name] / s.rounds, "ms")
    units = {"autodiff.tape_bytes": "bytes", "circuit.json_bytes": "bytes", "runtime.contraction_flops": "flop"}
    counts = s.tracer.round_counts()
    for name, value in counts.items():
        out[name] = metric(value, units.get(name, "count"))
    overhead = counts["trace.spans"] * s.tracer.span_cost + counts["autodiff.tape_records"] * s.tracer.record_cost
    out["trace.overhead_pct"] = metric(100.0 * overhead * s.rounds / (s.t1 - s.t0), "%")
    out["trace.coverage"] = metric(covered / (s.t1 - s.t0), "ratio")
    out["trace.step_ms.p50"] = metric(percentile(s.step_ms, 50), "ms")
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    pin_threads()
    if not (SRC / "picirc" / "__init__.py").is_file():
        print(f"perfbench: no picirc sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import picirc
    import tracing
    import workloads

    if Path(picirc.__file__).resolve().parent != (SRC / "picirc").resolve():
        print(f"perfbench: imported picirc from {picirc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR, prefix=f"{workload}-") as tmp:
        s = workloads.Session(seed=seed, seconds=seconds, tracer=tracer, workdir=Path(tmp))
        workloads.WORKLOADS[workload](s)
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = s.failed == 0 and all(c["ok"] for c in s.checks)
    if s.rounds == 0:
        metrics = {}
        correct = False
    elif trace:
        metrics = per_layer_metrics(s)
        tracer.dump(RUNS_DIR / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(s, peak_rss_mb)
    named = {k: metric(v, u) for k, (v, u) in s.named.items()}
    if not trace:
        named["setup_s"] = metric(statistics.median(s.setup_s), "s")
        named["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    named["failed_ratio"] = metric(s.failed / max(s.attempted, 1), "ratio")
    report = {
        "workload": workload,
        "trace": int(trace),
        "step": STEP_OF[workload],
        "rounds": s.rounds,
        "timed_s": s.t1 - s.t0,
        "setup_runs_s": s.setup_s,
        "named": named,
        "timings": s.notes,
        "checks": s.checks,
        "environment": environment(seed),
    }
    for c in s.checks:
        print(f"perfbench: check {'ok' if c['ok'] else 'FAILED'}: {c['name']}: {c['detail']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": s.attempted, "failed": s.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict | None, int]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + 600)
    report = result = None
    for line in proc.stdout.splitlines():
        if line.startswith('{"report"'):
            report = json.loads(line)["report"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    return report, result, proc.returncode


def fmt(v) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_all(seed: int, seconds: float) -> int:
    status = 0
    summary = {}
    for workload in WORKLOAD_NAMES:
        plain, plain_result, code0 = run_child(workload, seed, seconds, 0)
        traced, traced_result, code1 = run_child(workload, seed, seconds, 1)
        if code0 or code1 or plain is None or traced is None:
            status = 1
        print(f"\n== {workload} (seed {seed}, {seconds:g} s): step = {STEP_OF[workload]}")
        if plain is None or traced is None:
            print("   run failed; see stderr")
            continue
        for name, m in plain["named"].items():
            print(f"   {name:<28} {fmt(m['value']):>14} {m['unit']}")
        for c in plain["checks"]:
            print(f"   check {'ok    ' if c['ok'] else 'FAILED'} {c['name']}")
        layers = traced_result["metrics"]
        untraced_ms = plain_result["metrics"]["step_ms.p50"]["value"]
        overhead = layers["trace.step_ms.p50"]["value"] / untraced_ms - 1.0
        print(f"   tracing overhead on step_ms.p50: {100 * overhead:+.1f}%  "
              f"(untraced {untraced_ms:.4g} ms, traced {layers['trace.step_ms.p50']['value']:.4g} ms); "
              f"calibrated estimate {layers['trace.overhead_pct']['value']:.2f}%")
        print(f"   span coverage of the timed region: {100 * layers['trace.coverage']['value']:.1f}%")
        for name, m in layers.items():
            if m["value"]:
                print(f"   {name:<34} {fmt(m['value']):>14} {m['unit']}")
        summary[workload] = {
            "end_to_end": plain_result["metrics"],
            "named": plain["named"],
            "per_layer": layers,
            "tracing_overhead": overhead,
            "coverage": layers["trace.coverage"]["value"],
            "environment": plain["environment"],
        }
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
