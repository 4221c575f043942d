#!/usr/bin/env python3
"""qdesigns benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload {decode,grow,km,join} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The full record (provenance, every check, the spans) goes to
.bench_out/ in the checkout.  README.md in this directory documents the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# cold set-ups per untraced run, each in its own interpreter: this process's
# and SETUP_RUNS - 1 more; setup_s is their median
SETUP_RUNS = 3

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("decode", "grow", "km", "join"))
    p.add_argument("--seed", type=int, required=True, help="input seed; 0 keeps the shipped basis")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; passes repeat while another fits, at least one runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up and exit (see setup_elsewhere)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
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
    return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "load": "one process, one thread, closed loop",
        "clocks": "perf_counter wall, process_time user+sys, getrusage peak RSS",
    }


def import_package():
    """Import qdesigns from the checkout's src/ and nowhere else."""
    if not (SRC / "qdesigns" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdesigns sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdesigns

    if Path(qdesigns.__file__).resolve().parent != SRC / "qdesigns":
        raise SystemExit(f"error: imported qdesigns from {qdesigns.__file__}, not {SRC}")


def timed_pass(wl, ctx, tr, checks, workdir: Path) -> tuple[float, float]:
    """One pass of the workload: (wall seconds, CPU seconds).  Errors count as failed checks."""
    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with tr.span("pass"):
            wl.run(ctx, tr, checks, str(workdir))
    except Exception:
        checks.expect("pass.raised", False, traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, cpu


def setup_elsewhere(args) -> float:
    """setup_s of one more cold set-up, in a fresh interpreter that does nothing else."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    # set-up is timed from here: package import, data checksums, group
    # closure, seeded inputs, and grow's base large set
    t0 = time.perf_counter()
    import_package()
    import layers
    import workloads
    from tracing import Checks, Tracer, peak_rss_mb

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    untraced = Tracer(run_id, enabled=False)
    checks = Checks()
    wl = workloads.WORKLOADS[args.workload]
    with tracer.span("setup"):
        ctx = wl.setup(args.seed, tracer, checks)
    setup_times = [time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0 if checks.failed == 0 else 1

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    passes = []
    if args.trace:
        # traced pass first, so span RSS rises are measured from the set-up
        # peak like the untraced runs' peak_rss_mb; then an untraced pass for
        # trace.overhead_s
        passes.append(timed_pass(wl, ctx, tracer, checks, workdir))
        passes.append(timed_pass(wl, ctx, untraced, checks, workdir))
    else:
        start = time.perf_counter()
        while True:
            passes.append(timed_pass(wl, ctx, untraced, checks, workdir))
            if time.perf_counter() - start + passes[-1][0] > args.seconds:
                break

    if args.trace:
        metrics = layers.per_layer(tracer.spans, ctx.batch)
        metrics["trace.overhead_s"] = passes[0][0] - passes[1][0]
        units = layers.UNITS
    else:
        # the other cold set-ups run after the passes, so they cannot disturb them
        setup_times += [setup_elsewhere(args) for _ in range(SETUP_RUNS - 1)]
        metrics = {
            "run_s": statistics.median(w for w, _ in passes),
            "cpu_s": statistics.median(c for _, c in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "pass_ratio": (checks.attempted - checks.failed) / checks.attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    prov = provenance(args)
    record = {
        "provenance": prov,
        "result": result,
        "passes": [{"wall_s": w, "cpu_s": c} for w, c in passes],
        "setup_s": setup_times,
        "failures": checks.failures,
        "spans": tracer.spans,
    }
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
