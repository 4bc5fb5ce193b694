#!/usr/bin/env python3
"""Benchmark of planesing's three workflows, run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Workloads: classify, trace, first-shock (see bench/README.md).  A run
does a fixed number of rounds, set from --seconds before timing starts,
checks every answer, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are end to end; with --trace 1 they are per layer, from a
separate traced run.

Each run is its own single-threaded child process, started with the
BLAS/OpenMP thread variables at 1.  Set-up time is the median over
several such processes, each timed from its start to where the first
timed operation would begin.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("classify", "trace", "first-shock")
#: set-up-only processes started before the measured one
SETUP_SAMPLES = 4
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child can measure
    # from the instant its parent started it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def latency_summary(durations: list[float]) -> str:
    """Median operation time, and the highest of p75/p90/p99/p99.9 with
    at least ten samples beyond it (none below forty samples)."""
    n = len(durations)
    out = f"op_p50_ms={statistics.median(durations) * 1e3:.4f}"
    for p, q in ((75, 4), (90, 10), (99, 100), (99.9, 1000)):
        if n >= 10 * q:
            tail = f"op_p{p:g}_ms={statistics.quantiles(durations, n=q)[-1] * 1e3:.4f}"
    if n >= 40:
        out += f", {tail}"
    return f"{out} over {n} samples (for reference, no bound)"


# ------------------------------------------------------------------ child


def child(mode: str, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    t_start = float(os.environ["BENCH_T0"])
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    workdir = WORKDIR / workload
    ops, warm = workloads.build(workload, seed, workloads.rounds_for(workload, seconds), workdir)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    warm.run(workdir / "warmup")
    setup_s = _clock() - t_start
    if mode == "setup":
        return {"setup_s": setup_s}

    outdirs = [workdir / "ops" / str(i) for i in range(len(ops))]
    durations = []
    if tracer:
        tracer.enabled = True
    start = time.perf_counter()
    for op, outdir in zip(ops, outdirs):
        t = time.perf_counter()
        op.run(outdir)
        durations.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    if tracer:
        tracer.enabled = False

    failed = 0
    unexpected = []
    for i, (op, outdir) in enumerate(zip(ops, outdirs)):
        problems = op.check(outdir)
        if problems:
            failed += 1
            if op.known_fault is None:
                unexpected.append(f"operation {i}: {'; '.join(problems)}")
    # the package promises byte-identical files for identical inputs
    if outdirs[0].exists():
        ops[0].run(workdir / "rerun")
        unexpected += workloads.oracles.same_files(outdirs[0], workdir / "rerun")
    for line in unexpected[:10]:
        print(f"bench: {workload}: {line}", file=sys.stderr)

    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": failed,
        "setup_s": setup_s,
        "wall_s": wall,
        "durations": durations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write_spans(workdir / "spans.json")
    return result


# ----------------------------------------------------------------- parent


def spawn(mode: str, args) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env["BENCH_T0"] = repr(_clock())
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S if mode == "setup" else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {args.workload} {mode} process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {args.workload} {mode} process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed, args.seconds, args.trace == 1)))
        return 0

    if not (SRC / "planesing" / "__init__.py").is_file():
        print(f"bench: no planesing sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    if args.trace:
        res = spawn("run", args)
        metrics = res["layers"]
        print(f"bench: {args.workload}: traced timed phase {res['wall_s']:.3f} s, "
              f"spans in {workdir / 'spans.json'}")
    else:
        setups = [spawn("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES)]
        res = spawn("run", args)
        setups.append(res["setup_s"])
        durations = res["durations"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(durations) / res["wall_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"bench: {args.workload}: {latency_summary(durations)}; "
              f"timed phase {res['wall_s']:.3f} s; set-up samples "
              + ", ".join(f"{s:.3f}" for s in setups))
    print(f"bench: {args.workload}: attempted {res['attempted']}, failed {res['failed']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
