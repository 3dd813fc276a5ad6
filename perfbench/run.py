"""cavity-qft benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qft-pure --seed 1 --seconds 20 --trace 0

A run is a sequence of worker processes (perfbench/worker.py), one at a
time.  Each worker is one single-threaded closed-loop client, with BLAS
and OpenMP pinned to one thread, and starts with cold package caches, as
a separate CLI run would.

--trace 0 reports the end-to-end metrics.  The first pass runs whole
rounds of seeded requests for about half of --seconds; a second pass, in
a fresh process, repeats exactly the same requests.  Between requests,
each worker also times a fixed reference task (worker.calibrate).  A
pass's slowdown is its median reference time over REFERENCE_S, and its
request times are divided by it, so that latencies are seconds at the
reference speed of the machine: other tenants of a shared machine slow
it by 10-60% for seconds to minutes at a time.  A request's latency is
the lower of its two rescaled timings.  The undivided wall-clock figures
are in the environment line.  setup_s is the median of the set-ups of
the two passes and of SETUP_RUNS set-up-only workers, each divided by
its worker's slowdown, measured with the same reference task right
after set-up.

--trace 1 reports the per-layer metrics from one traced pass of the
workload's fixed round count, plus trace.overhead_ratio: the traced
pass's rescaled request time over that of an untraced pass of the same
requests.

The second-to-last line of standard output records the run environment;
the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from worker import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PASSES = 2
SETUP_RUNS = 2  # set-up-only workers per --trace 0 run
# Seconds of worker.calibrate()'s reference task on the machine that
# defined the benchmark, when it was not slowed by other tenants.
REFERENCE_S = 0.004
RUN_LIMIT_S = 170.0  # a worker still running then is stopped and the run fails
PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class WorkerFailed(RuntimeError):
    pass


def git_sha(root: str) -> str:
    """HEAD of the checkout's own .git; 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile of a non-empty sample.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights; it varies less from run to run than a single order statistic.
    """
    from scipy.special import betainc

    n = len(values)
    p = pct / 100.0
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), np.sort(values)))


def slowdown(reference_s: list[float]) -> float:
    """Median reference-task time over that of the unslowed machine."""
    return statistics.median(reference_s) / REFERENCE_S


def spawn(args, *how: str, trace: int = 0, golden: int = 0) -> dict:
    """Run one worker to completion and return its JSON report."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--golden", str(golden), *how,
    ]
    cmd += ["--t0", repr(time.perf_counter())]
    timeout = args.deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(how)} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(how)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def repeat(args, first: dict, **kw) -> dict:
    """A pass over exactly the requests of `first`."""
    report = spawn(args, "--rounds", str(first["rounds"]), **kw)
    if report["kinds"] != first["kinds"]:
        raise WorkerFailed("a repeated pass ran other requests than the first")
    return report


def write_log(path: str, passes: list[dict], best: list[float]) -> None:
    """Per request: each pass's time and the reference-task time after it."""
    with open(path, "w") as fh:
        heads = ",".join(f"pass{i + 1}_s,pass{i + 1}_reference_s" for i in range(len(passes)))
        fh.write(f"request,kind,{heads},best_ref_s\n")
        for i, kind in enumerate(passes[0]["kinds"]):
            times = ",".join(f"{p['latencies'][i]!r},{p['reference_s'][i + 1]!r}" for p in passes)
            fh.write(f"{i},{kind},{times},{best[i]!r}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # Exit through SystemExit on SIGTERM, so that subprocess.run stops the
    # running worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavityqft", "__init__.py")):
        print("error: run from the root of a cavity-qft checkout (src/cavityqft not found)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        if args.trace:
            traced = spawn(args, "--rounds", "0", trace=1, golden=1)
            passes = [traced, repeat(args, traced)]
            setups = passes
        else:
            passes = [spawn(args, "--seconds", repr(args.seconds / PASSES), golden=1)]
            setups = [spawn(args, "--setup-only") for _ in range(SETUP_RUNS)]
            for _ in range(PASSES - 1):
                passes.append(repeat(args, passes[0]))
            setups += passes
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = passes[0]
    raw_best = [min(times) for times in zip(*(p["latencies"] for p in passes))]
    speeds = [slowdown(p["reference_s"]) for p in passes]
    setup_speeds = [slowdown(w["setup_reference_s"]) for w in setups]
    best = [
        min(t / speed for t, speed in zip(times, speeds))
        for times in zip(*(p["latencies"] for p in passes))
    ]
    if args.trace:
        metrics = first["layers"]
        metrics["trace.overhead_ratio"] = {
            "value": (sum(first["latencies"]) / speeds[0])
            / (sum(passes[1]["latencies"]) / speeds[1]),
            "unit": "ratio",
        }
    else:
        tail = percentile(best, first["tail_pct"])
        metrics = {
            "latency_p50_s": {"value": percentile(best, 50.0), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "throughput_rps": {"value": len(best) / sum(best), "unit": "req/s"},
            "setup_s": {
                "value": statistics.median(
                    w["setup_s"] / speed for w, speed in zip(setups, setup_speeds)
                ),
                "unit": "s",
            },
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    log = os.path.join(OUT_DIR, f"requests-{args.workload}-seed{args.seed}-trace{args.trace}.csv")
    write_log(log, passes, best)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "versions": first["versions"],
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
        "clients": 1,
        "passes": len(passes),
        "requests": len(best),
        "rounds": first["rounds"],
        "by_kind": dict(collections.Counter(first["kinds"])),
        "timed_s": [sum(p["latencies"]) for p in passes],
        "slowdown": speeds,
        "error_rate": failed / attempted,
        "errors": [e for p in passes for e in p["errors"]][:20],
        "setup_s_samples": [w["setup_s"] for w in setups],
        "setup_slowdown": setup_speeds,
        "requests_file": log,
    }
    if args.trace:
        info["absent"] = first["absent"]
        info["spans_file"] = first["spans_file"]
    else:
        info["tail_percentile"] = first["tail_pct"]
        info["tail_samples_beyond"] = sum(1 for x in best if x > tail)
        info["wall_clock"] = {
            "latency_p50_s": percentile(raw_best, 50.0),
            "latency_tail_s": percentile(raw_best, first["tail_pct"]),
            "throughput_rps": len(raw_best) / sum(raw_best),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
