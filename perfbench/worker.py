"""One benchmark pass: one closed-loop client on one workload.

Started by run.py from the root of a checkout.  It imports the package
from ./src, generates the seeded requests, runs one warm-up request, then
sends requests one after another, each only after the previous one has
completed.  Right after set-up, and between requests outside the timed
spans, it times the reference task of calibrate(); between requests it
also checks the outputs.  The last line of standard output is one JSON
object.  Scratch files go under OUT_DIR.

  --setup-only       stop after set-up and report setup_s only
  --seconds S        run whole rounds, at least the workload's min_rounds,
                     until the timed requests add up to about S
  --rounds R         run exactly R rounds, as an earlier pass did (0: the
                     workload's min_rounds)
  --trace 1          wrap the package's public functions and report the
                     per-layer metrics of this pass
  --golden 1         after the timed phase, check the golden CLI digests
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

OUT_DIR = ".bench_out"  # relative to the checkout root
SETUP_REFERENCE_RUNS = 25  # reference-task runs that gauge a set-up's speed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--golden", type=int, choices=(0, 1), default=0)
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--setup-only", action="store_true")
    how.add_argument("--seconds", type=float)
    how.add_argument("--rounds", type=int)
    p.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    return p.parse_args(argv)


def execute(kind, req, ctx, tracer=None, request_id=-1):
    """Prepare, run (timed) and check one request: (seconds, error or None)."""
    if kind.prepare is not None:
        kind.prepare(req, ctx)
    if os.path.exists(ctx.out):
        os.remove(ctx.out)
    if tracer is not None:
        tracer.request = request_id
        tracer.enabled = True
        root = tracer.begin("request")
    start = time.perf_counter()
    try:
        result = kind.run(req, ctx)
        error = None
    except Exception as exc:  # a failed request is counted; the client goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end(root)
        tracer.enabled = False
    if error is None:
        try:
            error = kind.check(req, result, ctx)
        except Exception as exc:  # a malformed output is a failed request
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, error


# The reference task of calibrate(): an interpreter loop and passes over
# two 512 KiB arrays, the two kinds of work the package's requests do.
# The arrays fit in L2 together and are touched before the clock starts,
# so the time does not depend on what the previous request left in cache.
_REF_IN = np.ones(1 << 15, dtype=complex)
_REF_OUT = np.empty_like(_REF_IN)


def calibrate() -> float:
    """Seconds the reference task takes now; it measures the machine's
    current speed, independently of the package."""
    np.multiply(_REF_IN, 1.0, out=_REF_OUT)
    start = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i
    for _ in range(40):
        np.multiply(_REF_IN, 1.0, out=_REF_OUT)
        np.add(_REF_IN, _REF_OUT, out=_REF_OUT)
    return time.perf_counter() - start


def closed_loop(kinds, stream, ctx, min_rounds, seconds=None, tracer=None) -> dict:
    """Send requests one after another, in whole rounds.

    Without `seconds`, run exactly `min_rounds` rounds.  With it, run at
    least `min_rounds` and stop at the round boundary nearest to `seconds`
    of timed requests.
    """
    latencies: list[float] = []
    kinds_run: list[str] = []
    errors: list[str] = []
    loop = {"latencies": latencies, "kinds": kinds_run, "errors": errors,
            "rounds": 0, "output_bytes": 0, "reference_s": [calibrate()]}
    for batch in stream:
        for req in batch:
            elapsed, error = execute(kinds[req["kind"]], req, ctx, tracer, len(latencies))
            latencies.append(elapsed)
            loop["reference_s"].append(calibrate())
            kinds_run.append(req["kind"])
            if error is not None:
                errors.append(f"{req['kind']}: {error}")
            if tracer is not None and os.path.exists(ctx.out):
                loop["output_bytes"] += os.path.getsize(ctx.out)
        loop["rounds"] += 1
        if loop["rounds"] < min_rounds:
            continue
        timed = sum(latencies)
        if seconds is None or timed + 0.5 * timed / loop["rounds"] >= seconds:
            return loop
    return loop


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    import scipy

    import cavityqft

    if not os.path.abspath(cavityqft.__file__).startswith(src + os.sep):
        print(f"error: cavityqft imported from {cavityqft.__file__}, not {src}", file=sys.stderr)
        return 2

    import golden
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    tmpdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        ctx = workloads.Context(tmpdir)
        warmup = workload.warmup
        _, error = execute(workloads.KINDS[warmup["kind"]], warmup, ctx)
        if error is not None:
            print(f"error: warm-up request failed: {error}", file=sys.stderr)
            return 1
        stream = workloads.rounds(args.workload, args.seed)
        first = next(stream)
        setup_s = time.perf_counter() - args.t0
        setup_reference_s = [calibrate() for _ in range(SETUP_REFERENCE_RUNS)]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_reference_s": setup_reference_s}))
            return 0

        def rounds():
            yield first
            yield from stream

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            loop = closed_loop(
                workloads.KINDS, rounds(), ctx,
                args.rounds or workload.min_rounds, args.seconds, tracer,
            )
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = len(loop["latencies"])
        errors = loop["errors"]
        if args.golden:
            attempted += len(golden.COMMANDS)
            errors += [f"golden digest mismatch: {name}" for name in golden.mismatches(ctx.out)]

        report = {
            "setup_s": setup_s,
            "setup_reference_s": setup_reference_s,
            "rounds": loop["rounds"],
            "latencies": loop["latencies"],
            "kinds": loop["kinds"],
            "reference_s": loop["reference_s"],
            "attempted": attempted,
            "failed": len(errors),
            "errors": errors[:20],
            "peak_rss_mb": peak_rss_mb,
            "tail_pct": workload.tail_pct,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer, loop["output_bytes"])
            report["absent"] = sorted(tracer.absent)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            tracer.write(spans_path)
            report["spans_file"] = os.path.relpath(spans_path, root)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
