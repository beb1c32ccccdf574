"""Closed-loop benchmark of the ueds solver, one workload per invocation.

    python3 perfbench/run.py --workload gamma-auto --seed 1 --seconds 40 --trace 0

One process and one thread issue the workload's operations one after
another, each a public entry point (``pipeline.gamma_prime``,
``pipeline.solve``, ``kernel.kernelize``) on the text of a graph handed to
``graph.parse_graph``.  Every answer is checked against
``expected/<workload>.json``; a wrong answer fails the run.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 replays the first ``traced_ops`` operations of the same list call
by call (see tracing.py), reports the per-layer metrics and writes the spans
to ``out/``.  Each traced operation also runs untraced, and the two must
agree (the drift guard); their time difference is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The process runs under a fixed address-space
limit, so a memory blow-up surfaces as failed operations (MemoryError)
rather than as a killed machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes; gamma-auto peaks near 420 MB of address space
SETUP_SAMPLES = 10

# Runs in a fresh interpreter: the time from the first import of ueds until
# the first operation can be issued.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ueds import gamma_prime, kernelize, parse_graph, solve
parse_graph("p gr 2 1\\n1 2\\n")
print(time.perf_counter() - t0)
"""


def setup_time() -> float:
    """Set-up time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(round(q * len(sorted_values), 9))
    return sorted_values[max(rank, 1) - 1]


def machine() -> dict[str, str | int | None]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def warm_up(run_op, op) -> None:
    """One untimed operation; the measured loop attempts and checks it again."""
    try:
        run_op(op)
    except Exception:
        pass


def timed_run(workload, ops, seconds: float, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Issue operations for ``seconds``.  The run is cut into equal segments,
    and after each one a fresh interpreter measures the set-up time, so the
    set-up samples spread over the run as the operations do."""
    from workloads import OPERATIONS, WrongAnswer, check

    run_op = OPERATIONS[workload.name]
    setup_time()  # untimed: fills the bytecode cache
    warm_up(run_op, ops[0])
    latencies: list[float] = []
    setups: list[float] = []
    busy = 0.0
    attempted = failed = 0
    wrong: str | None = None
    start = time.perf_counter()
    for segment in range(1, setup_samples + 1):
        while not attempted or time.perf_counter() < start + seconds * segment / setup_samples:
            op = ops[attempted % len(ops)]
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = run_op(op)
            except Exception as exc:  # a refusal or MemoryError counts as failed
                busy += time.perf_counter() - t0
                failed += 1
                report_failure(op, exc, failed)
                continue
            latencies.append(time.perf_counter() - t0)
            busy += latencies[-1]
            try:
                check(workload.name, op, result)
            except WrongAnswer as exc:
                wrong = str(exc)
                break
        if wrong:
            break
        setups.append(setup_time())
    if wrong:
        print(f"wrong answer: {wrong}", file=sys.stderr)
    print(f"samples: {len(latencies)} operations timed, {failed} failed")
    # A failed operation ranks behind every completed one, as slow as the run.
    ranked = sorted(latencies) + [time.perf_counter() - start] * failed
    ms = 1000.0
    metrics = {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (percentile(ranked, 0.5) * ms, "ms"),
        "latency_p90_ms": (percentile(ranked, 0.9) * ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "setup_s": (statistics.median(setups) if setups else setup_time(), "s"),
    }
    return {
        "correct": wrong is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report_failure(op, exc: Exception, failed: int) -> None:
    if failed <= 5:
        print(f"op {op.op_id} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def traced_run(workload, ops, seed: int) -> dict:
    from tracing import REPLAYS, Tracer
    from workloads import OPERATIONS, WrongAnswer, check, summary

    run_op, replay = OPERATIONS[workload.name], REPLAYS[workload.name]
    warm_up(run_op, ops[0])
    tracer = Tracer()
    overhead: list[float] = []
    attempted = failed = 0
    wrong: str | None = None
    for j in range(workload.traced_ops):
        op = ops[j % len(ops)]
        attempted += 1

        def untraced():
            t0 = time.perf_counter()
            return run_op(op), time.perf_counter() - t0

        def traced():
            t0 = time.perf_counter()
            return tracer.op(j, lambda: replay(tracer, op)), time.perf_counter() - t0

        try:  # alternate the order so neither side always runs warm
            if j % 2:
                (got, t_traced), (ref, t_plain) = traced(), untraced()
            else:
                (ref, t_plain), (got, t_traced) = untraced(), traced()
        except Exception as exc:
            failed += 1
            report_failure(op, exc, failed)
            continue
        overhead.append(t_traced - t_plain)
        try:
            if summary(workload.name, got) != summary(workload.name, ref):
                raise WrongAnswer(
                    f"op {op.op_id}: traced replay drifted from the pipeline: "
                    f"{summary(workload.name, got)} != {summary(workload.name, ref)}"
                )
            check(workload.name, op, ref)
            check(workload.name, op, got)
        except WrongAnswer as exc:
            wrong = str(exc)
            break
    if wrong:
        print(f"wrong answer: {wrong}", file=sys.stderr)
    spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {spans}")
    mean_overhead_ms = 1000 * sum(overhead) / len(overhead) if overhead else 0.0
    return {
        "correct": wrong is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": tracer.metrics(max(attempted - failed, 1), mean_overhead_ms),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ueds" / "__init__.py").is_file():
        print(f"no ueds sources under {SRC}", file=sys.stderr)
        return 2
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, build_ops

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ops = build_ops(workload, args.seed)
    print(f"workload: {workload.name} ({workload.why})")
    print(f"machine: {json.dumps(machine())}")
    if args.trace:
        result = traced_run(workload, ops, args.seed)
    else:
        result = timed_run(workload, ops, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
