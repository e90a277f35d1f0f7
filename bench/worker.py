"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line.  With --setup-only it stops after set-up, so run.py can
time set-up in several fresh processes.

Set-up (``setup_s``) covers importing bryantlab, generating the seeded
inputs, writing them to a temporary directory and a warm-up job per
subcommand.  The client then runs the workload's job mix in whole rounds,
one job at a time, until the next round would end past --seconds.  With
--trace 1 rounds alternate untraced and traced, so the per-layer numbers
and the tracing overhead come from the same process.

Timings are reported at reference speed.  On a shared machine the speed
of one core drifts by tens of percent over minutes, which no amount of
averaging inside a run removes.  A fixed stdlib-only kernel is timed
before and after every job (and after set-up); each time is rescaled by
REFERENCE_S over the kernel's mean time around it, so a slower core
lengthens the job and the kernel alike and the scaled time stays put.
The kernel never calls bryantlab, so a change to the package moves the
scaled times exactly as it moves the raw ones.  Raw times are reported
beside the scaled ones.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import bryantlab  # noqa: E402
from bryantlab.defaults import DEFAULTS, thread_cap  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The kernel's median time between jobs on the 2-vCPU x86-64 VM the
# benchmark was defined on (Python 3.11); it only fixes the scale.
REFERENCE_S = 1.0e-3
_A, _B = Fraction(355, 113), Fraction(-22, 7)


def kernel_time() -> float:
    """Seconds for a fixed mix of Fraction and complex arithmetic."""
    start = time.perf_counter()
    for _ in range(60):
        x = _A * _B + _A - _B
        x = x * x / (_A + 1)
    z = 0.3 + 0.4j
    for _ in range(300):
        z = z * (0.6 + 0.8j) + 0.01
    return time.perf_counter() - start


def rate(latencies):
    """Jobs per second of the summed job time."""
    return len(latencies) / sum(latencies)


def nearest_rank(sorted_values, p):
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(sorted_values):
    """(percentile, value): the highest ladder percentile that still has
    at least MIN_BEYOND samples above it; p50 when the run is that short."""
    n = len(sorted_values)
    best = 50
    for p in PERCENTILES:
        if n - math.ceil(p / 100 * n) >= MIN_BEYOND:
            best = p
    return best, nearest_rank(sorted_values, best)


class Tally:
    """Latencies and oracle outcomes of a set of jobs."""

    def __init__(self):
        self.raw = []       # seconds as measured
        self.scaled = []    # seconds at reference speed
        self.failed = 0
        self.err_max = 0.0
        self.grid_points = 0
        self.vertices = 0
        self.failures = []

    def add(self, job, raw, scaled, result):
        self.raw.append(raw)
        self.scaled.append(scaled)
        self.err_max = max(self.err_max, result.err)
        self.grid_points += result.grid_points
        self.vertices += result.vertices
        if not result.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{job.kind} [{job.label}]: {result.detail}")


def run_job(job, tracer=None, job_id=-1):
    """(latency in seconds, oracle result); an exception is a failed job."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            value = tracer.run_job(job_id, job.run) if tracer else job.run()
        except Exception:
            latency = time.perf_counter() - start
            return latency, workloads.Result(False, detail=traceback.format_exc(limit=2))
        latency = time.perf_counter() - start
    try:
        return latency, job.check(value)
    except Exception:
        return latency, workloads.Result(False, detail=traceback.format_exc(limit=2))


def per_layer(tracer, traced, untraced, everything):
    n = len(traced.raw)
    calls, self_s = tracer.layer_totals()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0) / n,
                                    "unit": "calls/job"}
        metrics[f"{name}.self_ms"] = {"value": 1e3 * self_s.get(name, 0.0) / n,
                                      "unit": "ms/job"}
    loops = calls.get("connection.parallel_transport", 0)
    rhs = calls.get("connection.HiggsField.value", 0)
    metrics["connection.rhs_per_loop"] = {"value": rhs / loops if loops else 0.0,
                                          "unit": "count/loop"}
    kept = (everything.vertices / everything.grid_points
            if everything.grid_points else 0.0)
    metrics["hyperbolic.vertices_kept_ratio"] = {"value": kept, "unit": "ratio"}
    metrics["trace.overhead_share"] = {
        "value": 1 - rate(traced.scaled) / rate(untraced.scaled),
        "unit": "ratio"}
    metrics["accuracy.err_max"] = {"value": max(traced.err_max, untraced.err_max),
                                   "unit": "abs"}
    return metrics


def latency_metrics(latencies, prefix=""):
    lat = sorted(latencies)
    n = len(lat)
    pct, tail_value = tail(lat)
    return {
        f"{prefix}jobs_per_s": {"value": rate(lat), "unit": "1/s"},
        f"{prefix}job_p50_ms": {"value": 1e3 * nearest_rank(lat, 50), "unit": "ms"},
        f"{prefix}job_tail_ms": {"value": 1e3 * tail_value, "unit": "ms",
                                 "percentile": pct, "samples": n,
                                 "beyond": n - math.ceil(pct / 100 * n)},
    }


def end_to_end(tally):
    metrics = latency_metrics(tally.scaled)
    metrics.update(latency_metrics(tally.raw, prefix="raw_"))
    metrics.update({
        "failed_share": {"value": tally.failed / len(tally.raw), "unit": "ratio"},
        "err_max": {"value": tally.err_max, "unit": "abs"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    })
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        for job in workloads.warmup_jobs(args.workload, workdir):
            _, result = run_job(job)
            if not result.ok:
                raise SystemExit(f"warm-up job {job.label} failed: {result.detail}")
        raw_setup_s = time.perf_counter() - T0
        setup = {"raw_setup_s": raw_setup_s,
                 "setup_s": raw_setup_s * REFERENCE_S
                 / statistics.median(kernel_time() for _ in range(5))}
        if args.setup_only:
            print(json.dumps(setup))
            return

        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, everything = Tally(), Tally(), Tally()
        rounds = 0
        start = time.perf_counter()
        kernel = kernel_time()
        while True:
            in_trace = bool(tracer) and rounds % 2 == 1
            tally = traced if in_trace else untraced
            if in_trace:
                tracer.install()
            try:
                for job in jobs:
                    latency, result = run_job(job, tracer if in_trace else None,
                                              len(everything.raw))
                    before, kernel = kernel, kernel_time()
                    scaled = latency * REFERENCE_S / ((before + kernel) / 2)
                    tally.add(job, latency, scaled, result)
                    everything.add(job, latency, scaled, result)
            finally:
                if in_trace:
                    tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - start
            if tracer and rounds < 2:
                continue
            if elapsed + elapsed / rounds > args.seconds:
                break

        out = {
            **setup,
            "rounds": rounds,
            "attempted": len(everything.raw),
            "failed": everything.failed,
            "failures": everything.failures,
            "vertices_kept": [everything.vertices, everything.grid_points],
            "job_mix": dict(Counter(job.kind for job in jobs)),
            "numpy": numpy.__version__,
            "bryantlab": bryantlab.__version__,
            "controls": dataclasses.asdict(DEFAULTS),
            "thread_cap": thread_cap(),
        }
        if tracer:
            out["metrics"] = per_layer(tracer, traced, untraced, everything)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(spans)
            out["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            out["metrics"] = end_to_end(untraced)
        print(json.dumps(out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
