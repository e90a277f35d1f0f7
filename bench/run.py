"""bryantlab benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload surface|holonomy|exact --seed N \
        --seconds S --trace 0|1

Each workload runs as one closed-loop client, single-threaded, in a fresh
worker process whose environment has BRYANTLAB_THREADS removed.  Set-up
is timed in SETUP_REPEATS fresh processes (the measuring one included)
and reported as the median.  The whole run is bounded by TOTAL_TIMEOUT_S.  Every job is checked against an oracle in
bench/workloads.py.

--trace 0 prints the end-to-end metrics (setup_s, jobs_per_s, job_p50_ms,
job_tail_ms, peak_rss_mb); times are at reference speed, see worker.py.
--trace 1 prints the per-layer metrics of a traced run.  The lines before
the last one give a readable summary, including failed_share, err_max
and the raw (unscaled) times, and a JSON report with provenance; the last
line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 2, with no result line, when the tree holds no bryantlab
sources; 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 15
RUN_TIMEOUT_SLACK_S = 60
TOTAL_TIMEOUT_S = 170
THREADS_ENV = "BRYANTLAB_THREADS"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(root, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def src_lines(root: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "bryantlab", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def worker(args, env, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion; killed at its timeout."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + RUN_TIMEOUT_SLACK_S
    timeout = min(timeout, deadline - time.monotonic())
    if timeout <= 0:
        raise SystemExit("out of time before the worker started")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("surface", "holonomy", "exact"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bryantlab", "__init__.py")):
        sys.stderr.write("no src/bryantlab here: run from the repository root\n")
        return 2

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    env = dict(os.environ)
    threads = env.pop(THREADS_ENV, None)
    setups = [worker(args, env, deadline, setup_only=True)
              for _ in range(SETUP_REPEATS - 1)]
    result = worker(args, env, deadline, setup_only=False)
    setups.append(result)

    metrics = result["metrics"]
    if not args.trace:
        for key in ("setup_s", "raw_setup_s"):
            metrics[key] = {"value": statistics.median(s[key] for s in setups),
                            "unit": "s"}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": result["rounds"],
        "job_mix_per_round": result["job_mix"],
        "failures": result["failures"],
        "vertices_kept": result["vertices_kept"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "metrics": metrics,
        "provenance": {
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "bryantlab": result["bryantlab"],
            "nproc": os.cpu_count(),
            "git_sha": git_sha(root),
            "src_lines": src_lines(root),
            "controls": result["controls"],
            "threads_env": ("unset" if threads is None
                            else f"{threads!r}, removed for the worker"),
            "worker_thread_cap": result["thread_cap"],
        },
    }
    if "spans_file" in result:
        report["spans_file"] = result["spans_file"]

    print(f"bryantlab bench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={result['rounds']} "
          f"jobs={result['attempted']} failed={result['failed']}")
    kept, grid = result["vertices_kept"]
    if grid:
        print(f"  mesh vertices kept: {kept} of {grid} in-domain grid points")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:<24.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"report": report}, sort_keys=True))

    keep = END_TO_END if not args.trace else sorted(metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in keep},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
