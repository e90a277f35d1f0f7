"""Toy-size self-check of the benchmark harness.

Run from the repository root:

    python3 bench/selfcheck.py

It checks that
  * one job of every kind passes its oracle on every workload;
  * planted wrong answers (a perturbed holonomy matrix, a bad |H-1|, a
    flipped verdict, ...) are counted as failed jobs;
  * run.py prints, for every workload and both trace modes, a last line
    with exactly the keys and the metric names and units declared in
    BENCHMARK.json, and a report with all seven end-to-end metrics;
  * per-layer call counts repeat exactly at a fixed seed;
  * run.py exits non-zero without a result line in a tree that holds
    only BENCHMARK.json and bench/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import worker  # puts src/ on sys.path
import workloads

ROOT = worker.ROOT
RUN = [sys.executable, os.path.join("bench", "run.py")]
REPORTED = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
            "failed_share", "err_max", "peak_rss_mb")

problems: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def toy_jobs(workdir: str):
    for name in workloads.WORKLOADS:
        seen = set()
        for job in workloads.build(name, 0, workdir):
            if job.kind in seen:
                continue
            seen.add(job.kind)
            _, result = worker.run_job(job)
            expect(result.ok, f"{name}: {job.kind} [{job.label}] passes its oracle"
                   + (f" ({result.detail})" if result.detail else ""))


def _edit_report(path: str, edit):
    with open(path) as fh:
        report = json.load(fh)
    edit(report)
    with open(path, "w") as fh:
        json.dump(report, fh)


def _planted(job, out: str | None, edit=None, corrupt=None):
    """The job with its output corrupted after it ran."""
    def run():
        value = job.run()
        if edit:
            _edit_report(out, edit)
        return corrupt(value) if corrupt else value
    return workloads.Job(job.kind, job.label + " (planted)", run, job.check)


def planted_failures(workdir: str):
    jobs = {}
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, 0, workdir):
            jobs.setdefault(job.kind, job)
    surface_out = os.path.join(workdir, "surface_out.json")
    holonomy_out = os.path.join(workdir, "holonomy_out.json")
    exact_out = os.path.join(workdir, "exact_out.json")

    def perturb_matrix(report):
        report["matrices"][0][0][0][0] += 1e-6

    def bad_h(report):
        report["samples"][0]["H"] = 1.001

    def flag_sample(report):
        report["flagged"] = [report["samples"][0] | {"error": "DegenerateMetric"}]

    def flip_bryant(report):
        report["is_bryant"] = not report["is_bryant"]

    def nudge_margin(report):
        report["margins"][0][0] += 1

    def flip_ktuy(value):
        return (not value[0],) + tuple(value[1:])

    cases = [
        ("perturbed model-end holonomy matrix", jobs["holonomy.model_end"], holonomy_out, perturb_matrix, None),
        ("perturbed two-pole holonomy matrix", jobs["holonomy.two_pole"], holonomy_out, perturb_matrix, None),
        ("|H-1| above tolerance", jobs["surface.catalog"], surface_out, bad_h, None),
        ("flagged curvature sample", jobs["surface.far"], surface_out, flag_sample, None),
        ("flipped verify verdict", jobs["exact.verify"], exact_out, flip_bryant, None),
        ("wrong stability margin", jobs["exact.stability"], exact_out, nudge_margin, None),
        ("flipped ktuy verdict", jobs["exact.null_field"], None, None, flip_ktuy),
    ]
    for what, job, out, edit, corrupt in cases:
        tally = worker.Tally()
        latency, result = worker.run_job(_planted(job, out, edit, corrupt))
        tally.add(job, latency, latency, result)
        expect(tally.failed == 1, f"planted wrong answer counted as a failure: {what}")

    tally = worker.Tally()
    raising = workloads.Job("exact.verify", "raises", lambda: 1 / 0, lambda v: workloads.Result(True))
    latency, result = worker.run_job(raising)
    tally.add(raising, latency, latency, result)
    expect(tally.failed == 1, "an exception in a job is counted as a failure")


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "0",
                                 "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def result_lines():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    for workload in workloads.WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            proc, lines = run_bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: correct, none failed")
            want = declared["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            expect({m["name"]: m["unit"] for m in want}
                   == {k: v["unit"] for k, v in got.items()},
                   f"{tag}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) for v in got.values()),
                   f"{tag}: every metric is a number")
            if trace:
                counts.append({k: v["value"] for k, v in got.items()
                               if k.endswith(".calls") or k == "connection.rhs_per_loop"})
            else:
                expect(all(k in report["metrics"] and report["metrics"][k]["unit"]
                           for k in REPORTED),
                       f"{tag}: report prints all 7 end-to-end metrics with units")
        if len(counts) == 2:
            expect(counts[0] == counts[1],
                   f"{workload}: per-layer counts repeat exactly at a fixed seed")


def bare_tree():
    """Only BENCHMARK.json and bench/: no sources, so no result."""
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run_bench("exact", 0, cwd=bare)
        printed = any(line.startswith('{"correct"') for line in lines)
        expect(proc.returncode != 0 and not printed,
               "bare tree: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        toy_jobs(workdir)
        planted_failures(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result_lines()
    bare_tree()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
