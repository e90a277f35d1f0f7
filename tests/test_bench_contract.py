"""The benchmark harness in bench/ against the package it drives.

bench/ imports names from bryantlab and wraps others by name, so a
refactor of src/ can break the benchmark without breaking any other
test.  These checks import the harness, install and remove its span
wrappers, and run the first job of each kind through its oracle.
"""

import json
from pathlib import Path

import pytest

from bryantlab import connection
from bryantlab.connection import (HiggsField, PathLoop, model_end_field,
                                  parallel_transport)
from bryantlab.series import LaurentMatrix

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
DECLARED = [w["name"] for w in
            json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench(monkeypatch):
    """(worker, tracing, workloads) imported from bench/; sys.path is
    restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import worker  # imports bryantlab.defaults.thread_cap
    import workloads
    return worker, tracing, workloads


def test_worker_imports(bench):
    worker, _, _ = bench
    assert worker.thread_cap() == 1


def test_tracer_wraps_every_traced_name(bench, tmp_path):
    worker, tracing, workloads = bench
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, _), original in zip(tracing.TRACED, originals):
            assert owner.__dict__[attr] is not original
        two_pole = next(job for job in workloads.build("holonomy", 0, str(tmp_path))
                        if job.kind == "holonomy.two_pole")
        _, result = worker.run_job(two_pole, tracer, 0)
    finally:
        tracer.uninstall()
    for (owner, attr, _), original in zip(tracing.TRACED, originals):
        assert owner.__dict__[attr] is original
    assert result.ok, result.detail
    calls, _ = tracer.layer_totals()
    # one transport per loop of the 8-loop file, one report for the family
    assert calls["connection.parallel_transport"] == 8
    assert calls["connection.report_from_matrices"] == 1
    # transport sums Taylor series of den·Y' = -N·Y and never evaluates Θ,
    # so the two traced evaluation methods (and connection.rhs_per_loop,
    # which counts HiggsField.value spans) read 0
    assert calls["connection.HiggsField.value"] == 0
    assert calls["series.LaurentMatrix.evaluate"] == 0


def test_holonomy_field_files_load_to_the_built_fields(bench, tmp_path):
    _, _, workloads = bench
    workloads.build("holonomy", 0, str(tmp_path))

    def load(name):
        return HiggsField.from_json(json.loads((tmp_path / name).read_text()))

    assert load("two_pole.json") == workloads.two_pole_field()
    for alpha in workloads.MODEL_WEIGHTS:
        name = f"model_{alpha.numerator}_{alpha.denominator}.json"
        assert load(name) == model_end_field(alpha)


@pytest.mark.parametrize("name", DECLARED)
def test_first_job_of_each_kind_passes(bench, tmp_path, name):
    worker, _, workloads = bench
    assert name in workloads.WORKLOADS
    seen = set()
    for job in workloads.build(name, 0, str(tmp_path)):
        if job.kind in seen:
            continue
        seen.add(job.kind)
        _, result = worker.run_job(job)
        assert result.ok, f"{job.kind} [{job.label}]: {result.detail}"


@pytest.mark.parametrize("seed", [7, 8])
def test_every_holonomy_job_meets_its_oracle(bench, tmp_path, seed):
    worker, _, workloads = bench
    for job in workloads.build("holonomy", seed, str(tmp_path)):
        _, result = worker.run_job(job)
        assert result.ok, f"{job.kind} [{job.label}]: {result.detail}"
        assert result.err <= 1e-12, f"{job.kind} [{job.label}]: {result.err:.3e}"


def test_two_pole_loops_take_few_series(bench, tmp_path, monkeypatch):
    # one Taylor series per transport step, summed at both of its ends
    # (134 series when each step summed its series at one end)
    _, _, workloads = bench
    workloads.build("holonomy", 7, str(tmp_path))
    loops = json.loads((tmp_path / "two_pole_loops.json").read_text())["loops"]
    series = []
    step = connection._taylor_step
    monkeypatch.setattr(connection, "_taylor_step",
                        lambda *args: series.append(1) or step(*args))
    for loop in loops:
        parallel_transport(workloads.two_pole_field(), PathLoop.from_json(loop))
    assert len(series) <= 90


@pytest.mark.parametrize("seed", [0, 7, 8])
def test_surface_laurent_frame_has_a_pole_at_zero(bench, tmp_path, seed):
    # the surface workload keeps one job on a frame with a pole at 0, so
    # it runs the stencil over per-point denominators |W|^{-2lo}
    _, _, workloads = bench
    jobs = workloads.build("surface", seed, str(tmp_path))
    assert sum(job.kind == "surface.laurent" for job in jobs) == 1
    data = json.loads((tmp_path / "bryant_laurent.json").read_text())
    matrix = LaurentMatrix.from_json(data["matrix"])
    lo = min(e for p in matrix.entries for e in p.integer_form()[1])
    assert lo < 0
