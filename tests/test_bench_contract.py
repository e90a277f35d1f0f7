"""The benchmark harness in bench/ against the package it drives.

bench/ imports names from bryantlab and wraps others by name, so a
refactor of src/ can break the benchmark without breaking any other
test.  These checks import the harness, install and remove its span
wrappers, and run the first job of each kind through its oracle.  Reference
copies of earlier transport kernels run beside the current ones on the
bench's holonomy rounds and on random fields, and must give the same bits.
"""

import contextlib
import itertools
import json
import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bryantlab import connection
from bryantlab.connection import (HiggsField, PathLoop, model_end_field,
                                  parallel_transport)
from bryantlab.errors import ToleranceNotMet
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly

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


def _holonomy_round(workloads, tmp_path, seed):
    """(field, loop) for each of the 14 loops of one holonomy round."""
    workloads.build("holonomy", seed, str(tmp_path))

    def load(name):
        return json.loads((tmp_path / name).read_text())

    pairs = [(HiggsField.from_json(load("two_pole.json")), PathLoop.from_json(loop))
             for loop in load("two_pole_loops.json")["loops"]]
    for alpha in workloads.MODEL_WEIGHTS:
        tag = f"{alpha.numerator}_{alpha.denominator}"
        pairs.append((HiggsField.from_json(load(f"model_{tag}.json")),
                      PathLoop.from_json(load(f"circle_{tag}.json"))))
    return pairs


def test_holonomy_round_evaluates_few_midpoints(bench, tmp_path, monkeypatch):
    # each midpoint evaluation computes one _radius; a path's first chord is
    # 2/3 of its start's distance to the poles, so the pole test does not
    # reject it (175 midpoints for 126 series when the first guess was the
    # whole segment)
    _, _, workloads = bench
    midpoints = []
    radius = connection._radius
    monkeypatch.setattr(connection, "_radius",
                        lambda *args: midpoints.append(1) or radius(*args))
    for theta, loop in _holonomy_round(workloads, tmp_path, 7):
        parallel_transport(theta, loop)
    assert len(midpoints) <= 146


def _reference_taylor_step(n, d, y, a, b, ratio, atol):
    """_taylor_step as it was before it kept each term's size beside the
    term and formed p + e and v + e once per j: the kernel must give the
    same bits."""
    h, q = (a, b) if (flip := abs(a) > abs(b)) else (b, a)
    q, qk, g = q / h if h else 0j, 1 + 0j, ratio / (1 - ratio)
    tol = cut = max(atol, connection._FLOOR)
    nh = [[x * h ** (j + 1) / d[0] for x in nj] for j, nj in enumerate(n)]
    dh = [x * h ** (j + 1) / d[0] for j, x in enumerate(d[1:])] + [0j] * len(n)
    terms = deque([(1 + 0j, 0j, 0j, 1 + 0j)], len(n) or 1)
    s0, s1, s2, s3 = r0, r1, r2, r3 = 1 + 0j, 0j, 0j, 1 + 0j
    for k in itertools.count(1):
        a0 = a1 = a2 = a3 = 0j
        for j, ((p, t, u, v), e, (y0, y1, y2, y3)) in enumerate(zip(nh, dh, terms)):
            e *= k - 1 - j
            a0 += (p + e) * y0 + t * y2
            a1 += (p + e) * y1 + t * y3
            a2 += u * y0 + (v + e) * y2
            a3 += u * y1 + (v + e) * y3
        a0, a1, a2, a3 = -a0 / k, -a1 / k, -a2 / k, -a3 / k
        size = abs(a0) + abs(a1) + abs(a2) + abs(a3)
        terms.appendleft((a0, a1, a2, a3))
        s0, s1, s2, s3 = s0 + a0, s1 + a1, s2 + a2, s3 + a3
        qk *= q
        r0, r1, r2, r3 = r0 + a0 * qk, r1 + a1 * qk, r2 + a2 * qk, r3 + a3 * qk
        if size * g <= cut and (eps := g * max(sum(map(abs, x)) for x in terms)) <= cut:
            s, r = (s0, s1, s2, s3), (r0, r1, r2, r3)
            fb, fa = (r, s) if flip else (s, r)
            det = fa[0] * fa[3] - fa[1] * fa[2]
            inv = (fa[3] / det, -fa[1] / det, -fa[2] / det, fa[0] / det)
            w, z = connection._mul(fb, inv), connection._mul(inv, y)
            ye = connection._mul(w, y)
            gain = sum(map(abs, z)) * (1 + sum(map(abs, w)))
            scale = tol * max(1.0, *map(abs, ye))
            if eps * gain <= scale:
                return ye
            cut = scale / gain


def test_taylor_kernel_matches_the_reference_loop(bench, tmp_path, monkeypatch):
    # every series of a seed-7 round, given the same inputs to both loops
    _, _, workloads = bench
    same = []
    step = connection._taylor_step

    def both(*args):
        y = step(*args)
        same.append(y == _reference_taylor_step(*args))
        return y

    monkeypatch.setattr(connection, "_taylor_step", both)
    for theta, loop in _holonomy_round(workloads, tmp_path, 7):
        parallel_transport(theta, loop)
    assert len(same) >= 100 and all(same)


def _reference_radius(n, d):
    """_radius as it was before it summed with explicit loops, one nested
    generator per entry: the loops must give the same bits."""
    th = []
    for k, nk in enumerate(n):
        th.append([(x - sum(d[j] * th[k - j][i] for j in range(1, min(k + 1, len(d)))))
                   / d[0] for i, x in enumerate(nk)])
    r = max([(max(abs(p) + abs(q), abs(u) + abs(v)) / (k + 1)) ** (1 / (k + 1))
             for k, (p, q, u, v) in enumerate(th)] + [0.0])
    return 1 / r if r else math.inf


@contextlib.contextmanager
def _kernels_beside_references():
    """Run _reference_taylor_step and _reference_radius beside every call of
    the kernels they copy; yields two lists, one entry per call, True where
    the results agree bit for bit (repr keeps the sign of a zero)."""
    series, radii = [], []
    step, radius = connection._taylor_step, connection._radius

    def checked_step(*args):
        y = step(*args)
        series.append(repr(y) == repr(_reference_taylor_step(*args)))
        return y

    def checked_radius(*args):
        r = radius(*args)
        radii.append(repr(r) == repr(_reference_radius(*args)))
        return r

    connection._taylor_step, connection._radius = checked_step, checked_radius
    try:
        yield series, radii
    finally:
        connection._taylor_step, connection._radius = step, radius


@pytest.mark.parametrize("seed, counts", [(7, (127, 146)), (8, (126, 144))])
def test_transport_kernels_match_their_reference_copies(bench, tmp_path, seed, counts):
    # every series and every midpoint's ρ of a holonomy round, and the
    # number of each, which bit-identical kernels leave unchanged
    _, _, workloads = bench
    with _kernels_beside_references() as (series, radii):
        for theta, loop in _holonomy_round(workloads, tmp_path, seed):
            parallel_transport(theta, loop)
    assert (len(series), len(radii)) == counts
    assert all(series) and all(radii)


_QUARTERS = st.builds(lambda x, y: GaussianRational(Fraction(x, 4), Fraction(y, 4)),
                      st.integers(-8, 8), st.integers(-8, 8))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_QUARTERS, _QUARTERS, _QUARTERS), min_size=1, max_size=6),
       st.lists(_QUARTERS, min_size=1, max_size=3, unique=True),
       st.sampled_from([0.5, 1.0, 1.5]), st.floats(0, 2 * math.pi))
def test_transport_kernels_match_on_random_fields(coeffs, poles, radius, angle):
    # N with 1-6 coefficients per entry over den = Π (z - p) with 1-3 poles,
    # transported around a circle that keeps clear of every pole
    a, b, c = (LaurentPoly(dict(enumerate(col))) for col in zip(*coeffs))
    den = LaurentPoly.one()
    for p in poles:
        den = den * LaurentPoly({1: 1, 0: -p})
    assume(not (a.is_zero and b.is_zero and c.is_zero))
    theta = HiggsField(LaurentMatrix(a, b, c, -a), den)
    assume(all(abs(abs(p) - radius) >= 0.2 for p in theta.poles))
    with _kernels_beside_references() as (series, radii):
        try:
            parallel_transport(theta, PathLoop.circle(0j, radius, angle))
        except ToleranceNotMet:
            pass   # the calls made before it still count
    assert series and radii and all(series) and all(radii)


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
