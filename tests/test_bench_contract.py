"""The benchmark harness in bench/ against the package it drives.

bench/ imports names from bryantlab and wraps others by name, so a
refactor of src/ can break the benchmark without breaking any other
test.  These checks import the harness, install and remove its span
wrappers, and run the first job of each kind through its oracle.  Reference
copies of earlier transport kernels and of the local holonomy route run
beside the current ones on the bench's holonomy rounds and on random
fields, and must give the same bits.
"""

import cmath
import contextlib
import itertools
import json
import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bryantlab import connection
from bryantlab.connection import (HiggsField, PathLoop, model_end_field,
                                  parallel_transport, simple_pole_field)
from bryantlab.defaults import DEFAULTS
from bryantlab.errors import BryantLabError, ToleranceNotMet
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
    # each loop of the 8-loop file winds once around one simple pole, so
    # holonomy transports only the connector from its base b to
    # b′ = p + r′(b - p)/|b - p|, r′ = min(|b - p|, ρ/3) with ρ = 1 the
    # distance between the poles; the two radius-0.3 circles need none
    assert calls["connection.parallel_transport"] == 6
    # one report for the family
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


@pytest.mark.parametrize("seed", [7, 8])
def test_holonomy_round_sums_few_series(bench, tmp_path, monkeypatch, seed):
    # every loop of a round winds once around one simple pole, so holonomy
    # sums Taylor series only on the connectors from the two-pole loops'
    # bases toward their poles, and none on the model ends (127 and 126
    # series when every loop was transported)
    _, _, workloads = bench
    series = []
    step = connection._taylor_step
    monkeypatch.setattr(connection, "_taylor_step",
                        lambda *args: series.append(1) or step(*args))
    counts = []
    for theta, loop in _holonomy_round(workloads, tmp_path, seed):
        before = len(series)
        connection.holonomy(theta, [loop])
        counts.append(len(series) - before)
    assert sum(counts) <= 20
    assert counts[8:] == [0] * len(workloads.MODEL_WEIGHTS)


@pytest.mark.parametrize("seed", [7, 8])
def test_holonomy_round_meets_its_closed_forms(bench, tmp_path, seed):
    # residue eigenvalues ±1/4 give trace 0 and det 1 on the two-pole loops;
    # a model end gives diag(e^{2πiα}, e^{-2πiα})
    _, _, workloads = bench
    pairs = _holonomy_round(workloads, tmp_path, seed)
    for theta, loop in pairs[:8]:
        (u,) = connection.holonomy(theta, [loop]).matrices
        assert abs(u[0, 0] + u[1, 1]) <= 1e-15
        assert abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1) <= 1e-15
    for alpha, (theta, loop) in zip(workloads.MODEL_WEIGHTS, pairs[8:]):
        (u,) = connection.holonomy(theta, [loop]).matrices
        w = cmath.exp(2j * math.pi * alpha)
        assert np.abs(u - np.diag([w, 1 / w])).max() <= 1e-15


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


def _reference_local_monodromy(theta, loop, controls, tally):
    """_local_monodromy as it was with R·X - X·R in a nested closure and each
    term built by generators: the route must give the same bits.  Appends 1
    to tally for each Frobenius term it sums."""
    c_ = connection
    atol, segs = controls.atol, loop.segments
    if len(theta.poles) != theta.den.degree():   # a multiple pole
        return None
    if len(segs) == 1 and isinstance(segs[0], c_.ArcSegment):   # one full circle
        a = segs[0]
        sign = 1 if a.angle1 > a.angle0 else -1
        ulp = math.ulp(max(abs(a.angle0), abs(a.angle1)))
        if abs(a.angle1 - a.angle0 - sign * 2 * math.pi) > 4 * ulp:
            return None
        inside = [x for x in theta.poles if abs(x - a.center) < a.radius]
    elif len(segs) >= 3 and all(isinstance(s, c_.LineSegment) for s in segs):
        edges = [s.end - s.start for s in segs]
        turns = [e.conjugate() * f for e, f in zip(edges, edges[1:] + edges[:1])]
        sign = 1 if turns[0].imag > 0 else -1
        if (any(s.end != t.start for s, t in zip(segs, segs[1:] + segs[:1]))
                or not all(sign * t.imag > 0 for t in turns)
                or abs(sum(map(cmath.phase, turns)) - sign * 2 * math.pi) > 1):
            return None
        inside = [x for x in theta.poles if all(
            sign * (e.conjugate() * (x - s.start)).imag > 0 for e, s in zip(edges, segs))]
    else:
        return None
    if len(inside) != 1:
        return None
    p, b = inside[0], loop.base
    cols, d = c_._prelude(theta, loop, controls)
    n, q = list(zip(*(c_._shift(col, p) for col in cols))), c_._shift(d, p)[1:]
    if not q[0]:
        return None
    r0, r1, r2, r3 = r = tuple(x / q[0] for x in n[0])
    pq = [(tuple(x - y * qj for x, y in zip(nj, r)), qj)
          for nj, qj in zip(n[1:], q[1:] + [0j] * len(n))]
    mu = r1 * r2 - r0 * r3
    lam = cmath.sqrt(mu)
    th = 2 * math.pi * lam
    if not (abs(th) * c_._FLOOR <= atol and abs(th.imag) < 700):
        return None
    c, si = cmath.cos(th), -1j * sign * (cmath.sin(th) / lam if lam else 2 * math.pi)
    e = (c + si * r0, si * r1, si * r2, c + si * r3)

    def norm(x):
        return max(abs(x[0]) + abs(x[1]), abs(x[2]) + abs(x[3]))

    def ad(x0, x1, x2, x3):   # R·X - X·R
        return (r1 * x2 - x1 * r2, r0 * x1 + r1 * x3 - x0 * r1 - x1 * r3,
                r2 * x0 + r3 * x2 - x2 * r0 - x3 * r2, r2 * x1 - x2 * r1)

    de = c_._FLOOR * (1 + abs(th)) * (abs(c) + abs(si) * norm(r))
    rho = min([abs(x - p) for x in theta.poles if x != p]
              + [c_._radius([x for x, _ in pq], q)])
    rw = min(abs(b - p), rho / c_._FAR)
    if not rw >= controls.pole_clearance:
        return None
    b1, t, dt = b, (1 + 0j, 0j, 0j, 1 + 0j), 0.0
    if rw < abs(b - p):
        b1 = p + rw * (b - p) / abs(b - p)
        try:
            t = c_._entries(parallel_transport(theta, c_.Path.polyline([b, b1]),
                                               controls.with_(atol=atol / c_._SHARE)))
        except ToleranceNotMet:
            return None
        dt = 4 * atol / c_._SHARE * max(1.0, *map(abs, t))
    ti, w = c_._inv(t), b1 - p
    nt = norm(t) * norm(ti)
    coef = [(*(x * wj / q[0] for x in pj), qj * wj / q[0])
            for j, (pj, qj) in enumerate(pq, 1) for wj in [w ** j]]
    K, g = len(coef), rw / rho / (1 - rw / rho)
    y, sizes, cut = (1 + 0j, 0j, 0j, 1 + 0j), [2.0], max(atol / c_._SHARE, c_._FLOOR)
    terms = [y]
    for k in itertools.count(1):
        if sizes[-1] * g <= cut and (eps := g * max(sizes[-K or -1:])) <= cut:
            yi = c_._inv(y)
            x = c_._mul(c_._mul(y, e), yi)
            m = c_._mul(c_._mul(ti, x), t)
            scale = 2 * atol * max(1.0, *map(abs, m))
            fixed = nt * norm(y) * norm(yi) * de + 2 * norm(m) * norm(ti) * dt
            per = 2 * nt * norm(yi) * norm(x)
            if fixed + per * (eps + c_._FLOOR * sum(sizes)) <= scale:
                return np.array(m, dtype=complex).reshape(2, 2)
            cut = (scale - fixed) / per - c_._FLOOR * sum(sizes)
            if not cut > 0:
                return None
        dk = k * k - 4 * mu
        if not abs(dk) > 1e-8 * k * k:
            return None
        a0 = a1 = a2 = a3 = z0 = z1 = z2 = z3 = 0j
        i = k
        for p0, p1, p2, p3, qj in (coef if k >= K else coef[:k]):
            i -= 1
            y0, y1, y2, y3 = terms[i]
            v = qj * i
            a0, a1 = a0 + (p0 + v) * y0 + p1 * y2, a1 + (p0 + v) * y1 + p1 * y3
            a2, a3 = a2 + p2 * y0 + (p3 + v) * y2, a3 + p2 * y1 + (p3 + v) * y3
            z0, z1, z2, z3 = z0 + qj * y0, z1 + qj * y1, z2 + qj * y2, z3 + qj * y3
        u0, u1, u2, u3 = ad(z0, z1, z2, z3)
        h = (-a0 - u0, -a1 - u1, -a2 - u2, -a3 - u3)
        hh = ad(*h)
        term = tuple(u / k - v / dk + x / (k * dk) for u, v, x in zip(h, hh, ad(*hh)))
        size = sum(map(abs, term))
        tally.append(1)
        if not math.isfinite(size):
            return None
        terms.append(term)
        sizes.append(size)
        y = tuple(u + v for u, v in zip(y, term))


def _bits(call, *args):
    """repr of a route's result, its entries row-major (repr keeps the sign
    of a zero), or of the class of the error it raised."""
    try:
        m = call(*args)
    except (BryantLabError, ArithmeticError) as exc:
        return repr(type(exc))
    return repr(None if m is None else m.ravel().tolist())


@contextlib.contextmanager
def _route_beside_reference():
    """Run _reference_local_monodromy beside every call of _local_monodromy;
    yields (same, tally): one bool per call, True where both agree bit for
    bit, and one entry per Frobenius term the reference summed."""
    same, tally, route = [], [], connection._local_monodromy

    def checked(theta, loop, controls):
        m = route(theta, loop, controls)
        same.append(repr(None if m is None else m.ravel().tolist())
                    == _bits(_reference_local_monodromy, theta, loop, controls, tally))
        return m

    connection._local_monodromy = checked
    try:
        yield same, tally
    finally:
        connection._local_monodromy = route


@pytest.mark.parametrize("seed", [7, 8])
def test_route_matches_its_reference_copy(bench, tmp_path, seed):
    # every loop of a holonomy round takes the route; the number of terms,
    # which a bit-identical kernel leaves unchanged, is pinned
    _, _, workloads = bench
    with _route_beside_reference() as (same, tally):
        for theta, loop in _holonomy_round(workloads, tmp_path, seed):
            connection.holonomy(theta, [loop])
    assert len(same) == 14 and all(same)
    assert len(tally) == 203


def test_two_pole_call_reads_the_coefficients_once(bench, tmp_path, monkeypatch):
    # 8 loops and 6 connectors each read N's four entries and den (70 reads
    # when each read them again); the field's copy is shared and immutable
    _, _, workloads = bench
    workloads.build("holonomy", 7, str(tmp_path))
    data = json.loads((tmp_path / "two_pole.json").read_text())
    loops = json.loads((tmp_path / "two_pole_loops.json").read_text())["loops"]
    theta, loops = HiggsField.from_json(data), [PathLoop.from_json(lp) for lp in loops]
    reads, read = [], LaurentPoly.float_coeffs
    monkeypatch.setattr(LaurentPoly, "float_coeffs",
                        lambda self, lo, hi: reads.append(1) or read(self, lo, hi))
    connection.holonomy(theta, loops)
    assert len(reads) == 5
    cols, d = theta._floats
    hi = len(cols[0]) - 1
    assert cols == tuple(tuple(read(p, 0, hi)) for p in theta.num.entries)
    assert d == tuple(read(theta.den, 0, theta.den.degree()))
    assert all(type(x) is tuple for x in (cols, d, *cols))


def _residue_field(poles):
    """Θ = Σ R_i dz/(z - p_i) from (p_i, (a, b, c)) with R_i = [[a, b], [c, -a]]."""
    return simple_pole_field([
        (p, LaurentMatrix(*(LaurentPoly.constant(x) for x in (a, b, c)),
                          LaurentPoly.constant(-a))) for p, (a, b, c) in poles])


@pytest.mark.parametrize("theta, loop, atol", [
    (_residue_field([(0, (0, 1, 0)), (1, (Fraction(1, 4), 0, 0))]),
     PathLoop.circle(0.5 + 0j, 1.5), 1e-12),
    (_residue_field([(0, (Fraction(-1, 2), 0, 0)), (3, (0, Fraction(1, 4), Fraction(1, 4)))]),
     PathLoop.circle(0j, 1.0), 1e-12),
    (_residue_field([(0, (0, 1, 0))]), PathLoop.circle(0j, 1.0), 1e-18),
], ids=["off the route", "resonant", "missing the estimate"])
def test_route_declines_as_its_reference_copy_does(theta, loop, atol):
    # both poles inside; k + ad R singular at k = 1; R nilpotent, so E is
    # formed, but its rounding alone exceeds 2·atol
    controls = DEFAULTS.with_(atol=atol)
    with _route_beside_reference() as (same, _):
        assert connection._local_monodromy(theta, loop, controls) is None
    assert same == [True]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_QUARTERS, st.tuples(_QUARTERS, _QUARTERS, _QUARTERS)),
                min_size=1, max_size=3, unique_by=lambda x: x[0]),
       st.integers(0, 2), st.sampled_from([0.3, 0.6, 0.9, 1.5]),
       st.sampled_from([0, 3, 4, 5, 8]), st.booleans(), st.floats(0, 2 * math.pi),
       st.floats(0, 2 * math.pi), st.sampled_from([1e-10, 1e-12, 1e-14]))
def test_route_matches_its_reference_copy_on_random_fields(
        poles, index, frac, sides, ccw, base_angle, shift_angle, atol):
    # simple poles with residues in Q(i); a circle (sides = 0) or a regular
    # polygon, either way round, of radius frac·ρ about a centre 0.1 of the
    # radius off one pole, ρ the distance to the next; at frac = 1.5 it may
    # hold two poles or pass too near one, and the smaller atols may be missed:
    # the route must then decline or raise as its reference copy does
    assume(any(a or b or c for _, (a, b, c) in poles))
    theta = _residue_field(poles)
    p = theta.poles[index % len(theta.poles)]
    radius = frac * min([abs(x - p) for x in theta.poles if x != p], default=2.0)
    centre = p + 0.1 * radius * cmath.exp(1j * shift_angle)
    if sides:
        turn = (1 if ccw else -1) * 2 * math.pi / sides
        loop = PathLoop.polygon([centre + radius * cmath.exp(1j * (base_angle + k * turn))
                                 for k in range(sides)])
    else:
        loop = PathLoop.circle(centre, radius, base_angle, ccw)
    controls = DEFAULTS.with_(atol=atol)
    got = _bits(connection._local_monodromy, theta, loop, controls)
    assert got == _bits(_reference_local_monodromy, theta, loop, controls, [])


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
