"""Seeded inputs, job lists and oracles for the three benchmark workloads.

A workload is a fixed mix of jobs that the closed-loop client runs in
rounds.  ``build(name, seed, workdir)`` writes the inputs of one round to
``workdir`` and returns the jobs.  The seed changes coefficients and base
points only, never degrees, loop geometry or the job mix, so a claim made
on one seed can be re-checked on another.

Every job returns a ``Result`` from its oracle: ``ok`` is False when the
output disagrees with a closed form or with a literal re-evaluation done
here, independently of the library code under test.

Workloads:

* ``surface``: ``surface`` jobs on the catalog frames, on seeded Bryant
  frames P·[[1,p],[0,1]]·Q of degree 3..9 plus one Laurent p on an
  annulus, and one far-field job.  Exact curvature dominates; no
  transport runs.
* ``holonomy``: ``holonomy`` jobs on the two-pole field (an 8-loop file
  with near-pole circles) and on model ends of several real weights.
  Float transport dominates; no exact arithmetic runs.
* ``exact``: ``verify``, ``end``, ``stability --enumerate`` and
  ``bounds`` jobs plus a library null-field job on a corpus of Bryant
  and non-Bryant unipotent products.  Laurent products only, no
  evaluation.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from bryantlab import cli, connection, errors
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly

WORKLOADS = ("surface", "holonomy", "exact")

H_TOL = 1e-4          # criterion 02
HOLONOMY_TOL = 1e-8   # criterion 03
BRANCH_CLEARANCE = 0.1
DEFAULT_STEP = 1e-4
# Largest stencil step times metric scale for which |H-1| stays near 1e-5
# on seeded frames; beyond it the truncation error grows like (step·L)^2.
STEP_TIMES_SCALE = 20.0


@dataclass
class Result:
    ok: bool
    err: float = 0.0          # accuracy defect against a closed form
    grid_points: int = 0      # surface only: in-domain grid points
    vertices: int = 0         # surface only: mesh vertices kept
    detail: str = ""


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]            # timed part
    check: Callable[[object], Result]    # oracle, untimed


# ---------------------------------------------------------------------------
# exact inputs

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()


# Odd four-bit numerators over a fixed denominator: the seed changes every
# coefficient but not its size, so the cost of exact arithmetic on the
# inputs does not depend on the seed.
NUMERATORS = (9, 11, 13, 15)
DENOMINATOR = 4


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.choice(NUMERATORS), DENOMINATOR)


def _coeff(rng: random.Random) -> GaussianRational:
    return GaussianRational(_fraction(rng), _fraction(rng))


def _poly(rng: random.Random, lo: int, hi: int) -> LaurentPoly:
    """Every exponent lo..hi gets a non-zero coefficient."""
    return LaurentPoly({k: _coeff(rng) for k in range(lo, hi + 1)})


def _upper(p: LaurentPoly) -> LaurentMatrix:
    return LaurentMatrix(_ONE, p, _ZERO, _ONE)


def _lower(p: LaurentPoly) -> LaurentMatrix:
    return LaurentMatrix(_ONE, _ZERO, p, _ONE)


def bryant_frame(rng: random.Random, p: LaurentPoly) -> tuple[LaurentMatrix, float]:
    """P·[[1,p],[0,1]]·Q with constant unipotent P, Q: det A' = 0 exactly.

    Also returns |q21|² + |q22|²: the induced metric is then
    ds = (|q21|² + |q22|²)·|p'(z)|·|dz|, since A⁻¹dA = Q⁻¹[[0,p'],[0,0]]Q dz
    has Weierstrass data ω = -q21² p' dz, g = -q22/q21.
    """
    P = _upper(LaurentPoly.constant(_coeff(rng))) @ _lower(LaurentPoly.constant(_coeff(rng)))
    Q = _lower(LaurentPoly.constant(_coeff(rng))) @ _upper(LaurentPoly.constant(_coeff(rng)))
    q21, q22 = Q.c.coeff(0).to_complex(), Q.d.coeff(0).to_complex()
    return P @ _upper(p) @ Q, abs(q21) ** 2 + abs(q22) ** 2


def stencil_step(p: LaurentPoly, q_norm: float, points: list[complex]) -> float:
    """The default step, cut where the metric scale would make it coarse."""
    scale = q_norm * max(abs(p.derivative()(z)) for z in points)
    return min(DEFAULT_STEP, STEP_TIMES_SCALE / scale)


def non_bryant_frame(rng: random.Random) -> LaurentMatrix:
    """[[1,p],[0,1]]·[[1,0],[q,1]]: det = 1 but det A' = -p'q' != 0."""
    return _upper(_poly(rng, -2, 2)) @ _lower(_poly(rng, -1, 3))


def _derivative_roots(p: LaurentPoly) -> list[complex]:
    """Zeros of p' away from 0, from z^m p'(z) as an ordinary polynomial."""
    terms = {e - 1: c.to_complex() * e for e, c in p.terms() if e != 0}
    lo, hi = min(terms), max(terms)
    coeffs = [terms.get(e, 0j) for e in range(hi, lo - 1, -1)]
    return [complex(r) for r in np.roots(coeffs)] if len(coeffs) > 1 else []


def _grid(center: complex, radius: float, n: int) -> list[complex]:
    """Same row-major grid as the CLI's --center/--radius/--n."""
    ticks = [-radius + 2 * radius * i / (n - 1) for i in range(n)]
    return [center + complex(re, im) for im in ticks for re in ticks]


def _clear_poly(rng: random.Random, lo: int, hi: int,
                points: list[complex]) -> LaurentPoly:
    """A seeded p whose branch points (zeros of p') avoid every grid point.

    Curvature needs a stencil clear of branch points; the degrees never
    change, only the coefficients are redrawn.
    """
    while True:
        p = _poly(rng, lo, hi)
        roots = _derivative_roots(p)
        if all(abs(z - r) >= BRANCH_CLEARANCE for z in points for r in roots):
            return p


def _write(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _read(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cli_job(kind: str, label: str, argv: list[str], out: str,
             check: Callable[[int, object], Result]) -> Job:
    def run():
        if os.path.exists(out):
            os.remove(out)
        return cli.main(argv + ["--out", out])

    def oracle(code):
        if not os.path.exists(out):
            return Result(False, detail=f"exit {code}, no report written")
        return check(code, _read(out))

    return Job(kind, label, run, oracle)


# ---------------------------------------------------------------------------
# surface

SURFACE_CATALOG = ("affine-null", "cusp-degree2", "horosphere", "lower-shear")
SURFACE_DEGREES = (3, 4, 5, 6, 7, 8, 9)
# Even, so no grid point hits the branch point of cusp-degree2 at 0.
CATALOG_N = 10
SEEDED_N = 4


def _surface_check(points: list[complex], r_min: float, r_max: float | None):
    in_domain = sum(1 for z in points
                    if abs(z) >= r_min and (r_max is None or abs(z) <= r_max))

    def check(code: int, report) -> Result:
        samples = report["samples"]
        err = max((abs(s["H"] - 1) if "H" in s else math.inf for s in samples),
                  default=math.inf)
        res = Result(True, err=err, grid_points=in_domain,
                     vertices=int(report["vertices"]))
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if report["flagged"]:
            problems.append(f"{len(report['flagged'])} flagged samples")
        if len(samples) != len(points):
            problems.append("sample count differs from the grid")
        if not res.err <= H_TOL:
            problems.append(f"|H-1| = {res.err:.3e} > {H_TOL}")
        res.ok = not problems
        res.detail = "; ".join(problems)
        return res

    return check


def _surface_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    out = os.path.join(workdir, "surface_out.json")

    catalog_points = _grid(0j, 1.0, CATALOG_N)
    for name in SURFACE_CATALOG:
        jobs.append(_cli_job(
            "surface.catalog", name,
            ["surface", name, "--n", str(CATALOG_N), "--radius", "1"], out,
            _surface_check(catalog_points, 0.0, None)))

    seeded_points = _grid(0j, 1.0, SEEDED_N)
    for deg in SURFACE_DEGREES:
        p = _clear_poly(rng, 0, deg, seeded_points)
        matrix, q_norm = bryant_frame(rng, p)
        path = _write(os.path.join(workdir, f"bryant_deg{deg}.json"),
                      {"matrix": matrix.to_json()})
        step = stencil_step(p, q_norm, seeded_points)
        jobs.append(_cli_job(
            "surface.seeded", f"degree {deg}",
            ["surface", path, "--n", str(SEEDED_N), "--radius", "1",
             "--step", repr(step)], out,
            _surface_check(seeded_points, 0.0, None)))

    center, r_min, r_max = 1.5 + 0j, 0.5, 2.5
    laurent_points = _grid(center, 0.5, SEEDED_N)
    p = _clear_poly(rng, -3, 3, laurent_points)
    matrix, q_norm = bryant_frame(rng, p)
    path = _write(os.path.join(workdir, "bryant_laurent.json"),
                  {"matrix": matrix.to_json(),
                   "domain": {"r_min": r_min, "r_max": r_max}})
    step = stencil_step(p, q_norm, laurent_points)
    jobs.append(_cli_job(
        "surface.laurent", "exponents -3..3 on an annulus",
        ["surface", path, "--n", str(SEEDED_N), "--radius", "0.5",
         "--center", str(center.real), str(center.imag),
         "--step", repr(step)], out,
        _surface_check(laurent_points, r_min, r_max)))

    jobs.append(_cli_job(
        "surface.far", "cusp-degree2 at radius 50",
        ["surface", "cusp-degree2", "--n", str(CATALOG_N), "--radius", "50"],
        out, _surface_check(_grid(0j, 50.0, CATALOG_N), 0.0, None)))
    return jobs


# ---------------------------------------------------------------------------
# holonomy

TWO_POLE_RESIDUE = Fraction(1, 4)
MODEL_WEIGHTS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                 Fraction(2, 5), Fraction(1, 2), Fraction(7, 10))
LOOP_RADII = (0.3, 0.5, 0.95)
HEXAGON_RADIUS = 0.6


def _circle(center: complex, radius: float, base_angle: float) -> dict:
    base = center + radius * cmath.exp(1j * base_angle)
    return {"base": [base.real, base.imag],
            "segments": [{"kind": "arc", "center": [center.real, center.imag],
                          "radius": radius, "angle0": base_angle,
                          "angle1": base_angle + 2 * math.pi}]}


def _hexagon(center: complex, radius: float, rotation: float) -> dict:
    pts = [center + radius * cmath.exp(1j * (rotation + k * math.pi / 3))
           for k in range(6)]
    pts.append(pts[0])
    return {"base": [pts[0].real, pts[0].imag],
            "segments": [{"kind": "line", "start": [p.real, p.imag],
                          "end": [q.real, q.imag]}
                         for p, q in zip(pts, pts[1:])]}


def _matrices(report) -> list[np.ndarray]:
    return [np.array([[complex(*x) for x in row] for row in m])
            for m in report["matrices"]]


def _holonomy_exit_ok(code: int, report) -> bool:
    # exit 1 on a field outside SU(2) is the expected verdict, not a failure
    return code == (0 if report["verdict"] == "passes" else 1)


def check_model_end(alpha: Fraction):
    w = cmath.exp(2j * math.pi * float(alpha))
    expect = np.diag([w, 1 / w])

    def check(code: int, report) -> Result:
        (u,) = _matrices(report)
        err = float(np.linalg.norm(u - expect))
        ok = _holonomy_exit_ok(code, report) and err <= HOLONOMY_TOL
        return Result(ok, err=err, detail="" if ok else
                      f"exit {code}, oracle defect {err:.3e}")

    return check


def check_two_pole(code: int, report) -> Result:
    """Each loop encloses one pole with residue eigenvalues ±1/4, so
    tr U = 2cos(2π/4) and det U = 1 whatever the base point."""
    trace = 2 * math.cos(2 * math.pi * TWO_POLE_RESIDUE)
    mats = _matrices(report)
    err = max(max(abs(np.trace(u) - trace), abs(np.linalg.det(u) - 1))
              for u in mats)
    ok = (_holonomy_exit_ok(code, report) and len(mats) == 8
          and err <= HOLONOMY_TOL)
    return Result(ok, err=err, detail="" if ok else
                  f"exit {code}, {len(mats)} loops, defect {err:.3e}")


def two_pole_field() -> connection.HiggsField:
    q = TWO_POLE_RESIDUE
    g0 = LaurentMatrix.diagonal(LaurentPoly.constant(-q), LaurentPoly.constant(q))
    g1 = LaurentMatrix(_ZERO, LaurentPoly.constant(-q),
                       LaurentPoly.constant(-q), _ZERO)
    return connection.simple_pole_field([(0, g0), (1, g1)])


def _holonomy_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    out = os.path.join(workdir, "holonomy_out.json")

    field_path = _write(os.path.join(workdir, "two_pole.json"),
                        two_pole_field().to_json())
    loops = []
    for pole in (0j, 1 + 0j):
        for radius in LOOP_RADII:
            loops.append(_circle(pole, radius, rng.uniform(0, 2 * math.pi)))
        loops.append(_hexagon(pole, HEXAGON_RADIUS, rng.uniform(0, math.pi / 3)))
    loops_path = _write(os.path.join(workdir, "two_pole_loops.json"),
                        {"loops": loops})
    jobs.append(_cli_job("holonomy.two_pole", "8 loops",
                         ["holonomy", field_path, loops_path], out,
                         check_two_pole))

    for alpha in MODEL_WEIGHTS:
        field_path = _write(os.path.join(workdir, f"model_{alpha.numerator}_{alpha.denominator}.json"),
                            connection.model_end_field(alpha).to_json())
        loop_path = _write(os.path.join(workdir, f"circle_{alpha.numerator}_{alpha.denominator}.json"),
                           _circle(0j, 1.0, rng.uniform(0, 2 * math.pi)))
        jobs.append(_cli_job("holonomy.model_end", f"alpha {alpha}",
                             ["holonomy", field_path, loop_path], out,
                             check_model_end(alpha)))
    return jobs


# ---------------------------------------------------------------------------
# exact

END_WEIGHTS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
EXACT_BRYANT_DEGREES = (3, 5, 7)
NON_BRYANT_COUNT = 3
STABILITY_CASES = ((0, 3, (-3, 2)), (2, 4, (-4, 3)))   # genus, points, range
BOUNDS_CASES = ((0, 3, 3, "json"), (2, 12, 4, "json"), (3, 30, 5, "csv"))


def _empty(poly_json) -> bool:
    return poly_json == {"terms": []}


def check_verify(bryant: bool):
    def check(code: int, report) -> Result:
        ok = (code == (0 if bryant else 1)
              and report["is_special"] and _empty(report["det_residual"])
              and report["is_bryant"] == bryant
              and _empty(report["null_residual"]) == bryant)
        return Result(ok, detail="" if ok else f"verify verdict wrong, exit {code}")
    return check


def check_end(alpha: Fraction):
    def check(code: int, report) -> Result:
        ok = (code == (0 if report["stareq_pass"] else 1)
              and report["alpha"] == [alpha.numerator, alpha.denominator]
              and _empty(report["r1"]) and report["r2_matches_omega"] is True
              and report["stareq_pass"] == _empty(report["r2"]))
        return Result(ok, detail="" if ok else f"end report wrong, exit {code}")
    return check


def check_stability(weights: list[Fraction], lo: int, hi: int):
    """Literal re-evaluation of par(L) = deg L ± (1/2)Σ w over the sweep."""
    half_sum = sum(weights, Fraction(0)) / 2
    pars = []
    for k in range(lo, hi + 1):
        pars += [k - half_sum, k + half_sum]
    if any(p > 0 for p in pars):
        verdict, witness = "unstable", next(i for i, p in enumerate(pars) if p > 0)
    elif any(p == 0 for p in pars):
        verdict, witness = "semistable", next(i for i, p in enumerate(pars) if p == 0)
    else:
        verdict, witness = "stable", None

    def check(code: int, report) -> Result:
        margins = [Fraction(n, d) for n, d in report["margins"]]
        ok = (code == (0 if verdict == "stable" else 1)
              and report["verdict"] == verdict and report["witness"] == witness
              and margins == [-p for p in pars])
        return Result(ok, detail="" if ok else f"stability differs, exit {code}")
    return check


def expected_bounds(g: int, d: int, dp: int) -> dict:
    """The dimension counts as distributed literals (criterion 10)."""
    required = 7 * g - 3 + dp
    return {"genus": g, "degree": d, "point_count": dp,
            "required_d": required,
            "dim_grassmannian": 4 * d - 4 * g,
            "dim_quot": d - g,
            "dim_family_lower": 3 * d - 4 * g + 4,
            "dim_special_lower": 3 * d - 4 * g,
            "rank_r": 2 * d + 3 * g - 3 + dp,
            "dim_moduli_lower": d - 7 * g + 7 - dp - 4,
            "hypothesis_met": d >= required}


def _bounds_job(workdir: str, g: int, d: int, dp: int, fmt: str) -> Job:
    out = os.path.join(workdir, "bounds_out")
    expect = expected_bounds(g, d, dp)

    def run():
        return cli.main(["bounds", str(g), str(d), str(dp),
                         "--format", fmt, "--out", out])

    def check(code) -> Result:
        with open(out) as fh:
            text = fh.read()
        if fmt == "csv":
            (row,) = list(csv.DictReader(io.StringIO(text)))
            got = {k: (v == "True" if k == "hypothesis_met" else int(v))
                   for k, v in row.items()}
        else:
            got = json.loads(text)
        ok = code == 0 and got == expect
        return Result(ok, detail="" if ok else f"bounds differ, exit {code}")

    return Job("exact.bounds", f"{g} {d} {dp} {fmt}", run, check)


def _null_field_job(matrix: LaurentMatrix, bryant: bool, label: str) -> Job:
    """higgs_from_frame -> ktuy_check -> det_higgs -> cousin_data."""
    def run():
        theta = connection.higgs_from_frame(matrix)
        ktuy, _ = connection.ktuy_check(theta)
        det_num, _ = connection.det_higgs(theta)
        try:
            triple = connection.cousin_data(theta)
        except errors.NotNull:
            triple = None
        return ktuy, det_num.is_zero, triple

    def check(value) -> Result:
        ktuy, det_zero, triple = value
        ok = (ktuy == det_zero == bryant
              and (triple is None) != bryant
              and (triple is None or triple.sum_squares_numerator().is_zero))
        return Result(ok, detail="" if ok else "null-field verdicts disagree")

    return Job("exact.null_field", label, run, check)


def _exact_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    out = os.path.join(workdir, "exact_out.json")
    corpus = [(bryant_frame(rng, _poly(rng, -2, deg))[0], True, f"bryant deg {deg}")
              for deg in EXACT_BRYANT_DEGREES]
    corpus += [(non_bryant_frame(rng), False, f"non-bryant {i}")
               for i in range(NON_BRYANT_COUNT)]

    for i, (matrix, bryant, label) in enumerate(corpus):
        path = _write(os.path.join(workdir, f"frame_{i}.json"),
                      {"matrix": matrix.to_json()})
        jobs.append(_cli_job("exact.verify", label, ["verify", path], out,
                             check_verify(bryant)))
        for alpha in END_WEIGHTS:
            jobs.append(_cli_job("exact.end", f"{label}, alpha {alpha}",
                                 ["end", str(alpha), path], out,
                                 check_end(alpha)))
        jobs.append(_null_field_job(matrix, bryant, label))

    for i, (genus, count, (lo, hi)) in enumerate(STABILITY_CASES):
        weights = [Fraction(rng.randint(1, 11), 12) for _ in range(count)]
        path = _write(os.path.join(workdir, f"stability_{i}.json"),
                      {"genus": genus,
                       "points": [{"label": f"p{j}", "weight": str(w)}
                                  for j, w in enumerate(weights)]})
        jobs.append(_cli_job("exact.stability", f"genus {genus}, {count} points",
                             ["stability", path, "--enumerate", str(lo), str(hi)],
                             out, check_stability(weights, lo, hi)))

    for g, d, dp, fmt in BOUNDS_CASES:
        jobs.append(_bounds_job(workdir, g, d, dp, fmt))
    return jobs


_BUILDERS = {"surface": _surface_jobs, "holonomy": _holonomy_jobs,
             "exact": _exact_jobs}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of one round to workdir and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir)


def warmup_jobs(workload: str, workdir: str) -> list[Job]:
    """One cheap job per subcommand of the workload, seed-independent."""
    out = os.path.join(workdir, "warmup_out.json")
    if workload == "surface":
        return [_cli_job("warmup", "surface", ["surface", "horosphere", "--n", "2"],
                         out, _surface_check(_grid(0j, 1.0, 2), 0.0, None))]
    if workload == "holonomy":
        alpha = Fraction(1, 4)
        field_path = _write(os.path.join(workdir, "warmup_field.json"),
                            connection.model_end_field(alpha).to_json())
        loop_path = _write(os.path.join(workdir, "warmup_loop.json"),
                           _circle(0j, 1.0, 0.0))
        return [_cli_job("warmup", "holonomy", ["holonomy", field_path, loop_path],
                         out, check_model_end(alpha))]
    return [_cli_job("warmup", "verify", ["verify", "horosphere"], out,
                     check_verify(True)),
            _bounds_job(workdir, 0, 3, 3, "json")]
