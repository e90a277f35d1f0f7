"""Acceptance suite: the ten headline guarantees, one test each.

Every test prints a single PASS/FAIL line (visible under pytest -s; the
pytest verdict itself is authoritative).  Exact claims are asserted with
==/is_zero on rational data; numeric claims carry the stated tolerance
and, where stated, a wall-clock budget.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np

from bryantlab.connection import (HiggsField, PathLoop, Path, cousin_data,
                                  det_higgs, higgs_from_frame, holonomy,
                                  ktuy_check, model_end_field,
                                  parallel_transport, simple_pole_field)
from bryantlab.ends import (MeromorphicFramePair, SingularEnd, omega_alpha,
                            polo_bound_check, stareq_residuals,
                            weight_from_holonomy)
from bryantlab.frames import CATALOG_NAMES, catalog, check_bryant
from bryantlab.hyperbolic import GridSpec, mean_curvature
from bryantlab.parabolic import (MarkedPoint, ParabolicData,
                                 SubbundleCandidate, existence_bounds,
                                 parabolic_degree, stability_verdict)
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly
from conftest import (seeded_frame_of_order, seeded_null_matrix,
                      seeded_trace_free)


def report(n: int, ok: bool, detail: str, failures=()):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, "; ".join(failures) or detail


def annulus_polygon(rng: random.Random, n_vertices: int = 10) -> list[complex]:
    """A star-shaped polygon around 0 staying well clear of the pole.

    Angle gaps are bounded away from π, so every chord keeps distance
    >= 0.6 cos(0.3 π) ≈ 0.35 from the origin.
    """
    gaps = [rng.uniform(0.5, 1.5) for _ in range(n_vertices)]
    total = sum(gaps)
    angles, acc = [], 0.0
    for g in gaps:
        angles.append(acc)
        acc += 2 * math.pi * g / total
    return [rng.uniform(0.6, 1.4) * cmath.exp(1j * a) for a in angles]


def test_criterion_01_exact_bryant_verification():
    t0 = time.perf_counter()
    failures = []
    for name in CATALOG_NAMES:
        rep = check_bryant(catalog(name).matrix)
        if not (rep.is_bryant and rep.det_residual.is_zero
                and rep.null_residual.is_zero):
            failures.append(f"{name} is not exactly Bryant")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, not failures,
           f"{len(CATALOG_NAMES)} catalog frames, zero residuals, "
           f"{elapsed:.3f}s", failures)


def test_criterion_02_mean_curvature_one():
    t0 = time.perf_counter()
    failures = []
    grid = GridSpec(center=0j, radius=1.0, n=10)
    for name in ("horosphere", "affine-null"):
        frame = catalog(name)
        errs_full = [abs(mean_curvature(frame, z, step=1e-4).H - 1.0)
                     for z in grid.points()]
        if max(errs_full) > 1e-4:
            failures.append(f"{name}: max |H-1| = {max(errs_full):.2e} > 1e-4")
        errs_half = [abs(mean_curvature(frame, z, step=5e-5).H - 1.0)
                     for z in grid.points()]
        # second order: halving the step divides the error by >= 3
        # (0 <= 0 when the stencil is exact, as it is for these frames)
        if max(errs_half) > max(errs_full) / 3:
            failures.append(f"{name}: halved step gave {max(errs_half):.2e} "
                            f"vs {max(errs_full):.2e}/3")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    report(2, not failures,
           f"2 frames x 100 points, |H-1| <= 1e-4 and second-order "
           f"halving, {elapsed:.2f}s", failures)


def test_criterion_03_holonomy_oracle_and_path_properties():
    failures = []
    circle = PathLoop.circle(0j, 1.0)
    for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(7, 10)):
        got = parallel_transport(model_end_field(alpha), circle)
        w = cmath.exp(2j * math.pi * float(alpha))
        err = float(np.linalg.norm(got - np.diag([w, 1 / w])))
        if err > 1e-8:
            failures.append(f"alpha={alpha}: oracle defect {err:.2e}")

    theta = model_end_field(Fraction(1, 3))
    rng = random.Random(20260819)
    for trial in range(20):
        verts = annulus_polygon(rng)

        open_path = Path.polyline(verts)
        y = parallel_transport(theta, open_path)
        back = parallel_transport(theta, open_path.reverse())
        rev_err = float(np.linalg.norm(back @ y - np.eye(2)))
        if rev_err > 1e-9:
            failures.append(f"trial {trial}: reversal defect {rev_err:.2e}")

        cut = rng.randint(2, len(verts) - 2)
        closed = verts + [verts[0]]
        p1 = Path.polyline(closed[:cut + 1])
        p2 = Path.polyline(closed[cut:])
        whole = parallel_transport(theta, p1 + p2)
        parts = parallel_transport(theta, p2) @ parallel_transport(theta, p1)
        cat_err = float(np.linalg.norm(whole - parts))
        if cat_err > 1e-9:
            failures.append(f"trial {trial}: concatenation defect {cat_err:.2e}")

        polygon = PathLoop.polygon(verts)
        base = verts[0]
        same_base_circle = PathLoop.circle(0j, abs(base),
                                           base_angle=cmath.phase(base))
        hom_err = float(np.linalg.norm(parallel_transport(theta, polygon)
                                       - parallel_transport(theta, same_base_circle)))
        if hom_err > 1e-9:
            failures.append(f"trial {trial}: homotopy defect {hom_err:.2e}")
    report(3, not failures,
           "3 transport oracles <= 1e-8; reversal/concatenation/homotopy "
           "<= 1e-9 on 20 random polygons each", failures)


def test_criterion_04_trace_identity_suite():
    failures = []
    rng = random.Random(41)
    corpus = [seeded_trace_free(rng) for _ in range(60)]
    corpus += [seeded_null_matrix(rng) for _ in range(60)]
    for i, n in enumerate(corpus):
        theta = HiggsField(n)
        ok, tr = ktuy_check(theta)
        d, _ = det_higgs(theta)
        if tr != d.scale(-2):
            failures.append(f"field {i}: trace(N^2) != -2 det N")
        if ok != d.is_zero:
            failures.append(f"field {i}: ktuy and det disagree")
    for name in CATALOG_NAMES:
        num = higgs_from_frame(catalog(name)).num
        if not num.det().is_zero:
            failures.append(f"{name}: Higgs field is not null")
        if not all(p.is_zero for p in (num @ num).entries):
            failures.append(f"{name}: Higgs field is not nilpotent")
    report(4, not failures,
           f"{len(corpus)} random trace-free fields: trace(N^2) = -2 det N "
           "exactly, ktuy <=> det = 0; catalog fields nilpotent", failures)


def test_criterion_05_cousin_isotropy():
    failures = []
    rng = random.Random(51)
    for i in range(100):
        theta = HiggsField(seeded_null_matrix(rng))
        triple = cousin_data(theta)
        if not triple.sum_squares_numerator().is_zero:
            failures.append(f"field {i}: omega1^2+omega2^2+omega3^2 != 0")
    report(5, not failures,
           "100 random rank-one null fields: 1-form triple exactly "
           "isotropic", failures)


_WEIGHTS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _order_corpus():
    rng = random.Random(61)
    return [seeded_frame_of_order(rng, 1, 4) for _ in range(100)]


def test_criterion_06_pole_bound():
    failures = []
    checked = 0
    for i, m in enumerate(_order_corpus()):
        pair = MeromorphicFramePair.from_matrix(m)
        for alpha in _WEIGHTS:
            rep = polo_bound_check(SingularEnd(alpha), pair)
            checked += 1
            if not rep.passes:
                failures.append(
                    f"frame {i}, alpha={alpha}: pole {rep.pole_order} "
                    f"> bound {rep.bound} (n={rep.order_n})")
    report(6, not failures,
           f"{checked} pole-order checks on 100 frames of order 1..4, "
           "zero violations", failures)


def test_criterion_07_stareq_matches_wedge():
    failures = []
    checked = 0
    for i, m in enumerate(_order_corpus()):
        pair = MeromorphicFramePair.from_matrix(m)
        for alpha in _WEIGHTS:
            end = SingularEnd(alpha)
            r1, r2 = stareq_residuals(end, pair)
            checked += 1
            if not r1.is_zero:
                failures.append(f"frame {i}: r1 != 0 on a unit-det frame")
            if r2 != omega_alpha(end, pair).shift(2):
                failures.append(f"frame {i}, alpha={alpha}: r2 != z^2 Omega")
    report(7, not failures,
           f"{checked} exact identities r2 = z^2 Omega_alpha with r1 = 0",
           failures)


def test_criterion_08_weight_round_trip():
    failures = []
    circle = PathLoop.circle(0j, 1.0)
    targets = (Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3),
               Fraction(1, 2), Fraction(2, 3))
    for alpha in targets:
        u = parallel_transport(model_end_field(alpha), circle)
        got = weight_from_holonomy(u)
        if not isinstance(got, Fraction) or got != alpha:
            failures.append(f"alpha={alpha}: reconstructed {got!r}")
    report(8, not failures,
           f"{len(targets)} weights recovered exactly as rationals",
           failures)


def test_criterion_09_period_discrimination():
    failures = []
    circle = PathLoop.circle(0j, 1.0)

    real = holonomy(model_end_field(Fraction(1, 4)), [circle])
    if not real.passes:
        failures.append(f"real weight rejected (defect "
                        f"{real.unitary_defects[0]:.2e})")

    imag = holonomy(model_end_field(GaussianRational(Fraction(0), Fraction(1))),
                    [circle])
    if imag.passes or imag.unitary_defects[0] <= 100:
        failures.append(f"imaginary weight: defect "
                        f"{imag.unitary_defects[0]:.2e}, expected > 100")

    q = Fraction(1, 4)
    zero = LaurentPoly.zero()
    g0 = LaurentMatrix.diagonal(LaurentPoly.constant(-q), LaurentPoly.constant(q))
    g1 = LaurentMatrix(zero, LaurentPoly.constant(-q),
                       LaurentPoly.constant(-q), zero)
    theta = simple_pole_field([(0, g0), (1, g1)])
    loops = [PathLoop.circle(0j, 0.5, base_angle=0.0),
             PathLoop.circle(1 + 0j, 0.5, base_angle=math.pi)]
    two = holonomy(theta, loops, commutators=True)
    if two.abelian or two.commutator_defects[0] <= 0.1:
        failures.append(f"two-puncture configuration: commutator defect "
                        f"{two.commutator_defects[0]:.2e}, expected > 0.1")
    report(9, not failures,
           f"real weight passes; imaginary defect "
           f"{imag.unitary_defects[0]:.1f} > 100; two-puncture commutator "
           f"defect {two.commutator_defects[0]:.2f} > 0.1", failures)


def test_criterion_10_bounds_calculator():
    failures = []
    checked = 0
    for g in range(0, 4):
        for d in range(0, 31):
            for dp in range(0, 6):
                got = existence_bounds(g, d, dp).to_json()
                # independent spreadsheet route: distributed literals
                required = 7 * g - 3 + dp
                expect = {
                    "genus": g, "degree": d, "point_count": dp,
                    "required_d": required,
                    "dim_grassmannian": 4 * d - 4 * g,
                    "dim_quot": d - g,
                    "dim_family_lower": 3 * d - 4 * g + 4,
                    "dim_special_lower": 3 * d - 4 * g,
                    "rank_r": 2 * d + 3 * g - 3 + dp,
                    "dim_moduli_lower": d - 7 * g + 7 - dp - 4,
                    "hypothesis_met": d >= required,
                }
                checked += 1
                if got != expect:
                    failures.append(f"(g,d,dP)=({g},{d},{dp}): {got} != {expect}")

    trivial = ParabolicData(genus=0, points=())
    if parabolic_degree(trivial, SubbundleCandidate(3, ())) != 3:
        failures.append("trivial structure: par != deg")

    mixed = ParabolicData(genus=0, points=(
        MarkedPoint("p0", Fraction(1, 4)), MarkedPoint("p1", Fraction(1, 3))))
    if parabolic_degree(mixed, SubbundleCandidate(0, (True, False))) != Fraction(-1, 24):
        failures.append("mixed-match example: par != -1/24")

    halves = ParabolicData(genus=0, points=(
        MarkedPoint("p0", Fraction(1, 2)), MarkedPoint("p1", Fraction(1, 2))))
    both = SubbundleCandidate(0, (True, True))
    if parabolic_degree(halves, both) != Fraction(1, 2):
        failures.append("both-match example: par != 1/2")
    verdict = stability_verdict(halves, [both])
    if verdict.verdict != "unstable" or verdict.witness != 0:
        failures.append("both-match example not flagged unstable")
    if stability_verdict(trivial, [SubbundleCandidate(-1, ())]).verdict != "stable":
        failures.append("negative-degree candidate not stable")
    if stability_verdict(trivial, [SubbundleCandidate(0, ())]).verdict != "semistable":
        failures.append("zero-degree candidate not semistable")

    report(10, not failures,
           f"{checked} grid reports match literal re-evaluation; three "
           "worked parabolic examples and verdicts agree", failures)
