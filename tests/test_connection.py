"""Higgs fields, paths, transport, holonomy.

The closed-form monodromy of the model end -diag(α, -α) dz/z is the
oracle for every integrator convention; everything else is checked
against hand arithmetic or structural identities.
"""

import cmath
import itertools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bryantlab import connection
from bryantlab.connection import (ArcSegment, HiggsField, LineSegment, Path,
                                  PathLoop, cousin_data, det_higgs,
                                  higgs_from_frame, holonomy, ktuy_check,
                                  model_end_field, parallel_transport,
                                  report_from_matrices, simple_pole_field,
                                  su2_defects)
from bryantlab.defaults import DEFAULTS
from bryantlab.ends import weight_from_holonomy
from bryantlab.errors import (NotNull, NotRepresentable, NotSpecial,
                              PoleTooClose, ToleranceNotMet)
from bryantlab.frames import CATALOG_NAMES, catalog
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly
from conftest import gaussian_rationals, laurent_polys, seeded_poly, trace_free_matrices

ONE = LaurentPoly.one()
Z = LaurentPoly.z()
ZERO = LaurentPoly.zero()

# the rank-one null workhorse [[z, -z^2], [1, -z]]
NULL_FIELD = HiggsField(LaurentMatrix(Z, -(Z * Z), ONE, -Z))
ZERO_FIELD = HiggsField(LaurentMatrix.diagonal(ZERO, ZERO))


def unit_circle(**kw):
    return PathLoop.circle(0j, 1.0, **kw)


class TestHiggsField:
    def test_trace_free_enforced(self):
        with pytest.raises(ValueError):
            HiggsField(LaurentMatrix.diagonal(ONE, ONE))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            HiggsField(LaurentMatrix.diagonal(ONE, -ONE), ZERO)

    def test_model_field_poles(self):
        assert model_end_field(Fraction(1, 4)).poles == (0j,)
        assert ZERO_FIELD.poles == ()

    @pytest.mark.parametrize("num, den, poles", [
        (LaurentMatrix.diagonal(Z, -Z), Z, ()),
        (LaurentMatrix.diagonal(ONE, -ONE), Z * Z - Z, (0j, 1 + 0j)),
        (LaurentMatrix.diagonal(Z, -Z), Z * Z - Z, (1 + 0j,)),
    ])
    def test_den_roots_and_cancelled_zero(self, num, den, poles):
        # a z factor shared by numerator and den is not a pole
        assert HiggsField(num, den).poles == poles

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_pole_of_order_k_listed_once(self, k):
        # laurent_roots on (z - 1)^k alone gives k roots up to eps^(1/k) from 1
        g = LaurentMatrix.diagonal(ONE, -ONE)
        assert HiggsField(g, (Z - ONE) ** k).poles == (1 + 0j,)

    def test_double_and_simple_pole(self):
        g = LaurentMatrix.diagonal(ONE, -ONE)
        poles = HiggsField(g, (Z - ONE) ** 2 * (Z + LaurentPoly.constant(2))).poles
        assert len(poles) == 2
        assert abs(poles[0] - 1) <= 1e-12 and abs(poles[1] + 2) <= 1e-12

    def test_simple_pole_field(self):
        g = LaurentMatrix.diagonal(ONE, -ONE)
        theta = simple_pole_field([(0, g), (1, g)])
        assert set(theta.poles) == {0j, 1 + 0j}
        # value at z=2: 1/2 + 1/1 on the (0,0) entry
        assert abs(theta.value(2.0)[0][0] - 1.5) < 1e-14

    def test_single_pole_matches_model(self):
        alpha = Fraction(1, 3)
        g = LaurentMatrix.diagonal(LaurentPoly.constant(-alpha),
                                   LaurentPoly.constant(alpha))
        for z in (0.5 + 0.5j, -1.2 + 0.3j):
            a = simple_pole_field([(0, g)]).value(z)
            b = model_end_field(alpha).value(z)
            assert np.allclose(a, b, atol=1e-14)

    def test_removable_singularity_is_not_a_pole(self):
        # Θ = 5i·diag(1, -1)·(z - 1000)/(z - 1000) is the constant 5i·diag(1, -1)
        p = LaurentPoly({0: GaussianRational(0, -5000), 1: GaussianRational(0, 5)})
        theta = HiggsField(LaurentMatrix.diagonal(p, -p), LaurentPoly({0: -1000, 1: 1}))
        assert theta.poles == ()
        y = parallel_transport(theta, Path.polyline([999, 1001]))
        w = cmath.exp(-10j)
        assert np.linalg.norm(y - np.diag([w, 1 / w])) <= 1e-12
        # a zero residue leaves no pole behind
        g = LaurentMatrix.diagonal(LaurentPoly.constant(-Fraction(1, 4)),
                                   LaurentPoly.constant(Fraction(1, 4)))
        zero = LaurentMatrix.diagonal(ZERO, ZERO)
        assert simple_pole_field([(0, g), (1, zero)]).poles == (0j,)

    def test_zero_numerator_over_z_has_no_pole(self):
        theta = HiggsField(LaurentMatrix.diagonal(ZERO, ZERO), Z)
        assert theta.poles == () and theta.den == ONE
        y = parallel_transport(theta, PathLoop.circle(0j, 1e-4))
        assert np.array_equal(y, np.eye(2))

    def test_model_end_is_stored_over_z(self):
        a = Fraction(2, 7)
        g = LaurentMatrix.diagonal(LaurentPoly.constant(-a), LaurentPoly.constant(a))
        assert model_end_field(a) == HiggsField(g, Z)

    @given(trace_free_matrices(max_terms=3), laurent_polys(max_terms=3),
           gaussian_rationals, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_normal_form(self, num, den, r, k):
        assume(not den.is_zero)
        c = LaurentPoly({1: 1, 0: -r}).shift(k)
        theta = HiggsField(num.map(lambda p: p * c), den * c)
        assert theta == HiggsField(num, den)
        assert all(p.is_zero or p.valuation() >= 0
                   for p in theta.num.entries + (theta.den,))
        assert (theta.den.coeff(0).is_zero) == (0j in theta.poles)

    def test_laurent_file_loads_to_the_same_field(self):
        # the model end α = 1/3 as older files wrote it: z^-1 entries over 1
        def poly(exp, re):
            return {"terms": [{"exp": exp, "re": re, "im": "0"}]}
        data = {"numerator": [[poly(-1, "-1/3"), {"terms": []}],
                              [{"terms": []}, poly(-1, "1/3")]],
                "denominator": poly(0, "1")}
        theta, model = HiggsField.from_json(data), model_end_field(Fraction(1, 3))
        assert theta == model and theta.den == Z
        assert np.array_equal(parallel_transport(theta, unit_circle()),
                              parallel_transport(model, unit_circle()))

    def test_coefficient_beyond_the_double_range_raises_at_each_use(self):
        # the field constructs; its float coefficients are read at first use,
        # and NotRepresentable is raised there and again at every later use
        big = LaurentPoly.constant(10 ** 400)
        theta = HiggsField(LaurentMatrix.diagonal(big, -big), Z)
        assert theta.poles == (0j,)
        for _ in range(2):
            with pytest.raises(NotRepresentable, match="exceeds the double range"):
                parallel_transport(theta, unit_circle())
        with pytest.raises(NotRepresentable):
            holonomy(theta, [unit_circle()])

    def test_json_round_trip(self):
        at_i = GaussianRational(Fraction(0), Fraction(1))
        theta = simple_pole_field([(0, LaurentMatrix.diagonal(ONE, -ONE)),
                                   (at_i, LaurentMatrix(ZERO, ONE, ONE, ZERO))])
        again = HiggsField.from_json(theta.to_json())
        assert again.num == theta.num and again.den == theta.den


class TestFrameHiggs:
    def test_horosphere(self):
        theta = higgs_from_frame(catalog("horosphere"))
        assert theta.num == LaurentMatrix(ZERO, ONE, ZERO, ZERO)

    def test_lower_shear(self):
        theta = higgs_from_frame(catalog("lower-shear"))
        assert theta.num == LaurentMatrix(ZERO, ZERO, ONE, ZERO)

    def test_identity_frame(self):
        assert higgs_from_frame(LaurentMatrix.identity()).num.det().is_zero

    def test_not_special(self):
        with pytest.raises(NotSpecial):
            higgs_from_frame(LaurentMatrix.diagonal(Z, Z))

    def test_catalog_nilpotent(self):
        for name in ("horosphere", "lower-shear", "affine-null", "cusp-degree2"):
            theta = higgs_from_frame(catalog(name))
            assert theta.num.det().is_zero
            sq = theta.num @ theta.num
            assert all(p.is_zero for p in sq.entries)


class TestKtuyDet:
    def test_nilpotent_passes(self):
        ok, tr = ktuy_check(higgs_from_frame(catalog("horosphere")))
        assert ok and tr.is_zero

    def test_diagonal_fails(self):
        theta = HiggsField(LaurentMatrix.diagonal(ONE, -ONE))
        ok, tr = ktuy_check(theta)
        assert not ok
        assert tr == LaurentPoly.constant(2)
        d, den_sq = det_higgs(theta)
        assert d == -ONE and den_sq == ONE

    def test_rank_one_passes(self):
        ok, tr = ktuy_check(NULL_FIELD)
        assert ok and tr.is_zero
        d, _ = det_higgs(NULL_FIELD)
        assert d.is_zero

    @given(trace_free_matrices(max_terms=3))
    @settings(max_examples=120)
    def test_cayley_hamilton(self, n):
        theta = HiggsField(n)
        _, tr = ktuy_check(theta)
        d, _ = det_higgs(theta)
        assert tr == d.scale(-2)
        assert ktuy_check(theta)[0] == d.is_zero


class TestTraceOfSquare:
    """ktuy_check forms tr N² as 2(a² + bc), valid because N is trace-free."""

    @staticmethod
    def agrees(theta):
        assert ktuy_check(theta)[1] == (theta.num @ theta.num).trace()

    @given(trace_free_matrices(max_terms=4))
    @settings(max_examples=150)
    def test_random_trace_free_fields(self, n):
        self.agrees(HiggsField(n))

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, name):
        self.agrees(higgs_from_frame(catalog(name)))

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_bryant_frames(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        rng = random.Random(seed)
        frame, _ = workloads.bryant_frame(rng, seeded_poly(rng, -2, 5, max_terms=4, allow_zero=False))
        assert frame.derivative().det().is_zero
        self.agrees(higgs_from_frame(frame))


class TestCousin:
    def test_horosphere_triple(self):
        c = cousin_data(higgs_from_frame(catalog("horosphere")))
        assert c.omega1.is_zero
        assert c.omega2 == LaurentPoly.constant(Fraction(1, 2))
        assert c.omega3 == LaurentPoly.constant(GaussianRational(Fraction(0), Fraction(-1, 2)))
        assert c.sum_squares_numerator().is_zero and c.is_null

    def test_zero_field(self):
        c = cousin_data(ZERO_FIELD)
        assert c.omega1.is_zero and c.omega2.is_zero and c.omega3.is_zero

    def test_rank_one_expansion(self):
        c = cousin_data(NULL_FIELD)
        half = Fraction(1, 2)
        half_i = GaussianRational(Fraction(0), half)
        assert c.omega1 == Z
        assert c.omega2 == (ONE - Z * Z).scale(half)
        assert c.omega3 == (ONE + Z * Z).scale(half_i)
        assert c.sum_squares_numerator().is_zero

    def test_not_null_rejected(self):
        with pytest.raises(NotNull):
            cousin_data(HiggsField(LaurentMatrix.diagonal(ONE, -ONE)))

    def test_json(self):
        data = cousin_data(NULL_FIELD).to_json()
        assert data["is_null"] is True
        assert set(data) == {"omega1", "omega2", "omega3", "den", "is_null"}


def _fraction_line_distance(seg: LineSegment, w: complex) -> float:
    """LineSegment.min_distance with a × b summed in Fraction, as it was
    before the integer form: the two must agree bit for bit."""
    a, b = seg.start - w, seg.end - w
    if not 0 < -(a * (b - a).conjugate()).real < abs(b - a) ** 2:
        return min(abs(a), abs(b))
    (x0, y0), (x1, y1), (u, v) = [map(Fraction, (z.real, z.imag))
                                  for z in (seg.start, seg.end, w)]
    return abs(float((x0 - u) * (y1 - v) - (y0 - v) * (x1 - u))) / abs(b - a)


class TestPaths:
    def test_line_basics(self):
        seg = LineSegment(0j, 2 + 2j)
        assert seg.at(0.5) == 1 + 1j
        assert seg.velocity(0.3) == 2 + 2j
        assert seg.reverse().at(0.0) == 2 + 2j
        assert abs(seg.min_distance(2j) - math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("w", [0j, 3 - 4j])
    def test_line_distance_is_exact_far_from_the_ends(self, w):
        # a line 10 long passing 1e-3 from w: start + t·d - w loses 1e-12 of
        # the distance to cancellation, the exact a × b keeps it to 2 ulp
        foot, direction = 1e-3 * cmath.exp(0.5j), 1j * cmath.exp(0.5j)
        seg = LineSegment(w + foot - 10 * direction, w + foot + 10 ** 0.75 * direction)
        (x0, y0), (x1, y1), (u, v) = [map(Fraction, (z.real, z.imag))
                                      for z in (seg.start, seg.end, w)]
        cross = abs((x0 - u) * (y1 - v) - (y0 - v) * (x1 - u))
        exact = float(cross) / math.hypot(x1 - x0, y1 - y0)
        assert abs(seg.min_distance(w) - exact) <= 4 * math.ulp(exact)
        assert seg.reverse().min_distance(w) == seg.min_distance(w)

    @settings(max_examples=400, deadline=None)
    @given(st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False),
           st.floats(min_value=-8, max_value=8).map(lambda e: 10 ** e),
           st.floats(min_value=0, max_value=2 * math.pi),
           st.floats(min_value=-0.25, max_value=1.25),
           st.floats(min_value=-8, max_value=8).map(lambda e: 10 ** e),
           st.sampled_from([1, -1]))
    def test_line_distance_matches_the_fraction_cross_product(self, start, length, angle,
                                                            along, away, side):
        # w from 1e-8 to 1e8 off lines 1e-8 to 1e8 long: the integer a × b over
        # one power of 2 rounds exactly as the same sum taken in Fraction
        direction = cmath.exp(1j * angle)
        seg = LineSegment(start, start + length * direction)
        w = start + (along * length + side * away * 1j) * direction
        assume(cmath.isfinite(w))
        assert seg.min_distance(w) == _fraction_line_distance(seg, w)
        assert seg.reverse().min_distance(w) == _fraction_line_distance(seg.reverse(), w)

    def test_path_at_the_clearance_far_from_its_ends_transports(self):
        # the true distance is 1e-3·(1 - 4.5e-13), inside the 1e-12 allowance
        foot, direction = 1e-3 * cmath.exp(0.5j), 1j * cmath.exp(0.5j)
        path = Path.polyline([foot - 10 * direction, foot + 10 ** 0.75 * direction])
        parallel_transport(model_end_field(Fraction(1, 2)), path)

    def test_arc_basics(self):
        arc = ArcSegment(0j, 1.0, 0.0, math.pi)
        assert abs(arc.at(1.0) + 1) < 1e-12
        assert abs(arc.min_distance(0j) - 1.0) < 1e-12
        assert abs(arc.min_distance(2j) - 1.0) < 1e-12
        # point behind the arc: nearest endpoint wins
        assert abs(arc.min_distance(-2j) - abs(-2j - 1)) < 1e-12

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_arc_radius_must_be_positive(self, radius):
        # a negative radius still traces a circle, but min_distance would
        # measure |r - radius| against it and let a pole on the path pass
        with pytest.raises(ValueError, match="radius must be positive"):
            ArcSegment(0j, radius, 0.0, 2 * math.pi)

    def test_arc_min_distance_matches_sampling(self):
        rng = random.Random(20061)
        n = 4000
        t = np.arange(n + 1) / n
        for _ in range(300):
            center = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            radius = rng.uniform(0.1, 4.0)
            angle0 = rng.uniform(-50.0, 50.0)
            angle1 = angle0 + rng.choice((-1, 1)) * rng.uniform(0.0, 9.0)
            arc = ArcSegment(center, radius, angle0, angle1)
            w = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            sampled = np.abs(center + radius * np.exp(
                1j * (angle0 + t * (angle1 - angle0))) - w).min()
            # every arc point is within half a sample spacing of a sample
            resolution = radius * abs(angle1 - angle0) / (2 * n)
            d = arc.min_distance(w)
            assert d <= sampled + 1e-12
            assert d >= sampled - resolution - 1e-12

    def test_path_join_validation(self):
        with pytest.raises(ValueError):
            Path([LineSegment(0j, 1), LineSegment(2, 3)])

    @pytest.mark.parametrize("radius", [1e7, 1e8])
    def test_large_circle_closes_and_round_trips(self, radius):
        # rounding in e^{2πi} leaves the endpoints about 2.4e-9 apart at
        # radius 1e7; closure is judged relative to the points' size
        loop = PathLoop.circle(0j, radius)
        again = PathLoop.from_json(loop.to_json())
        assert again.base == loop.base
        assert again.segments == loop.segments

    @pytest.mark.parametrize("centre, half", [(1e7 + 0j, 2e-3), (1e8 + 1e8j, 0.01)],
                             ids=["1e7", "1e8+1e8i"])
    def test_small_square_far_out_keeps_its_closing_edge(self, centre, half):
        # closure is judged against the loop's size, not the distance from 0
        square = PathLoop.polygon([centre + half * 1j ** k for k in range(4)])
        assert len(square.segments) == 4

    def test_open_path_far_out_is_not_a_loop(self):
        c = 1e8 + 1e8j
        with pytest.raises(ValueError, match="loop is not closed"):
            PathLoop(Path.polyline([c + 0.01, c + 0.01j, c - 0.01, c - 0.01j]).segments)

    def test_polyline_and_concat(self):
        p = Path.polyline([0, 1, 1 + 1j])
        q = Path.polyline([1 + 1j, 0])
        joined = p + q
        assert joined.start == 0 and joined.end == 0
        assert len(joined.segments) == 3

    def test_loop_closure(self):
        with pytest.raises(ValueError):
            PathLoop([LineSegment(0j, 1 + 0j)])

    def test_polygon(self):
        sq = PathLoop.polygon([1, 1j, -1, -1j])
        assert abs(sq.base - 1) < 1e-12
        assert len(sq.segments) == 4
        for vertices in ([], [1j]):
            with pytest.raises(ValueError):
                PathLoop.polygon(vertices)

    def test_loop_json_round_trip(self):
        loop = PathLoop.polygon([1, 1j, -1, -1j])
        again = PathLoop.from_json(loop.to_json())
        assert again.base == loop.base
        assert len(again.segments) == len(loop.segments)

    def test_loop_json_bad_kind(self):
        data = unit_circle().to_json()
        data["segments"][0]["kind"] = "spiral"
        with pytest.raises(ValueError):
            PathLoop.from_json(data)

    @pytest.mark.parametrize("path, value", [
        (("segments", 0, "radius"), True), (("segments", 0, "radius"), "1"),
        (("segments", 0, "radius"), 10 ** 400),
        (("segments", 0, "angle0"), False), (("segments", 0, "center"), ["0"]),
        (("segments", 0, "center"), [0.0]), (("segments", 0, "center"), []),
        (("base",), [True, False]), (("base",), ["1", "0"]), (("base",), "1"),
    ])
    def test_loop_json_takes_only_numbers(self, path, value):
        # each of these used to load, as the unit circle based at 1, or to
        # raise OverflowError (the integer radius beyond the double range)
        data = unit_circle().to_json()
        *where, key = path
        target = data
        for k in where:
            target = target[k]
        target[key] = value
        with pytest.raises(ValueError):
            PathLoop.from_json(data)

    def test_loop_json_integers_accepted(self):
        data = {"base": [1, 0], "segments": [{"kind": "arc", "center": [0, 0],
                                              "radius": 1, "angle0": 0,
                                              "angle1": 2 * math.pi}]}
        assert PathLoop.from_json(data).base == 1

    def test_loop_json_base_mismatch(self):
        data = unit_circle().to_json()
        data["base"] = [5.0, 0.0]
        with pytest.raises(ValueError):
            PathLoop.from_json(data)


class TestTransport:
    def test_zero_field_identity(self):
        y = parallel_transport(ZERO_FIELD, unit_circle())
        assert np.allclose(y, np.eye(2), atol=1e-12)

    def test_model_quarter(self):
        y = parallel_transport(model_end_field(Fraction(1, 4)), unit_circle())
        assert np.linalg.norm(y - np.diag([1j, -1j])) < 1e-8

    def test_model_half_is_minus_identity(self):
        y = parallel_transport(model_end_field(Fraction(1, 2)), unit_circle())
        assert np.linalg.norm(y + np.eye(2)) < 1e-8

    def test_det_one(self):
        y = parallel_transport(model_end_field(Fraction(7, 10)), unit_circle())
        assert abs(np.linalg.det(y) - 1) <= DEFAULTS.atol

    def test_pole_too_close(self):
        with pytest.raises(PoleTooClose):
            parallel_transport(model_end_field(Fraction(1, 4)),
                               PathLoop.circle(0j, 5e-4))

    def test_pole_too_close_reports_the_closest_approach(self):
        # the first segment passes the pole at 5e-4, the second ends at 1e-4
        path = Path.polyline([-1 + 5e-4j, 1 + 5e-4j, 1e-4])
        with pytest.raises(PoleTooClose, match="within 1.000e-04 of pole"):
            parallel_transport(model_end_field(Fraction(1, 4)), path)

    def test_tolerance_not_met(self):
        controls = DEFAULTS.with_(atol=1e-30)
        with pytest.raises(ToleranceNotMet):
            parallel_transport(model_end_field(Fraction(1, 3)), unit_circle(),
                               controls)

    def test_nan_field_raises_instead_of_looping(self):
        # α = 10^300 asks for a first step of 8e-302, below the resolution
        # 2^-52 of t; that raises, with no numpy warning on the way
        with pytest.raises(ToleranceNotMet):
            parallel_transport(model_end_field(Fraction(10 ** 300)),
                               PathLoop.circle(0j, 1.0))

    def test_poles_come_only_from_the_field(self):
        theta = model_end_field(Fraction(1, 4))
        tiny = PathLoop.circle(0j, 1e-5)
        with pytest.raises(TypeError):
            parallel_transport(theta, tiny, poles=[])
        with pytest.raises(TypeError):
            holonomy(theta, [tiny], poles=[])

    def test_reversal_inverse(self):
        theta = model_end_field(Fraction(1, 3))
        path = Path.polyline([1, 1 + 1j, -1 + 1j, -1 - 0.5j])
        y = parallel_transport(theta, path)
        back = parallel_transport(theta, path.reverse())
        assert np.linalg.norm(np.array(back) @ np.array(y) - np.eye(2)) < 1e-9

    def test_concatenation(self):
        theta = model_end_field(Fraction(1, 3))
        p = Path.polyline([1, 1 + 1j, -1 + 1j])
        q = Path.polyline([-1 + 1j, -1 - 1j])
        whole = parallel_transport(theta, p + q)
        parts = np.array(parallel_transport(theta, q)) @ np.array(parallel_transport(theta, p))
        assert np.linalg.norm(whole - parts) < 1e-9

    def test_homotopy_invariance(self):
        theta = model_end_field(Fraction(1, 3))
        circle = unit_circle()
        square = PathLoop.polygon([1, 1j, -1, -1j])
        a = parallel_transport(theta, circle)
        b = parallel_transport(theta, square)
        assert np.linalg.norm(np.array(a) - b) < 1e-9


def two_pole_field():
    """Residues diag(-1/4, 1/4) at 0 and [[0, -1/4], [-1/4, 0]] at 1."""
    q = Fraction(1, 4)
    g0 = LaurentMatrix.diagonal(LaurentPoly.constant(-q), LaurentPoly.constant(q))
    g1 = LaurentMatrix(ZERO, LaurentPoly.constant(-q), LaurentPoly.constant(-q), ZERO)
    return simple_pole_field([(0, g0), (1, g1)])


def hexagon(center, radius, rotation):
    return PathLoop.polygon([center + radius * cmath.exp(1j * (rotation + k * math.pi / 3))
                             for k in range(6)])


class TestTaylorTransport:
    """Closed forms for the Taylor-series transport."""

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000)
           .filter(lambda a: 0 < a < 1),
           st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-2, max_value=3).map(lambda e: 10 ** e))
    def test_model_end_oracle(self, alpha, base_angle, radius):
        y = parallel_transport(model_end_field(alpha),
                               PathLoop.circle(0j, radius, base_angle))
        w = cmath.exp(2j * math.pi * float(alpha))
        assert np.linalg.norm(y - np.diag([w, 1 / w])) <= 1e-12
        # no renormalization: det Y = 1 holds to the requested tolerance
        assert abs(np.linalg.det(y) - 1) <= DEFAULTS.atol

    def test_constant_nilpotent_field_is_linear(self):
        # Θ² = 0, so Y = I - Θ·Δz; every term past the first vanishes
        b = GaussianRational(Fraction(3), Fraction(-2))
        theta = HiggsField(LaurentMatrix(ZERO, LaurentPoly.constant(b), ZERO, ZERO))
        start, dz = 0.5 + 0j, 4 - 3j
        y = parallel_transport(theta, Path.polyline([start, start + dz]))
        assert y[0][0] == 1 and y[1][1] == 1 and y[1][0] == 0
        assert abs(y[0][1] + (3 - 2j) * dz) <= 1e-14 * abs(dz)

    def test_constant_diagonal_field_over_a_long_segment(self):
        # Y = diag(e^-50, e^50): each entry to relative accuracy, which one
        # series over the whole segment would lose to cancellation
        theta = HiggsField(LaurentMatrix.diagonal(LaurentPoly.constant(5),
                                                  LaurentPoly.constant(-5)))
        y = parallel_transport(theta, Path.polyline([0, 10]))
        assert y[0][1] == 0 and y[1][0] == 0
        assert abs(y[0][0] / math.exp(-50) - 1) <= 1e-12
        assert abs(y[1][1] / math.exp(50) - 1) <= 1e-12

    @pytest.mark.parametrize("pole", [0j, 1 + 0j])
    @pytest.mark.parametrize("shape", ["circle 0.3", "circle 0.5", "circle 0.95",
                                       "hexagon 0.6"])
    def test_two_pole_trace_oracle(self, pole, shape):
        # each loop encloses one pole with residue eigenvalues ±1/4, so
        # tr U = 2cos(π/2) = 0 and det U = 1, whatever the base point
        kind, radius = shape.split()
        loop = (PathLoop.circle(pole, float(radius), base_angle=2.0) if kind == "circle"
                else hexagon(pole, float(radius), 0.4))
        u = parallel_transport(two_pole_field(), loop)
        assert abs(np.trace(u)) <= 1e-12
        assert abs(np.linalg.det(u) - 1) <= 1e-12

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(7, 10)])
    def test_line_at_exactly_the_clearance(self, alpha):
        # the line passes 1e-3 = pole_clearance above the pole at 0; along
        # it Y = diag((z/z0)^α, (z/z0)^-α) on the principal branch
        z0, z1 = -1 + 1e-3j, 1 + 1e-3j
        y = parallel_transport(model_end_field(alpha), Path.polyline([z0, z1]))
        log = float(alpha) * (cmath.log(z1) - cmath.log(z0))
        assert np.linalg.norm(y - np.diag([cmath.exp(log), cmath.exp(-log)])) <= 1e-12

    def test_distant_pole_does_not_stretch_the_step(self):
        # Θ = diag(1, -1)·(5i + (1/4)/(z - 1000)): the pole is 1000 away, so
        # Θ's size must bound the steps; Y = diag(a, 1/a) on [0, 10] with
        # a = e^{-50i}·(990/1000)^{-1/4}
        p = LaurentPoly({0: GaussianRational(Fraction(1, 4), -5000),
                         1: GaussianRational(0, 5)})
        theta = HiggsField(LaurentMatrix.diagonal(p, -p), LaurentPoly({0: -1000, 1: 1}))
        assert theta.poles == (1000,)
        y = parallel_transport(theta, Path.polyline([0, 10]))
        a = cmath.exp(-50j) * 0.99 ** -0.25
        assert np.linalg.norm(y - np.diag([a, 1 / a])) <= 1e-12

    def test_tolerance_at_the_rounding_of_the_steps(self):
        # the unit circle takes 7 steps, whose 4·eps floors sum to 6.2e-15
        theta = model_end_field(Fraction(1, 3))
        w = cmath.exp(2j * math.pi / 3)
        for tol in (1e-6, 1e-12, 2e-14):
            y = parallel_transport(theta, unit_circle(), DEFAULTS.with_(atol=tol))
            assert np.linalg.norm(y - np.diag([w, 1 / w])) <= tol
            assert abs(np.linalg.det(y) - 1) <= tol
        with pytest.raises(ToleranceNotMet):
            parallel_transport(theta, unit_circle(), DEFAULTS.with_(atol=1e-15))

    def test_unit_circle_takes_seven_series(self, monkeypatch):
        # each step sums one series at both ends, each ρ/2 = 1/2 from its
        # midpoint, so a step covers an arc of about 1 (13 steps at one end)
        series = []
        step = connection._taylor_step
        monkeypatch.setattr(connection, "_taylor_step",
                            lambda *args: series.append(1) or step(*args))
        parallel_transport(model_end_field(Fraction(1, 3)), unit_circle())
        assert len(series) <= 7

    def test_leaving_the_double_range_raises(self):
        # Y = diag(e^-750, e^750) overflows; Φ's own terms stay finite
        theta = HiggsField(LaurentMatrix.diagonal(LaurentPoly.constant(5),
                                                  LaurentPoly.constant(-5)))
        with pytest.raises(ToleranceNotMet, match="double range"):
            parallel_transport(theta, Path.polyline([0, 150]))

    def test_den_below_the_double_range_keeps_its_pole(self):
        # diag(t, -t)/(t(1 + z)), t = 10^-400: every float of N and den would round to 0.0
        t = Fraction(1, 10 ** 400)
        tiny = HiggsField(LaurentMatrix.diagonal(LaurentPoly.constant(t), LaurentPoly.constant(-t)),
                          LaurentPoly({0: t, 1: t}))
        plain = HiggsField(LaurentMatrix.diagonal(ONE, -ONE), ONE + Z)
        assert tiny.poles == plain.poles == (-1 + 0j,)
        with pytest.raises(PoleTooClose):
            parallel_transport(tiny, Path.polyline([-2, 0]))
        y, ref = (np.array(parallel_transport(f, Path.polyline([1, 2]))) for f in (tiny, plain))
        assert np.abs(y - ref).max() <= 2 * DEFAULTS.atol * max(1.0, np.abs(ref).max())
        assert np.allclose(ref, np.diag([2 / 3, 3 / 2]))

    def test_field_beyond_the_double_range_raises(self):
        # diag(1, -1)/(10^-400(1 + z)): den reads as doubles once scaled, Θ does not
        t = Fraction(1, 10 ** 400)
        theta = HiggsField(LaurentMatrix.diagonal(ONE, -ONE), LaurentPoly({0: t, 1: t}))
        assert theta.poles == (-1 + 0j,)
        with pytest.raises(NotRepresentable):
            parallel_transport(theta, Path.polyline([1, 2]))

    def test_shift_beyond_the_double_range_raises(self):
        # the shift to a midpoint near 1e307 overflows, and ρ there is nan
        path = Path.polyline([complex(-1e300, -0.5), complex(1.7e308, 1e150)])
        with pytest.raises(ToleranceNotMet, match="leaves the double range"):
            parallel_transport(two_pole_field(), path)

    @settings(max_examples=80, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000)
           .filter(lambda a: 0 < a < 1),
           st.sampled_from([1e-6, 1e-9, 1e-12]),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.one_of(
               st.tuples(st.just("arc"),
                         st.floats(min_value=-2, max_value=3).map(lambda e: 10 ** e),
                         st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)
                         .filter(lambda s: abs(s) > 1e-3)),
               st.tuples(st.just("line"), st.floats(min_value=1, max_value=2),
                         st.tuples(*[st.floats(min_value=-3, max_value=1)
                                     .map(lambda e: 10 ** e)] * 2))))
    def test_open_paths_meet_their_closed_forms(self, alpha, atol, angle, shape):
        # along any path off the pole Y = diag((z1/z0)^α, (z1/z0)^-α), with
        # log(z1/z0) the change of log z along the path: i·sweep on an arc
        # about 0, the principal value on a line
        controls = DEFAULTS.with_(atol=atol)
        if shape[0] == "arc":
            _, radius, sweep = shape
            path = Path([ArcSegment(0j, radius, angle, angle + sweep)])
            log = 1j * sweep
        else:   # passes the pole at 1-2x the clearance
            _, gap, (back, ahead) = shape
            foot = gap * controls.pole_clearance * cmath.exp(1j * angle)
            direction = 1j * cmath.exp(1j * angle)
            z0, z1 = foot - back * direction, foot + ahead * direction
            path = Path.polyline([z0, z1])
            log = cmath.log(z1 / z0)
        y = parallel_transport(model_end_field(alpha), path, controls)
        a = cmath.exp(float(alpha) * log)
        bound = 2 * atol * max(1.0, *np.abs(y).ravel())
        assert np.linalg.norm(y - np.diag([a, 1 / a])) <= bound

    def test_huge_polynomial_field_raises_instead_of_crawling(self):
        # ||Θ|| = 1e20 asks for steps of 1e-20 on a unit segment
        theta = HiggsField(LaurentMatrix(ZERO, LaurentPoly.constant(10 ** 20), ZERO, ZERO))
        with pytest.raises(ToleranceNotMet):
            parallel_transport(theta, Path.polyline([0, 1]))


class TestHolonomy:
    def test_zero_field_three_loops(self):
        loops = [unit_circle(), PathLoop.circle(0j, 0.5),
                 PathLoop.polygon([1, 1j, -1, -1j])]
        rep = holonomy(ZERO_FIELD, loops)
        assert rep.passes
        for m in rep.matrices:
            assert np.allclose(m, np.eye(2), atol=1e-10)

    def test_empty_loop_list_rejected(self):
        with pytest.raises(ValueError, match="at least one loop"):
            holonomy(ZERO_FIELD, [])

    def test_third_weight_unitary(self):
        rep = holonomy(model_end_field(Fraction(1, 3)), [unit_circle()])
        w = cmath.exp(2j * math.pi / 3)
        assert rep.passes
        assert np.linalg.norm(rep.matrices[0] - np.diag([w, 1 / w])) < 1e-8

    def test_imaginary_weight_fails(self):
        theta = model_end_field(GaussianRational(Fraction(0), Fraction(1)))
        rep = holonomy(theta, [unit_circle()])
        assert not rep.passes
        assert rep.unitary_defects[0] > 100
        assert rep.verdict == "fails"

    def test_su2_defects_shape(self):
        u, d = su2_defects(np.diag([2.0, 0.5]).astype(complex))
        assert u > 1 and d < 1e-12

    def test_tolerance_comes_from_controls(self):
        tight = DEFAULTS.with_(su2_tol=1e-20)
        rep = holonomy(model_end_field(Fraction(1, 4)), [unit_circle()],
                       controls=tight)
        assert rep.tol == 1e-20
        # the α = 1/4 end's e^{-2πiR} has defects of exactly 0, so the verdict
        # is shown on the imaginary-weight end, whose unitary defect is 2.9e5
        theta = model_end_field(GaussianRational(Fraction(0), Fraction(1)))
        assert not holonomy(theta, [unit_circle()], DEFAULTS).passes
        assert holonomy(theta, [unit_circle()], DEFAULTS.with_(su2_tol=1e6)).passes

    @pytest.mark.parametrize("name", ["step", "atol", "su2_tol", "pole_clearance"])
    def test_controls_must_be_positive_and_finite(self, name):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                DEFAULTS.with_(**{name: value})

    def test_commutators_abelian(self):
        rep = holonomy(model_end_field(Fraction(1, 4)), [unit_circle()])
        assert rep.passes and rep.abelian
        assert rep.commutator_defects == ()

    def test_commutators_two_punctures(self):
        q = Fraction(1, 4)
        g0 = LaurentMatrix.diagonal(LaurentPoly.constant(-q), LaurentPoly.constant(q))
        g1 = LaurentMatrix(ZERO, LaurentPoly.constant(-q),
                           LaurentPoly.constant(-q), ZERO)
        theta = simple_pole_field([(0, g0), (1, g1)])
        loops = [PathLoop.circle(0j, 0.5, base_angle=0.0),
                 PathLoop.circle(1 + 0j, 0.5, base_angle=math.pi)]
        rep = holonomy(theta, loops)
        assert not rep.abelian
        assert rep.commutator_defects[0] > 0.1
        # the individual holonomies are elliptic (trace ~ 0, det 1) but not
        # unitary in this gauge, so the SU(2) verdict is a fail by design
        assert all(d < 1e-8 for d in rep.det_defects)
        assert not rep.passes

    def test_report_json(self):
        rep = holonomy(model_end_field(Fraction(1, 4)), [unit_circle()])
        data = rep.to_json()
        assert data["verdict"] == "passes"
        m = data["matrices"][0]
        assert len(m) == 2 and len(m[0]) == 2 and len(m[0][0]) == 2
        rep2 = holonomy(model_end_field(Fraction(1, 4)),
                        [unit_circle(), PathLoop.circle(0j, 0.5)])
        data2 = rep2.to_json()
        assert data2["abelian"] is True
        assert len(data2["commutator_defects"]) == 1


def _quarters(n):
    """Gaussian rationals (x + iy)/4 with |x|, |y| <= n."""
    return st.builds(lambda x, y: GaussianRational(Fraction(x, 4), Fraction(y, 4)),
                     st.integers(-n, n), st.integers(-n, n))


_QUARTER = _quarters(4)
_POLES = st.lists(_quarters(8), min_size=1, max_size=3, unique=True)


@st.composite
def _seeded_fields(draw):
    """simple_pole_field with residues in Q(i), or a random N over a den of
    distinct linear factors: 1-3 simple poles either way."""
    poles = draw(_POLES)
    if draw(st.booleans()):
        residues = [(p, LaurentMatrix(*(LaurentPoly.constant(x) for x in (a, b, c)),
                                      LaurentPoly.constant(-a)))
                    for p in poles for a, b, c in [draw(st.tuples(*[_QUARTER] * 3))]]
        theta = simple_pole_field(residues)
    else:
        coeffs = draw(st.lists(st.tuples(*[_QUARTER] * 3), min_size=1, max_size=6))
        a, b, c = (LaurentPoly(dict(enumerate(col))) for col in zip(*coeffs))
        den = LaurentPoly.one()
        for p in poles:
            den = den * LaurentPoly({1: 1, 0: -p})
        theta = HiggsField(LaurentMatrix(a, b, c, -a), den)
    assume(theta.poles and len(theta.poles) == theta.den.degree())
    return theta


def _transport_and_peak(theta, loop):
    """parallel_transport's matrix, and the largest entry of Y at the end of
    any of its steps."""
    peak, step = [1.0], connection._taylor_step

    def recorded(*args):
        y = step(*args)
        peak.append(max(map(abs, y)))
        return y

    connection._taylor_step = recorded
    try:
        return parallel_transport(theta, loop), max(peak)
    finally:
        connection._taylor_step = step


FAR = 10 ** 8 + 10 ** 8 * 1j


def _far_pole_field():
    """One simple pole at FAR with residue diag(-1/3, 1/3)."""
    third = Fraction(1, 3)
    return simple_pole_field([(GaussianRational(10 ** 8, 10 ** 8), LaurentMatrix.diagonal(
        LaurentPoly.constant(-third), LaurentPoly.constant(third)))])


class TestLocalMonodromy:
    """holonomy's route through the local Frobenius basis at one simple
    pole, against parallel_transport, the general route and reference."""

    @settings(max_examples=80, deadline=None)
    @given(_seeded_fields(), st.integers(0, 2), st.sampled_from([0.3, 0.6, 0.9]),
           st.sampled_from([0, 3, 4, 6, 8]), st.booleans(),
           st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_route_agrees_with_transport(self, theta, index, frac, sides, ccw,
                                         base_angle, shift_angle):
        # a circle (sides = 0) or a regular polygon of radius frac·ρ, ρ the
        # distance to the next pole, about a centre 0.1 of the radius off
        # the pole: only that pole lies inside, and every pole keeps clear
        p = theta.poles[index % len(theta.poles)]
        rho = min([abs(x - p) for x in theta.poles if x != p], default=2.0)
        radius = frac * rho
        centre = p + 0.1 * radius * cmath.exp(1j * shift_angle)
        if sides:
            turn = (1 if ccw else -1) * 2 * math.pi / sides
            loop = PathLoop.polygon([centre + radius * cmath.exp(1j * (base_angle + k * turn))
                                     for k in range(sides)])
        else:
            loop = PathLoop.circle(centre, radius, base_angle, ccw)
        try:
            want, peak = _transport_and_peak(theta, loop)
        except ToleranceNotMet:
            assume(False)
        (got,) = holonomy(theta, [loop]).matrices
        # the transport holds each step's tails to that step's |Y|, so where
        # |Y| grows on the way and shrinks again the reference is only good
        # to its peak (test_route_meets_an_independent_reference)
        bound = 4 * DEFAULTS.atol * max(1.0, peak, *np.abs(got).ravel())
        assert np.abs(np.array(got) - want).max() <= bound

    def test_route_meets_an_independent_reference(self):
        # one simple pole at 3i/4, clockwise around the circle of radius 1.8:
        # |Y| reaches 635 along the transport and ends near 1.6.  The
        # reference is an mpmath odefun solution at 30 digits, rounded to
        # doubles; parallel_transport misses it by 1.9e-10
        quarter_i = GaussianRational(Fraction(0), Fraction(1, 4))
        theta = HiggsField(LaurentMatrix(ZERO, LaurentPoly({5: -quarter_i}),
                                         LaurentPoly({4: quarter_i}), ZERO),
                           LaurentPoly({1: 1, 0: GaussianRational(0, Fraction(-3, 4))}))
        want = np.array([[1.5651768408980806 - 0.40949793298945003j,
                          0.7106754326223395 + 1.0432447547851325j],
                         [0.010485245903209558 + 0.22959386290675926j,
                          0.43196298723643267 + 0.22425155859048j]])
        loop = PathLoop.circle(0.75j, 1.8, 0.0, ccw=False)
        assert connection._local_monodromy(theta, loop, DEFAULTS) is not None
        (got,) = holonomy(theta, [loop]).matrices
        assert np.abs(got - want).max() <= 2 * DEFAULTS.atol * max(1.0, *np.abs(got).ravel())

    @pytest.mark.parametrize("theta, loop", [
        (two_pole_field(), PathLoop.circle(0.5 + 0j, 1.5)),
        (two_pole_field(), PathLoop([ArcSegment(0j, 0.5, 0.0, math.pi),
                                     ArcSegment(0j, 0.5, math.pi, 2 * math.pi)])),
        (two_pole_field(), PathLoop.polygon([0.5, 0.1 + 0.1j, 0.5j, -0.5, -0.5j])),
        (two_pole_field(), PathLoop([ArcSegment(0j, 0.5, 0.0, 4 * math.pi)])),
        (HiggsField(LaurentMatrix.diagonal(LaurentPoly.constant(Fraction(1, 100)),
                                           LaurentPoly.constant(Fraction(-1, 100))), Z * Z),
         unit_circle()),
        (simple_pole_field([
            (0, LaurentMatrix.diagonal(LaurentPoly.constant(Fraction(-1, 2)),
                                       LaurentPoly.constant(Fraction(1, 2)))),
            (3, LaurentMatrix(ZERO, LaurentPoly.constant(Fraction(1, 4)),
                              LaurentPoly.constant(Fraction(1, 4)), ZERO))]),
         unit_circle()),
    ], ids=["both poles", "two half-arcs", "concave polygon", "swept twice",
            "double pole", "resonant"])
    def test_other_loops_take_the_transport(self, theta, loop):
        # resonant: R = diag(-1/2, 1/2) at 0, so k + ad R is singular at
        # k = 1, where the pole at 3 makes the right side nonzero
        assert connection._local_monodromy(theta, loop, DEFAULTS) is None
        (got,) = holonomy(theta, [loop]).matrices
        assert np.array_equal(got, parallel_transport(theta, loop))

    def test_clearance_is_checked_on_either_route(self):
        with pytest.raises(PoleTooClose):
            holonomy(two_pole_field(), [PathLoop.circle(0j, 1.0)])
        with pytest.raises(PoleTooClose):
            holonomy(model_end_field(Fraction(1, 3)), [PathLoop.circle(0j, 1e-4)])

    @pytest.mark.parametrize("shape, ccw", [
        ("square", True), ("circle", True), ("square", False), ("circle", False)],
        ids=["square", "circle", "square reversed", "circle reversed"])
    def test_route_far_from_the_origin(self, shape, ccw):
        # the sign of e^{∓2πiR} comes from the circle's sweep or the square's
        # turns, which are differences of nearby points and do not cancel here
        loop = (PathLoop.polygon([FAR + 1j ** k for k in range(4)]) if shape == "square"
                else PathLoop.circle(FAR, 0.01))
        if not ccw:
            loop = loop.reverse()
        got = connection._local_monodromy(_far_pole_field(), loop, DEFAULTS)
        assert got is not None
        w = cmath.exp((1 if ccw else -1) * 2j * math.pi / 3)
        assert np.abs(got - np.diag([w, 1 / w])).max() <= 2 * DEFAULTS.atol

    def test_small_square_far_from_the_origin_meets_the_closed_form(self):
        # its fourth edge used to be dropped as already closed, and the three
        # open edges gave a matrix 0.52 from the closed form
        square = PathLoop.polygon([FAR + 0.01 * 1j ** k for k in range(4)])
        (got,) = holonomy(_far_pole_field(), [square]).matrices
        w = cmath.exp(2j * math.pi / 3)
        assert np.abs(got - np.diag([w, 1 / w])).max() <= 2 * DEFAULTS.atol

    def test_weight_beyond_the_double_range_falls_back(self):
        # e^{-2πiR} cannot be formed within atol, so the transport decides
        theta = model_end_field(Fraction(10 ** 300))
        assert connection._local_monodromy(theta, unit_circle(), DEFAULTS) is None
        with pytest.raises(ToleranceNotMet):
            holonomy(theta, [unit_circle()])


def _numpy_defects(mats):
    """(unitary, det, commutator) defects by the numpy formulas of the
    report before it moved to 4-tuples."""
    def inv(u):
        return (np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
                / (u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]))
    mats = [np.asarray(m, dtype=complex) for m in mats]
    unitary = [float(np.linalg.norm(u @ u.conj().T - np.eye(2))) for u in mats]
    det = [abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0) for u in mats]
    pairs = [float(np.linalg.norm(u @ v @ inv(u) @ inv(v) - np.eye(2)))
             for u, v in itertools.combinations(mats, 2)]
    return unitary, det, pairs


class TestReportOnTuples:
    """report_from_matrices on 4-tuples against the numpy formulas."""

    def test_defects_match_numpy(self):
        rng = random.Random(22)

        def entry():
            return complex(rng.gauss(0, 1), rng.gauss(0, 1))

        for _ in range(40):
            mats = []
            for _ in range(rng.randint(1, 4)):   # SL(2, C): d = (1 + bc)/a
                a, b, c = entry(), entry(), entry()
                mats.append(np.array([[a, b], [c, (1 + b * c) / a]]))
            rep = report_from_matrices(mats, DEFAULTS.su2_tol)
            ours = (rep.unitary_defects, rep.det_defects, rep.commutator_defects)
            for got, want in zip(ours, _numpy_defects(mats)):
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert abs(x - y) <= 1e-14 * max(1.0, y)
            assert all(isinstance(m, tuple) and np.array(m).shape == (2, 2) for m in rep.matrices)

    @pytest.mark.parametrize("theta, loops, tol", [
        (ZERO_FIELD, [unit_circle(), PathLoop.circle(0j, 0.5),
                      PathLoop.polygon([1, 1j, -1, -1j])], DEFAULTS.su2_tol),
        (model_end_field(Fraction(1, 3)), [unit_circle()], DEFAULTS.su2_tol),
        (model_end_field(GaussianRational(Fraction(0), Fraction(1))),
         [unit_circle()], DEFAULTS.su2_tol),
        (model_end_field(Fraction(1, 4)), [unit_circle()], 1e-20),
        (model_end_field(Fraction(1, 4)),
         [unit_circle(), PathLoop.circle(0j, 0.5)], DEFAULTS.su2_tol),
        (two_pole_field(), [PathLoop.circle(0j, 0.5, base_angle=0.0),
                            PathLoop.circle(1 + 0j, 0.5, base_angle=math.pi)],
         DEFAULTS.su2_tol),
    ], ids=["zero field", "third weight", "imaginary weight", "tight tol",
            "two circles", "two punctures"])
    def test_verdicts_of_the_holonomy_reports(self, theta, loops, tol):
        rep = holonomy(theta, loops, DEFAULTS.with_(su2_tol=tol))
        unitary, det, pairs = _numpy_defects(rep.matrices)
        assert rep.passes == (max(unitary + det) <= tol)
        assert rep.abelian == all(d <= tol for d in pairs)

    @pytest.mark.parametrize("u", [np.eye(3), np.arange(4.0), np.eye(2)[:1]],
                             ids=["3x3", "flat four", "one row"])
    def test_only_2x2_matrices(self, u):
        # each of these used to be read by its first four entries, or to
        # raise IndexError
        with pytest.raises(ValueError, match="shape"):
            su2_defects(u)
        with pytest.raises(ValueError, match="shape"):
            report_from_matrices([u], 1e-8)
        with pytest.raises(ValueError, match="shape"):
            weight_from_holonomy(u)

    def test_no_generators_is_refused(self):
        # it used to report no matrices as "passes" and abelian
        with pytest.raises(ValueError, match="at least one loop"):
            report_from_matrices([], 1e-8)

    def test_singular_generator_is_not_abelian(self):
        # its commutator with any generator divided by zero
        rep = report_from_matrices([np.zeros((2, 2)), np.eye(2)], 1e-8)
        assert rep.commutator_defects == (math.inf,)
        assert not rep.abelian and not rep.passes


def _horner(a, z):
    out = 0j
    for x in reversed(a):
        out = out * z + x
    return out


coeff_lists = st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=7)
centres = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


class TestShift:
    """_shift, the Taylor shift of a transport step, by synthetic division."""

    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, centres, centres)
    def test_shifted_series_is_p_at_c_plus_w(self, a, c, w):
        b = connection._shift(a, c)
        bound = 1e-12 * sum(abs(x) * (abs(c) + abs(w)) ** j for j, x in enumerate(a))
        assert len(b) == len(a)
        assert abs(_horner(b, w) - _horner(a, c + w)) <= bound

    @settings(max_examples=200, deadline=None)
    @given(coeff_lists, centres)
    def test_shift_there_and_back(self, a, c):
        # the bound above with |w| = 1 + |c|, which majorises the two shifts'
        # binomial sums Σ_j |a_j| C(j, k) (2|c|)^(j-k)
        back = connection._shift(connection._shift(a, c), -c)
        bound = 1e-12 * sum(abs(x) * (1 + 2 * abs(c)) ** j for j, x in enumerate(a))
        assert max(abs(x - y) for x, y in zip(back, a)) <= bound

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(complex, st.integers(-9, 9), st.integers(-9, 9)),
                    min_size=1, max_size=7),
           st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)))
    def test_gaussian_integers_are_exact(self, a, c):
        # every product and sum of these Gaussian integers is exact in doubles
        binomial = [sum(math.comb(j, k) * a[j] * c ** (j - k) for j in range(k, len(a)))
                    for k in range(len(a))]
        assert connection._shift(a, c) == binomial


class TestMidpoints:
    def test_unit_circle_rejects_no_midpoint(self, monkeypatch):
        # the first chord is 2/3 of the start's distance to the pole at 0,
        # so every midpoint evaluation (one _radius each) leads to a series
        # (9 midpoints for 7 series when the first guess was the whole circle)
        midpoints, series = [], []
        radius, step = connection._radius, connection._taylor_step
        monkeypatch.setattr(connection, "_radius",
                            lambda *args: midpoints.append(1) or radius(*args))
        monkeypatch.setattr(connection, "_taylor_step",
                            lambda *args: series.append(1) or step(*args))
        parallel_transport(model_end_field(Fraction(1, 3)), unit_circle())
        assert len(midpoints) == len(series) == 7
