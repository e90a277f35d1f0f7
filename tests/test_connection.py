"""Higgs fields, paths, transport, holonomy.

The closed-form monodromy of the model end -diag(α, -α) dz/z is the
oracle for every integrator convention; everything else is checked
against hand arithmetic or structural identities.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from bryantlab.connection import (ArcSegment, HiggsField, LineSegment, Path,
                                  PathLoop, cousin_data, det_higgs,
                                  higgs_from_frame, holonomy, ktuy_check,
                                  model_end_field, parallel_transport,
                                  simple_pole_field, su2_defects)
from bryantlab.defaults import DEFAULTS
from bryantlab.errors import (NotNull, NotSpecial, PoleTooClose,
                              ToleranceNotMet)
from bryantlab.frames import catalog
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly
from conftest import trace_free_matrices

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

    def test_simple_pole_field(self):
        g = LaurentMatrix.diagonal(ONE, -ONE)
        theta = simple_pole_field([(0, g), (1, g)])
        assert set(theta.poles) == {0j, 1 + 0j}
        # value at z=2: 1/2 + 1/1 on the (0,0) entry
        assert abs(theta.value(2.0)[0, 0] - 1.5) < 1e-14

    def test_single_pole_matches_model(self):
        alpha = Fraction(1, 3)
        g = LaurentMatrix.diagonal(LaurentPoly.constant(-alpha),
                                   LaurentPoly.constant(alpha))
        for z in (0.5 + 0.5j, -1.2 + 0.3j):
            a = simple_pole_field([(0, g)]).value(z)
            b = model_end_field(alpha).value(z)
            assert np.allclose(a, b, atol=1e-14)

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


class TestCousin:
    def test_horosphere_triple(self):
        c = cousin_data(higgs_from_frame(catalog("horosphere")))
        assert c.omega1.num.is_zero
        assert c.omega2.num == LaurentPoly.constant(Fraction(1, 2))
        assert c.omega3.num == LaurentPoly.constant(GaussianRational(Fraction(0), Fraction(-1, 2)))
        assert c.sum_squares_numerator().is_zero and c.is_null

    def test_zero_field(self):
        c = cousin_data(ZERO_FIELD)
        assert c.omega1.num.is_zero and c.omega2.num.is_zero and c.omega3.num.is_zero

    def test_rank_one_expansion(self):
        c = cousin_data(NULL_FIELD)
        half = Fraction(1, 2)
        half_i = GaussianRational(Fraction(0), half)
        assert c.omega1.num == Z
        assert c.omega2.num == (ONE - Z * Z).scale(half)
        assert c.omega3.num == (ONE + Z * Z).scale(half_i)
        assert c.sum_squares_numerator().is_zero

    def test_not_null_rejected(self):
        with pytest.raises(NotNull):
            cousin_data(HiggsField(LaurentMatrix.diagonal(ONE, -ONE)))

    def test_json(self):
        data = cousin_data(NULL_FIELD).to_json()
        assert data["is_null"] is True
        assert set(data) == {"omega1", "omega2", "omega3", "is_null"}


class TestPaths:
    def test_line_basics(self):
        seg = LineSegment(0j, 2 + 2j)
        assert seg.at(0.5) == 1 + 1j
        assert seg.velocity(0.3) == 2 + 2j
        assert seg.reverse().at(0.0) == 2 + 2j
        assert abs(seg.min_distance(2j) - math.sqrt(2)) < 1e-12

    def test_arc_basics(self):
        arc = ArcSegment(0j, 1.0, 0.0, math.pi)
        assert abs(arc.at(1.0) + 1) < 1e-12
        assert abs(arc.min_distance(0j) - 1.0) < 1e-12
        assert abs(arc.min_distance(2j) - 1.0) < 1e-12
        # point behind the arc: nearest endpoint wins
        assert abs(arc.min_distance(-2j) - abs(-2j - 1)) < 1e-12

    def test_path_join_validation(self):
        with pytest.raises(ValueError):
            Path([LineSegment(0j, 1), LineSegment(2, 3)])

    def test_polyline_and_concat(self):
        p = Path.polyline([0, 1, 1 + 1j])
        q = Path.polyline([1 + 1j, 0])
        joined = p + q
        assert joined.start == 0 and joined.end == 0
        assert len(joined.segments) == 3

    def test_loop_closure(self):
        with pytest.raises(ValueError):
            PathLoop([LineSegment(0j, 1 + 0j)])

    def test_circle_orientation(self):
        assert unit_circle().counterclockwise
        assert not unit_circle(ccw=False).counterclockwise
        assert unit_circle().reverse().counterclockwise is False

    def test_polygon(self):
        sq = PathLoop.polygon([1, 1j, -1, -1j])
        assert sq.counterclockwise
        assert abs(sq.base - 1) < 1e-12
        assert len(sq.segments) == 4

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

    def test_tolerance_not_met(self):
        controls = DEFAULTS.with_(rtol=1e-30, atol=1e-30)
        with pytest.raises(ToleranceNotMet):
            parallel_transport(model_end_field(Fraction(1, 3)), unit_circle(),
                               controls)

    def test_reversal_inverse(self):
        theta = model_end_field(Fraction(1, 3))
        path = Path.polyline([1, 1 + 1j, -1 + 1j, -1 - 0.5j])
        y = parallel_transport(theta, path)
        back = parallel_transport(theta, path.reverse())
        assert np.linalg.norm(back @ y - np.eye(2)) < 1e-9

    def test_concatenation(self):
        theta = model_end_field(Fraction(1, 3))
        p = Path.polyline([1, 1 + 1j, -1 + 1j])
        q = Path.polyline([-1 + 1j, -1 - 1j])
        whole = parallel_transport(theta, p + q)
        parts = parallel_transport(theta, q) @ parallel_transport(theta, p)
        assert np.linalg.norm(whole - parts) < 1e-9

    def test_homotopy_invariance(self):
        theta = model_end_field(Fraction(1, 3))
        circle = unit_circle()
        square = PathLoop.polygon([1, 1j, -1, -1j])
        a = parallel_transport(theta, circle)
        b = parallel_transport(theta, square)
        assert np.linalg.norm(a - b) < 1e-9

    def test_callable_theta(self):
        # irrational weight through the bare-callable route
        alpha = math.sqrt(2)

        def theta(z):
            return np.diag([-alpha, alpha]) / z

        y = parallel_transport(theta, unit_circle(), poles=[0j])
        w = cmath.exp(2j * math.pi * alpha)
        assert np.linalg.norm(y - np.diag([w, 1 / w])) < 1e-8

    def test_callable_requires_poles_for_clearance(self):
        def theta(z):
            return np.zeros((2, 2), dtype=complex)

        with pytest.raises(PoleTooClose):
            parallel_transport(theta, PathLoop.circle(0j, 1e-5), poles=[0j])


class TestHolonomy:
    def test_zero_field_three_loops(self):
        loops = [unit_circle(), PathLoop.circle(0j, 0.5),
                 PathLoop.polygon([1, 1j, -1, -1j])]
        rep = holonomy(ZERO_FIELD, loops)
        assert rep.passes
        for m in rep.matrices:
            assert np.allclose(m, np.eye(2), atol=1e-10)

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
        assert not rep.passes

    def test_commutators_abelian(self):
        rep = holonomy(model_end_field(Fraction(1, 4)), [unit_circle()],
                       commutators=True)
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
        rep = holonomy(theta, loops, commutators=True)
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
                        [unit_circle(), PathLoop.circle(0j, 0.5)],
                        commutators=True)
        data2 = rep2.to_json()
        assert data2["abelian"] is True
        assert len(data2["commutator_defects"]) == 1
