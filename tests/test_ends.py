"""Singular ends: ∇_α, the wedge form, residuals, weights, flags."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from bryantlab import ends
from bryantlab.connection import parallel_transport, PathLoop, model_end_field
from bryantlab.ends import (SingularEnd, end_report, hermitian_pairing,
                            local_parabolic, nabla_alpha, omega_alpha,
                            polo_bound_check, residue_parabolic,
                            stareq_residuals, weight_from_holonomy)
from bryantlab.errors import (HypothesisViolated, NotUnitary, TrivialHolonomy)
from bryantlab.frames import BryantFrame, catalog, omega_quadratic
from bryantlab.hyperbolic import immerse
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly
from conftest import laurent_polys, special_frames

ONE = LaurentPoly.one()
Z = LaurentPoly.z()
ZERO = LaurentPoly.zero()
ZINV = LaurentPoly.monomial(-1)


def end(n, d=1):
    return SingularEnd(Fraction(n, d))


DIAG_UP = LaurentMatrix.diagonal(Z, ZINV)     # a = z, d = 1/z
DIAG_DOWN = LaurentMatrix.diagonal(ZINV, Z)   # a = 1/z, d = z
IDENTITY = LaurentMatrix.identity()


class TestSingularEnd:
    def test_weight_range(self):
        assert end(0).alpha == 0
        assert end(3, 4).alpha == Fraction(3, 4)
        with pytest.raises(ValueError):
            end(1)
        with pytest.raises(ValueError):
            end(-1, 2)

    def test_residue(self):
        g = end(1, 4).residue()
        q = GaussianRational.coerce(Fraction(1, 4))
        assert g.a == LaurentPoly.constant(q)
        assert g.d == LaurentPoly.constant(-q)
        assert g.trace().is_zero

    def test_as_higgs_pole(self):
        assert end(1, 2).as_higgs().poles == (0j,)


class TestNabla:
    def test_weightless_constants(self):
        f, g = nabla_alpha(end(0), (ONE, ONE))
        assert f.is_zero and g.is_zero

    def test_half_weight_on_z(self):
        f, g = nabla_alpha(end(1, 2), (Z, ZERO))
        assert f == LaurentPoly.constant(Fraction(1, 2))
        assert g.is_zero

    def test_third_weight_on_inverse(self):
        f, g = nabla_alpha(end(1, 3), (ZERO, ZINV))
        assert f.is_zero
        assert g == LaurentPoly.monomial(-2, Fraction(-2, 3))

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(1, 3),
                                       Fraction(1, 2), Fraction(3, 4)])
    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=40)
    def test_one_pass_is_derivative_minus_weight_over_z(self, alpha, f, g):
        nf, ng = nabla_alpha(SingularEnd(alpha), (f, g))
        assert nf == f.derivative() - f.scale(alpha).shift(-1)
        assert ng == g.derivative() + g.scale(alpha).shift(-1)


class TestOmegaAlpha:
    def test_diag_up(self):
        # ∇s = (1 - α, 0), ∇t = (0, (α - 1) z^{-2})
        alpha = Fraction(1, 3)
        omega = omega_alpha(SingularEnd(alpha), DIAG_UP)
        c = -((1 - alpha) ** 2)
        assert omega == LaurentPoly.monomial(-2, c)

    def test_diag_down(self):
        alpha = Fraction(1, 3)
        omega = omega_alpha(SingularEnd(alpha), DIAG_DOWN)
        c = -((1 + alpha) ** 2)
        assert omega == LaurentPoly.monomial(-2, c)

    def test_identity_weightless(self):
        assert omega_alpha(end(0), IDENTITY).is_zero

    @given(special_frames())
    @settings(max_examples=100, deadline=None)
    def test_weightless_is_quadratic_form(self, m):
        # at α = 0 the wedge of plain derivatives is det A'
        assert omega_alpha(end(0), m) == omega_quadratic(m)


class TestStareq:
    def test_identity_weightless(self):
        r1, r2 = stareq_residuals(end(0), IDENTITY)
        assert r1.is_zero and r2.is_zero

    def test_identity_quarter(self):
        r1, r2 = stareq_residuals(end(1, 4), IDENTITY)
        assert r1.is_zero
        assert r2 == LaurentPoly.constant(Fraction(-1, 16))

    def test_diag_up_half(self):
        r1, r2 = stareq_residuals(end(1, 2), DIAG_UP)
        assert r1.is_zero
        assert r2 == LaurentPoly.constant(Fraction(-1, 4))
        omega = omega_alpha(end(1, 2), DIAG_UP)
        assert r2 == omega.shift(2)

    @given(special_frames())
    @settings(max_examples=100, deadline=None)
    def test_r2_is_shifted_wedge_on_unit_frames(self, m):
        alpha = Fraction(1, 3)
        r1, r2 = stareq_residuals(SingularEnd(alpha), m)
        assert r1.is_zero
        assert r2 == omega_alpha(SingularEnd(alpha), m).shift(2)


class TestPoloBound:
    def test_order_one_half_weight(self):
        rep = polo_bound_check(end(1, 2), DIAG_UP)
        assert rep.order_n == 1 and rep.bound == 3
        assert rep.pole_order == 2 and rep.passes

    def test_order_one_weightless(self):
        rep = polo_bound_check(end(0), DIAG_UP)
        assert rep.bound == 2 and rep.pole_order == 2 and rep.passes

    def test_constant_frames_rejected(self):
        # the identity already violates the would-be n = 0 bound
        with pytest.raises(HypothesisViolated):
            polo_bound_check(end(1, 2), IDENTITY)

    def test_wedge_pole_rejected(self):
        bad = LaurentMatrix.diagonal(ZINV, ONE)
        with pytest.raises(HypothesisViolated):
            polo_bound_check(end(1, 2), bad)

    def test_json(self):
        data = polo_bound_check(end(1, 2), DIAG_UP).to_json()
        assert data == {"order_n": 1, "pole_order": 2, "bound": 3,
                        "passes": True}


def circle_weight(alpha: Fraction):
    u = parallel_transport(model_end_field(alpha), PathLoop.circle(0j, 1.0))
    return weight_from_holonomy(u)


class TestWeightRecovery:
    def test_identity(self):
        assert weight_from_holonomy(np.eye(2)) == Fraction(0)

    def test_quarter(self):
        assert weight_from_holonomy(np.diag([1j, -1j])) == Fraction(1, 4)

    def test_half(self):
        assert weight_from_holonomy(-np.eye(2)) == Fraction(1, 2)

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            weight_from_holonomy(np.diag([2.0, 0.5]).astype(complex))

    def test_nan_is_not_unitary(self):
        with pytest.raises(NotUnitary):
            weight_from_holonomy(np.full((2, 2), np.nan))

    def test_near_zero_angle_falls_back_to_float(self):
        # best fraction with denominator <= 1e6 is 0, off by 2e-9 > 1e-9
        theta = 2e-9
        w = cmath.exp(2j * math.pi * theta)
        got = weight_from_holonomy(np.diag([w, w.conjugate()]))
        assert isinstance(got, float) and not isinstance(got, Fraction)
        assert abs(got - theta) < 1e-12

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 6),
                                       Fraction(1, 4), Fraction(1, 3),
                                       Fraction(1, 2), Fraction(2, 3)])
    def test_round_trip_through_transport(self, alpha):
        got = circle_weight(alpha)
        assert isinstance(got, Fraction)
        assert got == alpha


class TestParabolicStructures:
    def test_local_flag(self):
        p = local_parabolic(end(1, 3))
        assert p.weight == Fraction(1, 3)
        assert p.flag == (1 + 0j, 0j)
        assert p.to_json()["weight"] == [1, 3]

    def test_local_trivial(self):
        with pytest.raises(TrivialHolonomy):
            local_parabolic(end(0))

    def test_residue_conjugated(self):
        phi = 0.7
        u = np.array([[math.cos(phi), -math.sin(phi)],
                      [math.sin(phi), math.cos(phi)]], dtype=complex)
        gamma = u @ np.diag([0.25, -0.25]) @ u.conj().T
        p = residue_parabolic(gamma)
        assert p.weight == Fraction(1, 4)
        v = np.array(p.flag)
        e = u[:, 0]
        phase = e[np.argmax(np.abs(e))]
        assert np.linalg.norm(v - e * (abs(phase) / phase)) < 1e-10

    def test_residue_rejections(self):
        with pytest.raises(ValueError):
            residue_parabolic(np.eye(2))
        with pytest.raises(ValueError):
            residue_parabolic(np.array([[0, 1], [-1, 0]], dtype=complex))
        with pytest.raises(TrivialHolonomy):
            residue_parabolic(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_residue_non_finite(self, bad):
        # the other rejections are ValueErrors too, so match the message
        with pytest.raises(ValueError, match="non-finite"):
            residue_parabolic(np.full((2, 2), bad))


class TestHermitianPairing:
    @pytest.mark.parametrize("alpha", [(1, 4), (1, 3), (1, 2), (7, 10)])
    def test_parallel_sections_have_norm_one(self, alpha):
        # ∇_α(z^α, 0) = 0 and ∇_α(0, z^-α) = 0, so the flat metric gives
        # both norm 1 everywhere; neither is a Laurent polynomial, and the
        # pairing evaluates any callable section the same way
        e = end(*alpha)
        a = float(e.alpha)
        first = (lambda z: z ** a, lambda z: 0j)
        second = (lambda z: 0j, lambda z: z ** -a)
        for z in (0.01, 0.3 + 0.4j, -2 + 1j, 5j, 40.0):
            assert abs(hermitian_pairing(e, first, first, z) - 1) < 1e-12
            assert abs(hermitian_pairing(e, second, second, z) - 1) < 1e-12

    @pytest.mark.parametrize("w", [0.9 + 0.3j, 0.2 - 0.5j, -1.5 + 2j])
    def test_matches_the_cover_surface(self, w):
        # the monomial end A = [[-z/3, -4/3], [1, 1/z]] of weight 1/3; on
        # the cover z = w^3, B = diag(1/w, w)·A(w^3) is a Bryant frame, and
        # f = Bᵀ·Bᵀ* has diagonal entries x0 ± x3, the norms of A's columns
        e = end(1, 3)
        a, c = LaurentPoly({1: Fraction(-1, 3)}), ONE
        b, d = LaurentPoly.constant(Fraction(-4, 3)), LaurentPoly({-1: 1})
        cover = BryantFrame(LaurentMatrix(
            LaurentPoly({2: Fraction(-1, 3)}), LaurentPoly({1: 1}),
            LaurentPoly({-1: Fraction(-4, 3)}), LaurentPoly({-2: 1})))
        p = immerse(cover, w)
        z = w ** 3
        assert math.isclose(hermitian_pairing(e, (a, c), (a, c), z).real,
                            p.x0 + p.x3, rel_tol=1e-13)
        assert math.isclose(hermitian_pairing(e, (b, d), (b, d), z).real,
                            p.x0 - p.x3, rel_tol=1e-13)

    def test_first_direction_goes_like_inverse_abs_z(self):
        e = end(1, 2)
        sec = (ONE, ZERO)
        assert abs(hermitian_pairing(e, sec, sec, 3 + 4j) - 0.2) < 1e-14
        assert abs(hermitian_pairing(e, sec, sec, 0.01) - 100.0) < 1e-10

    def test_second_direction_goes_like_abs_z(self):
        e = end(1, 2)
        sec = (ZERO, ONE)
        assert abs(hermitian_pairing(e, sec, sec, 4.0) - 4.0) < 1e-14

    def test_singular_at_puncture(self):
        with pytest.raises(ZeroDivisionError):
            hermitian_pairing(end(1, 2), (ONE, ONE), (ONE, ONE), 0j)


class TestEndReport:
    def test_horosphere_half(self):
        rep = end_report(end(1, 2), catalog("horosphere").matrix)
        assert rep["alpha"] == [1, 2]
        assert rep["order_n"] == 0
        assert "skipped" in rep["polo_bound"]
        assert rep["stareq_pass"] is False
        assert rep["r2_matches_omega"] is True
        assert rep["parabolic"]["weight"] == [1, 2]

    def test_horosphere_weightless(self):
        rep = end_report(end(0), catalog("horosphere").matrix)
        assert rep["stareq_pass"] is True
        assert "parabolic" not in rep

    def test_diag_frame_keys(self):
        rep = end_report(end(1, 2), DIAG_UP)
        assert rep["polo_bound"]["passes"] is True
        assert rep["omega_pole_order"] == 2
        assert set(rep) == {"alpha", "order_n", "omega_pole_order",
                            "polo_bound", "r1", "r2", "stareq_pass",
                            "r2_matches_omega", "parabolic"}

    @pytest.mark.parametrize("frame", [DIAG_UP, IDENTITY])
    def test_det_and_omega_formed_once(self, monkeypatch, frame):
        calls = {"det": 0, "omega": 0}
        det, omega = LaurentMatrix.det, ends.omega_alpha

        def counted_det(m):
            calls["det"] += 1
            return det(m)

        def counted_omega(e, m):
            calls["omega"] += 1
            return omega(e, m)

        monkeypatch.setattr(LaurentMatrix, "det", counted_det)
        monkeypatch.setattr(ends, "omega_alpha", counted_omega)
        rep = end_report(end(1, 2), frame)
        assert calls == {"det": 1, "omega": 1}
        monkeypatch.undo()
        try:
            expected = polo_bound_check(end(1, 2), frame).to_json()
        except HypothesisViolated as exc:
            expected = {"skipped": str(exc)}
        assert rep["polo_bound"] == expected
