"""Exact Laurent arithmetic: hand-expansion oracles, then ring properties."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bryantlab.errors import PoleAtZero
from bryantlab.series import (GaussianRational, LaurentMatrix, LaurentPoly,
                              canonical_dumps)
from conftest import gaussian_rationals, laurent_matrices, laurent_polys

Z = LaurentPoly.z()
ONE = LaurentPoly.one()


def mono(e, c=1):
    return LaurentPoly.monomial(e, c)


class TestGaussianRational:
    def test_field_ops_exact(self):
        a = GaussianRational(Fraction(1, 3), Fraction(1, 2))
        b = GaussianRational(Fraction(2, 5), Fraction(-1, 7))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.conjugate() == GaussianRational(a.norm_sq(), Fraction(0))

    def test_division_oracle(self):
        # (1+i)/(1-i) = i
        one_i = GaussianRational(Fraction(1), Fraction(1))
        assert one_i / one_i.conjugate() == GaussianRational(Fraction(0), Fraction(1))

    def test_floats_rejected(self):
        # no float backdoor into the exact layer; go through Fraction
        with pytest.raises(TypeError):
            GaussianRational.coerce(0.1)
        g = GaussianRational(Fraction(0.1))  # the dyadic the float stores
        assert g.re == Fraction(3602879701896397, 36028797018963968)
        assert float(g.re) == 0.1

    @given(gaussian_rationals, gaussian_rationals, gaussian_rationals)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestArithmetic:
    def test_mul_difference_of_squares(self):
        assert (Z + ONE) * (Z - ONE) == mono(2) - ONE

    def test_add_cancels_to_empty(self):
        p = mono(-1) + mono(-1, -1)
        assert p.is_zero
        assert tuple(p.terms()) == ()

    def test_mul_clears_pole(self):
        # hand expansion: (z^-2 + 1) * z^2 = 1 + z^2
        assert (mono(-2) + ONE) * mono(2) == ONE + mono(2)

    def test_pow(self):
        assert (Z + ONE) ** 3 == mono(3) + mono(2, 3) + mono(1, 3) + ONE

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=120)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p


class TestDerivative:
    def test_inverse_power(self):
        assert mono(-1).derivative() == mono(-2, -1)

    def test_constant(self):
        assert LaurentPoly.constant(5).derivative().is_zero

    def test_mixed(self):
        p = mono(3) + mono(-2)
        assert p.derivative() == mono(2, 3) + mono(-3, -2)


class TestEval:
    def test_polynomial(self):
        assert (mono(2) + ONE)(2.0) == 5.0

    def test_pole_at_zero(self):
        with pytest.raises(PoleAtZero):
            mono(-1)(0.0)
        # no negative exponents: zero is fine
        assert (mono(2) + ONE)(0j) == 1.0

    def test_cancellation_at_i(self):
        p = mono(-1) + mono(1)
        assert abs(p(1j)) < 1e-15

    def test_eval_exact(self):
        p = mono(-2) + mono(1, 3)
        z = GaussianRational(Fraction(1, 2), Fraction(0))
        assert p.eval_exact(z) == GaussianRational(Fraction(4) + Fraction(3, 2), Fraction(0))
        with pytest.raises(PoleAtZero):
            p.eval_exact(GaussianRational(Fraction(0), Fraction(0)))

    def test_eval_exact_large_exponents(self):
        # (1+i)^2 = 2i, so (1+i)^1500 = (2i)^750 = -2^750
        z = GaussianRational(Fraction(1), Fraction(1))
        assert mono(1500).eval_exact(z) == GaussianRational(Fraction(-2 ** 750))
        assert mono(-1500).eval_exact(z) == GaussianRational(Fraction(-1, 2 ** 750))

    @given(laurent_polys(min_exp=-8, max_exp=8, max_terms=5),
           gaussian_rationals.filter(lambda z: not z.is_zero))
    @settings(max_examples=150)
    def test_eval_exact_matches_term_sum(self, p, z):
        def power(e):
            out = GaussianRational(Fraction(1))
            for _ in range(abs(e)):
                out = out * z if e > 0 else out / z
            return out
        total = GaussianRational()
        for e, c in p.terms():
            total = total + c * power(e)
        assert p.eval_exact(z) == total

    @given(laurent_polys(max_terms=3), laurent_polys(max_terms=3),
           st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=150)
    def test_eval_multiplicative(self, p, q, z):
        lhs = (p * q)(z)
        rhs = p(z) * q(z)
        # scale by the term-magnitude bound: cancellation can leave a tiny
        # result whose absolute error reflects the summand sizes
        def bulk(r):
            return sum(abs(complex(c.re) + 1j * complex(c.im)) * abs(z) ** e
                       for e, c in r.terms()) or 1.0
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + bulk(p) * bulk(q))


class TestPoleOrder:
    def test_examples(self):
        assert (mono(-3) + Z).pole_order() == 3
        assert (ONE + mono(2)).pole_order() == 0
        assert LaurentPoly.zero().pole_order() == 0

    def test_degree_valuation(self):
        p = mono(-3) + Z
        assert p.valuation() == -3 and p.degree() == 1
        assert LaurentPoly.zero().degree() is None


class TestMatrix:
    def test_det_unipotent(self):
        assert LaurentMatrix(ONE, Z, LaurentPoly.zero(), ONE).det() == ONE

    def test_det_diagonal_pair(self):
        assert LaurentMatrix.diagonal(Z, mono(-1)).det() == ONE

    def test_det_affine_null(self):
        m = LaurentMatrix(ONE + Z, Z, -Z, ONE - Z)
        assert m.det() == ONE

    @given(laurent_matrices(max_terms=3))
    @settings(max_examples=120)
    def test_det_alternating(self, m):
        assert m.swap_columns().det() == -m.det()

    @given(laurent_matrices(max_terms=2))
    def test_adjugate_identity(self, m):
        d = m.det()
        prod = m @ m.adjugate()
        assert prod.a == d and prod.d == d
        assert prod.b.is_zero and prod.c.is_zero

    def test_trace(self):
        m = LaurentMatrix(Z, ONE, ONE, -Z)
        assert m.trace().is_zero


class TestSerialization:
    def test_poly_round_trip(self):
        p = mono(-2, GaussianRational(Fraction(1, 3), Fraction(-2, 7))) + Z
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_json_shape(self):
        p = mono(-1, GaussianRational(Fraction(1, 2), Fraction(0)))
        assert p.to_json() == {"terms": [{"exp": -1, "re": "1/2", "im": "0"}]}

    def test_duplicate_exponents_rejected(self):
        data = {"terms": [{"exp": 0, "re": "1", "im": "0"},
                          {"exp": 0, "re": "2", "im": "0"}]}
        with pytest.raises(ValueError):
            LaurentPoly.from_json(data)

    def test_matrix_round_trip(self):
        m = LaurentMatrix(ONE + Z, Z, -Z, ONE - Z)
        assert LaurentMatrix.from_json(m.to_json()) == m

    def test_canonical_dumps_stable(self):
        blob = canonical_dumps({"b": 1, "a": [2, 3]})
        assert blob == '{"a":[2,3],"b":1}\n'
        assert json.loads(blob) == {"a": [2, 3], "b": 1}

    @given(laurent_polys())
    def test_round_trip_property(self, p):
        assert LaurentPoly.from_json(json.loads(json.dumps(p.to_json()))) == p
