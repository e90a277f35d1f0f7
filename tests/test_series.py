"""Exact Laurent arithmetic: hand-expansion oracles, then ring properties.

TestAgainstFractions checks the integer representation (numerators over
one denominator) against a per-coefficient Fraction reference kept here.
TestSerialization checks the integer-form reader against Fraction(s) and
the writer against that reference's printer.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bryantlab import cli
from bryantlab.connection import HiggsField, PathLoop, parallel_transport
from bryantlab.errors import NotRepresentable, PoleAtZero
from bryantlab.series import (GR_ONE, GaussianRational, LaurentMatrix,
                              LaurentPoly, canonical_dumps, poly_gcd)
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

    def test_to_complex_beyond_double(self):
        assert GaussianRational(Fraction(3, 4), Fraction(-1, 2)).to_complex() == 0.75 - 0.5j
        with pytest.raises(NotRepresentable, match="10000"):
            GaussianRational(Fraction(1), Fraction(10 ** 400)).to_complex()

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


class TestDivisionAndGcd:
    def test_hand_examples(self):
        # z^3 + 1 = (z + 1)(z^2 - z + 1) and z^2 = (z + 1)(z - 1) + 1
        assert divmod(mono(3) + ONE, Z + ONE) == (mono(2) - Z + ONE, LaurentPoly.zero())
        assert divmod(mono(2), Z - ONE) == (Z + ONE, ONE)
        assert poly_gcd(mono(2, 3) - LaurentPoly.constant(3), (Z - ONE) ** 2) == Z - ONE
        assert poly_gcd(mono(2) - Z, mono(3)) == ONE   # powers of z are left out
        assert poly_gcd(LaurentPoly.zero()).is_zero
        with pytest.raises(ZeroDivisionError):
            divmod(Z, LaurentPoly.zero())

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=120)
    def test_division_with_remainder(self, a, b):
        assume(not b.is_zero)
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.is_zero or r.degree() < b.degree()
        assert a // b == q

    @given(st.lists(laurent_polys(min_exp=0), min_size=1, max_size=3))
    @settings(max_examples=120)
    def test_gcd_is_monic_and_divides(self, ps):
        g = poly_gcd(*ps)
        assume(not g.is_zero)
        assert g.coeff(g.degree()) == GR_ONE
        assert all(divmod(p, g)[1].is_zero for p in ps)

    @given(laurent_polys(), laurent_polys(), laurent_polys(min_exp=0, max_exp=2),
           gaussian_rationals)
    @settings(max_examples=120)
    def test_common_factor(self, p, q, c, c0):
        assume(not c0.is_zero)
        c = c.shift(1) + LaurentPoly.constant(c0)   # c(0) = c0 != 0
        monic = c.scale(GR_ONE / c.coeff(c.degree()))
        assert poly_gcd(p * c, q * c) == poly_gcd(p, q) * monic


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


def _reference_call(p, z):
    """Horner with every coefficient converted per call, gaps included."""
    if p.is_zero:
        return 0j
    lo, hi = p.valuation(), p.degree()
    z = complex(z)
    if z == 0:
        if lo < 0:
            raise PoleAtZero("evaluation at 0 with negative exponents")
        return p.coeff(0).to_complex()
    acc = 0j
    if hi >= 0:
        for e in range(hi, -1, -1):
            acc = acc * z + p.coeff(e).to_complex()
    if lo < 0:
        w = 1.0 / z
        neg = 0j
        for e in range(lo, 0):
            neg = (neg + p.coeff(e).to_complex()) * w
        acc += neg
    return acc


def _outcome(fn, *args):
    """The value's bits (signed zeros, inf and nan included) or the error type."""
    try:
        v = fn(*args)
    except PoleAtZero:
        return PoleAtZero
    return v.real.hex(), v.imag.hex()


class TestFloatTable:
    @given(st.one_of(laurent_polys(min_exp=-8, max_exp=8, max_terms=6),
                     laurent_polys(min_exp=-8, max_exp=-1, max_terms=4),
                     laurent_polys(min_exp=1, max_exp=8, max_terms=4)),
           st.lists(st.one_of(st.just(0j), st.complex_numbers(
               max_magnitude=1e3, allow_nan=False, allow_infinity=False)),
               min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_matches_per_call_horner(self, p, zs):
        # gaps, principal parts only, the zero polynomial, z = 0 with and
        # without a pole, and each point evaluated twice on one object
        for z in zs + zs:
            assert _outcome(p, z) == _outcome(_reference_call, p, z)

    def test_beyond_double_raises_on_every_call(self):
        p = mono(1, 10 ** 400) + ONE
        for _ in range(2):
            with pytest.raises(NotRepresentable):
                p(0.5)
        assert p(0j) == 1.0  # at 0 only the constant term is converted

    def test_table_is_not_part_of_the_value(self):
        p = mono(-2, Fraction(1, 3)) + mono(1, 5)
        q = LaurentPoly.from_json(p.to_json())
        p(0.5 + 0.25j)
        assert p == q and hash(p) == hash(q) and p.to_json() == q.to_json()


class TestFloatBoundary:
    # 10 + z/10^399 is stored as 10^400 and 1 over 10^399: a float of the
    # numerator alone overflows, its ratio to the denominator does not
    WIDE = mono(0, 10) + mono(1, Fraction(1, 10 ** 399))
    HUGE = mono(0, Fraction(10 ** 400, 3))

    def test_wide_denominator_reads_exactly(self):
        assert self.WIDE.integer_form() == (10 ** 399, {0: (10 ** 400, 0), 1: (1, 0)})
        assert self.WIDE.float_coeffs(-1, 2) == [0j, 10 + 0j, 0j, 0j]
        for z in (0j, 0.5, 1 + 1j, -3.0):
            assert self.WIDE(z) == 10.0
            assert _outcome(self.WIDE, z) == _outcome(_reference_call, self.WIDE, z)

    def test_wide_denominator_in_transport(self):
        # Θ = diag(p, -p) dz with p holomorphic: the unit circle's holonomy is I
        field = HiggsField(LaurentMatrix(self.WIDE, LaurentPoly.zero(),
                                         LaurentPoly.zero(), -self.WIDE))
        y = parallel_transport(field, PathLoop.circle(0j, 1.0))
        assert max(abs(y[i][j] - (i == j)) for i in (0, 1) for j in (0, 1)) < 1e-9

    def test_beyond_double_still_raises(self):
        with pytest.raises(NotRepresentable, match="10000"):
            self.HUGE(0.5)
        with pytest.raises(NotRepresentable, match="10000"):
            self.HUGE.float_coeffs(0, 0)
        field = HiggsField(LaurentMatrix(self.HUGE, LaurentPoly.zero(),
                                         LaurentPoly.zero(), -self.HUGE))
        with pytest.raises(NotRepresentable):
            parallel_transport(field, PathLoop.circle(0j, 1.0))


# ---------------------------------------------------------------------------
# per-coefficient Fraction reference: {exp: GaussianRational}, no zeros

R_ZERO = GaussianRational()


def _r_add(a, b, sign=1):
    c = dict(a)
    for e, v in b.items():
        s = c.get(e, R_ZERO) + v * sign
        if s.is_zero:
            c.pop(e, None)
        else:
            c[e] = s
    return c


def _r_mul(a, b):
    c = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            c = _r_add(c, {e1 + e2: v1 * v2})
    return c


def _r_pow(a, n):
    c = {0: GaussianRational(1)}
    for _ in range(n):
        c = _r_mul(c, a)
    return c


def _r_json(a):
    return {"terms": [{"exp": e, "re": str(a[e].re), "im": str(a[e].im)}
                      for e in sorted(a)]}


# distinct primes, and powers of 2 next to powers of 3
mixed_fractions = st.builds(Fraction, st.integers(min_value=-30, max_value=30),
                            st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 27, 64, 81]))
mixed_coeffs = st.builds(GaussianRational, mixed_fractions,
                         st.one_of(st.just(Fraction(0)), mixed_fractions))
ref_maps = st.dictionaries(st.integers(min_value=-4, max_value=4), mixed_coeffs,
                           max_size=5).map(lambda m: {e: v for e, v in m.items() if v})


class TestAgainstFractions:
    @staticmethod
    def agree(p, ref):
        assert dict(p.terms()) == ref
        assert [e for e, _ in p.terms()] == sorted(ref)
        for e in range(-12, 13):
            assert p.coeff(e) == ref.get(e, R_ZERO)
        assert canonical_dumps(p.to_json()) == canonical_dumps(_r_json(ref))
        q = LaurentPoly(ref)   # the same value, built term by term
        assert p == q and hash(p) == hash(q)
        assert p.is_zero == (not ref)

    @given(ref_maps, ref_maps, mixed_coeffs, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=200)
    def test_ring_operations(self, a, b, k, shift):
        p, q = LaurentPoly(a), LaurentPoly(b)
        self.agree(p, a)
        self.agree(p + q, _r_add(a, b))
        self.agree(p - q, _r_add(a, b, -1))
        self.agree(-p, _r_add({}, a, -1))
        self.agree(p * q, _r_mul(a, b))
        self.agree(p.shift(shift), {e + shift: v for e, v in a.items()})
        self.agree(p.derivative(), {e - 1: v * e for e, v in a.items() if e})
        self.agree(p.scale(k), {e: v * k for e, v in a.items() if v * k})

    @given(ref_maps.filter(lambda m: len(m) <= 3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_powers(self, a, n):
        self.agree(LaurentPoly(a) ** n, _r_pow(a, n))

    @given(ref_maps)
    def test_cancellation_is_canonical_zero(self, a):
        p = LaurentPoly(a)
        for zero in (p - p, p + (-p), p.scale(0), p * LaurentPoly.zero()):
            assert zero == LaurentPoly.zero() and hash(zero) == hash(LaurentPoly.zero())
            assert zero.integer_form() == (1, {})

    def test_products_reduce(self):
        half = LaurentPoly.constant(Fraction(1, 2))
        assert half * LaurentPoly.constant(2) == ONE
        assert hash(half.scale(2)) == hash(ONE)
        assert ONE.integer_form() == (1, {0: (1, 0)})
        # (1/6 + z/4)·12 has denominator 1; (z/2)' = 1/2 keeps its 2
        p = mono(0, Fraction(1, 6)) + mono(1, Fraction(1, 4))
        assert p.integer_form() == (12, {0: (2, 0), 1: (3, 0)})
        assert p.scale(12).integer_form() == (1, {0: (2, 0), 1: (3, 0)})
        assert mono(2, Fraction(1, 4)).derivative().integer_form() == (2, {1: (1, 0)})
        # 2/3 - 1/6 = 1/2 over the lcm 6, reduced
        assert (LaurentPoly.constant(Fraction(2, 3))
                - LaurentPoly.constant(Fraction(1, 6))).integer_form() == (2, {0: (1, 0)})


weights = st.sampled_from([-2, -1, 1, 2])


def _r_sum_of_products(terms):
    """Σ k·a·b over (k, a, b), each product summed term by term in GaussianRational."""
    c = {}
    for k, a, b in terms:
        c = _r_add(c, _r_mul(a, b), k)
    return c


class TestSumOfProducts:
    """The one multiply-accumulate kernel against the per-coefficient reference."""

    agree = staticmethod(TestAgainstFractions.agree)

    @given(st.lists(st.tuples(weights, ref_maps, ref_maps), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=3), weights)
    @settings(max_examples=200)
    def test_matches_term_by_term_sum(self, terms, repeat, k):
        # ref_maps has negative exponents and the empty (zero) map; one pair is repeated
        _, a, b = terms[repeat % len(terms)]
        terms = terms + [(k, a, b)]
        polys = [(w, LaurentPoly(a), LaurentPoly(b)) for w, a, b in terms]
        self.agree(LaurentPoly.sum_of_products(*polys), _r_sum_of_products(terms))

    @given(ref_maps, ref_maps)
    def test_product_is_the_one_term_call(self, a, b):
        p, q = LaurentPoly(a), LaurentPoly(b)
        one_term = LaurentPoly.sum_of_products((1, p, q))
        assert p * q == one_term and (p * q).integer_form() == one_term.integer_form()
        self.agree(one_term, _r_mul(a, b))

    @given(st.lists(ref_maps, min_size=4, max_size=4), st.lists(ref_maps, min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_det_and_matmul_are_their_entrywise_definitions(self, x, y):
        (a, b, c, d), (p, q, r, s) = x, y
        m, n = LaurentMatrix(*map(LaurentPoly, x)), LaurentMatrix(*map(LaurentPoly, y))
        self.agree(m.det(), _r_sum_of_products([(1, a, d), (-1, b, c)]))
        mn = m @ n
        self.agree(mn.a, _r_sum_of_products([(1, a, p), (1, b, r)]))
        self.agree(mn.b, _r_sum_of_products([(1, a, q), (1, b, s)]))
        self.agree(mn.c, _r_sum_of_products([(1, c, p), (1, d, r)]))
        self.agree(mn.d, _r_sum_of_products([(1, c, q), (1, d, s)]))


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


BENCH = Path(__file__).resolve().parents[1] / "bench"

# canonical coefficients, then the same decorated with what only Fraction(s)
# reads or rejects: signs, spaces, underscores, decimals, exponents and
# non-ASCII digits and whitespace
_digits = st.text("0123456789", min_size=1, max_size=5)
_signs = st.sampled_from(["", "-", "+"])
_spaces = st.sampled_from(["", "", " ", "\t", "\u00a0", "\u2003"])
coefficient_strings = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "-"]), _digits),
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), _digits, _digits),
    st.builds("{}{}{}{}/{}{}{}{}".format, _spaces, _signs, _digits, _spaces,
              _spaces, _signs, _digits, _spaces),
    st.lists(st.sampled_from(["0", "1", "7", "12", "-", "+", "/", "_", ".", "e",
                              "E", " ", "\t", "\u00a0", "\u2003", "٣", "３"]),
             max_size=8).map("".join),
)


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

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("zero", [("0", "0"), ("0/7", "-0"), (0, 0)])
    def test_duplicate_exponent_rejected_in_either_order(self, first, zero):
        # a zero term was never stored, so the check once missed it when it
        # came first: [0 at z^0, 1 at z^0] loaded as the constant 1
        terms = [{"exp": 0, "re": zero[0], "im": zero[1]},
                 {"exp": 0, "re": "1", "im": "0"}]
        data = {"terms": terms if first == 0 else terms[::-1]}
        with pytest.raises(ValueError, match="duplicate exponent 0"):
            LaurentPoly.from_json(data)

    def test_zero_terms_are_dropped(self):
        data = {"terms": [{"exp": 2, "re": "0/3", "im": "0"},
                          {"exp": -1, "re": "1/2", "im": "0"}]}
        p = LaurentPoly.from_json(data)
        assert p == LaurentPoly({-1: Fraction(1, 2)})
        assert p.to_json() == {"terms": [{"exp": -1, "re": "1/2", "im": "0"}]}

    @pytest.mark.parametrize("key, value", [
        ("exp", 1.5), ("exp", True), ("re", 0.1), ("re", float("inf")),
        ("im", True), ("im", 1.5),
    ])
    def test_inexact_numbers_rejected(self, key, value):
        term = {"exp": 1, "re": "1", "im": "0"}
        term[key] = value
        with pytest.raises(ValueError):
            LaurentPoly.from_json({"terms": [term]})

    def test_json_integers_accepted(self):
        p = LaurentPoly.from_json({"terms": [{"exp": -2, "re": 3, "im": "1/2"}]})
        assert p == mono(-2, GaussianRational(Fraction(3), Fraction(1, 2)))

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

    @staticmethod
    def reads_as_fraction(s):
        """from_json reads s as Fraction(s) does, or raises the same class."""
        def read():
            p = LaurentPoly.from_json({"terms": [{"exp": 0, "re": s, "im": s},
                                                 {"exp": 1, "re": "1/6", "im": "0"}]})
            return p.coeff(0)
        try:
            want = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(Exception) as got:
                read()
            assert type(got.value) is type(exc)
        else:
            assert read() == GaussianRational(want, want)

    @given(coefficient_strings)
    @settings(max_examples=300)
    def test_reader_matches_fraction(self, s):
        self.reads_as_fraction(s)

    @pytest.mark.parametrize("s", [
        "3/4", "-12", "007/010", "-0", " 3", "3 ", "+3", "1_0", "1.5", "1e3",
        "٣/4", "3 /4", "3/ 4", "3/-4", "3/+4", "--3", "3/0", "-3/000", "", "-",
        "3/", "\u00a03", "３", "1" * 5000])
    def test_reader_hand_cases(self, s):
        self.reads_as_fraction(s)

    @given(laurent_polys())
    def test_writer_matches_fraction_printer(self, p):
        assert canonical_dumps(p.to_json()) == canonical_dumps(_r_json(dict(p.terms())))

    def test_loading_bench_frames_makes_no_fraction(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads
        workloads.build("exact", 7, str(tmp_path))
        paths = sorted(tmp_path.glob("frame_*.json"))
        assert len(paths) == 6
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kw):
            made.append(args)
            return new(cls, *args, **kw)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        matrices = [cli._load_matrix(str(path))[0] for path in paths]
        monkeypatch.undo()
        assert made == []
        assert [m.to_json() for m in matrices] == [
            json.loads(path.read_text())["matrix"] for path in paths]
