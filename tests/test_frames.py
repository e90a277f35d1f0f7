"""Frame verification: expansion oracles first, then the catalog and
randomized special frames."""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bryantlab import frames
from bryantlab.connection import HiggsField
from bryantlab.errors import (NotRepresentable, NotSpecial, RegionContainsPole,
                              ToleranceNotMet, UnknownName)
from bryantlab.frames import (Annulus, BryantFrame, CATALOG_NAMES,
                              branch_points, catalog, check_bryant,
                              laurent_roots, omega_quadratic)
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly
from conftest import special_frames

Z = LaurentPoly.z()
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()

# the one special-but-not-Bryant workhorse: det = (1)(1+z^2) - z*z = 1,
# det A' = det [[0,1],[1,2z]] = -1
SHEARED = LaurentMatrix(ONE, Z, Z, ONE + LaurentPoly.monomial(2))


class TestCheckSpecial:
    def test_unipotent(self):
        assert check_bryant(LaurentMatrix(ONE, Z, ZERO, ONE)).is_special

    def test_scaled_diagonal_fails(self):
        r = check_bryant(LaurentMatrix.diagonal(Z, Z))
        assert not r.is_special
        assert r.det_residual == LaurentPoly.monomial(2) - ONE

    def test_affine_null_expansion(self):
        # (1+z)(1-z) + z^2 = 1 exactly
        r = check_bryant(LaurentMatrix(ONE + Z, Z, -Z, ONE - Z))
        assert r.is_special and r.det_residual.is_zero


class TestCheckBryant:
    def test_horosphere(self):
        r = check_bryant(LaurentMatrix(ONE, Z, ZERO, ONE))
        assert r.is_bryant and r.null_residual.is_zero

    def test_affine_null(self):
        r = check_bryant(LaurentMatrix(ONE + Z, Z, -Z, ONE - Z))
        assert r.is_bryant

    def test_special_not_bryant(self):
        r = check_bryant(SHEARED)
        assert r.is_special and not r.is_bryant
        assert r.null_residual == -ONE

    def test_report_json(self):
        data = check_bryant(SHEARED).to_json()
        assert data["is_special"] is True
        assert data["is_bryant"] is False
        assert data["null_residual"] == {"terms": [{"exp": 0, "re": "-1", "im": "0"}]}


class TestOmegaQuadratic:
    def test_horosphere_zero(self):
        assert omega_quadratic(catalog("horosphere").matrix).is_zero

    def test_sheared(self):
        assert omega_quadratic(SHEARED) == -ONE

    def test_cusp(self):
        assert omega_quadratic(LaurentMatrix(ONE, LaurentPoly.monomial(2), ZERO, ONE)).is_zero

    @given(special_frames())
    @settings(max_examples=120, deadline=None)
    def test_zero_iff_bryant(self, m):
        assert omega_quadratic(m).is_zero == check_bryant(m).is_bryant

    @given(special_frames())
    @settings(max_examples=120, deadline=None)
    def test_column_swap_negates_det(self, m):
        assert m.swap_columns().det() == -m.det()


class TestBranchPoints:
    def test_horosphere_none(self):
        assert branch_points(catalog("horosphere"), Annulus(0.0, 1.0)) == []

    def test_cusp_origin(self):
        pts = branch_points(catalog("cusp-degree2"), Annulus(0.0, 1.0))
        assert len(pts) == 1 and abs(pts[0]) < 1e-12

    def test_affine_null_none(self):
        assert branch_points(catalog("affine-null"), Annulus(0.0, 1.0)) == []

    def test_region_containing_pole(self):
        frame = BryantFrame(LaurentMatrix.diagonal(Z, LaurentPoly.monomial(-1)))
        with pytest.raises(RegionContainsPole):
            branch_points(frame, Annulus(0.0, 1.0))
        # clear of the origin the search is legitimate (and empty: A' never
        # vanishes where both diagonal derivatives are nonzero)
        assert branch_points(frame, Annulus(0.5, 1.0)) == []

    def test_constant_frame_rejected(self):
        with pytest.raises(ValueError):
            branch_points(BryantFrame(LaurentMatrix.identity()), Annulus(0.0, 1.0))

    def test_interior_zero_of_entries(self):
        # A = [[1+z^2/2... ] keep simple: diag-ish frame whose derivative
        # vanishes at +-1: a = z - z^3/3 style needs det 1; use unipotent
        # with b = (z-1)^2(z+1)^2 whose derivative has roots at -1, 0, 1
        b = (Z - ONE) * (Z - ONE) * (Z + ONE) * (Z + ONE)
        frame = BryantFrame(LaurentMatrix(ONE, b, ZERO, ONE))
        pts = branch_points(frame, Annulus(0.0, 1.5))
        assert sorted(round(p.real, 6) for p in pts) == [-1.0, 0.0, 1.0]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_repeated_zero_listed_once(self, k):
        # A' = [[0, k(z-1)^(k-1)], [0, 0]]: one branch point of order k - 1
        frame = BryantFrame(LaurentMatrix(ONE, (Z - ONE) ** k, ZERO, ONE))
        pts = branch_points(frame, Annulus(0.0, 2.0))
        assert len(pts) == 1 and abs(pts[0] - 1) <= 1e-12


# a Gaussian-rational octagon of radius about 1: eight directions
_OCTAGON = [GaussianRational(Fraction(x), Fraction(y)) for x, y in
            [(1, 0), (Fraction(5, 7), Fraction(5, 7)), (0, 1), (Fraction(-5, 7), Fraction(5, 7)),
             (-1, 0), (Fraction(-5, 7), Fraction(-5, 7)), (0, -1), (Fraction(5, 7), Fraction(-5, 7))]]
_TWIN = {"re": GaussianRational(Fraction(1, 4000)), "im": GaussianRational(Fraction(0), Fraction(1, 4000))}


@st.composite
def separated_roots(draw) -> tuple[list[GaussianRational], list[int], int]:
    """2-10 distinct points on a scaled octagon, some with a twin 1/4000 away,
    each with a multiplicity of 1-4, and an exponent lo in [-2, 3] of z.

    Spread this way, every root's condition keeps the rounding-level stop
    within about 1e-10 of it, twins included."""
    slots = draw(st.lists(st.integers(0, 7), min_size=2, max_size=8, unique=True))
    radius = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2)]))
    twins = draw(st.lists(st.sampled_from([None, "re", "im"]),
                          min_size=len(slots), max_size=len(slots)))
    points = []
    for k, twin in zip(slots, twins):
        z = _OCTAGON[k] * radius
        points += [z] if twin is None else [z, z + _TWIN[twin]]
    points = points[:10]
    powers = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 4]),
                           min_size=len(points), max_size=len(points)))
    return points, powers, draw(st.integers(-2, 3))


def _product(points) -> LaurentPoly:
    p = ONE
    for x in points:
        p = p * (Z - LaurentPoly.constant(x))
    return p


class TestLaurentRoots:
    @settings(max_examples=60, deadline=None)
    @given(separated_roots())
    def test_one_root_per_factor_at_rounding_level(self, case):
        # z^lo·Π (z - x)^k: 0 once exactly when lo > 0, one root per distinct
        # factor, in the order of (|z|, arg z)
        points, powers, lo = case
        p = LaurentPoly.monomial(lo) * _product(
            [x for x, k in zip(points, powers) for _ in range(k)])
        roots = laurent_roots(p)
        assert roots == sorted(roots, key=lambda w: (abs(w), cmath.phase(w)))
        assert roots.count(0j) == (lo > 0)
        roots = [z for z in roots if z]
        assert len(roots) == len(points)
        q = _product(points)   # the square-free part, whose roots are found
        c = q.float_coeffs(0, q.degree())
        for z in roots:   # the stop, by the same Horner pass
            v, bound = c[-1], abs(c[-1])
            for ck in reversed(c[:-1]):
                v, bound = v * z + ck, bound * abs(z) + abs(ck)
            assert abs(v) <= 4 * sys.float_info.epsilon * bound
        for x in points:
            assert min(abs(z - x.to_complex()) for z in roots) <= 1e-9

    def test_top_coefficient_below_the_double_range_is_dropped(self):
        tiny = Fraction(1, 10 ** 400)   # rounds to 0.0
        assert laurent_roots(ONE + LaurentPoly({1: tiny})) == []
        assert laurent_roots(ONE + Z + LaurentPoly({2: tiny})) == [-1 + 0j]

    def test_bottom_coefficient_below_the_double_range_is_the_root_0(self):
        # the root 0 is listed once, whether it comes from z or from rounding
        tiny = LaurentPoly({0: Fraction(1, 10 ** 400)})
        assert laurent_roots(Z * Z + tiny * Z) == [0j]
        assert HiggsField(LaurentMatrix.diagonal(ONE, -ONE), Z * Z + tiny * Z).poles == (0j,)
        assert laurent_roots(tiny + Z + Z * Z) == [0j, -1 + 0j]

    @pytest.mark.parametrize("scale", [Fraction(1, 10 ** 400), Fraction(10 ** 400)])
    def test_coefficients_all_beyond_the_double_range_keep_their_roots(self, scale):
        # every coefficient would read as 0.0 or overflow; a power of two brings them back
        c = LaurentPoly.constant(scale)
        assert laurent_roots(c + c * Z) == [-1 + 0j]
        roots = laurent_roots((c + c * Z) * (ONE + LaurentPoly.monomial(1, 10 ** 20)))
        assert len(roots) == 2 and abs(roots[1] + 1) <= 1e-12
        assert abs(roots[0] + 1e-20) <= 1e-32

    @pytest.mark.parametrize("coeffs", [
        {0: 1, 1: 5 * 10 ** 300, 2: Fraction(7, 10 ** 50)},   # a root near -7e349
        {0: 5 * 10 ** 300, 1: Fraction(7, 10 ** 50)},
        {0: 1, 1: 2 * 10 ** 300, 2: 1},   # Σ|c_k||z|^k overflows near the root -2e300
    ], ids=["degree-2", "degree-1", "values"])
    def test_root_beyond_the_double_range_raises(self, coeffs):
        den = LaurentPoly(coeffs)
        with pytest.raises(NotRepresentable, match="double range"):
            laurent_roots(den)
        with pytest.raises(NotRepresentable, match="double range"):
            HiggsField(LaurentMatrix.diagonal(ONE, -ONE), den)

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(frames, "_SWEEPS", 1)
        p = _product([GaussianRational(Fraction(1)), GaussianRational(Fraction(2)),
                      GaussianRational(Fraction(0), Fraction(-3))])
        with pytest.raises(ToleranceNotMet, match="Aberth"):
            laurent_roots(p)


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == {"horosphere", "lower-shear",
                                      "affine-null", "cusp-degree2"}

    def test_entries(self):
        assert catalog("horosphere").matrix == LaurentMatrix(ONE, Z, ZERO, ONE)
        assert catalog("lower-shear").matrix == LaurentMatrix(ONE, ZERO, Z, ONE)
        assert catalog("affine-null").matrix == LaurentMatrix(ONE + Z, Z, -Z, ONE - Z)

    def test_unknown(self):
        with pytest.raises(UnknownName):
            catalog("pseudosphere")

    def test_all_exactly_bryant(self):
        for name in CATALOG_NAMES:
            r = check_bryant(catalog(name).matrix)
            assert r.is_bryant, name


class TestFrameTypes:
    def test_not_special_rejected(self):
        with pytest.raises(NotSpecial):
            BryantFrame(LaurentMatrix.diagonal(Z, Z))

    def test_annulus_validation(self):
        with pytest.raises(ValueError):
            Annulus(-1.0, 2.0)
        with pytest.raises(ValueError):
            Annulus(2.0, 1.0)

    @pytest.mark.parametrize("r_min, r_max", [
        (math.nan, math.nan), (0.0, math.nan), (math.inf, None),
        (0.0, math.inf),
    ])
    def test_annulus_rejects_non_finite_bounds(self, r_min, r_max):
        with pytest.raises(ValueError):
            Annulus(r_min, r_max)

    def test_annulus_contains(self):
        ring = Annulus(0.5, 2.0)
        assert ring.contains(1.0) and not ring.contains(0.1)
        assert Annulus().contains(1e6)

    def test_annulus_json_unbounded(self):
        ring = Annulus(0.0, None)
        data = ring.to_json()
        assert data["r_max"] is None
        assert Annulus.from_json(data) == ring

    @pytest.mark.parametrize("domain", [
        {"r_min": True, "r_max": "2"}, {"r_min": "0", "r_max": None},
        {"r_min": 0, "r_max": False}, {"r_min": 10 ** 400, "r_max": None},
    ])
    def test_annulus_json_takes_only_numbers(self, domain):
        with pytest.raises(ValueError):
            Annulus.from_json(domain)

    def test_annulus_json_integers_accepted(self):
        assert Annulus.from_json({"r_min": 0, "r_max": 2}) == Annulus(0.0, 2.0)

    def test_frame_json_round_trip(self):
        f = catalog("affine-null")
        assert BryantFrame.from_json(f.to_json()) == f

    def test_sections_convention(self):
        # s is the FIRST column (a, c), t the second (b, d)
        f = catalog("lower-shear")
        s, t = f.sections()
        assert s == (ONE, Z) and t == (ZERO, ONE)

    def test_order(self):
        assert catalog("horosphere").order == 0
        assert BryantFrame(LaurentMatrix.diagonal(Z, LaurentPoly.monomial(-1))).order == 1
