"""Frame verification: expansion oracles first, then the catalog and
randomized special frames."""

import math

import pytest
from hypothesis import given, settings

from bryantlab.errors import (NotSpecial, RegionContainsPole, UnknownName)
from bryantlab.frames import (Annulus, BryantFrame, CATALOG_NAMES,
                              branch_points, catalog, check_bryant,
                              omega_quadratic)
from bryantlab.series import LaurentMatrix, LaurentPoly
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
