"""Special and Bryant frames.

A *special frame* is a 2x2 Laurent matrix A with det A = 1 exactly.  It is
a *Bryant frame* when additionally det A' = 0 exactly; then z -> A(z)A(z)*
immerses its domain into hyperbolic 3-space with mean curvature one, and
the zero set of A' is the branch locus.

Both conditions are decided symbolically.  The only numerics in this
module is the branch-point search: the common zeros of the entries of A'
are the roots of their exact gcd, found in floats inside an annulus.

Component convention, used consistently across the package: for
A = [[a, b], [c, d]] the first section is the first column s = (a, c) and
the second is t = (b, d), so s ∧ t = det A.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSpecial, RegionContainsPole, UnknownName
from .series import LaurentMatrix, LaurentPoly, json_float, poly_gcd

_ONE = LaurentPoly.one()


@dataclass(frozen=True)
class Annulus:
    """Region r_min <= |z| <= r_max about 0; r_max=None means unbounded.

    Both bounds must be finite: None is the only way to say unbounded.
    """

    r_min: float = 0.0
    r_max: float | None = None

    def __post_init__(self):
        for name in ("r_min", "r_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.r_min < 0:
            raise ValueError("r_min must be nonnegative")
        if self.r_max is not None and self.r_max < self.r_min:
            raise ValueError("r_max must be at least r_min")

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        r = abs(z)
        if r < self.r_min - slack:
            return False
        if self.r_max is not None and r > self.r_max + slack:
            return False
        return True

    def to_json(self) -> dict:
        return {"r_min": self.r_min, "r_max": self.r_max}

    @classmethod
    def from_json(cls, data) -> "Annulus":
        return cls(json_float(data["r_min"]),
                   None if data["r_max"] is None else json_float(data["r_max"]))


@dataclass(frozen=True)
class BryantFrame:
    """A unit-determinant Laurent frame together with its domain annulus.

    Construction enforces det = 1 exactly (NotSpecial otherwise); whether
    the frame also satisfies det A' = 0 is a separate check, since partial
    or perturbed frames are legitimate inputs to the verifiers.
    """

    matrix: LaurentMatrix
    domain: Annulus = field(default_factory=Annulus)

    def __post_init__(self):
        if self.matrix.det() != _ONE:
            raise NotSpecial("frame determinant is not identically 1")

    @property
    def order(self) -> int:
        """Smallest n >= 0 with z^n * (every entry) holomorphic at 0."""
        return self.matrix.max_pole_order()

    def sections(self) -> tuple[tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]]:
        m = self.matrix
        return (m.a, m.c), (m.b, m.d)

    def to_json(self) -> dict:
        return {"matrix": self.matrix.to_json(), "domain": self.domain.to_json()}

    @classmethod
    def from_json(cls, data) -> "BryantFrame":
        return cls(LaurentMatrix.from_json(data["matrix"]),
                   Annulus.from_json(data["domain"]))


@dataclass(frozen=True)
class FrameReport:
    """Outcome of the symbolic frame checks.

    det_residual = det A - 1 and null_residual = det A', both exact, so a
    failing check carries the witness polynomial.
    """

    is_special: bool
    is_bryant: bool
    det_residual: LaurentPoly
    null_residual: LaurentPoly

    def to_json(self) -> dict:
        return {
            "is_special": self.is_special,
            "is_bryant": self.is_bryant,
            "det_residual": self.det_residual.to_json(),
            "null_residual": self.null_residual.to_json(),
        }


def check_bryant(matrix: LaurentMatrix) -> FrameReport:
    """Exact test of both conditions: det A = 1 and det A' = 0."""
    det_residual = matrix.det() - _ONE
    null_residual = omega_quadratic(matrix)
    return FrameReport(
        is_special=det_residual.is_zero,
        is_bryant=det_residual.is_zero and null_residual.is_zero,
        det_residual=det_residual,
        null_residual=null_residual,
    )


def omega_quadratic(matrix: LaurentMatrix) -> LaurentPoly:
    """det A', the coefficient of the pulled-back quadratic differential."""
    return matrix.derivative().det()


# ---------------------------------------------------------------------------
# branch points

_NEWTON_SWEEPS = 3
_BRANCH_TOL = 1e-10   # slack at the region's boundary


def laurent_roots(p: LaurentPoly) -> list[complex]:
    """The zeros of p in C, as np.roots lists them.

    A nonzero root of multiplicity k appears k times, each copy up to about
    eps^(1/k) away, so callers pass a square-free p; 0 appears once,
    whatever its multiplicity, when p(0) = 0.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    lo = p.valuation()
    hi = p.degree()
    roots: list[complex] = []
    if lo > 0:
        roots.append(0j)
    # z^{-lo} p(z) is an ordinary polynomial with nonzero constant term,
    # so numpy sees no spurious roots at the origin.
    coeffs = p.float_coeffs(lo, hi)[::-1]
    if len(coeffs) > 1:
        roots.extend(np.roots(coeffs).tolist())
    return roots


def _newton_polish(p: LaurentPoly, z: complex) -> complex:
    dp = p.derivative()
    for _ in range(_NEWTON_SWEEPS):
        if z == 0:
            break
        d = dp(z)
        if d == 0:
            break
        step = p(z) / d
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z -= step
    return z


def branch_points(frame: BryantFrame, region: Annulus) -> list[complex]:
    """Common zeros of the four entries of A' inside the region, each once.

    They are the roots of the square-free part of the monic gcd of the
    nonzero entries, each with a Newton polish on that part, and 0 when
    every entry vanishes there (the gcd leaves out powers of z).
    RegionContainsPole is raised when A' has a pole inside the region
    (poles of Laurent entries sit at 0 only).
    """
    deriv = frame.matrix.derivative()
    nonzero = [p for p in deriv.entries if not p.is_zero]
    if not nonzero:
        raise ValueError("frame derivative vanishes identically; "
                         "every point of the region is a branch point")
    if region.contains(0) and any(p.pole_order() > 0 for p in nonzero):
        raise RegionContainsPole("derivative has a pole at 0 inside the region")
    g = poly_gcd(*nonzero)
    g = g // poly_gcd(g, g.derivative())
    roots = [_newton_polish(g, z) for z in laurent_roots(g)]
    if all(p.valuation() > 0 for p in nonzero):
        roots.append(0j)
    found = [z for z in roots if region.contains(z, slack=_BRANCH_TOL)]
    found.sort(key=lambda w: (abs(w), cmath.phase(w)))
    return found


# ---------------------------------------------------------------------------
# catalog

def _poly(coeffs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(coeffs)


_CATALOG: dict[str, LaurentMatrix] = {
    "horosphere": LaurentMatrix(_poly({0: 1}), _poly({1: 1}),
                                _poly({}), _poly({0: 1})),
    "lower-shear": LaurentMatrix(_poly({0: 1}), _poly({}),
                                 _poly({1: 1}), _poly({0: 1})),
    "affine-null": LaurentMatrix(_poly({0: 1, 1: 1}), _poly({1: 1}),
                                 _poly({1: -1}), _poly({0: 1, 1: -1})),
    "cusp-degree2": LaurentMatrix(_poly({0: 1}), _poly({2: 1}),
                                  _poly({}), _poly({0: 1})),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog(name: str) -> BryantFrame:
    """Named example frames, defined on the whole plane."""
    try:
        matrix = _CATALOG[name]
    except KeyError:
        raise UnknownName(
            f"no catalog frame {name!r}; available: {', '.join(CATALOG_NAMES)}"
        ) from None
    return BryantFrame(matrix, Annulus(0.0, None))
