"""Special and Bryant frames.

A *special frame* is a 2x2 Laurent matrix A with det A = 1 exactly.  It is
a *Bryant frame* when additionally det A' = 0 exactly; then z -> A(z)A(z)*
immerses its domain into hyperbolic 3-space with mean curvature one, and
the zero set of A' is the branch locus.

Both conditions are decided symbolically.  The only numerics in this
module is laurent_roots, the one root finder: each distinct zero of an exact
polynomial once, found in floats by Aberth's iteration.  It gives the poles
of a Higgs field and the branch points, the roots of the gcd of A'.

Component convention, used consistently across the package: for
A = [[a, b], [c, d]] the first section is the first column s = (a, c) and
the second is t = (b, d), so s ∧ t = det A.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

from .errors import NotRepresentable, NotSpecial, RegionContainsPole, ToleranceNotMet, UnknownName
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

_SWEEPS = 100         # Aberth sweeps before ToleranceNotMet
_BRANCH_TOL = 1e-10   # slack at the region's boundary


def laurent_roots(p: LaurentPoly) -> list[complex]:
    """The distinct zeros of p in C, each once, by modulus, then argument: 0 when lo > 0,
    then those of the square-free part q = z^-lo·p // gcd(p, p′), found exactly, times
    q.float_scale().  In floats a top coefficient that rounds to 0.0 is dropped, as in
    np.roots, and a bottom one adds the root 0; the rest are -c_0/c_1 at degree 1, else
    _aberth's.  NotRepresentable when a root, or q's value near one, exceeds the double range."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    q = p.shift(-(lo := p.valuation()))
    if (g := poly_gcd(q, q.derivative())) != _ONE:
        q = q // g
    if (s := q.float_scale()) != 1:   # same roots, coefficients that do not all round to 0
        q = q.scale(s)
    c, zero = q.float_coeffs(0, q.degree()), lo > 0   # ascending
    while c and not c[-1]:
        c.pop()
    while c and not c[0]:
        c.pop(0)
        zero = True
    try:
        roots = _aberth(c) if len(c) > 2 else [-c[0] / c[1]] if len(c) == 2 else []
        if all(map(cmath.isfinite, roots)):
            return sorted(([0j] if zero else []) + roots, key=lambda w: (abs(w), cmath.phase(w)))
    except OverflowError:   # at a start circle or in a Horner pass
        pass
    raise NotRepresentable(
        f"roots of a degree-{len(c) - 1} polynomial, or its values there, exceed the double range")


def _aberth(c: list[complex]) -> list[complex]:
    """The roots of p = Σ c_k z^k, c_0, c_n != 0, n >= 2, by Aberth–Ehrlich sweeps from the
    circles of the Newton polygon of log|c_k| (Bini 1996) until one sweep finds each at |p(z)|
    <= 4·eps·Σ|c_k||z|^k (ToleranceNotMet after _SWEEPS; OverflowError if that sum does)."""
    n, mag = len(c) - 1, [math.log(abs(x)) if x else -math.inf for x in c]
    hull = [0]   # the upper convex hull of (k, log|c_k|)
    for k in range(1, n + 1):
        while len(hull) > 1 and ((mag[hull[-1]] - mag[hull[-2]]) * (k - hull[-2])
                                 <= (mag[k] - mag[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(k)
    z = [math.exp((mag[i] - mag[j]) / m) * cmath.exp(1j * (2 * math.pi * k / m + i + 0.4))
         for i, j in zip(hull, hull[1:]) for m in [j - i] for k in range(m)]
    for _ in range(_SWEEPS):
        moved = False
        for i, x in enumerate(z):
            v, dv, bound, ax = c[n], 0j, abs(c[n]), abs(x)
            for ck in reversed(c[:-1]):
                dv, v, bound = dv * x + v, v * x + ck, bound * ax + abs(ck)
            if abs(v) > 4 * sys.float_info.epsilon * bound:
                moved = True
                try:
                    z[i] = x - 1 / (dv / v - sum(1 / (x - y) for j, y in enumerate(z) if j != i))
                except ZeroDivisionError:   # x on another iterate, or a step of 1/0
                    pass
            elif not bound < math.inf:   # x or p(x) beyond the double range
                raise OverflowError
        if not moved:
            return z
    raise ToleranceNotMet(f"{n} roots not all found in {_SWEEPS} Aberth sweeps")


def branch_points(frame: BryantFrame, region: Annulus) -> list[complex]:
    """Common zeros of the four entries of A' in the region, each once, in laurent_roots'
    order: the roots of z^v·gcd(the nonzero entries), v >= 0 their least valuation.
    RegionContainsPole when A' has a pole in the region (Laurent entries' poles sit at 0)."""
    deriv = frame.matrix.derivative()
    nonzero = [p for p in deriv.entries if not p.is_zero]
    if not nonzero:
        raise ValueError("frame derivative vanishes identically; "
                         "every point of the region is a branch point")
    if region.contains(0) and any(p.pole_order() > 0 for p in nonzero):
        raise RegionContainsPole("derivative has a pole at 0 inside the region")
    v = max(0, min(p.valuation() for p in nonzero))
    return [z for z in laurent_roots(poly_gcd(*nonzero).shift(v))
            if region.contains(z, slack=_BRANCH_TOL)]


# ---------------------------------------------------------------------------
# catalog

_CATALOG: dict[str, LaurentMatrix] = {
    "horosphere": LaurentMatrix(LaurentPoly({0: 1}), LaurentPoly({1: 1}),
                                LaurentPoly({}), LaurentPoly({0: 1})),
    "lower-shear": LaurentMatrix(LaurentPoly({0: 1}), LaurentPoly({}),
                                 LaurentPoly({1: 1}), LaurentPoly({0: 1})),
    "affine-null": LaurentMatrix(LaurentPoly({0: 1, 1: 1}), LaurentPoly({1: 1}),
                                 LaurentPoly({1: -1}), LaurentPoly({0: 1, 1: -1})),
    "cusp-degree2": LaurentMatrix(LaurentPoly({0: 1}), LaurentPoly({2: 1}),
                                  LaurentPoly({}), LaurentPoly({0: 1})),
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
