"""Flat connections d + Θ: Higgs fields, parallel transport, holonomy.

The Higgs field of a unit-determinant frame A is Θ = dA·A^{-1} =
A'·adj(A) dz, a trace-free matrix of Laurent polynomials.  Singular model
ends and multi-pole configurations need honest rational functions, so the
general field is stored as a numerator matrix over a scalar denominator,
Θ = (N / den) dz, with the pole set derived from den and from negative
exponents of N.

Flat sections satisfy ds = -Θ s; parallel transport along a path z(t)
therefore integrates dY/dt = -Θ(z(t)) z'(t) Y, Y(0) = I.  For the model
end Θ = -diag(α, -α) dz/z the transport around a counterclockwise unit
circle is diag(e^{2πiα}, e^{-2πiα}); this integrator is the package's
ground truth for holonomy conventions.

The integrator is an embedded Dormand-Prince 5(4) pair with standard
proportional step control.  The flow preserves det Y = 1 exactly (the
generator is trace-free), so each accepted step is renormalized by
1/sqrt(det Y); this keeps the determinant defect at roundoff level without
touching the unitarity defects that the period-problem verdicts measure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .defaults import DEFAULTS, NumericControls
from .errors import NotNull, NotSpecial, PoleTooClose, ToleranceNotMet
from .frames import BryantFrame
from .series import (CoeffLike, GaussianRational, LaurentMatrix, LaurentPoly)

_ONE = LaurentPoly.one()


# ---------------------------------------------------------------------------
# Higgs fields

@dataclass(frozen=True)
class HiggsField:
    """Θ = (num / den) dz with trace-free numerator."""

    num: LaurentMatrix
    den: LaurentPoly = field(default_factory=LaurentPoly.one)
    poles: tuple[complex, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must be nonzero")
        if not self.num.trace().is_zero:
            raise ValueError("Higgs numerator must be trace-free")
        object.__setattr__(self, "poles", _pole_set(self.num, self.den))

    def value(self, z: complex) -> np.ndarray:
        return self.num.evaluate(z) / self.den(complex(z))

    def to_json(self) -> dict:
        return {"numerator": self.num.to_json(), "denominator": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "HiggsField":
        return cls(LaurentMatrix.from_json(data["numerator"]),
                   LaurentPoly.from_json(data["denominator"]))


def _pole_set(num: LaurentMatrix, den: LaurentPoly) -> tuple[complex, ...]:
    poles: list[complex] = []
    entry_val = min((p.valuation() for p in num.entries if not p.is_zero),
                    default=0)
    den_val = den.valuation() or 0
    if entry_val - den_val < 0:
        poles.append(0j)
    # nonzero roots of den: strip the z^v factor first so 0 never leaks in
    hi = den.degree()
    lo = den.valuation()
    coeffs = [den.coeff(e).to_complex() for e in range(hi, lo - 1, -1)]
    if len(coeffs) > 1:
        for r in np.roots(coeffs):
            z = complex(r)
            if not any(abs(z - w) < 1e-12 for w in poles):
                poles.append(z)
    return tuple(sorted(poles, key=lambda w: (abs(w), w.real, w.imag)))


def higgs_from_frame(frame: Union[BryantFrame, LaurentMatrix]) -> HiggsField:
    """Θ = A'·adj(A) dz; requires det A = 1 exactly."""
    matrix = frame.matrix if isinstance(frame, BryantFrame) else frame
    if matrix.det() != _ONE:
        raise NotSpecial("Higgs field needs a unit-determinant frame")
    return HiggsField(matrix.derivative() @ matrix.adjugate())


def model_end_field(alpha: CoeffLike) -> HiggsField:
    """The model singular end Θ = -diag(α, -α) dz/z, α in Q(i)."""
    a = GaussianRational.coerce(alpha)
    return HiggsField(LaurentMatrix.diagonal(
        LaurentPoly.monomial(-1, -a), LaurentPoly.monomial(-1, a)))


def simple_pole_field(residues: Sequence[tuple[CoeffLike, LaurentMatrix]]) -> HiggsField:
    """Θ = Σ R_i dz/(z - p_i) from exact pole positions and residues."""
    if not residues:
        raise ValueError("at least one pole is required")
    factors = []
    for p, r in residues:
        g = GaussianRational.coerce(p)
        factors.append(LaurentPoly({1: 1, 0: -g}))
        if not r.trace().is_zero:
            raise ValueError("each residue must be trace-free")
    den = LaurentPoly.one()
    for f in factors:
        den = den * f
    num = LaurentMatrix.diagonal(LaurentPoly.zero(), LaurentPoly.zero())
    for i, (_, r) in enumerate(residues):
        cof = LaurentPoly.one()
        for j, f in enumerate(factors):
            if j != i:
                cof = cof * f
        num = num + r.map(lambda p: p * cof)
    return HiggsField(num, den)


def ktuy_check(theta: HiggsField) -> tuple[bool, LaurentPoly]:
    """trace(Θ²) = 0 test; returns (passes, numerator of trace(Θ²))."""
    n = theta.num
    numerator = (n @ n).trace()
    return numerator.is_zero, numerator


def det_higgs(theta: HiggsField) -> tuple[LaurentPoly, LaurentPoly]:
    """det Θ as (numerator, denominator), exact."""
    return theta.num.det(), theta.den * theta.den


@dataclass(frozen=True)
class RationalForm:
    """A 1-form (num / den) dz."""

    num: LaurentPoly
    den: LaurentPoly

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


@dataclass(frozen=True)
class CousinData:
    """Exact 1-form triple (ω1, ω2, ω3) attached to a Higgs field.

    For Θ = [[α, γ], [β, -α]] the triple is ω1 = α, ω2 = (β+γ)/2,
    ω3 = i(β-γ)/2, all over the field's denominator, so that
    ω1² + ω2² + ω3² = α² + βγ = -det Θ.  The triple is isotropic exactly
    when the field is null.
    """

    omega1: RationalForm
    omega2: RationalForm
    omega3: RationalForm

    def sum_squares_numerator(self) -> LaurentPoly:
        n1, n2, n3 = self.omega1.num, self.omega2.num, self.omega3.num
        return n1 * n1 + n2 * n2 + n3 * n3

    @property
    def is_null(self) -> bool:
        return self.sum_squares_numerator().is_zero

    def to_json(self) -> dict:
        return {"omega1": self.omega1.to_json(),
                "omega2": self.omega2.to_json(),
                "omega3": self.omega3.to_json(),
                "is_null": self.is_null}


def cousin_data(theta: HiggsField) -> CousinData:
    """The 1-form triple of a null field; NotNull when det Θ ≠ 0.

    The gate is the determinant; the triple's own sum of squares
    vanishing is the equivalent identity the tests verify separately.
    """
    if not theta.num.det().is_zero:
        raise NotNull("cousin data is defined for null fields only")
    n = theta.num
    half = Fraction(1, 2)
    half_i = GaussianRational(Fraction(0), half)
    return CousinData(
        omega1=RationalForm(n.a, theta.den),
        omega2=RationalForm((n.c + n.b).scale(half), theta.den),
        omega3=RationalForm((n.c - n.b).scale(half_i), theta.den),
    )


# ---------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def at(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def velocity(self, t: float) -> complex:
        return self.end - self.start

    def reverse(self) -> "LineSegment":
        return LineSegment(self.end, self.start)

    def min_distance(self, w: complex) -> float:
        d = self.end - self.start
        if d == 0:
            return abs(self.start - w)
        t = ((w - self.start) * d.conjugate()).real / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(self.start + t * d - w)

    def to_json(self) -> dict:
        return {"kind": "line",
                "start": [self.start.real, self.start.imag],
                "end": [self.end.real, self.end.imag]}


@dataclass(frozen=True)
class ArcSegment:
    """Circular arc; counterclockwise when angle1 > angle0."""

    center: complex
    radius: float
    angle0: float
    angle1: float

    def at(self, t: float) -> complex:
        ang = self.angle0 + t * (self.angle1 - self.angle0)
        return self.center + self.radius * cmath.exp(1j * ang)

    def velocity(self, t: float) -> complex:
        ang = self.angle0 + t * (self.angle1 - self.angle0)
        return self.radius * 1j * (self.angle1 - self.angle0) * cmath.exp(1j * ang)

    def reverse(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.angle1, self.angle0)

    def min_distance(self, w: complex) -> float:
        v = w - self.center
        r = abs(v)
        if r == 0:
            return self.radius
        lo, hi = sorted((self.angle0, self.angle1))
        if hi - lo >= 2 * math.pi:
            return abs(r - self.radius)
        phi = cmath.phase(v)
        # bring phi into [lo, lo + 2*pi)
        phi += math.floor((lo - phi) / (2 * math.pi) + 1) * 2 * math.pi
        while phi - 2 * math.pi >= lo:
            phi -= 2 * math.pi
        if lo <= phi <= hi:
            return abs(r - self.radius)
        return min(abs(w - self.at(0.0)), abs(w - self.at(1.0)))

    def to_json(self) -> dict:
        return {"kind": "arc",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius,
                "angle0": self.angle0, "angle1": self.angle1}


Segment = Union[LineSegment, ArcSegment]

_CLOSURE_TOL = 1e-9


class Path:
    """A piecewise path: consecutive segments must join end to start."""

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(segments)
        if not segs:
            raise ValueError("a path needs at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if abs(prev.at(1.0) - nxt.at(0.0)) > _CLOSURE_TOL:
                raise ValueError("path segments do not join")
        self.segments = segs

    @property
    def start(self) -> complex:
        return self.segments[0].at(0.0)

    @property
    def end(self) -> complex:
        return self.segments[-1].at(1.0)

    def reverse(self) -> "Path":
        return Path(tuple(s.reverse() for s in reversed(self.segments)))

    def __add__(self, other: "Path") -> "Path":
        return Path(self.segments + other.segments)

    def min_distance(self, w: complex) -> float:
        return min(s.min_distance(w) for s in self.segments)

    @classmethod
    def polyline(cls, points: Sequence[complex]) -> "Path":
        return cls(tuple(LineSegment(complex(p), complex(q))
                         for p, q in zip(points, points[1:])))


class PathLoop(Path):
    """A closed path; ``base`` is the common start/end point."""

    def __init__(self, segments: Iterable[Segment]):
        super().__init__(segments)
        if abs(self.start - self.end) > _CLOSURE_TOL:
            raise ValueError("loop is not closed")

    @property
    def base(self) -> complex:
        return self.start

    @property
    def counterclockwise(self) -> bool:
        # shoelace sign on a dense polyline sample
        area = 0.0
        for seg in self.segments:
            pts = [seg.at(k / 16) for k in range(17)]
            for p, q in zip(pts, pts[1:]):
                area += p.real * q.imag - q.real * p.imag
        return area > 0

    def reverse(self) -> "PathLoop":
        return PathLoop(tuple(s.reverse() for s in reversed(self.segments)))

    @classmethod
    def circle(cls, center: complex, radius: float,
               base_angle: float = 0.0, ccw: bool = True) -> "PathLoop":
        sweep = 2 * math.pi if ccw else -2 * math.pi
        return cls((ArcSegment(complex(center), float(radius),
                               base_angle, base_angle + sweep),))

    @classmethod
    def polygon(cls, vertices: Sequence[complex]) -> "PathLoop":
        pts = [complex(p) for p in vertices]
        if abs(pts[0] - pts[-1]) > _CLOSURE_TOL:
            pts.append(pts[0])
        return cls(tuple(LineSegment(p, q) for p, q in zip(pts, pts[1:])))

    def to_json(self) -> dict:
        return {"base": [self.base.real, self.base.imag],
                "segments": [s.to_json() for s in self.segments]}

    @classmethod
    def from_json(cls, data) -> "PathLoop":
        segs: list[Segment] = []
        for s in data["segments"]:
            if s["kind"] == "line":
                segs.append(LineSegment(complex(*s["start"]), complex(*s["end"])))
            elif s["kind"] == "arc":
                segs.append(ArcSegment(complex(*s["center"]), float(s["radius"]),
                                       float(s["angle0"]), float(s["angle1"])))
            else:
                raise ValueError(f"unknown segment kind {s['kind']!r}")
        loop = cls(tuple(segs))
        base = complex(*data["base"])
        if abs(loop.base - base) > _CLOSURE_TOL:
            raise ValueError("declared base does not match the first segment")
        return loop


# ---------------------------------------------------------------------------
# transport

# Dormand-Prince 5(4): stage weights, 5th-order row, and the embedded
# error row (difference of the 5th- and 4th-order weights).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
         -17253 / 339200, 22 / 525, -1 / 40)

_MIN_STEP = 1e-12
_SAFETY = 0.9

ThetaValue = Callable[[complex], np.ndarray]


def _unimodular(y: np.ndarray) -> np.ndarray:
    det = y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0]
    return y / cmath.sqrt(det)


def _integrate_segment(theta_value: ThetaValue, seg: Segment, y: np.ndarray,
                       rtol: float, atol: float) -> np.ndarray:
    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        return -(theta_value(seg.at(t)) * seg.velocity(t)) @ state

    t, h = 0.0, 0.1
    while t < 1.0:
        h = min(h, 1.0 - t)
        k = [rhs(t, y)]
        for i in range(1, 7):
            acc = sum((a * ki for a, ki in zip(_DP_A[i], k)), start=np.zeros((2, 2), complex))
            k.append(rhs(t + _DP_C[i] * h, y + h * acc))
        y5 = y + h * sum(a * ki for a, ki in zip(_DP_A[6], k))
        err_mat = h * sum(e * ki for e, ki in zip(_DP_E, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(np.abs(err_mat / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = _unimodular(y5)
        factor = _SAFETY * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < _MIN_STEP and t < 1.0:
            raise ToleranceNotMet(
                f"step underflow at t={t:.6f} on {type(seg).__name__}")
    return y


def parallel_transport(theta: Union[HiggsField, ThetaValue], path: Path,
                       controls: NumericControls = DEFAULTS,
                       poles: Iterable[complex] | None = None) -> np.ndarray:
    """Y(1) for dY = -Θ(z) dz Y along the path, Y(0) = I.

    The path must keep distance >= pole_clearance from every pole; poles
    are taken from the field, or passed explicitly for a bare callable.
    """
    if isinstance(theta, HiggsField):
        value: ThetaValue = theta.value
        pole_list = theta.poles if poles is None else tuple(poles)
    else:
        value = theta
        pole_list = tuple(poles or ())
    for seg in path.segments:
        for p in pole_list:
            d = seg.min_distance(p)
            if d < controls.pole_clearance * (1 - 1e-12):
                raise PoleTooClose(
                    f"path comes within {d:.3e} of pole {p!r} "
                    f"(clearance {controls.pole_clearance:.3e})")
    y = np.eye(2, dtype=complex)
    for seg in path.segments:
        y = _integrate_segment(value, seg, y, controls.rtol, controls.atol)
    return y


# ---------------------------------------------------------------------------
# holonomy and the period problem

@dataclass(frozen=True, eq=False)
class HolonomyReport:
    """Generator holonomies with their SU(2) defects.

    unitary_defects are ||U U* - I||_F, det_defects are |det U - 1|;
    the report passes when every defect is within tolerance.  The
    commutator fields are filled only when holonomy is asked for them.
    """

    matrices: tuple[np.ndarray, ...]
    unitary_defects: tuple[float, ...]
    det_defects: tuple[float, ...]
    passes: bool
    tol: float
    commutator_defects: tuple[float, ...] | None = None
    abelian: bool | None = None

    @property
    def verdict(self) -> str:
        return "passes" if self.passes else "fails"

    def to_json(self) -> dict:
        out = {
            "matrices": [[[ [x.real, x.imag] for x in row] for row in m.tolist()]
                         for m in self.matrices],
            "unitary_defects": list(self.unitary_defects),
            "det_defects": list(self.det_defects),
            "verdict": self.verdict,
            "tol": self.tol,
        }
        if self.commutator_defects is not None:
            out["commutator_defects"] = list(self.commutator_defects)
            out["abelian"] = self.abelian
        return out


def su2_defects(u: np.ndarray) -> tuple[float, float]:
    """(||U U* - I||_F, |det U - 1|)."""
    unitary = float(np.linalg.norm(u @ u.conj().T - np.eye(2)))
    det = abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0)
    return unitary, det


def _inv2(u: np.ndarray) -> np.ndarray:
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    return np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]]) / det


def report_from_matrices(mats: Sequence[np.ndarray], su2_tol: float,
                         commutators: bool = False) -> HolonomyReport:
    """Assemble a HolonomyReport from already-transported generators."""
    mats = tuple(np.asarray(m, dtype=complex) for m in mats)
    defects = [su2_defects(u) for u in mats]
    unitary = tuple(d[0] for d in defects)
    det = tuple(d[1] for d in defects)
    passes = all(u <= su2_tol for u in unitary) and all(d <= su2_tol for d in det)
    comm: tuple[float, ...] | None = None
    abelian: bool | None = None
    if commutators:
        pair_defects = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                c = mats[i] @ mats[j] @ _inv2(mats[i]) @ _inv2(mats[j])
                pair_defects.append(float(np.linalg.norm(c - np.eye(2))))
        comm = tuple(pair_defects)
        abelian = all(d <= su2_tol for d in pair_defects)
    return HolonomyReport(matrices=mats, unitary_defects=unitary,
                          det_defects=det, passes=passes, tol=su2_tol,
                          commutator_defects=comm, abelian=abelian)


def holonomy(theta: Union[HiggsField, ThetaValue], loops: Sequence[PathLoop],
             controls: NumericControls = DEFAULTS,
             poles: Iterable[complex] | None = None,
             commutators: bool = False) -> HolonomyReport:
    """Transport every generator loop and check the results against SU(2).

    Every defect is judged against ``controls.su2_tol``.  With
    ``commutators`` the report also holds the commutator defect
    ||U V U^{-1} V^{-1} - I||_F of each pair of generators, and the group
    they span is reported abelian when every pairwise defect is within tol.
    """
    mats = tuple(parallel_transport(theta, lp, controls, poles) for lp in loops)
    return report_from_matrices(mats, controls.su2_tol, commutators)
