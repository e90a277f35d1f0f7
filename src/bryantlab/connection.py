"""Flat connections d + Θ: Higgs fields, parallel transport, holonomy.

The Higgs field of a unit-determinant frame A is Θ = dA·A^{-1} =
A'·adj(A) dz, a trace-free matrix of Laurent polynomials.  Singular model
ends and multi-pole configurations need honest rational functions, so the
general field is stored as a numerator matrix over a scalar denominator,
Θ = (N / den) dz, in one normal form: N and den are polynomials in z, at
least one of them is nonzero at 0, and they are divided by their monic
gcd.  The poles of Θ are then exactly the roots of den.

Flat sections satisfy ds = -Θ s; parallel transport along a path z(t)
therefore integrates dY/dt = -Θ(z(t)) z'(t) Y, Y(0) = I.  For the model
end Θ = -diag(α, -α) dz/z the transport around a counterclockwise unit
circle is diag(e^{2πiα}, e^{-2πiα}); this integrator is the package's
ground truth for holonomy conventions.

As stored, den·Y' = -N·Y, so the Taylor coefficients of Y, N(m + w) and
den(m + w) at a centre m (N and den shifted by synthetic division) obey
den_0 (k+1) y_{k+1} = -Σ_j N_j y_{k-j} - Σ_{j>=1} den_j (k+1-j) y_{k+1-j}.
A step from c to e sums that series for Φ, Φ(0) = I, at its midpoint m at
both ends, each at most half way from m to the nearest pole and nearer where
Θ is so large that the terms would cancel (_radius): Y(e) = Φ(e - m)·Φ(c - m)^-1·Y(c).
A path's first chord is 2/3 of its start's pole distance, a later one ρ of the last m.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .defaults import DEFAULTS, NumericControls
from .errors import NotNull, NotSpecial, PoleTooClose, ToleranceNotMet
from .frames import BryantFrame, laurent_roots
from .series import (CoeffLike, GaussianRational, LaurentMatrix, LaurentPoly,
                     json_float, json_point, poly_gcd)

_ONE = LaurentPoly.one()


# ---------------------------------------------------------------------------
# Higgs fields

@dataclass(frozen=True)
class HiggsField:
    """Θ = (num / den) dz with trace-free numerator, in normal form: num and
    den are polynomials in z, one of them nonzero at 0, divided by their
    monic gcd, so ``poles`` are the roots of den, each listed once.
    Descriptions of one Θ that differ by a monic common factor, such as a
    file's older Laurent form of the model end (z^-1 over 1), give equal
    fields."""

    num: LaurentMatrix
    den: LaurentPoly = field(default_factory=LaurentPoly.one)
    poles: tuple[complex, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must be nonzero")
        if not self.num.trace().is_zero:
            raise ValueError("Higgs numerator must be trace-free")
        num, den = _normal(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        g = poly_gcd(den, den.derivative())   # den's square-free part is den // g
        object.__setattr__(self, "poles", tuple(sorted(
            laurent_roots(den if g == _ONE else den // g),
            key=lambda w: (abs(w), w.real, w.imag))))

    def value(self, z: complex) -> np.ndarray:
        return self.num.evaluate(z) / self.den(complex(z))

    def to_json(self) -> dict:
        return {"numerator": self.num.to_json(), "denominator": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "HiggsField":
        return cls(LaurentMatrix.from_json(data["numerator"]),
                   LaurentPoly.from_json(data["denominator"]))


def _normal(num: LaurentMatrix, den: LaurentPoly) -> tuple[LaurentMatrix, LaurentPoly]:
    """num and den times z^-lo, one of them nonzero at 0, over their monic gcd;
    z cannot divide that gcd, so it is the gcd of the entries stripped of z^k."""
    lo = min(p.valuation() for p in num.entries + (den,) if not p.is_zero)
    num, den = num.map(lambda p: p.shift(-lo)), den.shift(-lo)
    g = poly_gcd(den, *num.entries)
    if g == _ONE:
        return num, den
    return num.map(lambda p: p // g), den // g


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
        LaurentPoly.constant(-a), LaurentPoly.constant(a)), LaurentPoly.z())


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
    for f, (_, r) in zip(factors, residues):
        cof = den // f
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
class CousinData:
    """Exact 1-form triple (ω1, ω2, ω3) attached to a Higgs field.

    For Θ = [[α, γ], [β, -α]] the triple is ω1 = α, ω2 = (β+γ)/2,
    ω3 = i(β-γ)/2, all over the field's denominator, so that
    ω1² + ω2² + ω3² = α² + βγ = -det Θ.  The omega fields hold the three
    numerators and ``den`` their one denominator.  The triple is isotropic
    exactly when the field is null.
    """

    omega1: LaurentPoly
    omega2: LaurentPoly
    omega3: LaurentPoly
    den: LaurentPoly

    def sum_squares_numerator(self) -> LaurentPoly:
        n1, n2, n3 = self.omega1, self.omega2, self.omega3
        return n1 * n1 + n2 * n2 + n3 * n3

    @property
    def is_null(self) -> bool:
        return self.sum_squares_numerator().is_zero

    def to_json(self) -> dict:
        return {"omega1": self.omega1.to_json(),
                "omega2": self.omega2.to_json(),
                "omega3": self.omega3.to_json(),
                "den": self.den.to_json(),
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
    return CousinData(omega1=n.a, omega2=(n.c + n.b).scale(half),
                      omega3=(n.c - n.b).scale(half_i), den=theta.den)


# ---------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.start) and cmath.isfinite(self.end)):
            raise ValueError(
                f"line endpoints must be finite, got {self.start!r}, {self.end!r}")

    def at(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def velocity(self, t: float) -> complex:
        return self.end - self.start

    def reverse(self) -> "LineSegment":
        return LineSegment(self.end, self.start)

    def min_distance(self, w: complex) -> float:
        a, b = self.start - w, self.end - w
        if not 0 < -(a * (b - a).conjugate()).real < abs(b - a) ** 2:
            return min(abs(a), abs(b))
        # the foot is inside: |a × b| / |b - a|, a × b exact over s² (it cancels near a far pole)
        r = [x.as_integer_ratio() for z in (self.start, self.end, w) for x in (z.real, z.imag)]
        s = max(q for _, q in r)
        x0, y0, x1, y1, u, v = [n * (s // q) for n, q in r]
        return abs((x0 - u) * (y1 - v) - (y0 - v) * (x1 - u)) / (s * s) / abs(b - a)

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

    def __post_init__(self):
        if not all(cmath.isfinite(x) for x in
                   (self.center, self.radius, self.angle0, self.angle1)):
            raise ValueError(f"arc data must be finite, got {self!r}")
        if not self.radius > 0:
            raise ValueError(f"arc radius must be positive, got {self.radius!r}")

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
        # the angle of v in [lo, lo + 2*pi)
        phi = lo + (cmath.phase(v) - lo) % (2 * math.pi)
        if phi <= hi:
            return abs(r - self.radius)
        return min(abs(w - self.at(0.0)), abs(w - self.at(1.0)))

    def to_json(self) -> dict:
        return {"kind": "arc",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius,
                "angle0": self.angle0, "angle1": self.angle1}


Segment = Union[LineSegment, ArcSegment]


def _joins(p: complex, q: complex) -> bool:
    """p and q agree to 1e-9, relative to their size once it passes 1."""
    return abs(p - q) <= 1e-9 * max(1.0, abs(p), abs(q))


class Path:
    """A piecewise path: consecutive segments must join end to start."""

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(segments)
        if not segs:
            raise ValueError("a path needs at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if not _joins(prev.at(1.0), nxt.at(0.0)):
                raise ValueError("path segments do not join")
        self.segments = segs

    @property
    def start(self) -> complex:
        return self.segments[0].at(0.0)

    @property
    def end(self) -> complex:
        return self.segments[-1].at(1.0)

    def reverse(self) -> "Path":
        return type(self)(tuple(s.reverse() for s in reversed(self.segments)))

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
        if not _joins(self.start, self.end):
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

    @classmethod
    def circle(cls, center: complex, radius: float,
               base_angle: float = 0.0, ccw: bool = True) -> "PathLoop":
        sweep = 2 * math.pi if ccw else -2 * math.pi
        return cls((ArcSegment(complex(center), float(radius),
                               base_angle, base_angle + sweep),))

    @classmethod
    def polygon(cls, vertices: Sequence[complex]) -> "PathLoop":
        pts = [complex(p) for p in vertices]
        if pts and not _joins(pts[0], pts[-1]):
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
                segs.append(LineSegment(json_point(s["start"]), json_point(s["end"])))
            elif s["kind"] == "arc":
                segs.append(ArcSegment(json_point(s["center"]), json_float(s["radius"]),
                                       json_float(s["angle0"]), json_float(s["angle1"])))
            else:
                raise ValueError(f"unknown segment kind {s['kind']!r}")
        loop = cls(tuple(segs))
        base = json_point(data["base"])
        if not (cmath.isfinite(base) and _joins(loop.base, base)):
            raise ValueError("declared base does not match the first segment")
        return loop


# ---------------------------------------------------------------------------
# transport

_FLOOR = 2.0 ** -50   # 4 eps: the rounding floor of a step, per max(1, |Y|)


def _shift(a: list, c: complex) -> list:
    """Ascending coefficients of p(c + w) from those a of p(z) (Horner's shift)."""
    b = list(a)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] += c * b[j + 1]
    return b


def _radius(n: list, d: list) -> float:
    """ρ = 1/max_k (||Θ_k||/(k+1))^{1/(k+1)} over the first len(n) coefficients
    of Θ = N/den; in |w| <= ρ/2 the terms of Y sum to <= e·|Y| (exp ∫||Θ||)."""
    th = []
    for k, (x0, x1, x2, x3) in enumerate(n):
        c0 = c1 = c2 = c3 = 0   # Θ_k = (N_k - Σ_j den_j Θ_{k-j}) / den_0, summed from j = 1
        for dj, (t0, t1, t2, t3) in zip(d[1:k + 1], reversed(th)):   # den_j, Θ_{k-j}
            c0, c1, c2, c3 = c0 + dj * t0, c1 + dj * t1, c2 + dj * t2, c3 + dj * t3
        th.append(((x0 - c0) / d[0], (x1 - c1) / d[0], (x2 - c2) / d[0], (x3 - c3) / d[0]))
    r = max([(max(abs(p) + abs(q), abs(u) + abs(v)) / (k + 1)) ** (1 / (k + 1))
             for k, (p, q, u, v) in enumerate(th)] + [0.0])
    return 1 / r if r else math.inf


def _mul(x: tuple, y: tuple) -> tuple:
    """The product of two 2x2 matrices stored row-major as 4-tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _inv(x: tuple) -> tuple:
    """The inverse of a 4-tuple 2x2 matrix: its adjugate over its determinant."""
    det = x[0] * x[3] - x[1] * x[2]
    return (x[3] / det, -x[1] / det, -x[2] / det, x[0] / det)


def _taylor_step(n: list, d: list, y: tuple, a: complex, b: complex,
                 ratio: float, atol: float) -> tuple:
    """Y(m + b) = Φ(b)·Φ(a)^-1·y from y = Y(m + a) by one series of Φ' = -ΘΦ,
    Φ(0) = I, at m, stopped once ε = ratio/(1 - ratio)·max|last K terms| <= tol
    and ε·|Z|·(1 + |Φ(b)Φ(a)^-1|) <= tol·max(1, |Y|), Z = Φ(a)^-1·y.  Every
    term (a 4-tuple) is kept, term i at index i, beside the sum of its moduli."""
    h, q = (a, b) if (flip := abs(a) > abs(b)) else (b, a)   # scale by the longer
    q, qk, g = q / h if h else 0j, 1 + 0j, ratio / (1 - ratio)
    tol = cut = max(atol, _FLOOR)   # the full test runs once ε <= cut
    # term k = -Σ_j ((p, t, u, v)_j + (k-1-j) e_j) term_{k-1-j} / k over K = len(n) j's
    coef = [(*(x * hj / d[0] for x in nj), d[j + 1] * hj / d[0] if j + 1 < len(d) else 0j)
            for j, nj in enumerate(n) for hj in [h ** (j + 1)]]   # (N_j, den_{j+1}) h^{j+1}/den_0
    terms, sizes, K = [(1 + 0j, 0j, 0j, 1 + 0j)], [2.0], len(n)
    s0, s1, s2, s3 = r0, r1, r2, r3 = 1 + 0j, 0j, 0j, 1 + 0j   # sums at h, q·h
    for k in itertools.count(1):
        a0 = a1 = a2 = a3 = 0j
        i = k
        for p, t, u, v, e in (coef if k >= K else coef[:k]):
            i -= 1   # k - 1 - j
            y0, y1, y2, y3 = terms[i]
            e *= i
            pe, ve = p + e, v + e
            a0 += pe * y0 + t * y2
            a1 += pe * y1 + t * y3
            a2 += u * y0 + ve * y2
            a3 += u * y1 + ve * y3
        a0, a1, a2, a3 = -a0 / k, -a1 / k, -a2 / k, -a3 / k
        size = abs(a0) + abs(a1) + abs(a2) + abs(a3)
        if not math.isfinite(size):
            raise ToleranceNotMet(f"Taylor term {k} is not finite")
        terms.append((a0, a1, a2, a3))
        sizes.append(size)
        s0, s1, s2, s3 = s0 + a0, s1 + a1, s2 + a2, s3 + a3
        qk *= q
        r0, r1, r2, r3 = r0 + a0 * qk, r1 + a1 * qk, r2 + a2 * qk, r3 + a3 * qk
        if size * g <= cut and (eps := g * max(sizes[-K or -1:])) <= cut:   # the last K
            s, r = (s0, s1, s2, s3), (r0, r1, r2, r3)
            inv = _inv(s if flip else r)   # Φ(a)^-1
            w, z = _mul(r if flip else s, inv), _mul(inv, y)
            ye = _mul(w, y)
            gain = sum(map(abs, z)) * (1 + sum(map(abs, w)))
            scale = tol * max(1.0, *map(abs, ye))
            if not math.isfinite(gain + scale):
                raise OverflowError   # Y leaves the double range
            if eps * gain <= scale:
                return ye
            cut = scale / gain


def parallel_transport(theta: HiggsField, path: Path,
                       controls: NumericControls = DEFAULTS) -> np.ndarray:
    """Y(1) for dY = -Θ(z) dz Y along the path, Y(0) = I.

    The path must keep distance >= pole_clearance from every pole of the
    field (PoleTooClose otherwise).  Each step sums one series at both ends,
    each within ρ/2 of its midpoint m (the first chord is 2/3 of the start's
    pole distance, a later one ρ of the last m, shrunk until it fits), and
    holds the tails of Y at its end within max(share·atol, 4·eps)·max(1, |Y|),
    share its fraction of the path length; 4·eps floors summing past atol
    raise ToleranceNotMet, so the tails of a path sum to <= 2·atol·max(1, |Y|).
    """
    for p in theta.poles:
        d = path.min_distance(p)
        if d < controls.pole_clearance * (1 - 1e-12):
            raise PoleTooClose(
                f"path comes within {d:.3e} of pole {p!r} "
                f"(clearance {controls.pole_clearance:.3e})")
    # N gets >= deg(den) terms
    ents = theta.num.entries
    hi = max([p.degree() for p in ents if not p.is_zero] + [theta.den.degree() - 1])
    cols = [p.float_coeffs(0, hi) for p in ents]
    d = theta.den.float_coeffs(0, theta.den.degree())
    length = sum(abs(seg.velocity(0.0)) for seg in path.segments)
    y, steps = (1 + 0j, 0j, 0j, 1 + 0j), 0
    rho = 2 / 3 * min([abs(path.start - p) for p in theta.poles], default=math.inf)
    try:
        for seg in path.segments:
            speed = abs(seg.velocity(0.0))
            t, c = (0.0 if speed else 1.0), seg.at(0.0)
            while t < 1.0:
                steps += 1
                dt = min(1.0 - t, rho / speed)   # chord <= arc <= ρ of the last midpoint
                while True:
                    # 2^-52 is the resolution of t near 1; each step rounds by up to 4 eps
                    if not (dt >= 2.0 ** -52 and steps * _FLOOR <= controls.atol):
                        raise ToleranceNotMet(
                            f"step {steps} of {dt:.1e} at t={t!r}, atol {controls.atol:.1e}")
                    t_next = min(1.0, t + dt)
                    m, e = seg.at(0.5 * (t + t_next)), seg.at(t_next)
                    nm, dm = list(zip(*(_shift(col, m) for col in cols))), _shift(d, m)
                    rho = min([_radius(nm, dm)] + [abs(m - p) for p in theta.poles])
                    half = max(abs(c - m), abs(e - m))
                    if 0 < rho and 2 * half <= rho:
                        break
                    # >= 10 % shorter; half = 0 only where ρ(m) is 0 or nan
                    dt = 0.9 * dt * rho / (2 * half) if half else 0.0
                share = speed * (t_next - t) / length   # of the path length
                y = _taylor_step(nm, dm, y, c - m, e - m, half / rho, share * controls.atol)
                t, c = t_next, e
    except OverflowError:
        raise ToleranceNotMet("transport leaves the double range") from None
    return np.array(y, dtype=complex).reshape(2, 2)


# ---------------------------------------------------------------------------
# holonomy and the period problem

@dataclass(frozen=True, eq=False)
class HolonomyReport:
    """Generator holonomies with their SU(2) defects.

    unitary_defects are ||U U* - I||_F, det_defects are |det U - 1|;
    the report passes when every defect is within tolerance.
    commutator_defects are ||U V U^{-1} V^{-1} - I||_F over each pair of
    generators, and the group they span is abelian when every one of them
    is within tolerance.
    """

    matrices: tuple[np.ndarray, ...]
    unitary_defects: tuple[float, ...]
    det_defects: tuple[float, ...]
    passes: bool
    tol: float
    commutator_defects: tuple[float, ...]
    abelian: bool

    @property
    def verdict(self) -> str:
        return "passes" if self.passes else "fails"

    def to_json(self) -> dict:
        return {
            "matrices": [[[ [x.real, x.imag] for x in row] for row in m.tolist()]
                         for m in self.matrices],
            "unitary_defects": list(self.unitary_defects),
            "det_defects": list(self.det_defects),
            "verdict": self.verdict,
            "tol": self.tol,
            "commutator_defects": list(self.commutator_defects),
            "abelian": self.abelian,
        }


def _off_one(x: tuple) -> float:
    """||X - I||_F of a 2x2 matrix stored row-major as a 4-tuple."""
    return math.hypot(abs(x[0] - 1), abs(x[1]), abs(x[2]), abs(x[3] - 1))


def _defects(x: tuple) -> tuple[float, float]:
    """su2_defects of a 2x2 matrix stored row-major as a 4-tuple."""
    star = tuple(v.conjugate() for v in (x[0], x[2], x[1], x[3]))
    return _off_one(_mul(x, star)), abs(x[0] * x[3] - x[1] * x[2] - 1.0)


def su2_defects(u: np.ndarray) -> tuple[float, float]:
    """(||U U* - I||_F, |det U - 1|)."""
    return _defects(tuple(np.asarray(u, dtype=complex).ravel().tolist()))


def report_from_matrices(mats: Sequence[np.ndarray],
                         su2_tol: float) -> HolonomyReport:
    """Assemble a HolonomyReport from already-transported generators."""
    mats = tuple(np.asarray(m, dtype=complex) for m in mats)
    xs = [tuple(m.ravel().tolist()) for m in mats]
    defects = [_defects(x) for x in xs]
    unitary, det = tuple(d[0] for d in defects), tuple(d[1] for d in defects)
    passes = all(u <= su2_tol for u in unitary) and all(d <= su2_tol for d in det)
    pair_defects = tuple(   # ||U V U^-1 V^-1 - I||_F over each pair
        _off_one(_mul(_mul(_mul(x, y), _inv(x)), _inv(y)))
        for x, y in itertools.combinations(xs, 2))
    return HolonomyReport(matrices=mats, unitary_defects=unitary,
                          det_defects=det, passes=passes, tol=su2_tol,
                          commutator_defects=pair_defects,
                          abelian=all(d <= su2_tol for d in pair_defects))


def holonomy(theta: HiggsField, loops: Sequence[PathLoop],
             controls: NumericControls = DEFAULTS) -> HolonomyReport:
    """Transport every generator loop and check the results against SU(2).

    Every defect is judged against ``controls.su2_tol``; the report also
    holds the commutator defect of each pair of generators.  At least one
    loop is required (ValueError otherwise).
    """
    if not loops:
        raise ValueError("at least one loop is required")
    mats = tuple(parallel_transport(theta, lp, controls) for lp in loops)
    return report_from_matrices(mats, controls.su2_tol)
