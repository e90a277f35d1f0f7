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
circle is diag(e^{2πiα}, e^{-2πiα}).  The transport is the general route and
the reference that every other route is tested against.

As stored, den·Y' = -N·Y, so the Taylor coefficients of Y, N(m + w) and
den(m + w) at a centre m (N and den shifted by synthetic division) obey
den_0 (k+1) y_{k+1} = -Σ_j N_j y_{k-j} - Σ_{j>=1} den_j (k+1-j) y_{k+1-j}.
A step from c to e sums that series for Φ, Φ(0) = I, at its midpoint m at
both ends, each at most half way from m to the nearest pole and nearer where
Θ is so large that the terms would cancel (_radius): Y(e) = Φ(e - m)·Φ(c - m)^-1·Y(c).
A path's first chord is 2/3 of its start's pole distance, a later one ρ of the last m.
A field's float N and den are read once, at first use (NotRepresentable then and after).

holonomy takes a local route for a loop that bounds a convex disc around one simple
pole p with non-resonant residue R = N(p)/den'(p): there the flat sections are
G(w)·w^-R, w = z - p, G(0) = I, G analytic out to ρ, the nearer of the next pole
and the _radius of Θ - R/w.  With q = den(p + w)/w, P = N(p + w) - R·q and
μ = -det R, q_0 (k + ad R) G_k = -Σ_{j>=1} (P_j + q_j (k - j + ad R)) G_{k-j}, and
ad R³ = 4μ·ad R inverts k + ad R.  The loop's monodromy is T⁻¹·G(b′)·E·G(b′)⁻¹·T:
T transports its base b to b′ = p + r′(b - p)/|b - p|, r′ = min(|b - p|, ρ/3), and
E = e^{∓2πiR} = cos 2πλ ∓ i·(sin 2πλ/λ)·R, λ² = μ, − for a positive sweep or left turns,
as the route's shape checks find them.  Too close to a pole, either route raises PoleTooClose.
"""

from __future__ import annotations

import cmath
import functools
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

    @functools.cached_property
    def _floats(self) -> tuple[tuple[tuple[complex, ...], ...], tuple[complex, ...]]:
        """N's entries (>= deg(den) coefficients each) and den as doubles, read at first
        use; a coefficient beyond the double range raises NotRepresentable at every use."""
        ents, den = self.num.entries, self.den
        hi = max([p.degree() for p in ents if not p.is_zero] + [den.degree() - 1])
        return (tuple(tuple(p.float_coeffs(0, hi)) for p in ents),
                tuple(den.float_coeffs(0, den.degree())))

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


def _length(segments: Iterable[Segment]) -> float:
    return sum(abs(seg.velocity(0.0)) for seg in segments)


def _joins(p: complex, q: complex, size: float) -> bool:
    """p and q agree to 1e-9 of the size of what they join plus 4 ulp of their coordinates."""
    big = max(abs(p.real), abs(p.imag), abs(q.real), abs(q.imag))
    return abs(p - q) <= 1e-9 * size + 4 * math.ulp(big)


class Path:
    """A piecewise path: consecutive segments must join end to start."""

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(segments)
        if not segs:
            raise ValueError("a path needs at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if not _joins(prev.at(1.0), nxt.at(0.0), _length((prev, nxt))):
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
        if not _joins(self.start, self.end, _length(self.segments)):
            raise ValueError("loop is not closed")

    @property
    def base(self) -> complex:
        return self.start

    @classmethod
    def circle(cls, center: complex, radius: float,
               base_angle: float = 0.0, ccw: bool = True) -> "PathLoop":
        sweep = 2 * math.pi if ccw else -2 * math.pi
        return cls((ArcSegment(complex(center), float(radius),
                               base_angle, base_angle + sweep),))

    @classmethod
    def polygon(cls, vertices: Sequence[complex]) -> "PathLoop":
        pts = [complex(p) for p in vertices]
        if pts and not _joins(pts[0], pts[-1], sum(abs(q - p) for p, q in zip(pts, pts[1:]))):
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
        if not (cmath.isfinite(base) and _joins(loop.base, base, _length(loop.segments))):
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


def _prelude(theta: HiggsField, path: Path, controls: NumericControls) -> tuple[tuple, tuple]:
    """PoleTooClose unless the path keeps pole_clearance from every pole; then the
    field's float coefficients of N's entries and of den, read once per field
    (NotRepresentable here, on each call, if one exceeds the double range)."""
    for p in theta.poles:
        d = path.min_distance(p)
        if d < controls.pole_clearance * (1 - 1e-12):
            raise PoleTooClose(
                f"path comes within {d:.3e} of pole {p!r} "
                f"(clearance {controls.pole_clearance:.3e})")
    return theta._floats


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
    cols, d = _prelude(theta, path, controls)
    length = _length(path.segments)
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


def _entries(u) -> tuple:
    """A 2x2 matrix's entries, row-major, as a 4-tuple; ValueError on any other shape."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    return tuple(u.ravel().tolist())


def _commutator_defect(x: tuple, y: tuple) -> float:
    """||X Y X^-1 Y^-1 - I||_F, inf where X or Y is singular."""
    try:
        return _off_one(_mul(_mul(_mul(x, y), _inv(x)), _inv(y)))
    except ZeroDivisionError:
        return math.inf


def su2_defects(u: np.ndarray) -> tuple[float, float]:
    """(||U U* - I||_F, |det U - 1|) of a 2x2 matrix."""
    return _defects(_entries(u))


def report_from_matrices(mats: Sequence[np.ndarray],
                         su2_tol: float) -> HolonomyReport:
    """A HolonomyReport from already-transported 2x2 generators, at least one (else ValueError)."""
    mats = tuple(np.asarray(m, dtype=complex) for m in mats)
    if not mats:
        raise ValueError("at least one loop is required")
    xs = [_entries(m) for m in mats]
    defects = [_defects(x) for x in xs]
    unitary, det = tuple(d[0] for d in defects), tuple(d[1] for d in defects)
    passes = all(u <= su2_tol for u in unitary) and all(d <= su2_tol for d in det)
    pair_defects = tuple(_commutator_defect(x, y) for x, y in itertools.combinations(xs, 2))
    return HolonomyReport(matrices=mats, unitary_defects=unitary,
                          det_defects=det, passes=passes, tol=su2_tol,
                          commutator_defects=pair_defects,
                          abelian=all(d <= su2_tol for d in pair_defects))


_FAR, _SHARE = 3, 64   # b′ within ρ/_FAR of p; the connector and G's tail at atol/_SHARE


def _local_monodromy(theta: HiggsField, loop: PathLoop,
                     controls: NumericControls) -> np.ndarray | None:
    """T⁻¹·G(b′)·e^{∓2πiR}·G(b′)⁻¹·T (module docstring), − for a positive sweep or left
    turns; None off the route or where the error estimate exceeds 2·atol·max(1, |M|).
    A loop on the route that comes too close to a pole raises PoleTooClose here."""
    atol, segs = controls.atol, loop.segments
    if len(theta.poles) != theta.den.degree():   # a multiple pole
        return None
    if len(segs) == 1 and isinstance(segs[0], ArcSegment):   # one full circle
        a = segs[0]
        sign = 1 if a.angle1 > a.angle0 else -1
        ulp = math.ulp(max(abs(a.angle0), abs(a.angle1)))
        if abs(a.angle1 - a.angle0 - sign * 2 * math.pi) > 4 * ulp:
            return None
        inside = [x for x in theta.poles if abs(x - a.center) < a.radius]
    elif len(segs) >= 3 and all(isinstance(s, LineSegment) for s in segs):
        # a convex polygon: closed exactly, every turn one way, one turn in all
        edges = [s.end - s.start for s in segs]
        turns = [e.conjugate() * f for e, f in zip(edges, edges[1:] + edges[:1])]
        sign = 1 if turns[0].imag > 0 else -1
        if (any(s.end != t.start for s, t in zip(segs, segs[1:] + segs[:1]))
                or not all(sign * t.imag > 0 for t in turns)
                or abs(sum(map(cmath.phase, turns)) - sign * 2 * math.pi) > 1):
            return None
        inside = [x for x in theta.poles if all(
            sign * (e.conjugate() * (x - s.start)).imag > 0 for e, s in zip(edges, segs))]
    else:
        return None
    if len(inside) != 1:
        return None
    p, b = inside[0], loop.base
    cols, d = _prelude(theta, loop, controls)   # then N(p + w) and den(p + w)/w
    n, q = list(zip(*(_shift(col, p) for col in cols))), _shift(d, p)[1:]
    if not q[0]:
        return None
    r0, r1, r2, r3 = r = tuple(x / q[0] for x in n[0])
    pq = [(tuple(x - y * qj for x, y in zip(nj, r)), qj)   # (P_j, q_j), j >= 1
          for nj, qj in zip(n[1:], q[1:] + [0j] * len(n))]
    mu = r1 * r2 - r0 * r3
    lam = cmath.sqrt(mu)
    th = 2 * math.pi * lam
    if not (abs(th) * _FLOOR <= atol and abs(th.imag) < 700):
        return None   # e^{∓2πiR} cannot be formed within atol
    c, si = cmath.cos(th), -1j * sign * (cmath.sin(th) / lam if lam else 2 * math.pi)
    e = (c + si * r0, si * r1, si * r2, c + si * r3)   # E

    def norm(x):   # the largest row sum, so |I| = 1
        return max(abs(x[0]) + abs(x[1]), abs(x[2]) + abs(x[3]))

    de = _FLOOR * (1 + abs(th)) * (abs(c) + abs(si) * norm(r))   # E's rounding
    rho = min([abs(x - p) for x in theta.poles if x != p] + [_radius([x for x, _ in pq], q)])
    rw = min(abs(b - p), rho / _FAR)
    if not rw >= controls.pole_clearance:
        return None
    b1, t, dt = b, (1 + 0j, 0j, 0j, 1 + 0j), 0.0
    if rw < abs(b - p):   # T by transport, its error from transport's bound
        b1 = p + rw * (b - p) / abs(b - p)
        try:
            t = _entries(parallel_transport(theta, Path.polyline([b, b1]),
                                            controls.with_(atol=atol / _SHARE)))
        except ToleranceNotMet:
            return None
        dt = 4 * atol / _SHARE * max(1.0, *map(abs, t))
    ti, w = _inv(t), b1 - p
    nt = norm(t) * norm(ti)
    coef = [(*(x * wj / q[0] for x in pj), qj * wj / q[0])   # (P_j, q_j) w^j/q_0
            for j, (pj, qj) in enumerate(pq, 1) for wj in [w ** j]]
    K, g = len(coef), rw / rho / (1 - rw / rho)
    y, sizes, cut = (1 + 0j, 0j, 0j, 1 + 0j), [2.0], max(atol / _SHARE, _FLOOR)
    terms = [y]
    for k in itertools.count(1):
        if sizes[-1] * g <= cut and (eps := g * max(sizes[-K or -1:])) <= cut:
            yi = _inv(y)
            x = _mul(_mul(y, e), yi)
            m = _mul(_mul(ti, x), t)
            scale = 2 * atol * max(1.0, *map(abs, m))
            fixed = nt * norm(y) * norm(yi) * de + 2 * norm(m) * norm(ti) * dt
            per = 2 * nt * norm(yi) * norm(x)   # |δM| per |δG|
            if fixed + per * (eps + _FLOOR * sum(sizes)) <= scale:   # tail and rounding
                return np.array(m, dtype=complex).reshape(2, 2)
            cut = (scale - fixed) / per - _FLOOR * sum(sizes)
            if not cut > 0:
                return None   # no number of terms meets atol
        dk = k * k - 4 * mu   # never reached where Θ = R/(z - p): K = 0, G = I
        if not abs(dk) > 1e-8 * k * k:
            return None   # resonant: k + ad R is (nearly) singular
        a0 = a1 = a2 = a3 = z0 = z1 = z2 = z3 = 0j
        i = k
        for p0, p1, p2, p3, qj in (coef if k >= K else coef[:k]):
            i -= 1   # k - j
            y0, y1, y2, y3 = terms[i]
            v = qj * i
            a0, a1 = a0 + (p0 + v) * y0 + p1 * y2, a1 + (p0 + v) * y1 + p1 * y3
            a2, a3 = a2 + p2 * y0 + (p3 + v) * y2, a3 + p2 * y1 + (p3 + v) * y3
            z0, z1, z2, z3 = z0 + qj * y0, z1 + qj * y1, z2 + qj * y2, z3 + qj * y3
        # h = -a - ad Z, ad X = R·X - X·R; (k + ad R)^-1 h = h/k - ad h/dk + ad² h/(k dk)
        h0, h1 = -a0 - (r1 * z2 - z1 * r2), -a1 - (r0 * z1 + r1 * z3 - z0 * r1 - z1 * r3)
        h2, h3 = -a2 - (r2 * z0 + r3 * z2 - z2 * r0 - z3 * r2), -a3 - (r2 * z1 - z2 * r1)
        v0, v1 = r1 * h2 - h1 * r2, r0 * h1 + r1 * h3 - h0 * r1 - h1 * r3
        v2, v3 = r2 * h0 + r3 * h2 - h2 * r0 - h3 * r2, r2 * h1 - h2 * r1
        kd = k * dk
        t0 = h0 / k - v0 / dk + (r1 * v2 - v1 * r2) / kd
        t1 = h1 / k - v1 / dk + (r0 * v1 + r1 * v3 - v0 * r1 - v1 * r3) / kd
        t2 = h2 / k - v2 / dk + (r2 * v0 + r3 * v2 - v2 * r0 - v3 * r2) / kd
        t3 = h3 / k - v3 / dk + (r2 * v1 - v2 * r1) / kd
        size = abs(t0) + abs(t1) + abs(t2) + abs(t3)
        if not math.isfinite(size):
            return None
        terms.append((t0, t1, t2, t3))
        sizes.append(size)
        y = (y[0] + t0, y[1] + t1, y[2] + t2, y[3] + t3)


def holonomy(theta: HiggsField, loops: Sequence[PathLoop],
             controls: NumericControls = DEFAULTS) -> HolonomyReport:
    """Compute every generator's monodromy and check it against SU(2).

    A loop that bounds a circle or convex polygon around exactly one pole,
    simple with a non-resonant residue, takes the local route (module
    docstring; its sign from the sweep or turns); every other loop, and one
    whose error estimate misses the bound, is transported.  Either way M is
    within 2·atol·max(1, |M|); a loop too close to a pole raises PoleTooClose.
    Every defect is judged against ``controls.su2_tol``; the report also
    holds the commutator defect of each pair of generators.  At least one
    loop is required (ValueError otherwise).
    """
    mats = [m if (m := _local_monodromy(theta, lp, controls)) is not None
            else parallel_transport(theta, lp, controls) for lp in loops]
    return report_from_matrices(mats, controls.su2_tol)
