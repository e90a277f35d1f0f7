"""Immersion into hyperbolic 3-space and numerical surface geometry.

Points are hyperboloid points x0^2 - x1^2 - x2^2 - x3^2 = 1, x0 > 0, in
Minkowski 4-space; (x1, x2, x3)/(1 + x0) projects onto the Poincare unit
ball.  A frame A maps z to f(z) = A(z)A(z)*, a positive Hermitian 2x2
matrix of determinant one, and f = [[x0+x3, x1+i x2], [x1-i x2, x0-x3]]
identifies it with the point x.  immerse evaluates f exactly, by the
integer arithmetic below, and rounds each coordinate once.

Curvature is measured extrinsically: first and second fundamental forms of
(u, v) -> f(u + iv) by central finite differences of the Minkowski
embedding, with the ambient covariant derivative obtained from the flat
one by projecting along the hyperboloid normal (the position vector).
sample_mesh evaluates each grid point once: the centre of its nine-point
stencil is the vertex, the same rational immerse rounds, and the nine
points give the curvature.

The embedding and the finite differences are evaluated exactly, on
Python integers: an IEEE double is a dyadic rational, so the sample point
and the step are n/2^k exactly and all nine stencil points are W/2^k
with W a Gaussian integer.  Clearing the frame's coefficient denominators
once (their lcm L) and the pole at 0 (a factor z^-lo), Horner's rule on
W gives each embedding as an integer 4-vector over
2·L²·2^{2k·hi}·|W|^{-2lo}, so a frame with a pole at 0 puts each stencil
point over a denominator of its own.  Each stencil difference is carried
over the product of only the |W|^{-2lo} it touches, never over the common
multiple of all nine, and the differences, both fundamental forms, the
Minkowski normal and the shape-operator trace are integers times known
scale factors.  Each float is then correctly rounded: H's ratio from
the leading 128 bits of its factors, which bound it by two floats that
agree unless it lies within about 2^-120 of a rounding boundary (then it
is divided exactly), every other float by one integer division.  One
square root at the very end produces H; a float beyond the double range
raises NotRepresentable.  Consequences worth knowing:

* there is no roundoff floor: the error in H is purely the O(step^2)
  truncation of the stencil, so halving the step reliably quarters it;
* frames whose embedding is polynomial of degree <= 3 in (u, v) (the
  horosphere and shear/affine catalog frames) have zero truncation error
  and come out with H exactly 1.0.

Normal orientation: the unit normal n satisfies det[f, f_u, f_v, n] > 0
by construction, since the normal direction is built from the cofactors of
(f, f_u, f_v) with that sign; this gives H = +1 on the whole catalog.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import astuple, dataclass
from fractions import Fraction

from .defaults import DEFAULTS
from .errors import (BryantLabError, DegenerateMetric, NotRepresentable,
                     PoleAtZero)
from .frames import BryantFrame

Vec4 = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# points

@dataclass(frozen=True)
class MinkowskiPoint:
    """Hyperboloid point: x0^2 - x1^2 - x2^2 - x3^2 = 1, x0 > 0."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        # the relative defect |q - 1| / x0^2 for x0 >= 1, from x/x0, so
        # that no square of a coordinate overflows
        s = max(1.0, self.x0)
        r0, r1, r2, r3 = (x / s for x in (self.x0, self.x1, self.x2, self.x3))
        defect = r0 * r0 - r1 * r1 - r2 * r2 - r3 * r3 - 1 / s / s
        if not abs(defect) <= 1e-10:
            raise ValueError(
                f"Minkowski norm of {self!r} is not 1 within 1e-10 relative")
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")

    def poincare(self) -> tuple[float, float, float]:
        """Projection into the open unit ball."""
        return tuple(x / (1.0 + self.x0) for x in (self.x1, self.x2, self.x3))


def immerse(frame: BryantFrame, z: complex) -> MinkowskiPoint:
    """The hyperboloid point of A(z)·A(z)*, each coordinate rounded once.

    NotRepresentable if a coordinate exceeds the double range.
    """
    z = complex(z)
    if not frame.domain.contains(z):
        raise ValueError(f"{z!r} lies outside the frame domain")
    _, _, d0, (y,), (g,) = _embeddings(frame, z)
    return _vertex(z, d0, y, g)


def hyperbolic_distance(p: MinkowskiPoint, q: MinkowskiPoint) -> float:
    """Geodesic distance 2·asinh(√s / 2), s = -<p - q, p - q> formed exactly."""
    v = [Fraction(a) - Fraction(b) for a, b in zip(astuple(p), astuple(q))]
    s = max(-_mink(v, v), 0)
    return (2 * math.asinh(math.sqrt(s) / 2) if s < 1e300   # else = ln s to 1 ulp
            else math.log(s.numerator) - math.log(s.denominator))


# ---------------------------------------------------------------------------
# exact finite-difference machinery

def _mink(x: Vec4, y: Vec4) -> int:
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3]


def _normal_direction(f: Vec4, fu: Vec4, fv: Vec4) -> Vec4:
    """Unnormalized Minkowski-orthogonal complement of span{f, f_u, f_v}.

    The result n is minus the Minkowski-raised cofactor vector of
    (f, f_u, f_v), so det[f, f_u, f_v, n] = -<n, n> = q exactly: a
    spacelike n (q > 0) is positively oriented.  The cofactors share the
    six 2x2 minors p_ij of (f_u, f_v).  Exact on ints and on Fractions.
    """
    f0, f1, f2, f3 = f
    u0, u1, u2, u3 = fu
    v0, v1, v2, v3 = fv
    p01, p02, p03 = u0 * v1 - u1 * v0, u0 * v2 - u2 * v0, u0 * v3 - u3 * v0
    p12, p13, p23 = u1 * v2 - u2 * v1, u1 * v3 - u3 * v1, u2 * v3 - u3 * v2
    return (f1 * p23 - f2 * p13 + f3 * p12,
            f0 * p23 - f2 * p03 + f3 * p02,
            f1 * p03 - f0 * p13 - f3 * p01,
            f0 * p12 - f1 * p02 + f2 * p01)


@dataclass(frozen=True, eq=False)
class CurvatureSample:
    z: complex
    H: float
    first_form: tuple[tuple[float, float], tuple[float, float]]
    second_form: tuple[tuple[float, float], tuple[float, float]]


def _dyadic(x: float) -> tuple[int, int]:
    """(n, e) with x = n / 2^e exactly."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _quotient(nums, dens) -> float:
    """prod(nums)/prod(dens), correctly rounded: a factor x of more than
    128 bits lies in [t, t + 1]·2^e, t its leading bits, and products of
    those bounds give rounded floats lo <= quotient <= hi, whose common
    value is the quotient's as rounding is monotonic; else the exact
    int/int division runs, raising OverflowError beyond the double range."""
    neg, e, bounds = False, 0, []
    for xs, sign in ((nums, 1), (dens, -1)):
        lo = hi = 1
        for x in xs:
            if x < 0:
                neg, x = not neg, -x
            if (n := x.bit_length() - 128) > 0:
                x, e = x >> n, e + sign * n
                lo, hi = lo * x, hi * (x + 1)
            else:
                lo, hi = lo * x, hi * x
        bounds += lo, hi
    nlo, nhi, dlo, dhi = bounds
    en, ed = max(e, 0), max(-e, 0)
    try:
        lo, hi = (nlo << en) / (dhi << ed), (nhi << en) / (dlo << ed)
        if lo == hi:
            return -lo if neg else lo
    except OverflowError:   # a bound beyond the double range
        pass
    return math.prod(nums) / math.prod(dens)


def _horner_table(frame: BryantFrame, k: int):
    """Gaussian-integer Horner coefficients of the frame at scale 2^-k.

    Returns (lo, hi, L, table).  With W = 2^k·z, entry e of the frame is
    z^lo·P_e(W) / (L·2^{k(hi-lo)}), where the polynomial P_e has the
    coefficients table[e] as (re, im) pairs, highest power first, and L
    is the lcm of all coefficient denominators.  det A = 1 forces
    lo <= 0 <= hi; the min and max with 0 keep z^-lo·A a polynomial anyway.
    """
    forms = [p.integer_form() for p in frame.matrix.entries]
    exps = [e for _, n in forms for e in n]
    lo, hi = min([0, *exps]), max([0, *exps])
    den = math.lcm(*(d for d, _ in forms))
    table = []
    for d, n in forms:
        row = [(0, 0)] * (hi - lo + 1)
        for e, (re, im) in n.items():
            shift = k * (hi - e)
            row[hi - e] = (re * (den // d) << shift, im * (den // d) << shift)
        table.append(row)
    return lo, hi, den, table


def _embeddings(frame: BryantFrame, z: complex, step: float = 0.0,
                offsets=((0, 0),), tables=None):
    """Exact embeddings at the points z + step·(du + i·dv), one per offset.

    Returns (k, h, d0, ys, gs): the step is h/2^k and the embedding at the
    j-th point is ys[j]/(d0·gs[j]), with h and d0 = 2·L²·2^{2k·hi}
    positive ints, gs[j] = |W_j|^{-2lo} and ys[j] the integer Minkowski
    coordinates of A·A*.  The sample point and the step are dyadic, hence
    so are the points: W_j/2^k with W_j = u + du·h + i(v + dv·h) in ints,
    and one loop runs Horner's rule on each W_j over the table's columns.
    Each point keeps its own gs[j]; for a polynomial frame (lo = 0) every
    gs[j] is 1, and gs[j] is 0 exactly where the point is 0 and the frame
    has a pole there.  tables, a dict from k to _horner_table(frame, k)
    and its columns, lets calls on one frame share them.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"sample point must be finite, got {z!r}")
    (u, eu), (v, ev), (h, eh) = _dyadic(z.real), _dyadic(z.imag), _dyadic(step)
    k = max(eu, ev, eh)
    u, v, h = u << (k - eu), v << (k - ev), h << (k - eh)
    tables = {} if tables is None else tables
    if k not in tables:
        lo, hi, den, table = _horner_table(frame, k)
        tables[k] = lo, hi, den, [sum(col, ()) for col in zip(*table)]
    lo, hi, den, (first, *rest) = tables[k]
    ys, gs = [], []
    for du, dv in offsets:
        x, y = u + du * h, v + dv * h
        ar, ai, br, bi, cr, ci, dr, di = first
        for a0, a1, b0, b1, c0, c1, e0, e1 in rest:
            ar, ai = ar * x - ai * y + a0, ar * y + ai * x + a1
            br, bi = br * x - bi * y + b0, br * y + bi * x + b1
            cr, ci = cr * x - ci * y + c0, cr * y + ci * x + c1
            dr, di = dr * x - di * y + e0, dr * y + di * x + e1
        f00 = ar * ar + ai * ai + br * br + bi * bi
        f11 = cr * cr + ci * ci + dr * dr + di * di
        ys.append((f00 + f11, 2 * (ar * cr + ai * ci + br * dr + bi * di),
                   2 * (ai * cr - ar * ci + bi * dr - br * di), f00 - f11))
        gs.append((x * x + y * y) ** -lo if lo else 1)
    return k, h, (2 * den * den) << (2 * k * hi), ys, gs


def _vertex(z: complex, d0: int, y: Vec4, g: int) -> MinkowskiPoint:
    """The point y/(d0·g) of _embeddings, each coordinate rounded once."""
    if g == 0:
        raise PoleAtZero(f"the frame has a pole at 0, reached from {z!r}")
    d = d0 * g
    try:
        return MinkowskiPoint(*(c / d for c in y))
    except OverflowError:
        raise NotRepresentable(
            f"the immersion at {z!r} exceeds the double range") from None


# stencil offsets (du, dv) in units of the step, in the unpacking order below
_STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (1, -1), (-1, 1), (-1, -1))


def mean_curvature(frame: BryantFrame, z: complex,
                   step: float = DEFAULTS.step) -> CurvatureSample:
    """Mean curvature H at z from a central stencil of width 2*step.

    The sample point must be finite and the step positive and finite.
    The sample point must stay clear of branch points and matrix poles by
    more than the stencil width; a stencil point landing exactly on a pole
    raises PoleAtZero, a singular metric raises DegenerateMetric, and a
    form or H beyond the double range, or a normal scale below it, raises
    NotRepresentable.
    """
    step = _stencil_step(step)
    z = complex(z)
    return _curvature(z, *_embeddings(frame, z, step, _STENCIL))


def _stencil_step(step: float) -> float:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    return float(step)


def _curvature(z: complex, k: int, h: int, d0: int, ys, gs) -> CurvatureSample:
    """mean_curvature at z from the _embeddings of its _STENCIL."""
    if 0 in gs:
        raise PoleAtZero(f"the frame has a pole at 0, reached from {z!r}")
    y00, ypu, ymu, ypv, ymv, ypp, ypm, ymp, ymm = ys
    g00, gpu, gmu, gpv, gmv, gpp, gpm, gmp, gmm = gs

    # f_j = y_j/(d0·g_j) and the step is h/2^k.  Each difference is
    # carried over the product of only the g's it touches: with
    # d_u = g_pu·g_mu, d_v = g_pv·g_mv and d_uv = g_pp·g_pm·g_mp·g_mm,
    #   f_u  = fu·2^k/(2h·d0·d_u),                   likewise f_v,
    #   f_uu = fuu·2^{2k}/(h²·d0·d_u) - 2f·2^{2k}/h²,  likewise f_vv,
    #   f_uv = fuv·2^{2k}/(4h²·d0·d_uv).
    # The normal is Minkowski-orthogonal to f, so II never needs the
    # multiple of f in f_uu and f_vv.
    gp, gm = gpp * gpm, gmp * gmm
    d_u, d_v, d_uv = gpu * gmu, gpv * gmv, gp * gm
    (a0, a1, a2, a3), (b0, b1, b2, b3) = ypu, ymu
    a0, a1, a2, a3 = a0 * gmu, a1 * gmu, a2 * gmu, a3 * gmu
    b0, b1, b2, b3 = b0 * gpu, b1 * gpu, b2 * gpu, b3 * gpu
    u0, u1, u2, u3 = a0 - b0, a1 - b1, a2 - b2, a3 - b3          # fu
    uu0, uu1, uu2, uu3 = a0 + b0, a1 + b1, a2 + b2, a3 + b3      # fuu
    (a0, a1, a2, a3), (b0, b1, b2, b3) = ypv, ymv
    a0, a1, a2, a3 = a0 * gmv, a1 * gmv, a2 * gmv, a3 * gmv
    b0, b1, b2, b3 = b0 * gpv, b1 * gpv, b2 * gpv, b3 * gpv
    v0, v1, v2, v3 = a0 - b0, a1 - b1, a2 - b2, a3 - b3          # fv
    vv0, vv1, vv2, vv3 = a0 + b0, a1 + b1, a2 + b2, a3 + b3      # fvv
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = ypp, ypm, ymp, ymm
    w0 = (a0 * gpm - b0 * gpp) * gm - (c0 * gmm - e0 * gmp) * gp   # fuv
    w1 = (a1 * gpm - b1 * gpp) * gm - (c1 * gmm - e1 * gmp) * gp
    w2 = (a2 * gpm - b2 * gpp) * gm - (c2 * gmm - e2 * gmp) * gp
    w3 = (a3 * gpm - b3 * gpp) * gm - (c3 * gmm - e3 * gmp) * gp

    # first fundamental form: minus the Minkowski restriction (tangent
    # vectors to the hyperboloid are timelike-negative in this signature)
    i00 = u1 * u1 + u2 * u2 + u3 * u3 - u0 * u0
    i01 = u1 * v1 + u2 * v2 + u3 * v3 - u0 * v0
    i11 = v1 * v1 + v2 * v2 + v3 * v3 - v0 * v0
    det_i = i00 * i11 - i01 * i01
    if det_i <= 0 or det_i * 10 ** 18 < i00 * i11:
        raise DegenerateMetric(f"first fundamental form singular at {z!r}")

    # the direction of the normal from numerators alone: the dropped
    # denominators are positive, and the scale they carry returns below
    m0, m1, m2, m3 = _normal_direction(y00, (u0, u1, u2, u3), (v0, v1, v2, v3))
    q = m1 * m1 + m2 * m2 + m3 * m3 - m0 * m0
    if q <= 0:
        raise DegenerateMetric(f"no spacelike normal at {z!r}")

    # II with the unnormalized normal; the sqrt(q) normalization is folded
    # into the final float so everything stays exact until then
    j00 = uu1 * m1 + uu2 * m2 + uu3 * m3 - uu0 * m0
    j01 = w1 * m1 + w2 * m2 + w3 * m3 - w0 * m0
    j11 = vv1 * m1 + vv2 * m2 + vv3 * m3 - vv0 * m0
    t_num = (4 * d_uv * (d_u * i11 * j00 + d_v * i00 * j11)
             - 2 * d_u * d_v * i01 * j01)

    # true values, with s = (2h·d0)² and n = g00·d_u·d_v: I is
    # i00·2^{2k}/(s·d_u²), i01·2^{2k}/(s·d_u·d_v) and i11·2^{2k}/(s·d_v²);
    # the normal N(f, f_u, f_v) is m·2^{2k}/(s·d0·n), so its square is
    # q·2^{4k}/(s·d0·n)², and II is 4·j00·2^{4k}/(s²·n·d_u),
    # j01·2^{4k}/(s²·n·d_uv) and 4·j11·2^{4k}/(s²·n·d_v).  In
    # H = t/(2·det I·sqrt q) the scales cancel to d0/d_uv.  Each float is
    # correctly rounded (_quotient for H's ratio, int/int true division
    # for the rest) or raises OverflowError.
    s = (2 * h * d0) ** 2
    sn = s * s * g00 * d_u * d_v
    try:
        ratio = _quotient((t_num, t_num, d0, d0),
                          (4, det_i, det_i, q, d_uv, d_uv))
        sq2 = (q << 4 * k) / (sn * d0 * d0 * g00 * d_u * d_v)
        first01 = (i01 << 2 * k) / (s * d_u * d_v)
        first = (((i00 << 2 * k) / (s * d_u * d_u), first01),
                 (first01, (i11 << 2 * k) / (s * d_v * d_v)))
        second01 = (j01 << 4 * k) / (sn * d_uv)
        second = (((j00 << 4 * k + 2) / (sn * d_u), second01),
                  (second01, (j11 << 4 * k + 2) / (sn * d_v)))
    except OverflowError:
        raise NotRepresentable(
            f"the curvature at {z!r} exceeds the double range") from None
    # q > 0, so a square below the normal range has lost digits or is 0
    if sq2 < sys.float_info.min:
        raise NotRepresentable(
            f"the normal's scale at {z!r} underflows the double range")
    root = math.sqrt(sq2)
    second = tuple((x / root, y / root) for x, y in second)
    H = math.copysign(math.sqrt(ratio), 1 if t_num >= 0 else -1)
    return CurvatureSample(z=z, H=H, first_form=first, second_form=second)


# ---------------------------------------------------------------------------
# meshes

@dataclass(frozen=True)
class GridSpec:
    """Square n x n sample grid of half-width ``radius`` about ``center``."""

    center: complex = 0j
    radius: float = 1.0
    n: int = 10

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        if not (math.isfinite(2 * self.radius) and self.radius > 0):
            raise ValueError(
                f"radius must be positive and 2·radius finite, got {self.radius!r}")
        corner = self.radius * (1 + 1j)
        if not (cmath.isfinite(self.center + corner) and cmath.isfinite(self.center - corner)):
            raise ValueError(f"center ± radius·(1+i) must be finite, got {self.center!r}")

    def points(self) -> list[complex]:
        """Row-major: index j*n + k is row j (imaginary), column k (real)."""
        if self.n == 1:
            return [self.center]
        ticks = [-self.radius + 2 * self.radius * i / (self.n - 1)
                 for i in range(self.n)]
        return [self.center + complex(re, im) for im in ticks for re in ticks]


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Quad mesh over a grid; vertices outside the frame domain, where the
    immersion has a pole or where a coordinate exceeds the double range
    are None, and faces touching them are dropped; samples holds each grid
    point's CurvatureSample or error."""

    grid: GridSpec
    vertices: tuple[MinkowskiPoint | None, ...]
    faces: tuple[tuple[int, int, int, int], ...]
    samples: tuple[CurvatureSample | BryantLabError, ...]

    @property
    def valid_vertex_count(self) -> int:
        return sum(1 for v in self.vertices if v is not None)

    def to_obj(self) -> str:
        """Wavefront OBJ in Poincare ball coordinates, faces 1-based."""
        lines = []
        index = {}
        for i, vert in enumerate(self.vertices):
            if vert is None:
                continue
            index[i] = len(index) + 1
            x, y, w = vert.poincare()
            lines.append(f"v {x:.17g} {y:.17g} {w:.17g}")
        for face in self.faces:
            lines.append("f " + " ".join(str(index[i]) for i in face))
        return "\n".join(lines) + "\n"


def sample_mesh(frame: BryantFrame, grid: GridSpec,
                step: float = DEFAULTS.step) -> SurfaceMesh:
    """Vertices and curvature from one exact stencil per grid point.

    The stencil's centre is the rational that immerse rounds, so each
    vertex is immerse(frame, z) bit for bit, and each sample is
    mean_curvature(frame, z, step) or the error it raises."""
    step = _stencil_step(step)
    tables = {}
    verts: list[MinkowskiPoint | None] = []
    samples: list[CurvatureSample | BryantLabError] = []
    for z in grid.points():
        k, h, d0, ys, gs = _embeddings(frame, z, step, _STENCIL, tables)
        try:
            verts.append(_vertex(z, d0, ys[0], gs[0])
                         if frame.domain.contains(z) else None)
        except (PoleAtZero, NotRepresentable):
            verts.append(None)
        try:
            samples.append(_curvature(z, k, h, d0, ys, gs))
        except (DegenerateMetric, PoleAtZero, NotRepresentable) as exc:
            samples.append(exc)
    n = grid.n
    faces = []
    for j in range(n - 1):
        for k in range(n - 1):
            quad = (j * n + k, j * n + k + 1, (j + 1) * n + k + 1, (j + 1) * n + k)
            if all(verts[i] is not None for i in quad):
                faces.append(quad)
    return SurfaceMesh(grid=grid, vertices=tuple(verts), faces=tuple(faces),
                       samples=tuple(samples))
