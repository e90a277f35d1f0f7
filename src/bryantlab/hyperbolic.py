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

The embedding and the finite differences are evaluated exactly, on
Python integers: an IEEE double is a dyadic rational, so the sample point
and the step are n/2^k exactly and all nine stencil points are W/2^k
with W a Gaussian integer.  Clearing the frame's coefficient denominators
once (their lcm L) and the pole at 0 (a factor z^-lo), Horner's rule on
W gives each embedding as an integer 4-vector over
2·L²·2^{2k·hi}·|W|^{-2lo}; the nine are brought to one denominator, and
the stencil differences, both fundamental forms, the Minkowski normal and
the shape-operator trace are integers times known scale factors.  Each
float is then one correctly rounded integer division, and one square root
at the very end produces H; a float beyond the double range raises
NotRepresentable.  Consequences worth knowing:

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

import numpy as np

from .defaults import DEFAULTS
from .errors import DegenerateMetric, NotRepresentable, PoleAtZero
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

    def poincare(self) -> np.ndarray:
        """Projection into the open unit ball."""
        return np.array([self.x1, self.x2, self.x3]) / (1.0 + self.x0)


def immerse(frame: BryantFrame, z: complex) -> MinkowskiPoint:
    """The hyperboloid point of A(z)·A(z)*, each coordinate rounded once.

    NotRepresentable if a coordinate exceeds the double range.
    """
    z = complex(z)
    if not frame.domain.contains(z):
        raise ValueError(f"{z!r} lies outside the frame domain")
    _, _, d, (x,) = _embeddings(frame, z)
    try:
        return MinkowskiPoint(*(c / d for c in x))
    except OverflowError:
        raise NotRepresentable(
            f"the immersion at {z!r} exceeds the double range") from None


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


def _det3(r0, r1, r2) -> int:
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def _normal_direction(f: Vec4, fu: Vec4, fv: Vec4) -> Vec4:
    """Unnormalized Minkowski-orthogonal complement of span{f, f_u, f_v}.

    The result n is minus the Minkowski-raised cofactor vector of
    (f, f_u, f_v), so det[f, f_u, f_v, n] = -<n, n> = q exactly: a
    spacelike n (q > 0) is positively oriented.  Like _mink and _det3 it
    only adds and multiplies, so it is exact on ints and on Fractions.
    """
    eta = [(x[0], -x[1], -x[2], -x[3]) for x in (f, fu, fv)]
    m = []
    for k in range(4):
        cols = [i for i in range(4) if i != k]
        minor = _det3(tuple(eta[0][i] for i in cols),
                      tuple(eta[1][i] for i in cols),
                      tuple(eta[2][i] for i in cols))
        m.append((-1) ** (k + 1) * minor)
    return tuple(m)


@dataclass(frozen=True, eq=False)
class CurvatureSample:
    z: complex
    H: float
    first_form: np.ndarray
    second_form: np.ndarray


def _dyadic(x: float) -> tuple[int, int]:
    """(n, e) with x = n / 2^e exactly."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _horner_table(frame: BryantFrame, k: int):
    """Gaussian-integer Horner coefficients of the frame at scale 2^-k.

    Returns (lo, hi, L, table).  With W = 2^k·z, entry e of the frame is
    z^lo·P_e(W) / (L·2^{k(hi-lo)}), where the polynomial P_e has the
    coefficients table[e] as (re, im) pairs, highest power first, and L
    is the lcm of all coefficient denominators.  det A = 1 forces
    lo <= 0 <= hi; the min and max with 0 keep z^-lo·A a polynomial anyway.
    """
    terms = [list(p.terms()) for p in frame.matrix.entries]
    exps = [e for t in terms for e, _ in t]
    lo, hi = min([0, *exps]), max([0, *exps])
    den = math.lcm(*(x.denominator for t in terms for _, c in t
                     for x in (c.re, c.im)))
    table = []
    for t in terms:
        row = [(0, 0)] * (hi - lo + 1)
        for e, c in t:
            shift = k * (hi - e)
            row[hi - e] = (c.re.numerator * (den // c.re.denominator) << shift,
                           c.im.numerator * (den // c.im.denominator) << shift)
        table.append(row)
    return lo, hi, den, table


def _horner(row, re_w: int, im_w: int) -> tuple[int, int]:
    re, im = row[0]
    for cr, ci in row[1:]:
        re, im = re * re_w - im * im_w + cr, re * im_w + im * re_w + ci
    return re, im


def _embed_numerator(table, re_w: int, im_w: int) -> Vec4:
    """Minkowski coordinates of A·A* at z = W/2^k, times 2·L²·2^{2k·hi}·|W|^{-2lo}."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = (_horner(row, re_w, im_w)
                                              for row in table)
    f00 = ar * ar + ai * ai + br * br + bi * bi
    f11 = cr * cr + ci * ci + dr * dr + di * di
    f01_re = ar * cr + ai * ci + br * dr + bi * di
    f01_im = ai * cr - ar * ci + bi * dr - br * di
    return (f00 + f11, 2 * f01_re, 2 * f01_im, f00 - f11)


def _embeddings(frame: BryantFrame, z: complex, step: float = 0.0,
                offsets=((0, 0),)):
    """Exact embeddings at the points z + step·(du + i·dv), one per offset.

    Returns (k, h, d, xs): the step is h/2^k and the embedding at the j-th
    point is xs[j]/d, with h and d ints and xs[j] an integer 4-vector.
    The sample point and the step are dyadic, hence so are the points:
    W/2^k with W = u + du·h + i(v + dv·h) in ints.  PoleAtZero if a point
    is 0 and the frame has a pole there.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"sample point must be finite, got {z!r}")
    (u, eu), (v, ev), (h, eh) = _dyadic(z.real), _dyadic(z.imag), _dyadic(step)
    k = max(eu, ev, eh)
    u, v, h = u << (k - eu), v << (k - ev), h << (k - eh)
    lo, hi, den, table = _horner_table(frame, k)
    points = [(u + du * h, v + dv * h) for du, dv in offsets]
    if lo < 0 and (0, 0) in points:
        raise PoleAtZero(f"the frame has a pole at 0, reached from {z!r}")
    # the embedding at W_j is X_j / (D0·g_j) with D0 = 2·L²·2^{2k·hi} and
    # g_j = |W_j|^{-2lo}; scale all to the one denominator D0·lcm(g)
    g = [(re * re + im * im) ** -lo for re, im in points]
    g_all = math.lcm(*g)
    xs = [tuple(x * (g_all // gj) for x in _embed_numerator(table, *w))
          for w, gj in zip(points, g)]
    return k, h, (2 * den * den * g_all) << (2 * k * hi), xs


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
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    z = complex(z)
    k, h, d, (c00, cpu, cmu, cpv, cmv, cpp, cpm, cmp_, cmm) = _embeddings(
        frame, z, float(step), _STENCIL)

    # with f = X/d and the step h/2^k, f_u = fu·2^k/(2hd), likewise f_v,
    # and f_uu = fuu·2^{2k}/(4h²d), likewise f_vv and f_uv
    fu = tuple(a - b for a, b in zip(cpu, cmu))
    fv = tuple(a - b for a, b in zip(cpv, cmv))
    fuu = tuple(4 * (a - 2 * b + c) for a, b, c in zip(cpu, c00, cmu))
    fvv = tuple(4 * (a - 2 * b + c) for a, b, c in zip(cpv, c00, cmv))
    fuv = tuple(a - b - c + e for a, b, c, e in zip(cpp, cpm, cmp_, cmm))

    # first fundamental form: minus the Minkowski restriction (tangent
    # vectors to the hyperboloid are timelike-negative in this signature)
    i00, i01, i11 = -_mink(fu, fu), -_mink(fu, fv), -_mink(fv, fv)
    det_i = i00 * i11 - i01 * i01
    gram = i00 * i11
    if det_i <= 0 or det_i * 10 ** 18 < gram:
        raise DegenerateMetric(f"first fundamental form singular at {z!r}")

    m = _normal_direction(c00, fu, fv)
    q = -_mink(m, m)
    if q <= 0:
        raise DegenerateMetric(f"no spacelike normal at {z!r}")

    # II with the unnormalized normal; the sqrt(q) normalization is folded
    # into the final float so everything stays exact until then
    j00, j01, j11 = (-_mink(fuu, m), -_mink(fuv, m), -_mink(fvv, m))
    t_num = i11 * j00 - 2 * i01 * j01 + i00 * j11

    # true values, with p = (2hd)²: I is i·2^{2k}/p, q is q·2^{4k}/(pd)²
    # and II is j·2^{4k}/p²; in H = t/(2·det I·sqrt q) the scales cancel
    # to d.  Each float is one int/int true division, which is correctly
    # rounded or raises OverflowError.
    p = (2 * h * d) ** 2
    p2 = p * p
    try:
        ratio = (t_num * t_num * d * d) / (4 * det_i * det_i * q)
        sq2 = (q << 4 * k) / (p * d) ** 2
        first = np.array([[(i00 << 2 * k) / p, (i01 << 2 * k) / p],
                          [(i01 << 2 * k) / p, (i11 << 2 * k) / p]])
        second = np.array([[(j00 << 4 * k) / p2, (j01 << 4 * k) / p2],
                           [(j01 << 4 * k) / p2, (j11 << 4 * k) / p2]])
    except OverflowError:
        raise NotRepresentable(
            f"the curvature at {z!r} exceeds the double range") from None
    # q > 0, so a square below the normal range has lost digits or is 0
    if sq2 < sys.float_info.min:
        raise NotRepresentable(
            f"the normal's scale at {z!r} underflows the double range")
    second /= math.sqrt(sq2)
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
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(
                f"radius must be positive and finite, got {self.radius!r}")
        if not cmath.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")

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
    are None, and faces touching them are dropped."""

    grid: GridSpec
    vertices: tuple[MinkowskiPoint | None, ...]
    faces: tuple[tuple[int, int, int, int], ...]

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


def sample_mesh(frame: BryantFrame, grid: GridSpec) -> SurfaceMesh:
    verts: list[MinkowskiPoint | None] = []
    for z in grid.points():
        if not frame.domain.contains(z):
            verts.append(None)
            continue
        try:
            verts.append(immerse(frame, z))
        except (PoleAtZero, NotRepresentable):
            verts.append(None)
    n = grid.n
    faces = []
    for j in range(n - 1):
        for k in range(n - 1):
            quad = (j * n + k, j * n + k + 1, (j + 1) * n + k + 1, (j + 1) * n + k)
            if all(verts[i] is not None for i in quad):
                faces.append(quad)
    return SurfaceMesh(grid=grid, vertices=tuple(verts), faces=tuple(faces))
