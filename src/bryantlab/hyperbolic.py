"""Immersion into hyperbolic 3-space and numerical surface geometry.

The model is the space of positive Hermitian 2x2 matrices of determinant
one: a frame A maps z to f(z) = A(z)A(z)*.  Writing
f = [[x0+x3, x1+i x2], [x1-i x2, x0-x3]] identifies such matrices with the
hyperboloid x0^2 - x1^2 - x2^2 - x3^2 = 1, x0 > 0, in Minkowski 4-space,
and (x1, x2, x3)/(1 + x0) projects onto the Poincare unit ball.

Curvature is measured extrinsically: first and second fundamental forms of
(u, v) -> f(u + iv) by central finite differences of the Minkowski
embedding, with the ambient covariant derivative obtained from the flat
one by projecting along the hyperboloid normal (the position vector).

The finite differences are evaluated in exact rational arithmetic: an IEEE
double is a dyadic rational, so the sample point and the step convert
exactly, and the whole stencil, both fundamental forms, the Minkowski
normal and the shape-operator trace stay in Q.  One square root at the
very end produces the float.  Consequences worth knowing:

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .defaults import DEFAULTS
from .errors import DegenerateMetric, PoleAtZero
from .frames import BryantFrame
from .series import GaussianRational

Vec4 = tuple[Fraction, Fraction, Fraction, Fraction]


# ---------------------------------------------------------------------------
# points

@dataclass(frozen=True, eq=False)
class HermitianPoint:
    """A point of hyperbolic space as a positive Hermitian matrix, det 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if np.linalg.norm(m - m.conj().T) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        # relative bound: the roundoff in det grows with the entries squared
        scale = max(1.0, float(np.linalg.norm(m)) ** 2)
        if not abs(np.linalg.det(m) - 1.0) <= 1e-10 * scale:
            raise ValueError("determinant is not 1 within 1e-10 relative")
        if m[0, 0].real <= 0:
            raise ValueError("matrix is not positive definite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class MinkowskiPoint:
    """Hyperboloid point: x0^2 - x1^2 - x2^2 - x3^2 = 1, x0 > 0."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        q = self.x0 ** 2 - self.x1 ** 2 - self.x2 ** 2 - self.x3 ** 2
        if not abs(q - 1.0) <= 1e-10 * max(1.0, self.x0 ** 2):
            raise ValueError(f"Minkowski norm {q!r} is not 1 within 1e-10 relative")
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    def poincare(self) -> np.ndarray:
        """Projection into the open unit ball."""
        return np.array([self.x1, self.x2, self.x3]) / (1.0 + self.x0)


def immerse(frame: BryantFrame, z: complex) -> HermitianPoint:
    """A(z)·A(z)*, evaluated numerically."""
    if not frame.domain.contains(z):
        raise ValueError(f"{z!r} lies outside the frame domain")
    a = frame.matrix.evaluate(z)
    f = a @ a.conj().T
    return HermitianPoint((f + f.conj().T) / 2)


def to_minkowski(p: HermitianPoint) -> MinkowskiPoint:
    m = p.matrix
    return MinkowskiPoint(
        x0=(m[0, 0].real + m[1, 1].real) / 2,
        x1=m[0, 1].real,
        x2=m[0, 1].imag,
        x3=(m[0, 0].real - m[1, 1].real) / 2,
    )


def from_minkowski(p: MinkowskiPoint) -> HermitianPoint:
    return HermitianPoint(np.array([
        [p.x0 + p.x3, p.x1 + 1j * p.x2],
        [p.x1 - 1j * p.x2, p.x0 - p.x3],
    ]))


def hyperbolic_distance(p: HermitianPoint, q: HermitianPoint) -> float:
    """Geodesic distance: cosh d = trace(p · adj q) / 2."""
    qm = q.matrix
    adj = np.array([[qm[1, 1], -qm[0, 1]], [-qm[1, 0], qm[0, 0]]])
    c = np.trace(p.matrix @ adj).real / 2
    return math.acosh(max(c, 1.0))


# ---------------------------------------------------------------------------
# exact finite-difference machinery

def _embed_exact(frame: BryantFrame, u: Fraction, v: Fraction) -> Vec4:
    """Minkowski coordinates of A(u+iv)·A(u+iv)*, exact."""
    (a, b), (c, d) = frame.matrix.eval_exact(GaussianRational(u, v))
    f00 = a.norm_sq() + b.norm_sq()
    f11 = c.norm_sq() + d.norm_sq()
    f01 = a * c.conjugate() + b * d.conjugate()
    two = Fraction(2)
    return ((f00 + f11) / two, f01.re, f01.im, (f00 - f11) / two)


def _mink(x: Vec4, y: Vec4) -> Fraction:
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3]


def _lin(*pairs) -> Vec4:
    out = [Fraction(0)] * 4
    for coeff, vec in pairs:
        for i in range(4):
            out[i] += coeff * vec[i]
    return tuple(out)


def _det3(r0, r1, r2) -> Fraction:
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def _normal_direction(f: Vec4, fu: Vec4, fv: Vec4) -> Vec4:
    """Unnormalized Minkowski-orthogonal complement of span{f, f_u, f_v}.

    The result n is minus the Minkowski-raised cofactor vector of
    (f, f_u, f_v), so det[f, f_u, f_v, n] = -<n, n> = q exactly: a
    spacelike n (q > 0) is positively oriented.
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

    def to_json(self) -> dict:
        return {
            "z": [self.z.real, self.z.imag],
            "H": self.H,
            "first_form": self.first_form.tolist(),
            "second_form": self.second_form.tolist(),
        }


def _curvature_exact(frame: BryantFrame, u: Fraction, v: Fraction,
                     h: Fraction, z: complex) -> CurvatureSample:
    F = _embed_exact
    c00 = F(frame, u, v)
    cpu = F(frame, u + h, v)
    cmu = F(frame, u - h, v)
    cpv = F(frame, u, v + h)
    cmv = F(frame, u, v - h)
    cpp = F(frame, u + h, v + h)
    cpm = F(frame, u + h, v - h)
    cmp_ = F(frame, u - h, v + h)
    cmm = F(frame, u - h, v - h)

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    fu = _lin((half / h, cpu), (-half / h, cmu))
    fv = _lin((half / h, cpv), (-half / h, cmv))
    h2 = h * h
    fuu = _lin((1 / h2, cpu), (-2 / h2, c00), (1 / h2, cmu))
    fvv = _lin((1 / h2, cpv), (-2 / h2, c00), (1 / h2, cmv))
    fuv = _lin((quarter / h2, cpp), (-quarter / h2, cpm),
               (-quarter / h2, cmp_), (quarter / h2, cmm))

    # first fundamental form: minus the Minkowski restriction (tangent
    # vectors to the hyperboloid are timelike-negative in this signature)
    i00, i01, i11 = -_mink(fu, fu), -_mink(fu, fv), -_mink(fv, fv)
    det_i = i00 * i11 - i01 * i01
    gram = i00 * i11
    if gram == 0 or det_i <= 0 or det_i / gram < Fraction(1, 10 ** 18):
        raise DegenerateMetric(f"first fundamental form singular at {z!r}")

    m = _normal_direction(c00, fu, fv)
    q = -_mink(m, m)
    if q <= 0:
        raise DegenerateMetric(f"no spacelike normal at {z!r}")

    # II with the unnormalized normal; the sqrt(q) normalization is folded
    # into the final float so everything stays rational until then
    j00, j01, j11 = (-_mink(fuu, m), -_mink(fuv, m), -_mink(fvv, m))

    t_num = i11 * j00 - 2 * i01 * j01 + i00 * j11
    ratio = (t_num * t_num) / (4 * det_i * det_i * q)
    H = math.copysign(math.sqrt(float(ratio)), float(t_num))

    sq = math.sqrt(float(q))
    first = np.array([[float(i00), float(i01)], [float(i01), float(i11)]])
    second = np.array([[float(j00), float(j01)], [float(j01), float(j11)]]) / sq
    return CurvatureSample(z=z, H=H, first_form=first, second_form=second)


def mean_curvature(frame: BryantFrame, z: complex,
                   step: float = DEFAULTS.step) -> CurvatureSample:
    """Mean curvature H at z from a central stencil of width 2*step.

    The step must be positive and finite.  The sample point must stay
    clear of branch points and matrix poles by more than the stencil width;
    a stencil point landing exactly on a pole raises PoleAtZero, a singular
    metric raises DegenerateMetric.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    z = complex(z)
    u, v, h = Fraction(z.real), Fraction(z.imag), Fraction(float(step))
    return _curvature_exact(frame, u, v, h, z)


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
    """Quad mesh over a grid; vertices outside the frame domain or where
    the immersion has a pole are None and faces touching them are dropped."""

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
            verts.append(to_minkowski(immerse(frame, z)))
        except PoleAtZero:
            verts.append(None)
    n = grid.n
    faces = []
    for j in range(n - 1):
        for k in range(n - 1):
            quad = (j * n + k, j * n + k + 1, (j + 1) * n + k + 1, (j + 1) * n + k)
            if all(verts[i] is not None for i in quad):
                faces.append(quad)
    return SurfaceMesh(grid=grid, vertices=tuple(verts), faces=tuple(faces))
