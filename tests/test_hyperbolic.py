"""Immersion, hyperboloid points, curvature, meshes.

The immersion and the curvature stencil are evaluated exactly, on
integers over each stencil point's own denominator.  Each vertex
coordinate is the correctly rounded exact embedding, and frames whose
Minkowski embedding is quadratic in (u, v) must come out at H = 1.0
exactly; the degree-4 cusp frame shows the genuine second-order step
dependence.  A plain Fraction embedding and stencil kept here are the
reference the integer kernel must match bit for bit.
"""

import cmath
import itertools
import math
import random
import re
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bryantlab.errors import DegenerateMetric, NotRepresentable, PoleAtZero
from bryantlab.frames import CATALOG_NAMES, Annulus, BryantFrame, catalog
from bryantlab.hyperbolic import (CurvatureSample, GridSpec, MinkowskiPoint,
                                  _horner_table, _mink, _normal_direction,
                                  _quotient,
                                  hyperbolic_distance, immerse, mean_curvature,
                                  sample_mesh)
from bryantlab.series import GaussianRational, LaurentMatrix, LaurentPoly
from conftest import seeded_coeff, special_frames

ONE = LaurentPoly.one()
Z = LaurentPoly.z()

coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


def _leibniz_det(rows):
    """Exact 4x4 determinant by the Leibniz formula."""
    total = Fraction(0)
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, k in enumerate(perm):
            term *= rows[i][k]
        total += term
    return total


def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def _cofactor_normal(f, fu, fv):
    """Minus the Minkowski-raised cofactor vector of (f, f_u, f_v), one
    3x3 determinant per coordinate."""
    eta = [(x[0], -x[1], -x[2], -x[3]) for x in (f, fu, fv)]
    m = []
    for k in range(4):
        cols = [i for i in range(4) if i != k]
        minor = _det3(*(tuple(row[i] for i in cols) for row in eta))
        m.append((-1) ** (k + 1) * minor)
    return tuple(m)


# small integers and integers of 2990 to 3000 bits, either sign
_normal_entries = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.builds(lambda sign, x: sign * x, st.sampled_from((-1, 1)),
              st.integers(min_value=2 ** 2990, max_value=2 ** 3000)))


def _exact_embedding(frame, u, v):
    """Minkowski coordinates of A·A* at u + iv, as Fractions."""
    (a, b), (c, d) = frame.matrix.eval_exact(GaussianRational(u, v))
    f00 = a.norm_sq() + b.norm_sq()
    f11 = c.norm_sq() + d.norm_sq()
    f01 = a * c.conjugate() + b * d.conjugate()
    return ((f00 + f11) / 2, f01.re, f01.im, (f00 - f11) / 2)


def _reference_curvature(frame, z, step):
    """(H, first_form, second_form) from a plain Fraction stencil.

    Every intermediate is a reduced Fraction and each float comes from
    float(Fraction); the kernel in hyperbolic.py must agree exactly.
    """
    def lin(*pairs):
        return tuple(sum(k * x[i] for k, x in pairs) for i in range(4))

    u, v, h = Fraction(z.real), Fraction(z.imag), Fraction(step)
    c = {(du, dv): _exact_embedding(frame, u + du * h, v + dv * h)
         for du in (-1, 0, 1) for dv in (-1, 0, 1)}
    fu = lin((1 / (2 * h), c[1, 0]), (-1 / (2 * h), c[-1, 0]))
    fv = lin((1 / (2 * h), c[0, 1]), (-1 / (2 * h), c[0, -1]))
    h2 = h * h
    fuu = lin((1 / h2, c[1, 0]), (-2 / h2, c[0, 0]), (1 / h2, c[-1, 0]))
    fvv = lin((1 / h2, c[0, 1]), (-2 / h2, c[0, 0]), (1 / h2, c[0, -1]))
    fuv = lin((1 / (4 * h2), c[1, 1]), (-1 / (4 * h2), c[1, -1]),
              (-1 / (4 * h2), c[-1, 1]), (1 / (4 * h2), c[-1, -1]))
    i00, i01, i11 = -_mink(fu, fu), -_mink(fu, fv), -_mink(fv, fv)
    det_i = i00 * i11 - i01 * i01
    if i00 * i11 == 0 or det_i <= 0 or det_i / (i00 * i11) < Fraction(1, 10 ** 18):
        raise DegenerateMetric("first form")
    m = _normal_direction(c[0, 0], fu, fv)
    q = -_mink(m, m)
    if q <= 0:
        raise DegenerateMetric("normal")
    j00, j01, j11 = -_mink(fuu, m), -_mink(fuv, m), -_mink(fvv, m)
    t = i11 * j00 - 2 * i01 * j01 + i00 * j11
    H = math.copysign(math.sqrt(float(t * t / (4 * det_i * det_i * q))), float(t))
    first = [[float(i00), float(i01)], [float(i01), float(i11)]]
    sq = math.sqrt(float(q))
    second = (np.array([[float(j00), float(j01)], [float(j01), float(j11)]]) / sq)
    return H, first, second.tolist()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateMetric, PoleAtZero) as exc:
        return type(exc)


def _kernel(frame, z, step):
    s = mean_curvature(frame, z, step)
    return s.H, s.first_form.tolist(), s.second_form.tolist()


def _unipotent(p, upper):
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return (LaurentMatrix(one, p, zero, one) if upper
            else LaurentMatrix(one, zero, p, one))


def _seeded_bryant(rng, lo, hi):
    """P·[[1,p],[0,1]]·Q with constant unipotent products P, Q; det A' = 0."""
    c = [LaurentPoly.constant(seeded_coeff(rng)) for _ in range(4)]
    p = LaurentPoly({e: seeded_coeff(rng) for e in range(lo, hi + 1)})
    return BryantFrame(_unipotent(c[0], True) @ _unipotent(c[1], False)
                       @ _unipotent(p, True)
                       @ _unipotent(c[2], False) @ _unipotent(c[3], True))


# points on both sides of the unit circle: four with full-length
# mantissas (dyadic exponents 52..55) and one with exponent 2
_ANNULUS_POINTS = (cmath.rect(0.45, 0.3), cmath.rect(0.9, 2.2),
                   cmath.rect(1.1, 4.0), cmath.rect(2.5, 5.5), -0.75 + 0.25j)

# dyadic exponents 60 and 71, above every point's, and 9, below those of
# the four long points
_LAURENT_STEPS = (1e-3, 3.3e-6, 2.0 ** -9)


def _non_umbilic(m, n):
    """[[x·z^m, y·z^n], [z^-n, z^-m]] with x = n²/(n² - m²), y = x - 1.

    det A = x - y = 1 and det A' = (y·n² - x·m²)/z² = 0, so it is a Bryant
    frame; unlike the catalog and the seeded unipotent products, its
    second fundamental form is far from its first."""
    x = Fraction(n * n, n * n - m * m)
    return BryantFrame(LaurentMatrix(
        LaurentPoly({m: x}), LaurentPoly({n: x - 1}),
        LaurentPoly.monomial(-n), LaurentPoly.monomial(-m)))


def _curvature_corpus():
    """(label, frame, z, step): catalog and seeded frames of degree 3..9 at
    radii 1 and 50, a Laurent frame with exponents -3..3, a stencil that
    reaches that frame's pole, the cusp's branch point, seeded frames with
    a pole of order 1, 2, 3 or 5 at 0 around the annulus, and non-umbilic
    frames (II far from I) around the annulus."""
    rng = random.Random(2024)
    frames = [(name, catalog(name)) for name in CATALOG_NAMES]
    frames += [(f"degree {d}", _seeded_bryant(rng, 0, d)) for d in range(3, 10)]
    laurent = _seeded_bryant(rng, -3, 3)
    for step in (1e-2, 1e-4, 1e-6):
        for label, frame in frames:
            for r in (1.0, 50.0):
                yield label, frame, r * complex(0.37, -0.24), step
        yield "laurent", laurent, 1.5 + 0.2j, step
        yield "laurent at the pole", laurent, complex(step, 0.0), step
    yield "cusp branch point", catalog("cusp-degree2"), 0j, 1e-3
    rng = random.Random(1606)
    for lo in (-1, -2, -3, -5):
        frame = _seeded_bryant(rng, lo, 2)
        for z in _ANNULUS_POINTS:
            for step in _LAURENT_STEPS:
                yield f"laurent from z^{lo}", frame, z, step
    for m, n in ((1, 2), (1, 3), (-1, 2)):
        frame = _non_umbilic(m, n)
        for z in _ANNULUS_POINTS:
            for step in _LAURENT_STEPS:
                yield f"non-umbilic m={m} n={n}", frame, z, step


def _point(*coords):
    return MinkowskiPoint(*(float(x) for x in coords))


def _bits(p):
    """A vertex as the bits of its coordinates; None stays None."""
    return None if p is None else tuple(x.hex() for x in astuple(p))


def _immersed(frame, z):
    """What a mesh keeps at z: immerse's point, or None where immerse
    raises (outside the domain, at a pole, beyond the double range)."""
    try:
        return immerse(frame, z)
    except (ValueError, PoleAtZero, NotRepresentable):
        return None


def _sample_bits(s):
    """H and both forms as bits, so that -0.0 and 0.0 differ."""
    return (s.H.hex(), [x.hex() for x in s.first_form.ravel()],
            [x.hex() for x in s.second_form.ravel()])


def _sample_outcome(frame, z, step):
    try:
        return _sample_bits(mean_curvature(frame, z, step))
    except (DegenerateMetric, PoleAtZero, NotRepresentable) as exc:
        return type(exc)


def _grid_cases():
    """(label, frame, grid, step): each corpus case as a one-point grid,
    catalog grids, and grids where the vertex and the curvature part ways:
    a stencil that reaches the pole from a valid vertex, a vertex on the
    pole, points outside the annulus, a first form (e = 100) or a vertex
    (e = 200) beyond the double range, a normal scale below it (e = -200)
    and the cusp's branch point."""
    for label, frame, z, step in _curvature_corpus():
        yield label, frame, GridSpec(center=z, n=1), step
    for name in CATALOG_NAMES:
        for radius in (1.0, 50.0):
            yield name, catalog(name), GridSpec(0.3 - 0.2j, radius, 4), 1e-4
    pole = _seeded_bryant(random.Random(1818), -2, 2)
    # the middle point is one step right of 0: its stencil's left point is 0
    yield ("stencil on the pole", pole,
           GridSpec(center=2.0 ** -9, radius=0.5, n=3), 2.0 ** -9)
    yield "vertex on the pole", pole, GridSpec(n=3), 1e-4
    yield ("outside the annulus", BryantFrame(pole.matrix, Annulus(0.5, 2.0)),
           GridSpec(n=4), 1e-4)
    for exponent in (200, 100, -200):
        yield f"shear 10^{exponent}", _large_shear(exponent), GridSpec(n=2), 1e-4
    yield "cusp branch point", catalog("cusp-degree2"), GridSpec(n=5), 1e-4


def _constant_frame(a, b, c, d):
    return BryantFrame(LaurentMatrix(*(LaurentPoly.constant(x) for x in (a, b, c, d))))


def _large_shear(exponent):
    """[[1, 10^exponent·z], [0, 1]]: a Bryant frame with a huge (or tiny) metric."""
    return BryantFrame(LaurentMatrix(ONE, LaurentPoly({1: Fraction(10) ** exponent}),
                                     LaurentPoly.zero(), ONE))


def _fraction_horner_table(frame, k):
    """The Horner table unpacked from each coefficient's Fractions."""
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


class TestHornerTable:
    @given(special_frames(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=150)
    def test_matches_fraction_unpacking(self, m, k):
        frame = BryantFrame(m)
        assert _horner_table(frame, k) == _fraction_horner_table(frame, k)

    def test_catalog_and_seeded_frames(self):
        for label, frame, _, _ in _curvature_corpus():
            assert _horner_table(frame, 7) == _fraction_horner_table(frame, 7), label


class TestImmerse:
    # the horosphere [[1, z], [0, 1]] has f = [[1+|z|², z], [z̄, 1]], so
    # x = (1 + |z|²/2, Re z, Im z, |z|²/2); each coordinate is the exact
    # value at the double z, rounded once
    def test_horosphere_origin_is_identity(self):
        assert immerse(catalog("horosphere"), 0j) == _point(1, 0, 0, 0)

    def test_horosphere_closed_form(self):
        z = 0.4 + 0.3j
        r2 = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
        assert (immerse(catalog("horosphere"), z)
                == _point(1 + r2 / 2, z.real, z.imag, r2 / 2))

    def test_lower_shear_at_one(self):
        # f = [[1, 1], [1, 2]]
        assert immerse(catalog("lower-shear"), 1.0 + 0j) == _point(1.5, 1, 0, -0.5)

    def test_outside_domain(self):
        frame = BryantFrame(LaurentMatrix.diagonal(Z, LaurentPoly.monomial(-1)),
                            Annulus(0.5, 2.0))
        with pytest.raises(ValueError):
            immerse(frame, 0.1 + 0j)

    def test_grid_invariants(self):
        frame = catalog("affine-null")
        for z in GridSpec(n=10).points():
            p = immerse(frame, z)  # MinkowskiPoint validates on construction
            assert isinstance(p, MinkowskiPoint) and p.x0 >= 1.0

    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_non_finite_point(self, z):
        for fn in (immerse, mean_curvature):
            with pytest.raises(ValueError, match=re.escape(repr(complex(z)))):
                fn(catalog("horosphere"), z)

    def test_beyond_double_range(self):
        # 10^200·z puts x0 near 10^400 at z = 1 + i
        with pytest.raises(NotRepresentable):
            immerse(_large_shear(200), 1 + 1j)
        assert immerse(_large_shear(100), 1 + 1j).x0 == float(10 ** 200 + 1)


class TestMinkowski:
    # f = A·A* is [[x0+x3, x1+i x2], [x1-i x2, x0-x3]]; constant frames
    # give each f directly
    def test_identity(self):
        assert immerse(_constant_frame(1, 0, 0, 1), 0j) == _point(1, 0, 0, 0)

    def test_diagonal(self):
        # f = diag(4, 1/4)
        frame = _constant_frame(2, 0, 0, Fraction(1, 2))
        assert immerse(frame, 0j) == _point(Fraction(17, 8), 0, 0, Fraction(15, 8))

    def test_off_diagonal(self):
        # f = [[2, i], [-i, 1]]
        frame = _constant_frame(1, GaussianRational(0, 1), 0, 1)
        assert immerse(frame, 0j) == _point(1.5, 0, 1, 0.5)

    @pytest.mark.parametrize("t", [0.0, 1.0, 20.0, 350.0, 700.0])
    def test_accepts_far_points(self, t):
        MinkowskiPoint(math.cosh(t), 0.0, 0.0, math.sinh(t))
        MinkowskiPoint(math.cosh(t), 0.0, -math.sinh(t), 0.0)

    @given(coords, coords, coords)
    def test_accepts_rounded_points(self, x1, x2, x3):
        MinkowskiPoint(math.sqrt(1 + x1 * x1 + x2 * x2 + x3 * x3), x1, x2, x3)

    def test_invariant_violation(self):
        for x in [(2.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),
                  (math.nan, 0.0, 0.0, 0.0), (1.0, math.nan, 0.0, 0.0),
                  (math.inf, math.inf, 0.0, 0.0)]:
            with pytest.raises(ValueError):
                MinkowskiPoint(*x)

    def test_poincare_in_ball(self):
        p = MinkowskiPoint(math.sqrt(26), 3.0, 4.0, 0.0)
        assert np.linalg.norm(p.poincare()) < 1.0


class TestDistance:
    def test_diagonal_oracle(self):
        p = MinkowskiPoint(1.0, 0.0, 0.0, 0.0)
        q = MinkowskiPoint(math.cosh(2.0), 0.0, 0.0, math.sinh(2.0))
        assert abs(hyperbolic_distance(p, q) - 2.0) < 1e-12

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 5.0])
    def test_diagonal_oracle_down_to_close_points(self, t):
        # acosh(<p, q>) returned 0.0 at t = 1e-9 and was 4.4e-5 off at 1e-6
        p = MinkowskiPoint(1.0, 0.0, 0.0, 0.0)
        q = MinkowskiPoint(math.cosh(t), 0.0, 0.0, math.sinh(t))
        assert abs(hyperbolic_distance(p, q) - t) <= 1e-14 * t

    def test_self_distance_far_from_the_origin(self):
        # 5 from (1, 0, 0, 0); acosh(<p, p>) gave 1.9e-6 here
        r = math.sinh(5.0)
        p = MinkowskiPoint(math.cosh(5.0), 0.0, 0.6 * r, 0.8 * r)
        assert hyperbolic_distance(p, p) == 0.0

    def test_symmetry_and_zero(self):
        p = immerse(catalog("horosphere"), 0.3 + 0.1j)
        q = immerse(catalog("horosphere"), -0.2 + 0.4j)
        assert hyperbolic_distance(p, p) == 0.0
        assert abs(hyperbolic_distance(p, q) - hyperbolic_distance(q, p)) < 1e-14

    def test_unitary_invariance(self):
        # exact SU(2) element [[3/5, 4i/5], [4i/5, 3/5]]
        f = Fraction(3, 5)
        g = GaussianRational(Fraction(0), Fraction(4, 5))
        u = LaurentMatrix(LaurentPoly.constant(f), LaurentPoly.constant(g),
                          LaurentPoly.constant(g), LaurentPoly.constant(f))
        for name in ("horosphere", "affine-null"):
            a = catalog(name)
            ua = BryantFrame(u @ a.matrix, a.domain)
            z1, z2 = 0.3 + 0.2j, -0.4 + 0.5j
            d = hyperbolic_distance(immerse(a, z1), immerse(a, z2))
            du = hyperbolic_distance(immerse(ua, z1), immerse(ua, z2))
            assert abs(d - du) < 1e-10


class TestMeanCurvature:
    def test_horosphere(self):
        s = mean_curvature(catalog("horosphere"), 0.3 + 0.2j, step=1e-4)
        assert abs(s.H - 1.0) <= 1e-4

    def test_affine_null(self):
        s = mean_curvature(catalog("affine-null"), 0.1 + 0j, step=1e-4)
        assert abs(s.H - 1.0) <= 1e-4

    def test_quadratic_embeddings_exact(self):
        # degree <= 1 frames embed quadratically; the exact stencil then
        # differentiates them exactly and the float creeps in only at the
        # final square root
        for name in ("horosphere", "lower-shear", "affine-null"):
            assert mean_curvature(catalog(name), 0.37 + 0.24j, step=0.01).H == 1.0

    def test_branch_point_degenerate(self):
        with pytest.raises(DegenerateMetric):
            mean_curvature(catalog("cusp-degree2"), 0j, step=1e-3)

    def test_second_order_convergence(self):
        f = catalog("cusp-degree2")
        z = 0.5 + 0.25j
        e1 = abs(mean_curvature(f, z, step=0.02).H - 1.0)
        e2 = abs(mean_curvature(f, z, step=0.01).H - 1.0)
        assert e1 > 0
        assert 3.0 < e1 / e2 < 5.0

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError):
            mean_curvature(catalog("horosphere"), 0.3 + 0.2j, step=step)

    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=16),
                    min_size=12, max_size=12))
    @settings(max_examples=50)
    def test_normal_is_positively_oriented(self, xs):
        # det[f, f_u, f_v, n] = -<n, n> exactly, so a spacelike normal
        # needs no orientation flip
        f, fu, fv = (tuple(xs[i:i + 4]) for i in (0, 4, 8))
        n = _normal_direction(f, fu, fv)
        assert _leibniz_det((f, fu, fv, n)) == -_mink(n, n)

    @given(st.lists(_normal_entries, min_size=12, max_size=12))
    @settings(max_examples=200)
    def test_normal_matches_the_cofactor_expansion(self, xs):
        # the six-minor kernel against the four 3x3 cofactors it replaced,
        # on entries up to 3000 bits
        f, fu, fv = (tuple(xs[i:i + 4]) for i in (0, 4, 8))
        n = _normal_direction(f, fu, fv)
        assert n == _cofactor_normal(f, fu, fv)
        assert _mink(n, f) == _mink(n, fu) == _mink(n, fv) == 0
        assert _leibniz_det((f, fu, fv, n)) == -_mink(n, n)

    @pytest.mark.parametrize("exponent", [-70, 0, 50])
    def test_scaled_horosphere_is_umbilic(self, exponent):
        # the shear is a horosphere with metric scale 10^(2·exponent): II = I
        s = mean_curvature(_large_shear(exponent), 1 + 1j)
        assert s.H == 1.0
        scale = 10.0 ** (2 * exponent)
        assert np.array_equal(s.first_form, [[scale, 0], [0, scale]])
        assert np.max(np.abs(s.second_form - s.first_form)) <= 1e-15 * scale

    @pytest.mark.parametrize("exponent", [-80, -200])
    def test_normal_scale_underflow(self, exponent):
        # the squared normal scale is about 10^(4·exponent): subnormal at
        # -80, where the second form would lose digits, and 0.0 at -200,
        # where it would be 0/0
        with pytest.raises(NotRepresentable, match="underflows"):
            mean_curvature(_large_shear(exponent), 1 + 1j)

    def test_matches_fraction_reference(self):
        seen = set()
        for label, frame, z, step in _curvature_corpus():
            got = _outcome(_kernel, frame, z, step)
            want = _outcome(_reference_curvature, frame, z, step)
            assert got == want, (label, z, step)
            seen.add(got if isinstance(got, type) else tuple)
        # the corpus reaches both error branches as well as samples
        assert seen == {tuple, PoleAtZero, DegenerateMetric}

    def test_forms_shape(self):
        s = mean_curvature(catalog("horosphere"), 0.2 + 0.1j, step=1e-3)
        assert s.first_form.shape == (2, 2) and s.second_form.shape == (2, 2)
        # first form positive definite away from branch points
        assert np.all(np.linalg.eigvalsh(s.first_form) > 0)


def _factors(min_bits, max_bits):
    """Ints of min_bits..max_bits bits, either sign."""
    return st.builds(lambda sign, x: sign * x, st.sampled_from((-1, 1)),
                     st.integers(min_bits, max_bits).flatmap(
                         lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))


def _divided(fn, nums, dens):
    """fn(nums, dens) as bits, or OverflowError."""
    try:
        return fn(nums, dens).hex()
    except OverflowError:
        return OverflowError


def _exact_quotient(nums, dens):
    return math.prod(nums) / math.prod(dens)


# odd 200- and 300-bit factors, so that truncation to 128 bits is inexact
_A, _B = (1 << 199) + 0x9E3779B97F4A7C15, (1 << 299) + 0xC2B2AE3D27D4EB4F


class TestQuotient:
    """H's ratio from leading bits against the exact int/int division."""

    @pytest.fixture
    def exact_branch(self, monkeypatch):
        """The factor lists of each math.prod call: the exact branch's."""
        calls, prod = [], math.prod
        monkeypatch.setattr(math, "prod", lambda xs: calls.append(xs) or prod(xs))
        return calls

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_exact_division(self, data):
        nums = data.draw(st.lists(_factors(1, 4000), min_size=1, max_size=4))
        dens = data.draw(st.lists(_factors(1, 4000), min_size=1, max_size=6))
        # most of the time, one more factor puts the quotient anywhere from
        # below the subnormals to past the double range
        gap = (sum(x.bit_length() for x in nums) - sum(x.bit_length() for x in dens)
               - data.draw(st.integers(-1100, 1050)))
        if 0 < abs(gap) <= 4000 and data.draw(st.booleans()):
            (dens if gap > 0 else nums).append(data.draw(_factors(abs(gap), abs(gap))))
        assert _divided(_quotient, nums, dens) == _divided(_exact_quotient, nums, dens)

    @pytest.mark.parametrize("nums, dens, want", [
        # exact midpoints 1 + 2^-53 and 1 + 3·2^-53: ties to even
        ((_A * (2 ** 53 + 1), _B), (_B << 53, _A), 1.0),
        ((_A * (2 ** 53 + 3), -_B), (_B << 53, -_A), 1 + 2.0 ** -51),
        # (1 + 2^-53)(1 ± 2^-400): 2^-400 above and below that midpoint
        ((_A * (2 ** 53 + 1), _B * (2 ** 400 + 1)), (_A, _B << 453), 1 + 2.0 ** -52),
        ((_A * (2 ** 53 + 1), _B * (2 ** 400 - 1)), (_A, _B << 453), 1.0),
        # the subnormal midpoint 3·2^-1075 rounds to the even 2^-1073
        ((3 * _A,), (_A << 1075,), 2.0 ** -1073),
    ], ids=["midpoint down", "midpoint up", "above a midpoint",
            "below a midpoint", "subnormal midpoint"])
    def test_bounds_that_straddle_a_midpoint_divide_exactly(self, nums, dens, want,
                                                            exact_branch):
        # the leading bits do not decide, so the exact division runs
        assert _quotient(nums, dens) == want
        assert exact_branch == [nums, dens]
        assert _exact_quotient(nums, dens) == want

    def test_leading_bits_decide_off_the_midpoints(self, exact_branch):
        # 1 + 2^-53 + 2^-100 is near the same midpoint, yet far enough
        nums, dens = (_A * (2 ** 100 + 2 ** 47 + 1), _B), (_B << 100, _A)
        assert _quotient(nums, dens) == 1 + 2.0 ** -52
        assert exact_branch == []

    def test_past_the_double_range_raises(self, exact_branch):
        nums, dens = (_A << 1100, _B), (_B, _A)
        with pytest.raises(OverflowError):
            _quotient(nums, dens)
        assert exact_branch == [nums, dens]
        with pytest.raises(OverflowError):
            _exact_quotient(nums, dens)

    def test_signs_and_zero(self):
        for nums, dens in [((-_A, _B), (_B,)), ((_A, -_B), (-_A, _B)),
                           ((0, _A), (-_B,)), ((-1,), (_A << 1200,))]:
            assert _quotient(nums, dens).hex() == _exact_quotient(nums, dens).hex()
        with pytest.raises(ZeroDivisionError):
            _quotient((_A,), (_B, 0))


class TestMesh:
    def test_two_by_two(self):
        mesh = sample_mesh(catalog("horosphere"), GridSpec(n=2))
        assert mesh.valid_vertex_count == 4
        assert len(mesh.faces) == 1

    def test_single_point(self):
        mesh = sample_mesh(catalog("horosphere"), GridSpec(n=1))
        assert mesh.valid_vertex_count == 1 and mesh.faces == ()

    def test_ten_by_ten(self):
        mesh = sample_mesh(catalog("horosphere"), GridSpec(n=10))
        assert mesh.valid_vertex_count == 100
        assert len(mesh.faces) == 81
        for v in mesh.vertices:
            assert np.linalg.norm(v.poincare()) < 1.0

    def test_pole_drops_faces(self):
        frame = BryantFrame(LaurentMatrix.diagonal(Z, LaurentPoly.monomial(-1)))
        mesh = sample_mesh(frame, GridSpec(center=0j, radius=1.0, n=3))
        # center point is the pole: 8 valid vertices, all 4 faces touch it
        assert mesh.valid_vertex_count == 8
        assert len(mesh.faces) == 0

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("radius", [50.0, 1e3, 1e4])
    def test_far_grid_keeps_every_vertex(self, name, radius):
        # the coordinates grow like |z|^(2n); each is rounded once from
        # the exact embedding, and the Minkowski-norm check is relative,
        # so no valid vertex is dropped
        mesh = sample_mesh(catalog(name), GridSpec(center=0j, radius=radius, n=10))
        assert mesh.valid_vertex_count == 100
        assert len(mesh.faces) == 81

    @pytest.mark.parametrize("label", [*CATALOG_NAMES, "seed 7", "seed 8"])
    @pytest.mark.parametrize("radius", [1.0, 50.0, 1e4])
    def test_vertices_are_correctly_rounded(self, label, radius):
        frame = (_seeded_bryant(random.Random(int(label[5:])), -1, 4)
                 if label.startswith("seed") else catalog(label))
        grid = GridSpec(center=0.3 - 0.2j, radius=radius, n=6)
        mesh = sample_mesh(frame, grid)
        for z, v in zip(grid.points(), mesh.vertices):
            want = _exact_embedding(frame, Fraction(z.real), Fraction(z.imag))
            assert v == _point(*want), z

    @pytest.mark.parametrize("kw", [
        {"n": 0}, {"radius": 0.0}, {"radius": math.inf}, {"radius": math.nan},
        {"center": complex(math.nan, 0.0)},
        # 2·radius, or a corner center ± radius·(1+i), leaves the double range
        {"radius": 1e308}, {"center": 1.7e308 + 0j, "radius": 5e307},
        {"center": -1.7e308j, "radius": 5e307},
    ])
    def test_grid_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            GridSpec(**kw)

    def test_grid_row_major(self):
        pts = GridSpec(center=0j, radius=1.0, n=2).points()
        assert pts == [(-1 - 1j), (1 - 1j), (-1 + 1j), (1 + 1j)]

    def test_vertices_match_immerse(self):
        for label, frame, grid, step in _grid_cases():
            mesh = sample_mesh(frame, grid, step)
            want = [_bits(_immersed(frame, z)) for z in grid.points()]
            assert [_bits(v) for v in mesh.vertices] == want, label

    def test_samples_match_mean_curvature(self):
        for label, frame, grid, step in _grid_cases():
            mesh = sample_mesh(frame, grid, step)
            got = [_sample_bits(s) if isinstance(s, CurvatureSample) else type(s)
                   for s in mesh.samples]
            want = [_sample_outcome(frame, z, step) for z in grid.points()]
            assert got == want, label
            assert [s.z for s in mesh.samples
                    if isinstance(s, CurvatureSample)] == [
                z for z, w in zip(grid.points(), want) if not isinstance(w, type)]

    def test_step_must_be_positive_and_finite(self):
        with pytest.raises(ValueError):
            sample_mesh(catalog("horosphere"), GridSpec(n=2), step=0.0)

    def test_grid_cases_reach_every_split_outcome(self):
        # the vertex and the curvature fail differently at these points
        seen = set()
        for _, frame, grid, step in _grid_cases():
            for z in grid.points():
                sample = _sample_outcome(frame, z, step)
                seen.add((_immersed(frame, z) is None,
                          sample if isinstance(sample, type) else tuple))
        assert {(False, PoleAtZero), (True, tuple), (False, DegenerateMetric),
                (False, NotRepresentable), (True, NotRepresentable),
                (True, PoleAtZero)} <= seen

    def test_obj_format(self):
        mesh = sample_mesh(catalog("horosphere"), GridSpec(n=2))
        lines = mesh.to_obj().strip().splitlines()
        vs = [l for l in lines if l.startswith("v ")]
        fs = [l for l in lines if l.startswith("f ")]
        assert len(vs) == 4 and len(fs) == 1
        assert all(len(l.split()) == 4 for l in vs)
        idx = sorted(int(i) for i in fs[0].split()[1:])
        assert idx == [1, 2, 3, 4]
