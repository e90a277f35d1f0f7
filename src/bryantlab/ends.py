"""Singular ends: the model connection d + Θ_α and its invariants.

A singular end of weight α in [0, 1) is modelled on the punctured disc by
Θ_α = -diag(α, -α) dz/z, so the two covariant derivatives act on a pair
of meromorphic functions (f, g) by

    ∇_α (f, g) = (f' - α f / z,  g' + α g / z).

Applying this columnwise to a frame A = (s | t) and wedging gives the
quadratic form Ω_α = ∇s ∧ ∇t, a Laurent polynomial when A is.  Its pole
at the puncture is controlled by the frame order n = max pole order of
the entries of A: for n >= 1 the pole order of Ω_α is at most 2n + 1 when
α > 0 and at most 2n when α = 0.  (At n = 0 the bound fails: the identity
frame already gives Ω_α = -α² z^{-2}.)

The compatibility of a frame with the end is measured by two residuals,
computed along deliberately independent routes:

    r1 = s ∧ t - 1                    (unit determinant)
    r2 = z²(a'd' - b'c') + z α (a'd - a d' + b c' - b'c) - α²

where A = [[a, b], [c, d]].  When r1 = 0 the identity
r2 - z² Ω_α = α² r1 forces r2 = z² Ω_α exactly, so r2 doubles as an
expanded form of the wedge; keeping the two expressions separate is the
point of the check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .connection import HiggsField, _defects, _entries, model_end_field
from .defaults import DEFAULTS
from .errors import HypothesisViolated, NotUnitary, TrivialHolonomy
from .series import GaussianRational, LaurentMatrix, LaurentPoly

_ONE = LaurentPoly.one()
_MAX_DENOMINATOR = 10 ** 6
_RECONSTRUCTION_TOL = 1e-9
_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class SingularEnd:
    """A puncture with rational weight α in [0, 1)."""

    alpha: Fraction

    def __post_init__(self):
        a = Fraction(self.alpha)
        if not 0 <= a < 1:
            raise ValueError(f"weight must lie in [0, 1), got {a}")
        object.__setattr__(self, "alpha", a)

    def as_higgs(self) -> HiggsField:
        return model_end_field(self.alpha)

    def residue(self) -> LaurentMatrix:
        """The residue matrix Γ_α = diag(α, -α) of -Θ_α."""
        a = GaussianRational.coerce(self.alpha)
        return LaurentMatrix.diagonal(LaurentPoly.constant(a),
                                      LaurentPoly.constant(-a))


def nabla_alpha(end: SingularEnd,
                pair: tuple[LaurentPoly, LaurentPoly]) -> tuple[LaurentPoly, LaurentPoly]:
    """∇_α applied to a section written in the model gauge, each entry in one pass: with
    α = p/q, c_e·z^e becomes (e·q ∓ p)·c_e·z^(e-1) over q, with - in f and + in g."""
    f, g = pair
    return f.twisted_derivative(end.alpha), g.twisted_derivative(-end.alpha)


def omega_alpha(end: SingularEnd, frame: LaurentMatrix) -> LaurentPoly:
    """Ω_α = ∇_α s ∧ ∇_α t for the columns s = (a, c), t = (b, d) of the frame."""
    na, nc = nabla_alpha(end, (frame.a, frame.c))
    nb, nd = nabla_alpha(end, (frame.b, frame.d))
    return LaurentPoly.sum_of_products((1, na, nd), (-1, nc, nb))


def _r2(end: SingularEnd, frame: LaurentMatrix) -> LaurentPoly:
    """z²(a'd' - b'c') + z α (a'd - a d' + b c' - b'c) - α², times q² for α = p/q, as one
    sum of products of the entries and their z·x′ (z²a'd' = za'·zd'), then over q²."""
    (a, b, c, d), p, q = frame.entries, end.alpha.numerator, end.alpha.denominator
    da, db, dc, dd = (x.derivative().shift(1) for x in (a, b, c, d))
    terms = [(q * q, da, dd), (-q * q, db, dc)]
    if p:
        terms += [(p * q, da, d), (-p * q, a, dd), (p * q, b, dc), (-p * q, db, c),
                  (-p * p, _ONE, _ONE)]
    return LaurentPoly.sum_of_products(*terms).scale(Fraction(1, q * q))


def stareq_residuals(end: SingularEnd,
                     frame: LaurentMatrix) -> tuple[LaurentPoly, LaurentPoly]:
    """(r1, r2) for the end equations; both vanish iff the frame solves them.

    r2 is expanded from the matrix entries directly, not derived from
    omega_alpha, so the two agree only when the algebra is right.
    """
    return frame.det() - _ONE, _r2(end, frame)


@dataclass(frozen=True)
class PoloReport:
    """Pole-order bound check for Ω_α at a singular end of order n >= 1."""

    order_n: int
    pole_order: int
    bound: int
    passes: bool

    def to_json(self) -> dict:
        return asdict(self)


def polo_bound_check(end: SingularEnd, frame: LaurentMatrix) -> PoloReport:
    """Check pole(Ω_α) <= 2n + 1 (α > 0) or <= 2n (α = 0), n = frame order.

    Only stated for n >= 1; the n = 0 case is rejected because constant
    frames already violate it for α > 0.
    """
    return _pole_bound(end, frame.max_pole_order(), frame.det(),
                       omega_alpha(end, frame))


def _pole_bound(end: SingularEnd, n: int, det: LaurentPoly,
                omega: LaurentPoly) -> PoloReport:
    """polo_bound_check from the frame order, s ∧ t = det A and Ω_α."""
    if n < 1:
        raise HypothesisViolated("the pole bound assumes frame order n >= 1")
    if det.pole_order() > 0:
        raise HypothesisViolated("s ∧ t must be pole-free at the puncture")
    pole = omega.pole_order()
    bound = 2 * n + 1 if end.alpha > 0 else 2 * n
    return PoloReport(order_n=n, pole_order=pole, bound=bound,
                      passes=pole <= bound)


def weight_from_holonomy(u) -> Fraction | float:
    """Recover the weight α in [0, 1) from a transport matrix.

    The matrix must be unitary within DEFAULTS.su2_tol (NotUnitary
    otherwise, also for a NaN entry); its eigenvalue on the
    eigenvector closest to e1 (the flag line of the model end) is
    e^{2πiα}, which pins down α without folding α and 1 - α together.
    It is the eigenvalue nearest u_00 = λ_1|v_1[0]|² + λ_2|v_2[0]|².
    Returns an exact Fraction when a rational with denominator at most
    10^6 reproduces the angle to 1e-9, else the raw float (the return
    type is the flag).
    """
    x = a, b, c, d = _entries(u)
    defect = _defects(x)[0]
    tol = DEFAULTS.su2_tol
    if not defect <= tol:
        raise NotUnitary(f"unitary defect {defect:.3e} exceeds {tol:.3e}")
    lam = cmath.sqrt((a - d) ** 2 / 4 + b * c)
    first = min((a + d) / 2 + lam, (a + d) / 2 - lam, key=lambda v: abs(v - a))
    value = cmath.phase(first) % (2 * math.pi) / (2 * math.pi)
    alpha = Fraction(value).limit_denominator(_MAX_DENOMINATOR)
    if alpha == 1:
        alpha = Fraction(0)
        value = value - 1.0
    if abs(float(alpha) - value) > _RECONSTRUCTION_TOL:
        return value % 1.0
    return alpha


@dataclass(frozen=True)
class LocalParabolicStructure:
    """Weight and flag line that a singular end induces on its fiber."""

    weight: Fraction
    flag: tuple[complex, complex]

    def to_json(self) -> dict:
        return {"weight": [self.weight.numerator, self.weight.denominator],
                "flag": [[self.flag[0].real, self.flag[0].imag],
                         [self.flag[1].real, self.flag[1].imag]]}


def local_parabolic(end: SingularEnd) -> LocalParabolicStructure:
    """The model end fixes the flag e1 with weight α; trivial at α = 0."""
    if end.alpha == 0:
        raise TrivialHolonomy("weight 0 induces no parabolic structure")
    return LocalParabolicStructure(weight=end.alpha, flag=(1 + 0j, 0j))


def residue_parabolic(gamma) -> LocalParabolicStructure:
    """Parabolic structure of a diagonalizable residue matrix Γ.

    Entries must be finite and eigenvalues ±α real to 1e-10, α = √((a - d)²/4 + bc)
    for Γ = [[a, b], [c, d]]; the flag is the eigenvector of +α, the longer of
    (b, α - a) and (α - d, c).
    """
    a, b, c, d = _entries(gamma)
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise ValueError("residue has a non-finite entry")
    if abs(a + d) > _RESIDUE_TOL:
        raise ValueError("residue is not trace-free")
    lam = cmath.sqrt((a - d) ** 2 / 4 + b * c)
    if abs(lam.imag) > _RESIDUE_TOL:
        raise ValueError("residue eigenvalues are not real")
    alpha = lam.real   # >= 0, cmath.sqrt's branch
    if alpha <= _RESIDUE_TOL:
        raise TrivialHolonomy("residue has no positive eigenvalue")
    v = max((b, alpha - a), (alpha - d, c), key=lambda v: math.hypot(abs(v[0]), abs(v[1])))
    lead = max(v, key=abs)   # rotated onto the positive real axis
    rot = abs(lead) / lead / math.hypot(abs(v[0]), abs(v[1]))
    return LocalParabolicStructure(
        weight=Fraction(alpha).limit_denominator(_MAX_DENOMINATOR),
        flag=(v[0] * rot, v[1] * rot))


def hermitian_pairing(end: SingularEnd,
                      pair1: tuple[LaurentPoly, LaurentPoly],
                      pair2: tuple[LaurentPoly, LaurentPoly],
                      z: complex) -> complex:
    """The singular Hermitian metric |z|^{-2α}f p̄ + |z|^{2α}g q̄ at z.

    Flat for ∇_α: the parallel sections (z^α, 0) and (0, z^{-α}) have
    norm 1, and the weight shows up as the growth rate of the two
    summands at the puncture.
    """
    f, g = pair1
    p, q = pair2
    w = abs(z) ** 2
    if w == 0:
        raise ZeroDivisionError("the pairing is singular at the puncture")
    a = float(end.alpha)
    return (w ** -a) * f(z) * p(z).conjugate() + (w ** a) * g(z) * q(z).conjugate()


def end_report(end: SingularEnd, frame: LaurentMatrix) -> dict:
    """One-stop summary used by the CLI's end subcommand."""
    det = frame.det()
    omega = omega_alpha(end, frame)
    n = frame.max_pole_order()
    r1, r2 = det - _ONE, _r2(end, frame)
    try:
        polo = _pole_bound(end, n, det, omega).to_json()
    except HypothesisViolated as exc:
        polo = {"skipped": str(exc)}
    out = {
        "alpha": [end.alpha.numerator, end.alpha.denominator],
        "order_n": n,
        "omega_pole_order": omega.pole_order(),
        "polo_bound": polo,
        "r1": r1.to_json(),
        "r2": r2.to_json(),
        "stareq_pass": r1.is_zero and r2.is_zero,
        "r2_matches_omega": r2 == omega.shift(2),
    }
    if end.alpha != 0:
        out["parabolic"] = local_parabolic(end).to_json()
    return out
