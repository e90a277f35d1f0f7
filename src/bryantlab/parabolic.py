"""Parabolic structures on rank-2 bundles and the existence bounds.

A parabolic structure on E -> X marks points p_i with weights α_i in
(0, 1) and flag lines F_i in the fibers.  A line subbundle L < E gets the
parabolic degree

    par(L) = deg L + (1/2) Σ γ_i,   γ_i = +α_i if L passes through F_i,
                                          -α_i otherwise,

and E is stable when par(L) < 0 for every candidate.  (The normalisation
assumes par(E) = 0, which is the case of interest throughout.)

The dimension counts below compare the family of Higgs fields on a
twisted bundle with the constraints imposed by the period problem.  All
inputs are integers or exact rationals and every output is exact; the
formulas are linear, so there is nothing to tune.  Degrees enter in two
distinct roles and the code keeps them apart: the number of marked
points appears in the integer bounds, while the weight sum enters the
half-integer thresholds.  Weights lie in (0, 1), so the weight sum is
below the point count, which the thresholds use as the worst case when
no weight sum is given.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Sequence

from .errors import EmptyCandidateList

WeightLike = Fraction | int | str


def _as_weight(w: WeightLike) -> Fraction:
    f = Fraction(w)
    if not 0 < f < 1:
        raise ValueError(f"parabolic weight must lie in (0, 1), got {f}")
    return f


@dataclass(frozen=True)
class MarkedPoint:
    """A marked point: its label and its weight in (0, 1)."""

    label: str
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", _as_weight(self.weight))


@dataclass(frozen=True)
class ParabolicData:
    """Genus of the base plus the marked points."""

    genus: int
    points: tuple[MarkedPoint, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be >= 0")
        object.__setattr__(self, "points", tuple(self.points))
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError("marked point labels must be distinct")

    @property
    def point_count(self) -> int:
        return len(self.points)

    @property
    def weight_sum(self) -> Fraction:
        return sum((p.weight for p in self.points), start=Fraction(0))


@dataclass(frozen=True)
class SubbundleCandidate:
    """A line subbundle: its degree and which flag lines it hits.

    matches[i] is True when the subbundle passes through the flag at the
    i-th marked point.
    """

    degree: int
    matches: tuple[bool, ...]
    label: str = ""


def parabolic_degree(data: ParabolicData, candidate: SubbundleCandidate) -> Fraction:
    if len(candidate.matches) != data.point_count:
        raise ValueError("candidate match list does not cover the marked points")
    half = Fraction(1, 2)
    total = Fraction(candidate.degree)
    for point, hit in zip(data.points, candidate.matches):
        total += half * (point.weight if hit else -point.weight)
    return total


@dataclass(frozen=True)
class StabilityReport:
    """Verdict over a candidate list, with the margin -par(L) of each.

    Margins are positive for candidates compatible with stability;
    witness indexes the first candidate with par(L) >= 0, None when
    stable.  The verdict is relative to the supplied family.
    """

    verdict: str
    margins: tuple[Fraction, ...]
    witness: int | None

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "margins": [[m.numerator, m.denominator] for m in self.margins],
                "witness": self.witness}


def stability_verdict(data: ParabolicData,
                      candidates: Sequence[SubbundleCandidate]) -> StabilityReport:
    """stable: all par(L) < 0; semistable: max par(L) = 0; else unstable."""
    if not candidates:
        raise EmptyCandidateList("stability needs at least one candidate subbundle")
    pars = [parabolic_degree(data, c) for c in candidates]
    margins = tuple(-p for p in pars)
    if any(p > 0 for p in pars):
        verdict = "unstable"
        witness = next(i for i, p in enumerate(pars) if p > 0)
    elif any(p == 0 for p in pars):
        verdict = "semistable"
        witness = next(i for i, p in enumerate(pars) if p == 0)
    else:
        verdict = "stable"
        witness = None
    return StabilityReport(verdict=verdict, margins=margins, witness=witness)


# ---------------------------------------------------------------------------
# cohomology counts and the dimension bounds

@dataclass(frozen=True)
class RiemannRochCounts:
    """Section counts for L, L², and End(E) ⊗ L in the nonspecial range."""

    h0_L: int
    h0_L2: int
    h0_EndL: int
    h1_vanishes: bool
    globally_generated: bool

    def to_json(self) -> dict:
        return asdict(self)


def riemann_roch_counts(genus: int, degree: int, point_count: int,
                        weight_sum: Fraction | None = None) -> RiemannRochCounts:
    """Counts for a degree-d line bundle on a genus-g curve, d > 2g - 2.

    h0(L) = d - g + 1 and h0(L²) = 2d - g + 1 by Riemann-Roch once h1
    dies; h0(End(E) ⊗ L) = 4(d - g + 1) - ... collapses to 2d - 2g + 2
    for the trace-free part twisted by a square root.  The thresholds
    involving the marked points use the weight sum (default: one per
    point, the worst case).
    """
    if degree <= 2 * genus - 2:
        raise ValueError("counts assume the nonspecial range d > 2g - 2")
    ws = Fraction(point_count) if weight_sum is None else Fraction(weight_sum)
    h1_gone = Fraction(degree) >= ws / 2 + 2 * genus - 1
    gg = Fraction(degree) >= ws / 2 + 2 * genus
    return RiemannRochCounts(
        h0_L=degree - genus + 1,
        h0_L2=2 * degree - genus + 1,
        h0_EndL=2 * degree - 2 * genus + 2,
        h1_vanishes=bool(h1_gone),
        globally_generated=bool(gg),
    )


@dataclass(frozen=True)
class BoundsReport:
    """The dimension count for surfaces with prescribed ends.

    All entries are exact integers.  dim_moduli_lower is the expected
    dimension of the family that survives the rank-r period constraints;
    hypothesis_met records whether the twist degree clears the threshold
    that makes every count valid at once.
    """

    genus: int
    degree: int
    point_count: int
    required_d: int
    dim_grassmannian: int
    dim_quot: int
    dim_family_lower: int
    dim_special_lower: int
    rank_r: int
    dim_moduli_lower: int
    hypothesis_met: bool

    def to_json(self) -> dict:
        return asdict(self)


def existence_bounds(genus: int, degree: int, point_count: int) -> BoundsReport:
    """Dimension bookkeeping for genus g, twist degree d, d_P ends.

    required_d = 7g - 3 + d_P is the threshold past which the family of
    candidate Higgs fields dominates the period constraints:

        dim family  >= 3d - 4g + 4     (Grassmannian 4(d-g) cut by the
                                        d - g quotient conditions, plus
                                        the 4-dimensional twist choices)
        rank of constraints = 2d + 3g - 3 + d_P
        dim moduli  >= d - 7(g - 1) - d_P - 4

    dim_special_lower drops the 4 twist parameters.
    """
    if genus < 0 or point_count < 0:
        raise ValueError("genus and point count must be >= 0")
    g, d, dp = genus, degree, point_count
    required = 7 * g - 3 + dp
    return BoundsReport(
        genus=g, degree=d, point_count=dp,
        required_d=required,
        dim_grassmannian=4 * (d - g),
        dim_quot=d - g,
        dim_family_lower=3 * d - 4 * g + 4,
        dim_special_lower=3 * d - 4 * g,
        rank_r=2 * d + 3 * g - 3 + dp,
        dim_moduli_lower=d - 7 * (g - 1) - dp - 4,
        hypothesis_met=d >= required,
    )


def bounds_table(rows: Sequence[tuple[int, int, int]]) -> list[BoundsReport]:
    return [existence_bounds(g, d, dp) for g, d, dp in rows]


_CSV_FIELDS = tuple(f.name for f in fields(BoundsReport))


def bounds_csv(reports: Sequence[BoundsReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        writer.writerow(r.to_json())
    return buf.getvalue()
