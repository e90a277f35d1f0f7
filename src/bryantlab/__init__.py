"""Bryant frames for cmc-1 surfaces in hyperbolic space.

Exact Laurent-polynomial frames, the hyperboloid-model immersion and its
curvature, flat connections with parallel transport and holonomy, the
singular-end calculus, and parabolic stability bookkeeping.
"""

from .connection import (CousinData, HiggsField, HolonomyReport, ArcSegment,
                         LineSegment, Path, PathLoop, cousin_data, det_higgs,
                         higgs_from_frame, holonomy, ktuy_check,
                         model_end_field, parallel_transport, simple_pole_field)
from .defaults import DEFAULTS, NumericControls
from .ends import (LocalParabolicStructure, PoloReport, SingularEnd,
                   end_report, hermitian_pairing, local_parabolic,
                   nabla_alpha, omega_alpha, polo_bound_check,
                   residue_parabolic, stareq_residuals, weight_from_holonomy)
from .errors import (BryantLabError, DegenerateMetric, EmptyCandidateList,
                     HypothesisViolated, NotNull, NotRepresentable,
                     NotSpecial, NotUnitary, PoleAtZero, PoleTooClose,
                     RegionContainsPole, ToleranceNotMet, TrivialHolonomy,
                     UnknownName)
from .frames import (Annulus, BryantFrame, FrameReport, CATALOG_NAMES,
                     branch_points, catalog, check_bryant, omega_quadratic)
from .hyperbolic import (CurvatureSample, GridSpec, MinkowskiPoint,
                         SurfaceMesh, hyperbolic_distance, immerse,
                         mean_curvature, sample_mesh)
from .parabolic import (BoundsReport, MarkedPoint, ParabolicData,
                        RiemannRochCounts, StabilityReport,
                        SubbundleCandidate, bounds_csv, bounds_table,
                        existence_bounds, parabolic_degree,
                        riemann_roch_counts, stability_verdict)
from .series import GaussianRational, LaurentMatrix, LaurentPoly, canonical_dumps

__version__ = "0.1.0"

__all__ = [
    "Annulus", "ArcSegment", "BoundsReport", "BryantFrame", "BryantLabError",
    "CATALOG_NAMES", "CousinData", "CurvatureSample", "DEFAULTS",
    "DegenerateMetric", "EmptyCandidateList", "FrameReport",
    "GaussianRational", "GridSpec", "HiggsField", "HolonomyReport",
    "HypothesisViolated", "LaurentMatrix", "LaurentPoly",
    "LineSegment", "LocalParabolicStructure", "MarkedPoint",
    "MinkowskiPoint", "NotNull", "NotRepresentable", "NotSpecial",
    "NotUnitary", "NumericControls", "ParabolicData", "Path", "PathLoop",
    "PoleAtZero", "PoleTooClose", "PoloReport",
    "RegionContainsPole", "RiemannRochCounts", "SingularEnd",
    "StabilityReport", "SubbundleCandidate", "SurfaceMesh",
    "ToleranceNotMet", "TrivialHolonomy", "UnknownName", "bounds_csv",
    "bounds_table", "branch_points", "canonical_dumps", "catalog",
    "check_bryant", "cousin_data", "det_higgs",
    "end_report", "existence_bounds", "hermitian_pairing",
    "higgs_from_frame", "holonomy", "hyperbolic_distance", "immerse",
    "ktuy_check", "local_parabolic", "mean_curvature", "model_end_field",
    "nabla_alpha", "omega_alpha", "omega_quadratic", "parabolic_degree",
    "parallel_transport", "polo_bound_check", "residue_parabolic",
    "riemann_roch_counts", "sample_mesh", "simple_pole_field",
    "stability_verdict", "stareq_residuals", "weight_from_holonomy",
]
