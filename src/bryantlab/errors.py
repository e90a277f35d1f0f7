"""Exception types shared across the package.

Everything raised on purpose derives from BryantLabError so callers (and
the command-line driver) can separate domain failures from programming
errors.
"""

from __future__ import annotations


class BryantLabError(Exception):
    """Base class for all errors raised by this package."""


class PoleAtZero(BryantLabError):
    """A Laurent object with negative exponents was evaluated at z = 0."""


class UnknownName(BryantLabError):
    """Lookup of a named catalog entry failed."""


class NotSpecial(BryantLabError):
    """A matrix that must have exact unit determinant does not."""


class RegionContainsPole(BryantLabError):
    """A root search region contains a pole of the function searched."""


class DegenerateMetric(BryantLabError):
    """The induced first fundamental form is singular (branch point)."""


class PoleTooClose(BryantLabError):
    """An integration path passes closer to a pole than the clearance."""


class ToleranceNotMet(BryantLabError):
    """Transport cannot meet its tolerance in double precision."""


class NotNull(BryantLabError):
    """Cousin data built from a field whose determinant does not vanish."""


class NotUnitary(BryantLabError):
    """A matrix expected in SU(2) fails the unitarity tolerance."""


class TrivialHolonomy(BryantLabError):
    """Weight zero: there is no distinguished eigenline to report."""


class HypothesisViolated(BryantLabError):
    """Input violates a stated hypothesis (e.g. s∧t has a pole at 0)."""


class NotRepresentable(BryantLabError):
    """An exact value is too large to convert to a double."""


class EmptyCandidateList(BryantLabError):
    """A stability verdict was requested with no candidate sub-bundles."""
