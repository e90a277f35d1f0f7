"""The numeric controls a user tunes.

NumericControls holds every tolerance and step a user may set, so a job
is reproducible from one record.  Fixed thresholds that no user tunes (path
closure, the root finder's sweep cap, the branch-point search's region slack,
the transport's rounding floor, the Minkowski point check) are private constants
or literals next to their single user.  The exact (rational) layer has no knobs.
Each field must be positive and finite; NumericControls raises ValueError
otherwise, so a NaN or a negative tolerance never reaches the integrator.
Each field is also a flag (--su2-tol for su2_tol) of the CLI subcommand
that uses it: surface takes --step, holonomy the other three.

======================  =======  ==============================================
field                   default  used by
======================  =======  ==============================================
step                    1e-4     finite-difference stencil in mean_curvature
atol                    1e-12    transport tails <= 2·atol·max(1, |Y|) per path
su2_tol                 1e-8     unitarity / det-1 defects in holonomy verdicts
pole_clearance          1e-3     minimum path distance to any connection pole
======================  =======  ==============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class NumericControls:
    step: float = 1e-4
    atol: float = 1e-12
    su2_tol: float = 1e-8
    pole_clearance: float = 1e-3

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{field.name} must be positive and finite, got {value!r}")

    def with_(self, **kwargs) -> "NumericControls":
        return replace(self, **kwargs)


DEFAULTS = NumericControls()


def thread_cap() -> int:
    """Always 1: the package runs single-threaded.

    Kept because the benchmark harness still imports it; nothing in the
    package calls it.
    """
    return 1
