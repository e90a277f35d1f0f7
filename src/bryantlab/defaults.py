"""Central table of numeric controls.

Every tolerance or step used by the numerical layer lives here, so a job
is reproducible from one record.  The exact (rational) layer has no knobs.

======================  =======  ==============================================
field                   default  used by
======================  =======  ==============================================
step                    1e-4     finite-difference stencil in mean_curvature
rtol                    1e-10    adaptive transport, relative error control
atol                    1e-12    adaptive transport, absolute error control
su2_tol                 1e-8     unitarity / det-1 defects in holonomy verdicts
pole_clearance          1e-3     minimum path distance to any connection pole
======================  =======  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericControls:
    step: float = 1e-4
    rtol: float = 1e-10
    atol: float = 1e-12
    su2_tol: float = 1e-8
    pole_clearance: float = 1e-3

    def with_(self, **kwargs) -> "NumericControls":
        return replace(self, **kwargs)


DEFAULTS = NumericControls()


def thread_cap() -> int:
    """Always 1: the package runs single-threaded.

    Kept because the benchmark harness still imports it; nothing in the
    package calls it.
    """
    return 1
