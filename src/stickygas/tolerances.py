"""Floating-point comparison policy.

Everything runs in binary64.  Comparisons use an absolute tolerance
``abs_tol`` (default 1e-9) and a relative tolerance ``rel_tol`` (default
1e-12); both are set per run and must be finite and non-negative (zero is
allowed).  ``simulate`` keeps the tolerances it ran with on the timeline
(``ShockTimeline.tol``), and every check on the timeline reads them there.
Event grouping in the simulator uses the time-scaled tolerance
``event_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionViolated


@dataclass(frozen=True)
class Tolerances:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise PreconditionViolated(f"{name} must be finite and non-negative, got {value}")

    def geq(self, a: float, b: float) -> bool:
        """a >= b, forgiving a shortfall of at most abs_tol."""
        return a >= b - self.abs_tol

    def event_tol(self, t: float) -> float:
        """Grouping width for near-simultaneous collision times near t."""
        return self.abs_tol * (1.0 + abs(t))


DEFAULT_TOL = Tolerances()
