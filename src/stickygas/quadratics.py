"""Quadratic trajectories and their crossing analysis.

A path is t -> c0 + c1*t + (c2/2)*t**2 with c2 the acceleration of the
owning cluster.  Crossing times between two paths drive the collision
scheduler, so root finding must not lose roots to cancellation: the
quadratic solver uses the stable half-b / citardauq pairing and falls back
to linear (then constant) when leading coefficients cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IdenticalPaths
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True)
class QuadraticPath:
    c0: float
    c1: float
    c2: float

    def __call__(self, t: float) -> float:
        return self.c0 + t * (self.c1 + 0.5 * t * self.c2)

    def derivative(self, t: float) -> float:
        return self.c1 + t * self.c2


@dataclass(frozen=True)
class MeetTime:
    time: float
    double: bool = False


def _real_roots(a: float, b: float, c: float, tol: Tolerances) -> list[MeetTime]:
    """All real roots of a*t^2 + b*t + c, tangency reported once.

    Assumes the caller has already dispatched the degenerate a ~ 0 case.
    """
    disc = b * b - 4.0 * a * c
    disc_scale = max(b * b, abs(4.0 * a * c))
    if disc <= 0.0:
        if disc < -8.0 * tol.rel_tol * disc_scale:
            return []
        return [MeetTime(-b / (2.0 * a), double=True)]
    if disc <= 8.0 * tol.rel_tol * disc_scale:
        return [MeetTime(-b / (2.0 * a), double=True)]
    sq = math.sqrt(disc)
    qq = -0.5 * (b + math.copysign(sq, b))
    r1 = qq / a
    r2 = c / qq
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return [MeetTime(lo), MeetTime(hi)]


def _difference_roots(p: QuadraticPath, q: QuadraticPath, tol: Tolerances) -> list[MeetTime]:
    a = 0.5 * (p.c2 - q.c2)
    b = p.c1 - q.c1
    c = p.c0 - q.c0
    if abs(p.c2 - q.c2) <= tol.abs_tol:
        # difference is (numerically) affine
        if abs(b) <= tol.abs_tol:
            if abs(c) <= tol.abs_tol:
                raise IdenticalPaths("paths coincide; treat as already merged")
            return []
        return [MeetTime(-c / b)]
    return _real_roots(a, b, c, tol)


def quadratic_meet_times(
    p: QuadraticPath,
    q: QuadraticPath,
    after: float,
    tol: Tolerances = DEFAULT_TOL,
) -> list[MeetTime]:
    """Real crossing times of p and q strictly greater than `after`, ascending.

    Raises IdenticalPaths when p and q coincide within tolerance.
    """
    return [r for r in _difference_roots(p, q, tol) if r.time > after]

