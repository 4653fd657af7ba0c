"""Checks and a measure type that only the tests use.

Each is kept here unchanged from where it lived in the library: the tests
call them as references for the flow's right-continuity and position
grouping, the jump measures and force jumps at shocks, the congestion rows
built from the whole velocity law at each coincidence time, the test
functions' derivatives and the quadratic dominance lemma.  The library
itself never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from stickygas.dynamics import ShockTimeline
from stickygas.errors import PreconditionViolated
from stickygas.gas import _shock_lives, velocity_coincidence_times, velocity_space_fields
from stickygas.quadratics import MeetTime, QuadraticPath, _real_roots
from stickygas.testfunctions import TestFunction
from stickygas.tolerances import DEFAULT_TOL, Tolerances


# ---------------------------------------------------------------------------
# Finite atomic measures with signed weights


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure with signed weights: a mass distribution over
    positions or velocities, or a signed jump measure at a shock.  Atoms at
    coinciding locations are coalesced by summing weights before any
    comparison."""

    atoms: tuple[tuple[float, float], ...]  # (location, weight)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[float, float]]) -> "DiscreteMeasure":
        return DiscreteMeasure(tuple((float(x), float(w)) for x, w in pairs))

    def coalesced(self, tol: Tolerances = DEFAULT_TOL) -> "DiscreteMeasure":
        """Merge atoms whose locations agree within tol.abs_tol (weight-averaged
        location, summed weight); drops atoms with exactly zero weight."""
        if not self.atoms:
            return self
        ordered = sorted(self.atoms)
        groups: list[list[tuple[float, float]]] = [[ordered[0]]]
        for loc, w in ordered[1:]:
            if loc - groups[-1][-1][0] <= tol.abs_tol:
                groups[-1].append((loc, w))
            else:
                groups.append([(loc, w)])
        merged = []
        for grp in groups:
            weight = math.fsum(w for _, w in grp)
            mass = math.fsum(abs(w) for _, w in grp)
            if mass == 0.0:
                continue
            loc = math.fsum(x * abs(w) for x, w in grp) / mass
            if weight != 0.0:
                merged.append((loc, weight))
        return DiscreteMeasure(tuple(merged))

    def integrate(self, f: Callable[[float], float]) -> float:
        return math.fsum(w * f(x) for x, w in self.atoms)

    def total(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def first_moment(self) -> float:
        return math.fsum(w * x for x, w in self.atoms)

    def is_probability(self, tol: float = 1e-12) -> bool:
        return all(w > 0 for _, w in self.atoms) and abs(self.total() - 1.0) <= tol


# ---------------------------------------------------------------------------
# Flow: position grouping and right-continuity at shocks


def conditioning_matches_partition(timeline: ShockTimeline, t: float) -> bool:
    """Grouping current positions within the run's abs_tol must reproduce
    the partition."""
    xs = timeline.positions_at(t)
    groups = []
    start = 0
    for j in range(1, len(xs)):
        if xs[j] - xs[j - 1] > timeline.tol.abs_tol:
            groups.append((start, j - 1))
            start = j
    groups.append((start, len(xs) - 1))
    return tuple(groups) == timeline.partition_at(t)


@dataclass(frozen=True)
class CadlagProbe:
    time: float
    position_continuity: float   # |left limit - value| for positions
    velocity_right_drift: float  # |value(t + eps) - value(t)|
    velocity_jump: float         # |left limit - value|
    acceleration_right_drift: float
    acceleration_jump: float


def cadlag_probes(timeline: ShockTimeline, eps: float = 1e-9) -> list[CadlagProbe]:
    """Right-continuity evidence at every shock time.

    Positions must be continuous; velocities and accelerations may jump but
    their right values must match the evaluation at t + eps up to O(eps)."""
    out = []
    for s in timeline.event_times:
        if s + eps > timeline.t_end:
            continue
        x, xl = timeline.positions_at(s), timeline.positions_at(s, left=True)
        v, vr, vl = (timeline.velocities_at(s), timeline.velocities_at(s + eps),
                     timeline.velocities_at(s, left=True))
        a, ar, al = (timeline.accelerations_at(s), timeline.accelerations_at(s + eps),
                     timeline.accelerations_at(s, left=True))
        out.append(CadlagProbe(
            s,
            float(np.abs(xl - x).max()),
            float(np.abs(vr - v).max()),
            float(np.abs(vl - v).max()),
            float(np.abs(ar - a).max()),
            float(np.abs(al - a).max()),
        ))
    return out


# ---------------------------------------------------------------------------
# Velocity space: jumps at one shock


def jump_measure(timeline: ShockTimeline, s: float) -> DiscreteMeasure:
    """Signed measure mu(., s+) - mu(., s-) at one shock time: the lives
    born at s less those that end there, coalesced."""
    timeline._check_time(s)
    # (the float before s, s] holds the shock at s and no other
    rows, times, sign = _shock_lives(timeline, math.nextafter(s, -math.inf), s)
    c = timeline.columns
    v = c.c1[rows] + times * c.c2[rows]
    w = sign * c.mass[rows] / timeline.total_mass
    return DiscreteMeasure.from_pairs(zip(v.tolist(), w.tolist())).coalesced(timeline.tol)


def force_jump_total(timeline: ShockTimeline, s: float) -> float:
    """Total of w+ mu+ - w- mu- at a shock, E[Gamma] after minus before it
    (tower property); zero when force is conserved."""
    timeline._check_time(s)
    rows, _, sign = _shock_lives(timeline, math.nextafter(s, -math.inf), s)
    c = timeline.columns
    return float((sign * c.mass[rows] / timeline.total_mass) @ c.c2[rows])


# ---------------------------------------------------------------------------
# Congestion: the velocity law at every coincidence time


def congestion_rows_per_time(
    timeline: ShockTimeline, t1: float, t2: float
) -> list[tuple[float, float, float, float, float]]:
    """(t, velocity, weight, w, a) of every atom with a > 0 of the whole
    velocity law, built at every coincidence time t in [t1, t2]: the rows
    `congestion_rows` must reproduce, float for float."""
    rows = []
    for tc in velocity_coincidence_times(timeline, t2):
        if t1 <= tc <= t2:
            fields = velocity_space_fields(timeline, tc)
            for (v, wt), w, a in zip(fields.atoms, fields.w, fields.a):
                if a > 0.0:
                    rows.append((tc, v, wt, w, a))
    return rows


# ---------------------------------------------------------------------------
# Test functions


def finite_difference_mismatch(tf: TestFunction, n: int = 2001, h: float = 1e-6) -> float:
    """Max |df - centered difference of f| over the support interior."""
    lo, hi = tf.support
    pad = (hi - lo) * 1e-3
    xs = np.linspace(lo + pad, hi - pad, n)
    fd = (tf.f(xs + h) - tf.f(xs - h)) / (2.0 * h)
    return float(np.abs(tf.df(xs) - fd).max())


# ---------------------------------------------------------------------------
# Quadratic dominance


def lemma_quadratic_dominance(
    q1: QuadraticPath,
    q2: QuadraticPath,
    t0: float,
    t1: float,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Whether q1(s) > q2(s) for every s > t1, decided by root analysis.

    Preconditions (raised as PreconditionViolated otherwise): q1 != q2,
    q1.c2 >= q2.c2, t0 < t1, q1(t0) <= q2(t0) and q1(t1) >= q2(t1).  Under
    these the answer is provably always True; the function still decides from
    the roots so it can serve as a self-test.
    """
    if (q1.c0, q1.c1, q1.c2) == (q2.c0, q2.c1, q2.c2):
        raise PreconditionViolated("paths must differ")
    if q1.c2 < q2.c2:
        raise PreconditionViolated("leading coefficients must satisfy q1.c2 >= q2.c2")
    if not t0 < t1:
        raise PreconditionViolated("need t0 < t1")
    # boundary values at a computed crossing agree only to rounding
    band0 = tol.rel_tol * max(1.0, abs(q1(t0)), abs(q2(t0)))
    band1 = tol.rel_tol * max(1.0, abs(q1(t1)), abs(q2(t1)))
    if q1(t0) > q2(t0) + band0:
        raise PreconditionViolated("need q1(t0) <= q2(t0)")
    if q1(t1) < q2(t1) - band1:
        raise PreconditionViolated("need q1(t1) >= q2(t1)")

    a = 0.5 * (q1.c2 - q2.c2)
    b = q1.c1 - q2.c1
    c = q1.c0 - q2.c0
    if a == 0.0:
        roots = [] if b == 0.0 else [MeetTime(-c / b)]
    else:
        roots = _real_roots(a, b, c, tol)
    # roots landing within rounding of t1 itself are boundary, not violations
    boundary = t1 + tol.event_tol(t1)
    if any(r.time > boundary for r in roots):
        return False
    probe = max([t1] + [r.time for r in roots]) + 1.0
    diff = QuadraticPath(c, b, 2.0 * a)
    return diff(probe) > 0.0
