"""Flow map and Eulerian fields over a completed timeline.

The flow map sends each initial position to its cluster's barycenter; the
velocity and acceleration of a particle depend only on its cluster, so they
factor through the current position as Eulerian fields on the support of
the transported mass measure.  Conditioning a random initial atom on its
current position is exact cluster grouping -- the conditional-expectation
identities are evaluated that way, with the direct weighted sums as the
independent side and the timeline's stored paths as the checked side.  The
right derivatives of the flow are checked against the same conditional
expectations by forward differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Life, ShockTimeline
from .errors import UndefinedFieldPoint
from .model import Cluster


def _cluster_sums(timeline: ShockTimeline, cluster: Cluster, t: float):
    """Direct compensated sums: E[.|cluster] reference values at time t."""
    x, m, v, th = timeline.initial.atoms
    t = float(t)
    g, r = cluster.interval
    idx = range(g, r + 1)
    mass = math.fsum(m[j] for j in idx)
    pos = math.fsum(m[j] * (x[j] + t * (v[j] + 0.5 * t * th[j])) for j in idx) / mass
    vel = math.fsum(m[j] * (v[j] + t * th[j]) for j in idx) / mass
    acc = math.fsum(m[j] * th[j] for j in idx) / mass
    return pos, vel, acc


@dataclass(frozen=True, eq=False)
class FlowField:
    """Lagrangian evaluators keyed by initial position, Eulerian ones by
    current position (defined only on the support, never extrapolated);
    points are matched within the run's abs_tol."""

    timeline: ShockTimeline

    def _index_of(self, x0: float) -> int:
        xs = self.timeline.initial.positions
        j = int(np.searchsorted(xs, x0))
        for k in (j - 1, j):
            if 0 <= k < len(xs) and abs(xs[k] - x0) <= self.timeline.tol.abs_tol:
                return k
        raise UndefinedFieldPoint(f"{x0} is not an initial particle position")

    def phi(self, x0: float, t: float) -> float:
        return float(self.timeline.positions_at(t)[self._index_of(x0)])

    def velocity(self, x0: float, t: float) -> float:
        return float(self.timeline.velocities_at(t)[self._index_of(x0)])

    def acceleration(self, x0: float, t: float) -> float:
        return float(self.timeline.accelerations_at(t)[self._index_of(x0)])

    def _life_at(self, y: float, t: float) -> Life:
        for r in self.timeline.rows_at(t).tolist():
            life = self.timeline.lives[r]
            if abs(life.path(t) - y) <= self.timeline.tol.abs_tol:
                return life
        raise UndefinedFieldPoint(f"{y} is not in the support at t={t}")

    def u(self, y: float, t: float) -> float:
        return self._life_at(y, t).path.derivative(t)

    def gamma(self, y: float, t: float) -> float:
        return self._life_at(y, t).cluster.acceleration


@dataclass(frozen=True)
class IdentityResiduals:
    r_pos: float
    r_vel: float
    r_acc: float
    scale_pos: float
    scale_vel: float
    scale_acc: float

    def first_failure(self) -> tuple[str, float] | None:
        """The first identity (label, residual) whose residual is not within
        1e-12 * (1 + its scale), a NaN included; None when all three pass."""
        for label, value, scale in (("position", self.r_pos, self.scale_pos),
                                    ("velocity", self.r_vel, self.scale_vel),
                                    ("acceleration", self.r_acc, self.scale_acc)):
            if not value <= 1e-12 * (1.0 + scale):
                return label, value
        return None


def dermoune_identity_residuals(timeline: ShockTimeline, t: float) -> IdentityResiduals:
    """Max-over-clusters residuals of the conditional-expectation identities.

    Left sides come from the timeline's stored quadratic paths, right sides
    from direct compensated sums over the initial data; at the discrete level
    the identities are exact barycenter identities, so residuals measure the
    engine's arithmetic consistency."""
    r_pos = r_vel = r_acc = 0.0
    s_pos = s_vel = s_acc = 0.0
    for r in timeline.rows_at(t).tolist():
        cluster, path, *_ = timeline.lives[r]
        pos, vel, acc = _cluster_sums(timeline, cluster, t)
        r_pos = max(r_pos, abs(path(t) - pos))
        r_vel = max(r_vel, abs(path.derivative(t) - vel))
        r_acc = max(r_acc, abs(cluster.acceleration - acc))
        s_pos = max(s_pos, abs(pos))
        s_vel = max(s_vel, abs(vel))
        s_acc = max(s_acc, abs(acc))
    return IdentityResiduals(r_pos, r_vel, r_acc, s_pos, s_vel, s_acc)


@dataclass(frozen=True)
class DerivativeProbe:
    h: float
    crossed_event: bool
    max_pos_error: float          # |forward difference - E[u0 + t*g0 | X_t]|
    max_pos_error_vs_predicted: float  # deviation from the exact h/2*|theta| law
    max_vel_error: float          # |forward difference - E[g0 | X_t]|


@dataclass(frozen=True)
class RightDerivativeReport:
    t: float
    probes: tuple[DerivativeProbe, ...]

    @property
    def clean_probes(self) -> tuple[DerivativeProbe, ...]:
        return tuple(p for p in self.probes if not p.crossed_event)

    @property
    def observed_position_order(self) -> float | None:
        """Log-log slope of position FD error vs h over clean probes."""
        pts = [(p.h, p.max_pos_error) for p in self.clean_probes if p.max_pos_error > 1e-14]
        if len(pts) < 2:
            return None
        hs = np.log([p[0] for p in pts])
        es = np.log([p[1] for p in pts])
        return float(np.polyfit(hs, es, 1)[0])


def right_derivative_check(
    timeline: ShockTimeline,
    t: float,
    h_list: Sequence[float],
) -> RightDerivativeReport:
    """Forward differences of the flow against conditional expectations.

    Positions are quadratic per segment, so once h stays below the gap to
    the next shock the difference quotient misses the reference by exactly
    h/2 times the cluster acceleration; velocities are affine, so their
    quotient is exact up to rounding.  Probes whose step crosses a shock are
    marked and carry no accuracy claim (the cluster changes under them)."""
    gap = timeline.time_to_next_event(t)
    ref_vel = np.empty(timeline.initial.n)
    ref_acc = np.empty(timeline.initial.n)
    pred = np.empty(timeline.initial.n)
    for r in timeline.rows_at(t).tolist():
        cluster = timeline.lives[r].cluster
        g, d = cluster.interval
        _, vel, acc = _cluster_sums(timeline, cluster, t)
        ref_vel[g : d + 1] = vel
        ref_acc[g : d + 1] = acc
        pred[g : d + 1] = 0.5 * abs(cluster.acceleration)
    x_t = timeline.positions_at(t)
    v_t = timeline.velocities_at(t)
    probes = []
    for h in h_list:
        if t + h > timeline.t_end:
            continue
        crossed = h >= gap
        fd_pos = (timeline.positions_at(t + h) - x_t) / h
        fd_vel = (timeline.velocities_at(t + h) - v_t) / h
        pos_err = np.abs(fd_pos - ref_vel)
        probes.append(DerivativeProbe(
            h, crossed,
            float(pos_err.max()),
            float(np.abs(pos_err - h * pred).max()),
            float(np.abs(fd_vel - ref_acc).max()),
        ))
    return RightDerivativeReport(t, tuple(probes))

