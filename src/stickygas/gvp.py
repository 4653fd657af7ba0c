"""Variational characterization of the cluster partition.

At time t, move every atom freely to eta_t(x) = x + t*u0(x) + (t^2/2)*g0(x)
and compare mass-weighted interval averages of eta_t.  An index starts a
cluster iff every average over a range ending just before it stays strictly
below every average over a range starting at it.  Index k ends a cluster
iff k+1 starts one (or k = N-1): the right-endpoint test is the left test
shifted by one index, so the left test alone certifies both ends.  Pairing
the certified endpoints in order reconstructs the partition without ever
running the collision dynamics.

The certification is only guaranteed for non-increasing acceleration
profiles, and degenerates to equalities exactly at shock times; callers
sample away from shocks.  A time has N-1 split margins, one per left
endpoint 1..N-1.  Averages are slopes between cumulative mass and moment
points, so all N-1 margins are read off their lower convex hull in O(N)
(Brenier & Grenier 1998, "Sticky particles and scalar conservation laws").
The per-index left-endpoint test stays as the independent, O(N)-each
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import ShockTimeline
from .errors import InadmissibleData, InconsistentEndpoints, IndexOutOfRange, PreconditionViolated
from .model import InitialData
from .tolerances import DEFAULT_TOL, Tolerances


@dataclass(frozen=True, eq=False)
class GvpFunctional:
    """Prefix-summed interval averages of the free-flight map eta_t."""

    data: InitialData
    t: float
    tol: Tolerances = field(default=DEFAULT_TOL)

    @cached_property
    def _prefix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        d = self.data
        pm = np.concatenate([[0.0], np.cumsum(d.masses)])
        if not np.all(np.diff(pm) > 0):  # a mass lost against the running total
            raise PreconditionViolated("prefix masses do not strictly increase in binary64")
        px = np.concatenate([[0.0], np.cumsum(d.masses * d.positions)])
        pv = np.concatenate([[0.0], np.cumsum(d.masses * d.velocities)])
        pth = np.concatenate([[0.0], np.cumsum(d.masses * d.accelerations)])
        return pm, px, pv, pth

    def _avg(self, num_m, num_x, num_v, num_th):
        t = self.t
        return (num_x + t * num_v + 0.5 * t * t * num_th) / num_m

    def interval_average(self, a: int, b: int) -> float:
        """Mass-weighted average of eta_t over indices [a, b]."""
        if not 0 <= a <= b < self.data.n:
            raise IndexOutOfRange(f"interval [{a}, {b}] outside 0..{self.data.n - 1}")
        pm, px, pv, pth = self._prefix
        return float(self._avg(
            pm[b + 1] - pm[a], px[b + 1] - px[a],
            pv[b + 1] - pv[a], pth[b + 1] - pth[a]))

    def _avgs_ending_before(self, stop: int) -> np.ndarray:
        """avg over [i, stop-1] for all i < stop."""
        pm, px, pv, pth = self._prefix
        return self._avg(pm[stop] - pm[:stop], px[stop] - px[:stop],
                         pv[stop] - pv[:stop], pth[stop] - pth[:stop])

    def _avgs_starting_at(self, start: int) -> np.ndarray:
        """avg over [start, j] for all j >= start."""
        pm, px, pv, pth = self._prefix
        return self._avg(pm[start + 1:] - pm[start], px[start + 1:] - px[start],
                         pv[start + 1:] - pv[start], pth[start + 1:] - pth[start])

    def left_endpoint_margin(self, alpha: int) -> float:
        """min(right averages) - max(left averages); +inf for index 0."""
        if not 0 <= alpha < self.data.n:
            raise IndexOutOfRange(f"index {alpha}")
        if alpha == 0:
            return math.inf
        lefts = self._avgs_ending_before(alpha)
        rights = self._avgs_starting_at(alpha)
        return float(rights.min() - lefts.max())

    @cached_property
    def split_margins(self) -> np.ndarray:
        """m[k] = min_{j>k} avg[k+1, j] - max_{i<=k} avg[i, k] for k < N-1.

        avg[a, b] is the slope from P_a to P_{b+1}, P_p = (sum_{j<p} m_j,
        sum_{j<p} m_j eta_t(x_j)): the max sits at P_{k+1}'s predecessor on the
        lower hull of P_0..P_{k+1}, the min at its successor on the hull of
        P_{k+1}..P_N (Brenier & Grenier 1998), one O(N) monotone-chain sweep
        each.  Popping compares _avg floats, not cross products (which can rank
        nearly collinear points apart from them), so entry k is
        left_endpoint_margin(k+1) float for float; only at shock times may
        exactly collinear points round apart by a few ulps."""
        n, t = self.data.n, float(self.t)
        h = 0.5 * t * t
        pm, px, pv, pth = (p.tolist() for p in self._prefix)

        def avg(a: int, b: int) -> float:  # _avg over [a, b-1], on Python floats
            return (px[b] - px[a] + t * (pv[b] - pv[a]) + h * (pth[b] - pth[a])) / (pm[b] - pm[a])

        def sweep(order, value) -> list[float]:  # max of value(q, p) over q before p
            best, hull = [], [order[0]]
            for p in order[1:]:
                while len(hull) > 1 and value(hull[-1], p) <= value(hull[-2], p):
                    hull.pop()
                best.append(value(hull[-1], p))
                hull.append(p)
            return best

        lefts = sweep(range(n), avg)  # max_{i<=k} avg[i, k]
        neg_rights = sweep(range(n, 0, -1), lambda q, p: -avg(p, q))  # k = N-2 down to 0
        return np.subtract([-r for r in reversed(neg_rights)], lefts)


def interior_condition(F: GvpFunctional, g: int, d: int, y: int) -> bool:
    """Interior inequality at split y of interval [g, d]: the average over
    [g, y-1] must not fall below the average over [y, d]."""
    if not (0 <= g < y <= d < F.data.n):
        raise IndexOutOfRange(f"need g < y <= d, got g={g}, y={y}, d={d}")
    return F.tol.geq(F.interval_average(g, y - 1), F.interval_average(y, d))


def is_left_endpoint(F: GvpFunctional, alpha: int) -> bool:
    """Left-endpoint certificate; index 0 qualifies by convention.  The band
    |lhs - rhs| <= abs_tol counts as equality and fails the strict test."""
    margin = F.left_endpoint_margin(alpha)
    return margin is math.inf or margin > F.tol.abs_tol


def endpoint_tie_indices(F: GvpFunctional) -> list[int]:
    """Indices whose endpoint test sits within tolerance of equality: both
    sides k and k+1 of every split margin with |m[k]| <= abs_tol.

    Such ties are expected exactly at shock times; anywhere else they are
    flagged for the caller rather than silently resolved."""
    tied = np.flatnonzero(np.abs(F.split_margins) <= F.tol.abs_tol).tolist()
    return sorted({*tied, *(k + 1 for k in tied)})


def _certified_intervals(F: GvpFunctional) -> tuple[tuple[int, int], ...]:
    """Cut after k iff split margin k certifies (m[k] > abs_tol).  Margin k is
    the left test of k+1, which also certifies k as a right endpoint, so the
    certified endpoints always pair into a contiguous cover."""
    cuts = np.flatnonzero(F.split_margins > F.tol.abs_tol).tolist()
    return tuple(zip([0] + [k + 1 for k in cuts], cuts + [F.data.n - 1]))


def require_admissible(data: InitialData) -> None:
    """InadmissibleData unless the acceleration profile is non-increasing."""
    if not data.gvp_admissible:
        raise InadmissibleData(
            "acceleration increases somewhere; endpoint certification is only "
            "guaranteed for non-increasing profiles (a pair with increasing "
            "acceleration re-crosses after its shock, breaking the inequality)")


def clusters_from_gvp(
    data: InitialData,
    t: float,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[tuple[int, int], ...]:
    """Partition at time t reconstructed from endpoint certificates alone, as
    the ordered (left, right) index intervals of its clusters.

    Within the abs_tol band a margin counts as equality and does not cut, so
    a time on a shock gives the merged side.  InadmissibleData unless the
    acceleration profile is non-increasing.
    """
    require_admissible(data)
    return _certified_intervals(GvpFunctional(data, t, tol=tol))


def classical_clusters(
    data: InitialData, t: float, tol: Tolerances = DEFAULT_TOL
) -> tuple[tuple[int, int], ...]:
    """Reference partition from the classical principle (no acceleration term).

    Deliberately independent of GvpFunctional: plain loops over eta = x + t*u0,
    used as the cross-check for the zero-acceleration reduction.
    """
    n = data.n
    eta = [data.positions[j] + t * data.velocities[j] for j in range(n)]
    m = list(data.masses)

    def avg(a: int, b: int) -> float:
        tot = wsum = 0.0
        for j in range(a, b + 1):
            tot += m[j]
            wsum += m[j] * eta[j]
        return wsum / tot

    def left_ok(i: int) -> bool:
        if i == 0:
            return True
        worst_left = max(avg(i1, i - 1) for i1 in range(i))
        best_right = min(avg(i, j) for j in range(i, n))
        return worst_left < best_right - tol.abs_tol

    def right_ok(i: int) -> bool:
        if i == n - 1:
            return True
        worst_left = max(avg(i1, i) for i1 in range(i + 1))
        best_right = min(avg(i + 1, j) for j in range(i + 1, n))
        return worst_left < best_right - tol.abs_tol

    lefts = [i for i in range(n) if left_ok(i)]
    rights = [i for i in range(n) if right_ok(i)]
    if len(lefts) != len(rights):
        raise InconsistentEndpoints(f"classical endpoints mismatch at t={t}")
    return tuple(zip(lefts, rights))


@dataclass(frozen=True)
class GvpComparison:
    time: float
    simulated: tuple[tuple[int, int], ...]
    reconstructed: tuple[tuple[int, int], ...]
    match: bool
    ties: tuple[int, ...] = ()


@dataclass(frozen=True)
class GvpEquivalenceReport:
    data: InitialData
    entries: tuple[GvpComparison, ...]

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.entries)

    @property
    def mismatches(self) -> tuple[GvpComparison, ...]:
        return tuple(e for e in self.entries if not e.match)


def gvp_equivalence_check(
    timeline: ShockTimeline, times: Sequence[float]
) -> GvpEquivalenceReport:
    """Compare the variational partition, cut at the run's tolerances,
    against the simulated one per time.

    Runs the endpoint tests regardless of admissibility so that increasing
    profiles can demonstrate their failure mode; the report carries every
    mismatch plus any within-tolerance endpoint ties."""
    data = timeline.initial
    entries = []
    for t in times:
        sim = timeline.partition_at(t)
        F = GvpFunctional(data, t, timeline.tol)
        ties = tuple(endpoint_tie_indices(F))
        gvp = _certified_intervals(F)
        entries.append(GvpComparison(t, sim, gvp, gvp == sim, ties))
    return GvpEquivalenceReport(data, tuple(entries))
