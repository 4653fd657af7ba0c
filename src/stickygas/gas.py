"""Weak-solution residuals for both pressureless gas formulations.

Position space: the transported mass law and its momentum satisfy the
continuity and forced momentum equations with source gamma*rho and no jump
terms (positions are continuous through shocks and momentum is conserved).

Velocity space: the law of the velocity process satisfies transport
equations whose flux coefficients are the conditional mean acceleration w
and the raw second moment w^2 + a (a being the conditional variance of the
cluster acceleration given the velocity).  Velocities jump at shocks, so
the jumps of the law at the shock times inside the window enter the
right-hand side; residuals are reported with and without them.

One kernel serves both systems.  Its state Y is the position X (rate V,
forcing Gamma) or the velocity V (rate Gamma, no forcing); Gamma is a
cluster path's c2.  Every term reads the timeline's column arrays.  The
endpoint terms E[f(Y)] and E[f(Y) rate] are mass-weighted sums over the
rows alive at t1 and at t2 (`ShockTimeline.rows_at`).  Every other term is
a sum over the at most 2N-1 lives of the merge tree, each on one quadratic
path (E, Rykov & Sinai 1996; Brenier & Grenier 1998): a jump adds the lives
born at a shock in (t1, t2] and subtracts those that end there, and
E[f'(Y) rate], E[f'(Y) rate^2] and E[f(Y) Gamma] are integrated over each
life's span inside [t1, t2].  Inside these expectations the conditioning on
the velocity collapses (tower property), so the residuals never group
clusters by velocity; the grouping is kept for what needs the conditional
variance a.  The threshold-crossing measure reads the same born and ended
lives at shocks as the residual jumps.

A life's span is split only where its own Y crosses a knot of the test
function.  On each piece every integrand is a polynomial in t (degree <= 12
for the built-in test functions), so a fixed 8-node Gauss-Legendre rule,
exact to degree 15, gives the integral up to rounding; all pieces of all
lives go through it in one pass.  The reported `quad_error` is the sum over
pieces of |G8 - G7|, the gap to the 7-node rule (exact to degree 13):
rounding-level for the built-in test functions, a real error estimate for a
test function that is not piecewise polynomial (see TestFunction).

a is nonzero only where clusters with distinct accelerations share a
velocity, so congestion rows are written only for atoms that hold two or
more distinct accelerations, at the times where two velocity lines cross.
One sweep finds them (`congestion_rows`): two lines lie within abs_tol only
on a band of times around their crossing, so the pairs whose band covers a
crossing time, with the lines of one acceleration chained to them, hold
every such atom, and the velocity law is built at no time.  The law at one
time (`velocity_space_fields`) serves the initial-limit and continuity
checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .dynamics import ShockTimeline, horizon_of
from .errors import WindowOutOfRange
from .model import InitialData
from .testfunctions import TestFunction
from .tolerances import DEFAULT_TOL, Tolerances

RESIDUAL_FLOOR = 1e-8

Atoms = tuple[tuple[float, float], ...]  # a velocity law: (velocity, weight) pairs


@cache
def _gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the n-node Gauss-Legendre rule on
    [-1, 1]: eigenvalues of the Jacobi matrix and the squared first
    components of its eigenvectors (Golub & Welsch 1969).  Agrees with
    numpy.polynomial.legendre.leggauss to rounding; importing that package
    would cost every command 1.5 MB and a few ms, and this LAPACK call
    another 0.9 MB, so the rule is built on first use only."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    test_function: str
    window: tuple[float, float]
    lhs: float
    transport: float
    source: float
    jump: float
    quad_error: float

    @property
    def residual(self) -> float:
        return self.lhs - self.transport - self.source - self.jump

    @property
    def residual_without_jumps(self) -> float:
        return self.lhs - self.transport - self.source

    @property
    def passes(self) -> bool:
        return abs(self.residual) <= max(10.0 * self.quad_error, RESIDUAL_FLOOR)


def _check_window(timeline: ShockTimeline, t1: float, t2: float) -> None:
    if not (0.0 < t1 < t2 <= timeline.t_end and math.isfinite(t2)):
        raise WindowOutOfRange(
            f"need 0 < t1 < t2 <= {timeline.t_end}, t2 finite, got ({t1}, {t2})")


def _knot_crossings(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                    knots: Sequence[float], lo, hi) -> np.ndarray:
    """Times at which each path c0 + c1 t + c2 t^2 / 2 crosses a knot inside
    its own span (lo, hi), one row per path (lo and hi are one value per
    path, or one for all), nan where a knot gives no such time: both roots
    of a quadratic with positive discriminant, the root of an affine path,
    nothing for a constant one."""
    c0, c1, c2 = (np.asarray(c, dtype=float)[:, None] for c in (c0, c1, c2))
    lo, hi = (np.asarray(x, dtype=float).reshape(-1, 1) for x in (lo, hi))
    knots = np.asarray(knots, dtype=float)  # rows are paths, columns knots
    with np.errstate(all="ignore"):
        disc = c1 * c1 - 2.0 * c2 * (c0 - knots)
        sq = np.sqrt(disc)
        quadratic = (c2 != 0.0) & (disc > 0.0)
        affine = (c2 == 0.0) & (c1 != 0.0)
        # nan marks no root and drops out of the comparisons below
        roots = np.hstack([np.where(quadratic, (-c1 - sq) / c2, np.nan),
                           np.where(quadratic, (-c1 + sq) / c2, np.nan),
                           np.where(affine, (knots - c0) / c1, np.nan)])
    return np.where((lo < roots) & (roots < hi), roots, np.nan)


def _gauss_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nodes of the 8-node rule, then of the 7-node rule, on each piece
    [a[i], b[i]]: one row of 15 times per piece."""
    nodes = np.concatenate([_gauss_legendre_rule(8)[0], _gauss_legendre_rule(7)[0]])
    return 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes


def _gauss_legendre(a: np.ndarray, b: np.ndarray,
                    values: Sequence[np.ndarray]) -> list[tuple[float, float]]:
    """Integrals over the pieces [a[i], b[i]] of functions given by their
    values at `_gauss_nodes(a, b)`: per function, the summed 8-node rule
    and the summed |G8 - G7| gap to the 7-node rule."""
    w8, w7 = _gauss_legendre_rule(8)[1], _gauss_legendre_rule(7)[1]
    half = 0.5 * (b - a)
    g = [(half * (vals[:, :8] @ w8), half * (vals[:, 8:] @ w7)) for vals in values]
    return [(float(g8.sum()), float(np.abs(g8 - g7).sum())) for g8, g7 in g]


# ---------------------------------------------------------------------------
# One kernel for both systems (see the module docstring)


def _state(t, c0, c1, c2, velocity: bool) -> tuple[np.ndarray, np.ndarray]:
    """Y and its rate dY/dt at times t on the paths c0 + c1 t + c2 t^2 / 2,
    c2 being the cluster acceleration (t broadcasts against the
    coefficients)."""
    if velocity:
        return c1 + t * c2, c2
    return c0 + t * (c1 + 0.5 * t * c2), c1 + t * c2


def _moments(f: TestFunction, t, wgt, c0, c1, c2, velocity: bool) -> tuple[float, float]:
    """Sums of wgt f(Y) and wgt f(Y) rate over clusters, at time t (one for
    all or one per cluster)."""
    y, rate = _state(t, c0, c1, c2, velocity)
    fy = f(y)
    return float(wgt @ fy), float(wgt @ (fy * rate))


def _shock_lives(timeline: ShockTimeline, t1: float, t2: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lives born at a shock in (t1, t2], then those that end at one:
    their rows in `timeline.columns`, the time of each row's shock, and its
    sign (+1 born, -1 ended).  A life of segment 0 is born at no shock (t1
    may be <= 0), and a life alive at t_end ends at none."""
    first, last = timeline.columns.first, timeline.columns.last
    bounds = np.asarray(timeline.bounds)
    born, ends = bounds[first], bounds[last + 1]
    births = (first > 0) & (t1 < born) & (born <= t2)
    deaths = (last < timeline.n_segments - 1) & (t1 < ends) & (ends <= t2)
    rows = np.concatenate([births.nonzero()[0], deaths.nonzero()[0]])
    sign = np.repeat([1.0, -1.0], [np.count_nonzero(births), np.count_nonzero(deaths)])
    return rows, np.concatenate([born[births], ends[deaths]]), sign


def _weak_form(
    timeline: ShockTimeline, f: TestFunction, t1: float, t2: float, velocity: bool
) -> tuple[tuple[float, float], tuple[float, float], list[tuple[float, float]]]:
    """Endpoint differences and shock jumps over (t1, t2] of (E[f(Y)],
    E[f(Y) rate]), and the (integral, quad_error) pairs of E[f'(Y) rate],
    E[f'(Y) rate^2] and, in position space, E[f(Y) Gamma] over [t1, t2].

    Positions are continuous through shocks and momentum is conserved, so the
    position-space jumps vanish and are not summed."""
    _check_window(timeline, t1, t2)
    c = timeline.columns
    wgt = c.mass / timeline.total_mass
    path = (c.c0, c.c1, c.c2)
    r2, r1 = timeline.rows_at(t2), timeline.rows_at(t1)
    at2 = _moments(f, t2, wgt[r2], *(p[r2] for p in path), velocity)
    at1 = _moments(f, t1, wgt[r1], *(p[r1] for p in path), velocity)
    lhs = (at2[0] - at1[0], at2[1] - at1[1])

    bounds = np.asarray(timeline.bounds)
    born, ends = bounds[c.first], bounds[c.last + 1]
    jumps = (0.0, 0.0)
    if velocity:
        rows, times, sign = _shock_lives(timeline, t1, t2)
        jumps = _moments(f, times, sign * wgt[rows], *(p[rows] for p in path), velocity)

    # each life's span inside [t1, t2] (empty outside it), cut at its own
    # crossings; nan sorts last and empty pieces drop out
    lo = np.maximum(born, t1)
    hi = np.maximum(np.minimum(ends, t2), lo)
    c0, c1, c2 = path
    crossings = _knot_crossings(*((c1, c2, np.zeros_like(c2)) if velocity else path),
                                f.knots, lo, hi)
    cuts = np.sort(np.column_stack([lo, crossings, hi]), axis=1)
    rows, cols = (cuts[:, 1:] > cuts[:, :-1]).nonzero()
    a, b = cuts[rows, cols], cuts[rows, cols + 1]
    c0, c1, c2, w = (x[rows, None] for x in (c0, c1, c2, wgt))
    y, rate = _state(_gauss_nodes(a, b), c0, c1, c2, velocity)
    flux = f.prime(y) * rate
    values = [w * flux, w * (flux * rate)]
    if not velocity:
        values.append(w * (f(y) * c2))
    return lhs, jumps, _gauss_legendre(a, b, values)


# ---------------------------------------------------------------------------
# Position space


def position_space_residuals(
    timeline: ShockTimeline,
    f: TestFunction,
    t1: float,
    t2: float,
) -> tuple[ResidualReport, ResidualReport]:
    """Weak residuals of the continuity and forced momentum equations for the
    position law, over [t1, t2].  Jump columns are identically zero here."""
    (mass, momentum), _, ((tr1, e1), (tr2, e2), (src, e3)) = _weak_form(
        timeline, f, t1, t2, velocity=False)
    mass_eq = ResidualReport("position/mass", f.name, (t1, t2),
                             mass, tr1, 0.0, 0.0, e1)
    momentum_eq = ResidualReport("position/momentum", f.name, (t1, t2),
                                 momentum, tr2, src, 0.0, e2 + e3)
    return mass_eq, momentum_eq


# ---------------------------------------------------------------------------
# Velocity space


@dataclass(frozen=True)
class VelocityFields:
    """Velocity law and conditional fields at one time.

    Atom-aligned tuples: w[i] is the conditional mean acceleration at
    atoms[i], a[i] the conditional variance.  tol is the policy of the
    run the fields were read from; it groups the atoms and finds them."""

    t: float
    atoms: Atoms
    w: tuple[float, ...]
    a: tuple[float, ...]
    tol: Tolerances

    def _lookup(self, v: float) -> int:
        for i, (loc, _) in enumerate(self.atoms):
            if abs(loc - v) <= self.tol.abs_tol:
                return i
        raise KeyError(f"no velocity atom at {v}")

    def w_at(self, v: float) -> float:
        return self.w[self._lookup(v)]

    def a_at(self, v: float) -> float:
        return self.a[self._lookup(v)]


def _atom_moments(
    v: np.ndarray, wg: np.ndarray, g: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weight, mean velocity, and weighted mean w and variance a of the
    accelerations g, per atom: the runs of the velocity-sorted v, wg, g that
    begin at `starts`.  An atom whose accelerations all share one value has
    that value as w and a = 0 exactly; the weighted mean of equal values
    need not round back to the value, and the variance would then be a
    rounding residue."""
    sizes = np.diff(np.append(starts, len(v)))
    # "+ 0.0" turns a -0.0 sum into 0.0, as ndarray.sum does
    weight = np.add.reduceat(wg, starts) + 0.0
    vbar = (np.add.reduceat(wg * v, starts) + 0.0) / weight
    w = (np.add.reduceat(wg * g, starts) + 0.0) / weight
    # centered form keeps the variance nonnegative in floating point
    a = (np.add.reduceat(wg * (g - np.repeat(w, sizes)) ** 2, starts) + 0.0) / weight
    # reduceat adds sequentially, ndarray.sum does not from 3 terms on: keep
    # the ndarray.sum floats for larger groups
    for k in np.flatnonzero(sizes > 2):
        sel = slice(starts[k], starts[k] + sizes[k])
        weight[k] = wg[sel].sum()
        vbar[k] = (wg[sel] * v[sel]).sum() / weight[k]
        w[k] = (wg[sel] * g[sel]).sum() / weight[k]
        a[k] = (wg[sel] * (g[sel] - w[k]) ** 2).sum() / weight[k]
    single = np.minimum.reduceat(g, starts) == np.maximum.reduceat(g, starts)
    w[single] = g[starts[single]] + 0.0
    a[single] = 0.0
    return weight, vbar, w, a


def _group_velocity_atoms(
    vels: np.ndarray, wgts: np.ndarray, gammas: np.ndarray, tol: Tolerances
) -> tuple[Atoms, tuple[float, ...], tuple[float, ...]]:
    """Velocity atoms (chained within tol.abs_tol after a stable sort) with
    the weighted mean and variance of gammas per atom (`_atom_moments`)."""
    order = np.argsort(vels, kind="stable")
    v, wg, g = vels[order], wgts[order], gammas[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(v) > tol.abs_tol) + 1))
    weight, vbar, w, a = _atom_moments(v, wg, g, starts)
    return tuple(zip(vbar.tolist(), weight.tolist())), tuple(w.tolist()), tuple(a.tolist())


def velocity_space_fields(timeline: ShockTimeline, t: float) -> VelocityFields:
    """Law of the velocity process at t (right-continuous) with the
    conditional mean / variance of the cluster acceleration given velocity."""
    c, rows = timeline.columns, timeline.rows_at(t)
    gamma = c.c2[rows]
    atoms, w, a = _group_velocity_atoms(c.c1[rows] + t * gamma,
                                        c.mass[rows] / timeline.total_mass, gamma, timeline.tol)
    return VelocityFields(t, atoms, w, a, timeline.tol)


def velocity_space_residuals(
    timeline: ShockTimeline,
    f: TestFunction,
    t1: float,
    t2: float,
) -> tuple[ResidualReport, ResidualReport]:
    """Weak residuals of the velocity-space system over [t1, t2].

    Against the law, f w, f' w and f' (w^2 + a) integrate to E[f(V)Gamma],
    E[f'(V)Gamma] and E[f'(V)Gamma^2] (tower property), so every term,
    endpoints and jumps included, is a sum over clusters and no velocity
    grouping is needed."""
    (mass, momentum), (j_mass, j_momentum), ((tr1, e1), (tr2, e2)) = _weak_form(
        timeline, f, t1, t2, velocity=True)
    mass_eq = ResidualReport("velocity/mass", f.name, (t1, t2),
                             mass, tr1, 0.0, j_mass, e1)
    momentum_eq = ResidualReport("velocity/momentum", f.name, (t1, t2),
                                 momentum, tr2, 0.0, j_momentum, e2)
    return mass_eq, momentum_eq


def threshold_crossing_measure(
    timeline: ShockTimeline,
    interval: tuple[float, float],
    t1: float,
    t2: float,
) -> float:
    """Expected net entries-minus-exits of the velocity process into the
    closed interval across shocks in (t1, t2]."""
    lo, hi = interval
    if not t1 < t2:
        raise WindowOutOfRange(f"need t1 < t2, got ({t1}, {t2})")
    rows, times, sign = _shock_lives(timeline, t1, t2)
    c = timeline.columns
    v = c.c1[rows] + times * c.c2[rows]
    inside = (v >= lo) & (v <= hi)
    return float((sign * c.mass[rows] / timeline.total_mass) @ inside)


# ---------------------------------------------------------------------------
# Congestion term and initial limits


def velocity_coincidence_times(
    timeline: ShockTimeline,
    t_max: float | None = None,
) -> list[float]:
    """Times at which two distinct clusters share a velocity (affine crossings
    of velocity paths inside their segment); the only times a(., t) can be
    nonzero away from shocks."""
    if t_max is None:
        t_max = horizon_of(timeline)
    c = timeline.columns
    first, last, c1, c2 = c.first, c.last, c.c1, c.c2
    bounds = np.asarray(timeline.bounds)
    found = [np.empty(0)]
    # Lives a < b coexist on segments lo..hi; tc counts strictly inside one of
    # them and below t_max (either order of a pair gives the same float, and
    # equal accelerations or an overflow give +-inf or nan, which drop out).
    with np.errstate(all="ignore"):
        for a in range(len(first) - 1):
            lo = np.maximum(first[a + 1 :], first[a])
            hi = np.minimum(last[a + 1 :], last[a])
            tc = (c1[a + 1 :] - c1[a]) / (c2[a] - c2[a + 1 :])
            j = np.searchsorted(bounds, tc)  # bounds[j - 1] < tc <= bounds[j]
            keep = ((tc > 0.0) & (tc < t_max) & (lo < j) & (j <= hi + 1)
                    & (bounds[np.minimum(j, len(bounds) - 1)] != tc))
            found.append(tc[keep])
    return sorted(set(np.concatenate(found).tolist()))


def _band_incidences(
    timeline: ShockTimeline, times: np.ndarray, t1: float, t2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of lives a < b with distinct accelerations and every time
    times[k] in [t1, t2] at which both live and their computed velocities
    may lie within abs_tol: arrays (a, b, k), one entry per pair and time.

    Two velocity lines differ by |dc1 + t dc2|, so they lie within abs_tol
    only on a band of times around their crossing.  The band here is wide
    enough that the computed velocities c1 + t c2 of a pair outside it
    differ by more than abs_tol: each velocity is off by at most
    u (|c1| + 2 t |c2|) for the unit roundoff u, and the computed crossing
    time by at most 3u of itself; the band doubles the first allowance and
    takes 4 eps = 8u for the second.  A band that overflows is the pair's
    whole common life.  `times` must be sorted and hold no segment bound,
    so a time inside the common life's closed span has both lives alive."""
    tol = timeline.tol
    c = timeline.columns
    first, last, c1, c2 = c.first, c.last, c.c1, c.c2
    bounds = np.asarray(timeline.bounds)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    mag = np.abs(c1) + 2.0 * t2 * np.abs(c2)
    # only the lives alive somewhere in [t1, t2] can meet a time there
    lives = np.flatnonzero((bounds[first] <= t2) & (bounds[last + 1] >= t1))
    found: list[tuple[np.ndarray, ...]] = []
    with np.errstate(all="ignore"):
        for i, a in enumerate(lives[:-1].tolist()):
            b = lives[i + 1 :]
            lo = np.maximum(first[b], first[a])
            hi = np.minimum(last[b], last[a])
            dc2 = c2[a] - c2[b]
            tc = (c1[b] - c1[a]) / dc2
            half = 2.0 * (tol.abs_tol + eps * (mag[a] + mag[b]) + tiny) / np.abs(dc2) \
                + 4.0 * eps * np.abs(tc)
            start, end = tc - half, tc + half
            whole = ~(np.isfinite(start) & np.isfinite(end))
            start[whole], end[whole] = -np.inf, np.inf
            start = np.maximum(np.maximum(start, bounds[lo]), t1)
            end = np.minimum(np.minimum(end, bounds[hi + 1]), t2)
            keep = (lo <= hi) & (dc2 != 0.0) & (start <= end)
            found.append((np.full(np.count_nonzero(keep), a), b[keep], start[keep], end[keep]))
    if not found:
        return (np.empty(0, dtype=int),) * 3
    pa, pb, start, end = map(np.concatenate, zip(*found))
    k0 = np.searchsorted(times, start, "left")
    count = np.searchsorted(times, end, "right") - k0
    k = np.arange(count.sum()) + np.repeat(k0 - (np.cumsum(count) - count), count)
    return np.repeat(pa, count), np.repeat(pb, count), k


def _parallel_partners(
    timeline: ShockTimeline, rows: np.ndarray, k: np.ndarray, times: np.ndarray, t2: float
) -> tuple[np.ndarray, np.ndarray]:
    """The lives, with the index k of their time, alive at times[k] in one
    run with a life of `rows` given at k.  A run is a chain of lives with one
    acceleration whose consecutive c1 gaps stay within abs_tol plus rounding
    (the allowance of `_band_incidences`).  Lines of one acceleration never
    cross, so two lives of one acceleration whose computed velocities lie
    within abs_tol at a time t <= t2 share a run."""
    tol = timeline.tol
    c = timeline.columns
    order = np.lexsort((c.c1, c.c2))
    s1, s2 = c.c1[order], c.c2[order]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    slack = 2.0 * (tol.abs_tol + eps * (np.abs(s1[1:]) + np.abs(s1[:-1])
                                        + 4.0 * t2 * np.abs(s2[1:])) + tiny)
    joined = (s2[1:] == s2[:-1]) & (s1[1:] - s1[:-1] <= slack)
    if not joined.any():
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    run = np.empty(len(order), dtype=int)
    run[order] = np.cumsum(np.concatenate(([True], ~joined))) - 1
    members = np.split(order, np.flatnonzero(~joined) + 1)
    segment = np.searchsorted(np.asarray(timeline.bounds), times, "right") - 1
    shared = (np.bincount(run) > 1)[run[rows]]
    out_rows, out_k = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for r, kk in set(zip(run[rows[shared]].tolist(), k[shared].tolist())):
        chain = members[r]
        chain = chain[(c.first[chain] <= segment[kk]) & (segment[kk] <= c.last[chain])]
        out_rows.append(chain)
        out_k.append(np.full(len(chain), kk))
    return np.concatenate(out_rows), np.concatenate(out_k)


def congestion_rows(
    timeline: ShockTimeline, t1: float, t2: float
) -> list[tuple[float, float, float, float, float]]:
    """(t, velocity, weight, w, a) of every velocity atom that holds two or
    more distinct accelerations, at every coincidence time t in [t1, t2), in
    order of t and then of velocity: the atoms of `velocity_space_fields`
    with a > 0 at those times, with their floats, but built without the
    law at any of them.

    The members at t are the lives of every pair whose abs_tol band covers
    t (`_band_incidences`; a crossing pair's band covers its crossing) and
    the lives in one run with one of them (`_parallel_partners`).  Any life
    whose computed velocity lies within abs_tol of a member's is then a
    member too, so the members make up whole atoms of the law at t; and an
    atom with two distinct accelerations holds two neighbours in velocity
    order that have them, which makes it a member atom.  One sort orders
    every time's members by velocity, then by row, as the law does, and
    one pass of the law's kernel (`_atom_moments`) chains and weighs them."""
    _check_window(timeline, t1, t2)
    times = np.array([t for t in velocity_coincidence_times(timeline, t2) if t >= t1])
    a, b, k = _band_incidences(timeline, times, t1, t2)
    rows, k = np.concatenate([a, b]), np.concatenate([k, k])
    more_rows, more_k = _parallel_partners(timeline, rows, k, times, t2)
    c = timeline.columns
    lives = len(c.c1)
    # distinct (time, life) keys; np.unique would import numpy.ma on first
    # use, about 20 ms of every gas command
    key = np.sort(np.concatenate([k, more_k]) * lives + np.concatenate([rows, more_rows]))
    if not key.size:
        return []
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    k, rows = np.divmod(key, lives)
    g = c.c2[rows]
    v = c.c1[rows] + times[k] * g
    order = np.lexsort((rows, v, k))
    k, rows, v, g = k[order], rows[order], v[order], g[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = (k[1:] != k[:-1]) | (np.diff(v) > timeline.tol.abs_tol)
    starts = np.flatnonzero(new)
    weight, vbar, w, var = _atom_moments(v, c.mass[rows] / timeline.total_mass, g, starts)
    real = var > 0.0
    return list(zip(times[k[starts]][real].tolist(), vbar[real].tolist(),
                    weight[real].tolist(), w[real].tolist(), var[real].tolist()))


def congestion_onset_delay(data: InitialData, first_shock: float) -> float:
    """Earliest positive crossing time of two initially distinct velocities,
    capped at the first shock; a(., t) vanishes on (0, delay)."""
    delay = first_shock
    v = data.velocities
    th = data.accelerations
    for i in range(data.n):
        for j in range(i + 1, data.n):
            if v[i] == v[j] or th[i] == th[j]:
                continue
            tc = (v[j] - v[i]) / (th[i] - th[j])
            if 0.0 < tc < delay:
                delay = tc
    return delay


def initial_velocity_law(
    data: InitialData, tol: Tolerances = DEFAULT_TOL
) -> tuple[Atoms, tuple[float, ...], tuple[float, ...]]:
    """Law of the initial velocities with conditional mean/variance of the
    initial acceleration given the initial velocity."""
    M = data.total_mass
    return _group_velocity_atoms(
        np.asarray(data.velocities, dtype=float),
        np.asarray(data.masses, dtype=float) / M,
        np.asarray(data.accelerations, dtype=float),
        tol,
    )


@dataclass(frozen=True)
class InitialLimitEntry:
    test_function: str
    times: tuple[float, ...]
    mass_gaps: tuple[float, ...]       # |int g dmu_t - int g dmu_0|
    flux_gaps: tuple[float, ...]       # |int g w dmu_t - int g w_0 dmu_0|
    congestion_values: tuple[float, ...]  # int g a dmu_t, must tend to 0
    congestion_initial: float          # int g a_0 dmu_0

    def _monotone(self, seq: tuple[float, ...]) -> bool:
        return all(seq[i] >= seq[i + 1] - 1e-15 for i in range(len(seq) - 1))

    @property
    def mass_monotone(self) -> bool:
        return self._monotone(self.mass_gaps)

    @property
    def flux_monotone(self) -> bool:
        return self._monotone(self.flux_gaps)

    @property
    def noncommuting(self) -> bool:
        """Initial congestion is nonzero while the time limit vanishes."""
        return abs(self.congestion_initial) > 1e-12 and self.congestion_values[-1] <= 1e-12


def initial_limits_check(
    timeline: ShockTimeline,
    g_list: Sequence[TestFunction],
    times: Sequence[float] = (1e-2, 1e-3, 1e-4),
) -> list[InitialLimitEntry]:
    """Weak convergence toward the initial velocity law as t drops to 0.

    The congestion flux must converge to 0 even when the initial conditional
    variance is nonzero (limit and initial evaluation do not commute)."""
    atoms0, w0, a0 = initial_velocity_law(timeline.initial, timeline.tol)
    entries = []
    for g in g_list:
        base_mass = math.fsum(wt * g(v) for v, wt in atoms0)
        base_flux = math.fsum(wt * w * float(g(v)) for (v, wt), w in zip(atoms0, w0))
        base_cong = math.fsum(wt * a * float(g(v)) for (v, wt), a in zip(atoms0, a0))
        mass_gaps, flux_gaps, cong_vals = [], [], []
        for t in times:
            fl = velocity_space_fields(timeline, t)
            mass_t = math.fsum(wt * g(v) for v, wt in fl.atoms)
            flux_t = math.fsum(wt * w * float(g(v)) for (v, wt), w in zip(fl.atoms, fl.w))
            cong_t = math.fsum(wt * a * float(g(v)) for (v, wt), a in zip(fl.atoms, fl.a))
            mass_gaps.append(abs(mass_t - base_mass))
            flux_gaps.append(abs(flux_t - base_flux))
            cong_vals.append(abs(cong_t))
        entries.append(InitialLimitEntry(
            g.name, tuple(times), tuple(mass_gaps), tuple(flux_gaps),
            tuple(cong_vals), base_cong))
    return entries


@dataclass(frozen=True)
class ContinuityConditionsReport:
    window: tuple[float, float]
    n_shocks_in_window: int
    max_congestion_off_coincidence: float
    coincidence_samples: tuple[tuple[float, float, float], ...]  # (t, velocity, a)
    initial_variance_zero: bool
    pre_shock_reports: tuple[ResidualReport, ...]

    @property
    def law_continuous(self) -> bool:
        return self.n_shocks_in_window == 0

    @property
    def congestion_vanishes_ae(self) -> bool:
        return self.max_congestion_off_coincidence <= 1e-12


def continuity_conditions_check(
    timeline: ShockTimeline,
    f_list: Sequence[TestFunction] = (),
    window: tuple[float, float] | None = None,
    n_samples: int = 101,
) -> ContinuityConditionsReport:
    """Conditions under which the velocity-space solution also solves the
    continuous (jump-free) system: law continuity and vanishing conditional
    variance, plus the pre-first-shock verification when the initial data
    makes acceleration a function of velocity."""
    if window is None:
        hi = timeline.event_times[-1] + 1.0 if timeline.events else 1.0
        hi = min(hi, timeline.t_end)
        window = (hi * 1e-3, hi)
    t1, t2 = window
    shocks = [s for s in timeline.event_times if t1 < s <= t2]
    coincidences = [tc for tc in velocity_coincidence_times(timeline, t2) if t1 < tc < t2]

    max_a = 0.0
    for t in np.linspace(t1, t2, n_samples):
        if any(abs(t - tc) < 1e-6 for tc in coincidences):
            continue
        fl = velocity_space_fields(timeline, float(t))
        if fl.a:
            max_a = max(max_a, max(fl.a))
    samples = [(t, v, a) for t, v, _, _, a in congestion_rows(timeline, t1, t2) if t > t1]

    _, _, a0 = initial_velocity_law(timeline.initial, timeline.tol)
    a0_zero = all(a <= 1e-14 for a in a0)

    pre_reports: list[ResidualReport] = []
    if a0_zero and f_list and timeline.events:
        T = timeline.event_times[0]
        lo, hi = 0.1 * T, 0.9 * T
        for f in f_list:
            pre_reports.extend(velocity_space_residuals(timeline, f, lo, hi))

    return ContinuityConditionsReport(window, len(shocks), max_a, tuple(samples),
                           a0_zero, tuple(pre_reports))
