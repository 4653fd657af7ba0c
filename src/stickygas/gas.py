"""Weak-solution residuals for both pressureless gas formulations.

Position space: the transported mass law and its momentum satisfy the
continuity and forced momentum equations with source gamma*rho and no jump
terms (positions are continuous through shocks and momentum is conserved).

Velocity space: the law of the velocity process satisfies transport
equations whose flux coefficients are the conditional mean acceleration w
and the raw second moment w^2 + a (a being the conditional variance of the
cluster acceleration given the velocity).  Velocities jump at shocks, so
signed jump measures collected at the shock times inside the window enter
the right-hand side; residuals are reported with and without them.

One kernel serves both systems.  Its state Y is the position X (rate V,
forcing Gamma) or the velocity V (rate Gamma, no forcing), and every term
is a mass-weighted sum over the clusters of one segment: the endpoint terms
E[f(Y)] and E[f(Y) rate], their jumps across shocks (the segment at the
shock minus the one before it), and the time integrals of E[f'(Y) rate],
E[f'(Y) rate^2] and E[f(Y) Gamma].  Inside these expectations the
conditioning on the velocity collapses (tower property), so the residuals
never group clusters by velocity; the grouping (VelocityFields) is kept for
what needs the conditional variance: jump measures, congestion samples and
the initial-limit and continuity checks.

Time integrals run segment-wise between shocks, split again wherever some Y
crosses a knot of the test function.  On each piece every integrand is a
polynomial in t (degree <= 12 for the built-in test functions), so a fixed
8-node Gauss-Legendre rule, exact to degree 15, gives the integral up to
rounding.  The reported `quad_error` is the sum over pieces of |G8 - G7|,
the gap to the 7-node rule (exact to degree 13): rounding-level for the
built-in test functions, a real error estimate for a test function that is
not piecewise polynomial (see TestFunction).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .dynamics import Segment, ShockTimeline
from .errors import WindowOutOfRange
from .measures import DiscreteMeasure
from .model import InitialData
from .testfunctions import TestFunction
from .tolerances import DEFAULT_TOL, Tolerances

RESIDUAL_FLOOR = 1e-8


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
    if not 0.0 < t1 < t2 <= timeline.t_end:
        raise WindowOutOfRange(f"need 0 < t1 < t2 <= {timeline.t_end}, got ({t1}, {t2})")


def _knot_crossings(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                    knots: Sequence[float], a: float, b: float) -> list[float]:
    """Sorted distinct times in (a, b) at which some path
    c0 + c1 t + c2 t^2 / 2 (one per array entry) crosses a knot: both roots
    of a quadratic with positive discriminant, the root of an affine path,
    nothing for a constant one."""
    c0, c1, c2 = (np.asarray(c, dtype=float)[:, None] for c in (c0, c1, c2))
    knots = np.asarray(knots, dtype=float)  # rows are paths, columns knots
    with np.errstate(all="ignore"):
        disc = c1 * c1 - 2.0 * c2 * (c0 - knots)
        sq = np.sqrt(disc)
        quadratic = (c2 != 0.0) & (disc > 0.0)
        affine = (c2 == 0.0) & (c1 != 0.0)
        # nan marks no root and drops out of the comparisons below
        roots = np.concatenate([np.where(quadratic, (-c1 - sq) / c2, np.nan).ravel(),
                                np.where(quadratic, (-c1 + sq) / c2, np.nan).ravel(),
                                np.where(affine, (knots - c0) / c1, np.nan).ravel()])
    # sorted(set()): np.unique imports numpy.ma (numpy 2.4), 0.7 MB more peak
    # RSS for a small gas command
    return sorted(set(roots[(a < roots) & (roots < b)].tolist()))


def _gauss_legendre(
    integrand: Callable[[np.ndarray], Sequence[np.ndarray]], pieces: np.ndarray
) -> list[tuple[float, float]]:
    """Integrals over consecutive `pieces` (increasing break points) by the
    8-node rule, each with the summed |G8 - G7| gap to the 7-node rule.  The
    integrand maps a 1-D array of times, all nodes of all pieces, to one
    array of values per integral."""
    x8, w8 = _gauss_legendre_rule(8)
    x7, w7 = _gauss_legendre_rule(7)
    half = 0.5 * np.diff(pieces)
    mid = 0.5 * (pieces[:-1] + pieces[1:])
    t = mid[:, None] + half[:, None] * np.concatenate([x8, x7])
    out = []
    for vals in integrand(t.ravel()):
        vals = vals.reshape(t.shape)
        g8 = half * (vals[:, :8] @ w8)
        g7 = half * (vals[:, 8:] @ w7)
        out.append((float(g8.sum()), float(np.abs(g8 - g7).sum())))
    return out


# ---------------------------------------------------------------------------
# One kernel for both systems (see the module docstring)


def _state(seg: Segment, t, velocity: bool) -> tuple[np.ndarray, np.ndarray]:
    """Y and its rate dY/dt per cluster at time t (a column of times gives
    one row per time)."""
    if velocity:
        return seg.c1 + t * seg.c2, seg.theta
    return seg.c0 + t * (seg.c1 + 0.5 * t * seg.c2), seg.c1 + t * seg.c2


def _moments(timeline: ShockTimeline, seg: Segment, f: TestFunction, t: float,
             velocity: bool) -> tuple[float, float]:
    """E[f(Y)] and E[f(Y) rate] at time t over the clusters of `seg`."""
    wgt = seg.mass / timeline.total_mass
    y, rate = _state(seg, t, velocity)
    fy = f(y)
    return float(wgt @ fy), float(wgt @ (fy * rate))


def _weak_form(
    timeline: ShockTimeline, f: TestFunction, t1: float, t2: float, velocity: bool
) -> tuple[tuple[float, float], tuple[float, float], list[tuple[float, float]]]:
    """Endpoint differences and shock jumps over (t1, t2] of (E[f(Y)],
    E[f(Y) rate]), and the (integral, quad_error) pairs of E[f'(Y) rate],
    E[f'(Y) rate^2] and, in position space, E[f(Y) Gamma] over [t1, t2].

    Positions are continuous through shocks and momentum is conserved, so the
    position-space jumps vanish and are not summed.  Time integrals run
    segment-wise between shocks, split where some Y crosses a knot of f."""
    _check_window(timeline, t1, t2)
    at2 = _moments(timeline, timeline.segment_at(t2), f, t2, velocity)
    at1 = _moments(timeline, timeline.segment_at(t1), f, t1, velocity)
    lhs = (at2[0] - at1[0], at2[1] - at1[1])
    j_mass = j_momentum = 0.0
    if velocity:
        for s in timeline.event_times:
            if t1 < s <= t2:
                right = _moments(timeline, timeline.segment_at(s), f, s, velocity)
                left = _moments(timeline, timeline.segment_before(s), f, s, velocity)
                j_mass += right[0] - left[0]
                j_momentum += right[1] - left[1]

    n = 2 if velocity else 3
    totals, errors = [0.0] * n, [0.0] * n
    cuts = [t1] + [s for s in timeline.event_times if t1 < s < t2] + [t2]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        seg = timeline.segment_at(a)
        wgt = seg.mass / timeline.total_mass
        path = (seg.c1, seg.c2, np.zeros_like(seg.c2)) if velocity else (seg.c0, seg.c1, seg.c2)
        pieces = np.array([a, *_knot_crossings(*path, f.knots, a, b), b])

        def integrand(t: np.ndarray) -> list[np.ndarray]:
            # rows are times, columns clusters
            y, rate = _state(seg, t[:, None], velocity)
            flux = f.prime(y) * rate
            out = [flux @ wgt, (flux * rate) @ wgt]
            if not velocity:
                out.append((f(y) * seg.theta) @ wgt)
            return out

        for k, (val, err) in enumerate(_gauss_legendre(integrand, pieces)):
            totals[k] += val
            errors[k] += err
    return lhs, (j_mass, j_momentum), list(zip(totals, errors))


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
    mu.atoms[i], a[i] the conditional variance; the left-limit law carries
    its own aligned w_left."""

    t: float
    mu: DiscreteMeasure
    mu_left: DiscreteMeasure
    w: tuple[float, ...]
    w_left: tuple[float, ...]
    a: tuple[float, ...]

    def _lookup(self, v: float, tol: Tolerances) -> int:
        for i, (loc, _) in enumerate(self.mu.atoms):
            if abs(loc - v) <= tol.abs_tol:
                return i
        raise KeyError(f"no velocity atom at {v}")

    def w_at(self, v: float, tol: Tolerances = DEFAULT_TOL) -> float:
        return self.w[self._lookup(v, tol)]

    def a_at(self, v: float, tol: Tolerances = DEFAULT_TOL) -> float:
        return self.a[self._lookup(v, tol)]


def _group_velocity_atoms(
    vels: np.ndarray, wgts: np.ndarray, gammas: np.ndarray, tol: Tolerances
) -> tuple[DiscreteMeasure, tuple[float, ...], tuple[float, ...]]:
    """Velocity atoms (chained within tol.abs_tol after a stable sort) with
    the weighted mean and variance of gammas per atom."""
    order = np.argsort(vels, kind="stable")
    v, wg, g = vels[order], wgts[order], gammas[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(v) > tol.abs_tol) + 1))
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
    atoms = tuple(zip(vbar.tolist(), weight.tolist()))
    return DiscreteMeasure(atoms), tuple(w.tolist()), tuple(a.tolist())


def velocity_space_fields(
    timeline: ShockTimeline, t: float, tol: Tolerances = DEFAULT_TOL
) -> VelocityFields:
    """Law of the velocity process at t with its left limit and the
    conditional mean / variance of the cluster acceleration given velocity."""
    M = timeline.total_mass
    seg = timeline.segment_at(t)
    mu, w, a = _group_velocity_atoms(seg.c1 + t * seg.c2, seg.mass / M, seg.theta, tol)
    seg = timeline.segment_before(t)
    mu_left, w_left, _ = _group_velocity_atoms(seg.c1 + t * seg.c2, seg.mass / M, seg.theta, tol)
    return VelocityFields(t, mu, mu_left, w, w_left, a)


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


def jump_measure(timeline: ShockTimeline, s: float, tol: Tolerances = DEFAULT_TOL) -> DiscreteMeasure:
    """Signed measure mu(., s+) - mu(., s-) at one shock time."""
    fl = velocity_space_fields(timeline, s, tol)
    return fl.mu.minus(fl.mu_left, tol)


def force_jump_total(timeline: ShockTimeline, s: float) -> float:
    """Total of w+ mu+ - w- mu- at a shock, E[Gamma] after minus before it
    (tower property); zero when force is conserved."""
    right, left = timeline.segment_at(s), timeline.segment_before(s)
    M = timeline.total_mass
    return float((right.mass / M) @ right.theta) - float((left.mass / M) @ left.theta)


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
    m = timeline.initial.masses
    M = timeline.total_mass
    total = 0.0
    for s in timeline.event_times:
        if not t1 < s <= min(t2, timeline.t_end):
            continue
        v_right = timeline.velocities_at(s)
        v_left = timeline.velocities_at_left(s)
        inside_right = (v_right >= lo) & (v_right <= hi)
        inside_left = (v_left >= lo) & (v_left <= hi)
        total += float((m / M) @ (inside_right.astype(float) - inside_left.astype(float)))
    return total


# ---------------------------------------------------------------------------
# Congestion term and initial limits


def velocity_coincidence_times(
    timeline: ShockTimeline,
    t_max: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> list[float]:
    """Times at which two distinct clusters share a velocity (affine crossings
    of velocity paths inside their segment); the only times a(., t) can be
    nonzero away from shocks."""
    if t_max is None:
        t_max = timeline.t_end
        if math.isinf(t_max):
            t_max = (timeline.event_times[-1] + 1.0) if timeline.events else 1.0
    first, last, *_, c1, c2 = timeline.columns
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
) -> tuple[DiscreteMeasure, tuple[float, ...], tuple[float, ...]]:
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
    tol: Tolerances = DEFAULT_TOL,
) -> list[InitialLimitEntry]:
    """Weak convergence toward the initial velocity law as t drops to 0.

    The congestion flux must converge to 0 even when the initial conditional
    variance is nonzero (limit and initial evaluation do not commute)."""
    mu0, w0, a0 = initial_velocity_law(timeline.initial, tol)
    entries = []
    for g in g_list:
        base_mass = mu0.integrate(g)
        base_flux = math.fsum(wt * w * float(g(v)) for (v, wt), w in zip(mu0.atoms, w0))
        base_cong = math.fsum(wt * a * float(g(v)) for (v, wt), a in zip(mu0.atoms, a0))
        mass_gaps, flux_gaps, cong_vals = [], [], []
        for t in times:
            fl = velocity_space_fields(timeline, t, tol)
            mass_t = fl.mu.integrate(g)
            flux_t = math.fsum(wt * w * float(g(v)) for (v, wt), w in zip(fl.mu.atoms, fl.w))
            cong_t = math.fsum(wt * a * float(g(v)) for (v, wt), a in zip(fl.mu.atoms, fl.a))
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
    tol: Tolerances = DEFAULT_TOL,
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
    coincidences = [tc for tc in velocity_coincidence_times(timeline, t2, tol) if t1 < tc < t2]

    max_a = 0.0
    for t in np.linspace(t1, t2, n_samples):
        if any(abs(t - tc) < 1e-6 for tc in coincidences):
            continue
        fl = velocity_space_fields(timeline, float(t), tol)
        if fl.a:
            max_a = max(max_a, max(fl.a))
    samples = []
    for tc in coincidences:
        fl = velocity_space_fields(timeline, tc, tol)
        for (v, _), a in zip(fl.mu.atoms, fl.a):
            if a > 0.0:
                samples.append((tc, v, a))

    _, _, a0 = initial_velocity_law(timeline.initial, tol)
    a0_zero = all(a <= 1e-14 for a in a0)

    pre_reports: list[ResidualReport] = []
    if a0_zero and f_list and timeline.events:
        T = timeline.event_times[0]
        lo, hi = 0.1 * T, 0.9 * T
        for f in f_list:
            pre_reports.extend(velocity_space_residuals(timeline, f, lo, hi))

    return ContinuityConditionsReport(window, len(shocks), max_a, tuple(samples),
                           a0_zero, tuple(pre_reports))
