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

Time integrals run segment-wise between shocks with adaptive quadrature;
inside expectations the conditioning collapses (tower property), so the
integrands are plain mass-weighted sums over clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import Segment, ShockTimeline
from .errors import WindowOutOfRange
from .measures import DiscreteMeasure
from .model import InitialData
from .testfunctions import TestFunction
from .tolerances import DEFAULT_TOL, Tolerances

QUAD_TOL = 1e-10
RESIDUAL_FLOOR = 1e-8


def quad(func, a, b, *args, **kwargs):
    """scipy.integrate.quad, imported on first use: loading scipy takes
    longer than a small simulate or gvp command, and neither integrates."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, *args, **kwargs)


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


def _segment_arrays(seg: Segment, total_mass: float):
    cl = seg.partition.clusters
    wgt = np.array([c.mass for c in cl]) / total_mass
    c0 = np.array([p.c0 for p in seg.paths])
    c1 = np.array([p.c1 for p in seg.paths])
    c2 = np.array([p.c2 for p in seg.paths])
    theta = np.array([c.acceleration for c in cl])
    return wgt, c0, c1, c2, theta


def _position_kinks(seg: Segment, f: TestFunction, a: float, b: float) -> list[float]:
    """Times in (a, b) at which some cluster position crosses a knot of f."""
    out = []
    for path in seg.paths:
        for knot in f.knots:
            if path.c2 != 0.0:
                disc = path.c1 * path.c1 - 2.0 * path.c2 * (path.c0 - knot)
                if disc <= 0.0:
                    continue
                sq = math.sqrt(disc)
                for r in ((-path.c1 - sq) / path.c2, (-path.c1 + sq) / path.c2):
                    if a < r < b:
                        out.append(r)
            elif path.c1 != 0.0:
                r = (knot - path.c0) / path.c1
                if a < r < b:
                    out.append(r)
    return out


def _velocity_kinks(seg: Segment, f: TestFunction, a: float, b: float) -> list[float]:
    """Times in (a, b) at which some cluster velocity crosses a knot of f."""
    out = []
    for path in seg.paths:
        if path.c2 == 0.0:
            continue
        for knot in f.knots:
            r = (knot - path.c1) / path.c2
            if a < r < b:
                out.append(r)
    return out


def _integrate_over_segments(
    timeline: ShockTimeline,
    t1: float,
    t2: float,
    make_integrand: Callable[[Segment], Callable[[float], float]],
    quad_tol: float,
    kinks: Callable[[Segment, float, float], list[float]] | None = None,
) -> tuple[float, float]:
    cuts = [t1] + [s for s in timeline.event_times if t1 < s < t2] + [t2]
    total = err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        seg = timeline.segment_at(a)
        integrand = make_integrand(seg)
        pieces = [a] + (sorted(set(kinks(seg, a, b))) if kinks else []) + [b]
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            if hi <= lo:
                continue
            val, e = quad(integrand, lo, hi, epsabs=quad_tol, epsrel=quad_tol, limit=200)
            total += val
            err += e
    return total, err


# ---------------------------------------------------------------------------
# Position space


def position_space_residuals(
    timeline: ShockTimeline,
    f: TestFunction,
    t1: float,
    t2: float,
    quad_tol: float = QUAD_TOL,
) -> tuple[ResidualReport, ResidualReport]:
    """Weak residuals of the continuity and forced momentum equations for the
    position law, over [t1, t2].  Jump columns are identically zero here."""
    _check_window(timeline, t1, t2)
    M = timeline.total_mass

    def endpoint_terms(t: float) -> tuple[float, float]:
        wgt, c0, c1, c2, _ = _segment_arrays(timeline.segment_at(t), M)
        pos = c0 + t * (c1 + 0.5 * t * c2)
        vel = c1 + t * c2
        fx = f(pos)
        return float(wgt @ fx), float(wgt @ (fx * vel))

    mass2, mom2 = endpoint_terms(t2)
    mass1, mom1 = endpoint_terms(t1)

    def mass_integrand(seg: Segment):
        wgt, c0, c1, c2, _ = _segment_arrays(seg, M)

        def integrand(t: float) -> float:
            pos = c0 + t * (c1 + 0.5 * t * c2)
            return float(wgt @ (f.prime(pos) * (c1 + t * c2)))

        return integrand

    def momentum_integrand(seg: Segment):
        wgt, c0, c1, c2, _ = _segment_arrays(seg, M)

        def integrand(t: float) -> float:
            pos = c0 + t * (c1 + 0.5 * t * c2)
            vel = c1 + t * c2
            return float(wgt @ (f.prime(pos) * vel * vel))

        return integrand

    def source_integrand(seg: Segment):
        wgt, c0, c1, c2, theta = _segment_arrays(seg, M)

        def integrand(t: float) -> float:
            pos = c0 + t * (c1 + 0.5 * t * c2)
            return float(wgt @ (f(pos) * theta))

        return integrand

    def cuts(seg, a, b):
        return _position_kinks(seg, f, a, b)

    tr1, e1 = _integrate_over_segments(timeline, t1, t2, mass_integrand, quad_tol, cuts)
    tr2, e2 = _integrate_over_segments(timeline, t1, t2, momentum_integrand, quad_tol, cuts)
    src, e3 = _integrate_over_segments(timeline, t1, t2, source_integrand, quad_tol, cuts)

    mass_eq = ResidualReport("position/mass", f.name, (t1, t2),
                             mass2 - mass1, tr1, 0.0, 0.0, e1)
    momentum_eq = ResidualReport("position/momentum", f.name, (t1, t2),
                                 mom2 - mom1, tr2, src, 0.0, e2 + e3)
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
    order = np.argsort(vels, kind="stable")
    atoms: list[tuple[float, float]] = []
    ws: list[float] = []
    avars: list[float] = []
    i = 0
    n = len(order)
    while i < n:
        j = i + 1
        while j < n and vels[order[j]] - vels[order[j - 1]] <= tol.abs_tol:
            j += 1
        sel = order[i:j]
        weight = float(wgts[sel].sum())
        v = float((wgts[sel] * vels[sel]).sum() / weight)
        w = float((wgts[sel] * gammas[sel]).sum() / weight)
        # centered form keeps the variance nonnegative in floating point
        a = float((wgts[sel] * (gammas[sel] - w) ** 2).sum() / weight)
        atoms.append((v, weight))
        ws.append(w)
        avars.append(a)
        i = j
    return DiscreteMeasure(tuple(atoms)), tuple(ws), tuple(avars)


def velocity_space_fields(
    timeline: ShockTimeline, t: float, tol: Tolerances = DEFAULT_TOL
) -> VelocityFields:
    """Law of the velocity process at t with its left limit and the
    conditional mean / variance of the cluster acceleration given velocity."""
    M = timeline.total_mass
    wgt, _, c1, c2, theta = _segment_arrays(timeline.segment_at(t), M)
    mu, w, a = _group_velocity_atoms(c1 + t * c2, wgt, theta, tol)
    wgt_l, _, c1_l, c2_l, theta_l = _segment_arrays(timeline.segment_before(t), M)
    mu_left, w_left, _ = _group_velocity_atoms(c1_l + t * c2_l, wgt_l, theta_l, tol)
    return VelocityFields(t, mu, mu_left, w, w_left, a)


def _jump_sums(
    timeline: ShockTimeline,
    f: TestFunction,
    t1: float,
    t2: float,
    tol: Tolerances,
) -> tuple[float, float]:
    """Jump contributions over shocks in (t1, t2] for the law and for w*law."""
    j_mu = j_wmu = 0.0
    for s in timeline.event_times:
        if not t1 < s <= t2:
            continue
        fl = velocity_space_fields(timeline, s, tol)
        right_mu = fl.mu.integrate(f)
        left_mu = fl.mu_left.integrate(f)
        right_wmu = math.fsum(wt * w * float(f(v)) for (v, wt), w in zip(fl.mu.atoms, fl.w))
        left_wmu = math.fsum(wt * w * float(f(v)) for (v, wt), w in zip(fl.mu_left.atoms, fl.w_left))
        j_mu += right_mu - left_mu
        j_wmu += right_wmu - left_wmu
    return j_mu, j_wmu


def velocity_space_residuals(
    timeline: ShockTimeline,
    f: TestFunction,
    t1: float,
    t2: float,
    quad_tol: float = QUAD_TOL,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[ResidualReport, ResidualReport]:
    """Weak residuals of the velocity-space system over [t1, t2].

    The transport integrands use E[f'(V)Gamma] and E[f'(V)Gamma^2], which
    equal the conditioned forms integrated against the law (tower property),
    so no velocity grouping is needed inside the quadrature."""
    _check_window(timeline, t1, t2)
    M = timeline.total_mass

    def endpoint_terms(t: float) -> tuple[float, float]:
        fl = velocity_space_fields(timeline, t, tol)
        lhs_mu = fl.mu.integrate(f)
        lhs_wmu = math.fsum(wt * w * float(f(v)) for (v, wt), w in zip(fl.mu.atoms, fl.w))
        return lhs_mu, lhs_wmu

    m2, wm2 = endpoint_terms(t2)
    m1, wm1 = endpoint_terms(t1)

    def flux_integrand(seg: Segment):
        wgt, _, c1, c2, theta = _segment_arrays(seg, M)

        def integrand(t: float) -> float:
            return float(wgt @ (f.prime(c1 + t * c2) * theta))

        return integrand

    def second_moment_integrand(seg: Segment):
        wgt, _, c1, c2, theta = _segment_arrays(seg, M)

        def integrand(t: float) -> float:
            return float(wgt @ (f.prime(c1 + t * c2) * theta * theta))

        return integrand

    def cuts(seg, a, b):
        return _velocity_kinks(seg, f, a, b)

    tr1, e1 = _integrate_over_segments(timeline, t1, t2, flux_integrand, quad_tol, cuts)
    tr2, e2 = _integrate_over_segments(timeline, t1, t2, second_moment_integrand, quad_tol, cuts)
    j_mu, j_wmu = _jump_sums(timeline, f, t1, t2, tol)

    mass_eq = ResidualReport("velocity/mass", f.name, (t1, t2),
                             m2 - m1, tr1, 0.0, j_mu, e1)
    momentum_eq = ResidualReport("velocity/momentum", f.name, (t1, t2),
                                 wm2 - wm1, tr2, 0.0, j_wmu, e2)
    return mass_eq, momentum_eq


def jump_measure(timeline: ShockTimeline, s: float, tol: Tolerances = DEFAULT_TOL) -> DiscreteMeasure:
    """Signed measure mu(., s+) - mu(., s-) at one shock time."""
    fl = velocity_space_fields(timeline, s, tol)
    return fl.mu.minus(fl.mu_left, tol)


def force_jump_total(timeline: ShockTimeline, s: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Total of w+ mu+ - w- mu- at a shock; zero when force is conserved."""
    fl = velocity_space_fields(timeline, s, tol)
    right = math.fsum(wt * w for (_, wt), w in zip(fl.mu.atoms, fl.w))
    left = math.fsum(wt * w for (_, wt), w in zip(fl.mu_left.atoms, fl.w_left))
    return right - left


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
    out: set[float] = set()
    for seg in timeline.segments:
        k = len(seg.paths)
        hi = min(seg.t_hi, t_max)
        for i in range(k):
            for j in range(i + 1, k):
                dc2 = seg.paths[i].c2 - seg.paths[j].c2
                dc1 = seg.paths[j].c1 - seg.paths[i].c1
                if dc2 == 0.0:
                    continue
                tc = dc1 / dc2
                if seg.t_lo < tc < hi and tc > 0.0:
                    out.add(tc)
    return sorted(out)


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
            pre_reports.extend(velocity_space_residuals(timeline, f, lo, hi, tol=tol))

    return ContinuityConditionsReport(window, len(shocks), max_a, tuple(samples),
                           a0_zero, tuple(pre_reports))
