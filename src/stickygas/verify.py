"""Composite verification suites shared by the fuzzer and the test suite.

Each suite inspects one completed timeline and returns a SuiteResult with a
human-readable detail string on failure.  Conservation sums run over the
per-particle views (mass per initial particle never changes, so the total
is the unchanged flat sum; force and momentum carry the rounding of the
cluster averages and are held to 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    ShockTimeline,
    brute_force_partitions,
    horizon_of,
    simulate,
)
from .errors import SamplingExhausted
from .flow import dermoune_identity_residuals
from .gvp import gvp_equivalence_check
from .model import InitialData
from .quadratics import QuadraticPath
from .tolerances import DEFAULT_TOL, Tolerances


SAMPLE_ATTEMPTS_PER_TIME = 1000
GVP_TIMES = 5            # sample times per gvp suite
GVP_MIN_GAP = 1e-6       # least distance of a gvp sample time from any shock
DERMOUNE_TIMES = 20      # identity times per dermoune suite, 0 included
ORACLE_DT = 1e-5         # time step of the oracle suite
ORACLE_TIMES = 5         # sample times per oracle suite


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""


def sample_times(
    timeline: ShockTimeline,
    rng: np.random.Generator,
    count: int,
    min_gap: float = 1e-6,
    lo: float | None = None,
    hi: float | None = None,
) -> list[float]:
    """Uniform sample times keeping at least min_gap away from every shock.

    Raises SamplingExhausted after SAMPLE_ATTEMPTS_PER_TIME * count draws,
    which only a window (almost) covered by shock neighbourhoods reaches."""
    lo = min_gap if lo is None else lo
    hi = horizon_of(timeline) if hi is None else hi
    out: list[float] = []
    events = timeline.event_times
    attempts = SAMPLE_ATTEMPTS_PER_TIME * count
    while len(out) < count:
        if attempts == 0:
            raise SamplingExhausted(
                f"{len(out)} of {count} times in [{lo}, {hi}] after "
                f"{SAMPLE_ATTEMPTS_PER_TIME * count} draws: the window lies within "
                f"min_gap={min_gap} of the shocks almost everywhere")
        attempts -= 1
        t = float(rng.uniform(lo, hi))
        if all(abs(t - s) >= min_gap for s in events):
            out.append(t)
    return out


def conservation_suite(
    timeline: ShockTimeline,
    n_grid: int = 1000,
    rel: float = 1e-12,
) -> SuiteResult:
    """Exact per-cluster mass bookkeeping, force/momentum conservation at
    1e-12 relative, and non-crossing on a dense grid plus event edges."""
    data = timeline.initial
    m = data.masses
    force0 = float(m @ data.accelerations)
    mom0 = float(m @ data.velocities)

    masses = data.atoms[1]
    for c, *_ in timeline.lives:
        recomputed = 0.0
        for j in range(c.left_index, c.right_index + 1):
            recomputed += masses[j]
        if recomputed != c.mass:
            return SuiteResult("conservation", False,
                               f"cluster {c.interval} mass drifted from its member sum")
    force_scale = 1.0 + abs(force0)
    cols = timeline.columns
    for i in range(timeline.n_segments):  # totals summed left to right
        rows = timeline.segment_rows(i)
        seg_total = seg_force = 0.0
        for mass, theta in zip(cols.mass[rows].tolist(), cols.c2[rows].tolist()):
            seg_total += mass
            seg_force += mass * theta
        if abs(seg_total - data.total_mass) > 1e-14 * data.total_mass:
            return SuiteResult("conservation", False,
                               f"segment total mass off by {seg_total - data.total_mass}")
        if abs(seg_force - force0) > rel * force_scale:
            return SuiteResult("conservation", False,
                               f"total force drifted by {seg_force - force0}")

    hi = horizon_of(timeline)
    ts = list(np.linspace(0.0, hi, n_grid))
    for s in timeline.event_times:
        for t in (s - 1e-9, s, s + 1e-9):
            if 0.0 <= t <= hi:
                ts.append(t)
    ts = sorted(ts)

    xs = timeline.sample_positions(ts)
    x_scale = 1.0 + float(np.abs(xs).max())
    if np.any(np.diff(xs, axis=1) < -rel * x_scale):
        worst = float(np.diff(xs, axis=1).min())
        return SuiteResult("conservation", False, f"position ordering violated by {worst}")

    vs = timeline.sample_velocities(ts)
    tarr = np.asarray(ts)
    momentum = vs @ m
    model = mom0 + tarr * force0
    mom_scale = 1.0 + np.abs(mom0) + np.abs(tarr) * abs(force0)
    if np.any(np.abs(momentum - model) > rel * mom_scale):
        worst = float(np.abs(momentum - model).max())
        return SuiteResult("conservation", False, f"momentum deviates from affine law by {worst}")

    return SuiteResult("conservation", True)


def gvp_suite(timeline: ShockTimeline, rng: np.random.Generator) -> SuiteResult:
    """Variational partition equals the simulated one at GVP_TIMES sampled
    times, each at least GVP_MIN_GAP from every shock."""
    times = sample_times(timeline, rng, GVP_TIMES, GVP_MIN_GAP)
    report = gvp_equivalence_check(timeline, times)
    if report.all_match:
        return SuiteResult("gvp-equivalence", True)
    e = report.mismatches[0]
    return SuiteResult("gvp-equivalence", False,
                       f"t={e.time}: simulated {e.simulated} vs reconstructed "
                       f"{e.reconstructed} (mismatch)")


def dermoune_suite(
    timeline: ShockTimeline,
    rng: np.random.Generator,
) -> SuiteResult:
    """Conditional-expectation identities hold to 1e-12 * (1 + scale) at 0
    and at DERMOUNE_TIMES - 1 uniform times."""
    hi = horizon_of(timeline)
    times = [0.0] + [float(t) for t in rng.uniform(0.0, hi, DERMOUNE_TIMES - 1)]
    for t in times:
        failure = dermoune_identity_residuals(timeline, t).first_failure()
        if failure is not None:
            label, value = failure
            return SuiteResult("dermoune-identities", False,
                               f"{label} residual {value} at t={t}")
    return SuiteResult("dermoune-identities", True)


def oracle_suite(timeline: ShockTimeline, rng: np.random.Generator) -> SuiteResult:
    """Event-driven partition equals the time-stepped oracle's (step
    ORACLE_DT, the run's tolerances) at ORACLE_TIMES sampled times kept at
    least 10*ORACLE_DT away from every shock."""
    times = sample_times(timeline, rng, ORACLE_TIMES, min_gap=10.0 * ORACLE_DT)
    oracle = brute_force_partitions(timeline.initial, times, ORACLE_DT, timeline.tol)
    for t, part in zip(times, oracle):
        engine = timeline.partition_at(t)
        if engine != part:
            return SuiteResult("oracle-equivalence", False,
                               f"t={t}: engine {engine} vs oracle {part}")
    return SuiteResult("oracle-equivalence", True)


def run_instance_suites(
    data: InitialData,
    rng: np.random.Generator,
    with_oracle: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> list[SuiteResult]:
    timeline = simulate(data, tol=tol)
    results = [
        conservation_suite(timeline),
        gvp_suite(timeline, rng),
        dermoune_suite(timeline, rng),
    ]
    if with_oracle:
        results.append(oracle_suite(timeline, rng))
    return results


def inject_velocity_fault(timeline: ShockTimeline, delta: float = 1e-3) -> ShockTimeline:
    """Perturb the velocity of the first merged cluster over its whole life.

    Harness sanity check: the conservation suite must flag the result."""
    if not timeline.events:
        return timeline
    target = timeline.events[0].groups[0].merged.interval
    lives = tuple(
        life._replace(path=QuadraticPath(life.path.c0, life.path.c1 + delta, life.path.c2))
        if life.cluster.interval == target else life
        for life in timeline.lives)
    return replace(timeline, lives=lives)
