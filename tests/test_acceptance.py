"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is pinned here; the randomized corpora use fixed
seeds so the whole suite is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from stickygas import (
    QuadraticPath,
    clusters_from_gvp,
    position_space_residuals,
    quadratic_meet_times,
    simulate,
    validate,
    velocity_space_fields,
    velocity_space_residuals,
)
from stickygas.errors import PreconditionViolated
from stickygas.dynamics import brute_force_partitions
from stickygas.flow import dermoune_identity_residuals, right_derivative_check
from stickygas.gas import congestion_onset_delay, initial_limits_check
from stickygas.gvp import classical_clusters, gvp_equivalence_check
from stickygas.instances import random_instance
from stickygas.testfunctions import bump, covering_test_functions
from stickygas.verify import conservation_suite, sample_times
from tests.conftest import tiles
from tests.references import lemma_quadratic_dominance


def _report(number: int, label: str, started: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} {label} ({elapsed:.2f} s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def corpus():
    """1000 random admissible instances (N <= 12) with their timelines."""
    out = []
    for k in range(1000):
        rng = np.random.default_rng(10_000 + k)
        data = random_instance(rng, 12)
        out.append((10_000 + k, data, simulate(data)))
    return out


def _colliding_pair(rng, increasing):
    dx = rng.uniform(0.1, 2.0)
    dth = rng.uniform(0.1, 2.0)
    dv = -math.sqrt(2.0 * dx * dth) * (1.0 + rng.uniform(0.05, 2.0))
    th1 = rng.normal()
    th2 = th1 + dth if increasing else th1 - dth
    v2 = rng.normal()
    x1 = rng.normal()
    left = QuadraticPath(x1, v2 - dv, th1)
    right = QuadraticPath(x1 + dx, v2, th2)
    return left, right


def test_criterion_01_two_parabola_cases():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1)
    for _ in range(500):
        left, right = _colliding_pair(rng, increasing=True)
        roots = [r.time for r in quadratic_meet_times(left, right, 0.0)]
        if len(roots) != 2 or roots[0] <= 0:
            failures.append(f"expected two positive crossings, got {roots}")
            continue
        t1, t2 = roots
        mid = 0.5 * (t1 + t2)
        if not left(mid) > right(mid):
            failures.append("no dominance between the crossings")
        if not all(left(s) < right(s) for s in np.linspace(t2 * 1.001, t2 + 10, 16)):
            failures.append("dominance survived beyond the second crossing")
        with pytest.raises(PreconditionViolated):
            lemma_quadratic_dominance(left, right, 0.0, t1)
    for _ in range(500):
        left, right = _colliding_pair(rng, increasing=False)
        roots = [r.time for r in quadratic_meet_times(left, right, 0.0)]
        if len(roots) != 1:
            failures.append(f"expected one positive crossing, got {roots}")
            continue
        (t1,) = roots
        grid = np.geomspace(t1 * 1.001, 1000.0 * t1, 32)
        if not all(left(s) > right(s) for s in grid):
            failures.append("dominance failed after the single crossing")
        if not lemma_quadratic_dominance(left, right, 0.0, t1):
            failures.append("root analysis contradicts dominance")
    if time.perf_counter() - started >= 5.0:
        failures.append("runtime exceeded 5 s")
    _report(1, "two-parabola cases (500 + 500 pairs)", started, failures)


def test_criterion_02_gvp_equivalence(corpus):
    started = time.perf_counter()
    failures = []
    for seed, data, tl in corpus:
        rng = np.random.default_rng(seed + 1_000_000)
        times = sample_times(tl, rng, 5, min_gap=1e-6)
        report = gvp_equivalence_check(tl, times)
        for e in report.mismatches:
            failures.append(f"seed {seed} t={e.time}: {e.simulated} vs {e.reconstructed}")
    if time.perf_counter() - started >= 60.0:
        failures.append("runtime exceeded 60 s")
    _report(2, "variational/simulated partition equivalence (1000 x 5)", started, failures)


def test_criterion_03_classical_reduction():
    started = time.perf_counter()
    failures = []
    for k in range(200):
        rng = np.random.default_rng(70_000 + k)
        base = random_instance(rng, 12)
        data = validate(base.positions, base.masses, base.velocities,
                        np.zeros(base.n))
        tl = simulate(data)
        for t in sample_times(tl, rng, 3, 1e-6):
            new, classical = clusters_from_gvp(data, t), classical_clusters(data, t)
            tiles(new, data.n)
            tiles(classical, data.n)
            if new != classical:
                failures.append(f"seed {70_000 + k} t={t}")
    _report(3, "zero-acceleration reduction to the classical principle (200)", started, failures)


def test_criterion_04_conservation(corpus):
    started = time.perf_counter()
    failures = []
    for seed, _, tl in corpus:
        result = conservation_suite(tl, n_grid=1000, rel=1e-12)
        if not result.passed:
            failures.append(f"seed {seed}: {result.detail}")
    _report(4, "conservation + non-crossing on every fuzzed instance", started, failures)


def test_criterion_05_dermoune_identities(corpus):
    started = time.perf_counter()
    failures = []
    for seed, data, tl in corpus[:200]:
        rng = np.random.default_rng(seed + 2_000_000)
        hi = tl.event_times[-1] + 1.0 if tl.events else 1.0
        for t in rng.uniform(0.0, hi, 20):
            res = dermoune_identity_residuals(tl, float(t))
            if (res.r_pos > 1e-12 * (1 + res.scale_pos)
                    or res.r_vel > 1e-12 * (1 + res.scale_vel)
                    or res.r_acc > 1e-12 * (1 + res.scale_acc)):
                failures.append(f"seed {seed} t={t}: {res}")
    for seed, data, tl in corpus[:30]:
        t = 0.5 * tl.event_times[0] if tl.events else 0.4
        gap = tl.time_to_next_event(t)
        h_list = [h for h in (1e-2, 1e-3, 1e-4) if h < gap]
        for probe in right_derivative_check(tl, t, h_list).probes:
            if probe.max_pos_error_vs_predicted > 1e-8:
                failures.append(f"seed {seed} h={probe.h}: position constant off "
                                f"by {probe.max_pos_error_vs_predicted}")
            if probe.max_vel_error > 1e-8:
                failures.append(f"seed {seed} h={probe.h}: velocity fd error "
                                f"{probe.max_vel_error}")
    _report(5, "conditional-expectation identities + derivative constants", started, failures)


def _windows_with_shock(tl):
    t_first = tl.event_times[0]
    t_last = tl.event_times[-1]
    t_next = tl.event_times[1] if len(tl.event_times) > 1 else t_first + 1.0
    return [(0.1 * t_first, 0.9 * t_first),
            (0.5 * t_first, 0.5 * (t_first + t_next)),
            (t_last + 0.1, t_last + 1.1)]


def test_criterion_06_position_space_weak_solution():
    started = time.perf_counter()
    failures = []
    count = k = 0
    while count < 50:
        rng = np.random.default_rng(30_000 + k)
        k += 1
        data = random_instance(rng, 12)
        tl = simulate(data)
        if not tl.events:
            continue
        count += 1
        for t1, t2 in _windows_with_shock(tl):
            xs = np.concatenate([tl.positions_at(t1), tl.positions_at(t2)])
            for f in covering_test_functions(xs, pad=0.5 * (1.0 + float(np.ptp(xs)))):
                for r in position_space_residuals(tl, f, t1, t2):
                    if abs(r.residual) > 1e-8:
                        failures.append(
                            f"seed {30_000 + k - 1} {r.equation} {f.name}: {r.residual}")
    if time.perf_counter() - started >= 120.0:
        failures.append("runtime exceeded 120 s")
    _report(6, "position-space weak solution (50 x 3 windows x 3 tests)", started, failures)


def test_criterion_07_velocity_space_weak_solution():
    started = time.perf_counter()
    failures = []
    count = k = 0
    while count < 50:
        rng = np.random.default_rng(40_000 + k)
        k += 1
        data = random_instance(rng, 12)
        tl = simulate(data)
        if not tl.events:
            continue
        count += 1
        t_first = tl.event_times[0]
        t_next = tl.event_times[1] if len(tl.event_times) > 1 else t_first + 1.0
        t1, t2 = 0.5 * t_first, 0.5 * (t_first + t_next)
        vs = np.concatenate([tl.velocities_at(t1), tl.velocities_at(t2),
                             tl.velocities_at(t2, left=True)])
        for f in covering_test_functions(vs, pad=0.5 * (1.0 + float(np.ptp(vs)))):
            for r in velocity_space_residuals(tl, f, t1, t2):
                if abs(r.residual) > 1e-8:
                    failures.append(f"seed {40_000 + k - 1} {r.equation}: {r.residual}")
                if abs(r.residual_without_jumps - r.jump) > 1e-8:
                    failures.append(
                        f"seed {40_000 + k - 1} {r.equation}: omitted-jump residual "
                        f"{r.residual_without_jumps} != jump integral {r.jump}")
    _report(7, "velocity-space weak solution with jump necessity (50)", started, failures)


def test_criterion_08_congestion_term(corpus):
    started = time.perf_counter()
    failures = []
    data = validate([0.0, 10.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0])
    tl = simulate(data)
    fields = velocity_space_fields(tl, 1.0)
    if abs(fields.a_at(1.0) - 0.25) > 1e-12:
        failures.append(f"a(1, t=1) = {fields.a_at(1.0)} != 0.25")
    if abs(fields.w_at(1.0) - 0.5) > 1e-12:
        failures.append(f"w(1, t=1) = {fields.w_at(1.0)} != 0.5")
    T = tl.event_times[0]
    for t in list(np.linspace(0.02, 0.98, 25)) + list(np.linspace(1.02, T - 0.02, 25)):
        a_max = max(velocity_space_fields(tl, float(t)).a)
        if a_max != 0.0:
            failures.append(f"designed instance: a != 0 at t={t}")
    for seed, data, tl in corpus[:200]:
        first_shock = tl.event_times[0] if tl.events else math.inf
        delta = congestion_onset_delay(data, first_shock)
        if not math.isfinite(delta):
            delta = 1.0
        for t in np.linspace(0.1 * delta, 0.9 * delta, 5):
            a_max = max(velocity_space_fields(tl, float(t)).a)
            if a_max > 1e-12:
                failures.append(f"seed {seed}: a={a_max} at t={t} < delta={delta}")
    _report(8, "congestion term: designed spike + pre-onset vanishing (200)", started, failures)


def test_criterion_09_initial_limits():
    started = time.perf_counter()
    failures = []
    generic = simulate(validate([0.0, 10.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]))
    (entry,) = initial_limits_check(generic, [bump(0.7, 2.0)])
    if not (entry.mass_monotone and entry.flux_monotone):
        failures.append(f"gaps not monotone: {entry.mass_gaps} {entry.flux_gaps}")
    # the gaps shrink linearly with t (a factor 10 per step, 2% leaves margin)
    for label, gaps in (("mass", entry.mass_gaps), ("flux", entry.flux_gaps)):
        if gaps[-1] > max(1e-12, 0.02 * gaps[0]):
            failures.append(f"{label} gap did not shrink: {gaps}")
    if any(v > 1e-12 for v in entry.congestion_values):
        failures.append(f"congestion flux nonzero near 0: {entry.congestion_values}")
    tied = simulate(validate([0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, -1.0]))
    (entry,) = initial_limits_check(tied, [bump(0.0, 2.0)])
    if not entry.noncommuting:
        failures.append(
            f"tied-velocity case should not commute: a0 integral "
            f"{entry.congestion_initial}, limits {entry.congestion_values}")
    _report(9, "weak initial limits and the non-commuting congestion limit", started, failures)


def test_criterion_10_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    dt = 1e-5
    for k in range(1000):
        rng = np.random.default_rng(20_000 + k)
        data = random_instance(rng, 12)
        tl = simulate(data)
        times = sample_times(tl, rng, 5, min_gap=10 * dt)
        for t, part in zip(times, brute_force_partitions(data, times, dt)):
            tiles(part, data.n)
            if tl.partition_at(t) != part:
                failures.append(f"seed {20_000 + k} t={t}")
    _report(10, "event-driven vs time-stepped oracle (1000, dt=1e-5)", started, failures)
