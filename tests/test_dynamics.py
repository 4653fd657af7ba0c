import math
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

import stickygas.dynamics as dynamics
from stickygas import (
    brute_force_partition,
    brute_force_partitions,
    next_collision,
    simulate,
    validate,
)
from stickygas.errors import PreconditionViolated, TimeOutOfRange
from stickygas.instances import random_instance
from stickygas.model import interval_path, make_cluster, Partition
from stickygas.tolerances import DEFAULT_TOL
from stickygas.verify import conservation_suite, inject_velocity_fault, sample_times
from tests.conftest import lattice_instance, random_data


def rescan_simulate(data, t_end=math.inf):
    """Reference event loop: every step re-solves all adjacent pairs through
    next_collision and rebuilds the partition from the grouped runs.  Keeps
    a snapshot (t_lo, t_hi, clusters, paths) of every segment."""
    clusters = [make_cluster(data, j, j, 0.0) for j in range(data.n)]
    paths = [interval_path(data, j, j) for j in range(data.n)]
    events, segments = [], []
    t_now = 0.0
    while True:
        pending = next_collision(paths, t_now)
        if pending is None or pending.time > t_end:
            segments.append((t_now, t_end, list(clusters), paths))
            return events, segments
        t_star = max(pending.time, t_now)
        segments.append((t_now, t_star, list(clusters), paths))
        groups = []
        for grp in reversed(pending.groups):
            g, d = clusters[grp[0]].left_index, clusters[grp[-1]].right_index
            groups.append(([clusters[k].interval for k in grp],
                           make_cluster(data, g, d, pending.time)))
            clusters[grp[0] : grp[-1] + 1] = [groups[-1][1]]
            paths = paths[: grp[0]] + [interval_path(data, g, d)] + paths[grp[-1] + 1 :]
        events.append((pending.time, groups[::-1]))
        t_now = t_star


def engine_tables(timeline):
    events = [(e.time, [(list(grp.members), grp.merged) for grp in e.groups])
              for e in timeline.events]
    segments = [(s.t_lo, s.t_hi, list(s.clusters), list(s.paths))
                for s in map(timeline.segment, range(timeline.n_segments))]
    return events, segments


def alternating_row(n):
    """Neighbours approach pairwise: (0,1), (2,3), ... meet at t=1/2 as
    disjoint groups and then rest."""
    return validate(np.arange(n, dtype=float), np.ones(n),
                    [(-1.0) ** j for j in range(n)], np.zeros(n))


class TestSimulate:
    def test_head_on(self, head_on):
        tl = simulate(head_on)
        assert len(tl.events) == 1
        e = tl.events[0]
        assert e.time == pytest.approx(1.0, abs=1e-12)
        merged = e.groups[0].merged
        assert merged.interval == (0, 1)
        assert merged.velocity_at_formation == pytest.approx(0.5)
        # path afterwards: 1 + 0.5 (t - 1)
        assert tl.positions_at(3.0)[0] == pytest.approx(2.0)

    def test_weighted_pair(self, weighted_pair):
        tl = simulate(weighted_pair)
        e = tl.events[0]
        assert e.time == pytest.approx(math.sqrt(2), rel=1e-14)
        merged = e.groups[0].merged
        assert merged.acceleration == pytest.approx(-0.5, abs=0)
        assert merged.velocity_at_formation == pytest.approx(-math.sqrt(2) / 2, rel=1e-14)

    def test_single_particle_free_flight(self, single):
        tl = simulate(single)
        assert tl.events == ()
        t = 2.5
        assert tl.positions_at(t)[0] == pytest.approx(0.5 + 0.3 * t - 0.5 * 0.7 * t * t)

    def test_finite_horizon_cuts_events(self, head_on):
        tl = simulate(head_on, t_end=0.5)
        assert tl.events == ()
        assert tl.segment(tl.n_segments - 1).t_hi == 0.5
        with pytest.raises(TimeOutOfRange):
            tl.positions_at(0.6)

    def test_event_count_bounded(self):
        for seed in range(20):
            data, _ = random_data(seed)
            tl = simulate(data)
            assert len(tl.events) <= data.n - 1
            counts = [len(tl.segment(i).lives) for i in range(tl.n_segments)]
            assert counts == sorted(counts, reverse=True)
            assert all(a > b for a, b in zip(counts, counts[1:]))


class TestNextCollision:
    def test_three_way_group(self, triple):
        paths = [interval_path(triple, j, j) for j in range(3)]
        pending = next_collision(paths, 0.0)
        assert pending.time == pytest.approx(1.0)
        assert pending.groups == ((0, 1, 2),)

    def test_parallel_rest(self):
        d = validate([0, 1], [1, 1], [0, 0], [0, 0])
        paths = [interval_path(d, j, j) for j in range(2)]
        assert next_collision(paths, 0.0) is None

    def test_accelerating_chase(self):
        d = validate([0, 1], [1, 1], [0, 1], [1, 0])
        paths = [interval_path(d, j, j) for j in range(2)]
        pending = next_collision(paths, 0.0)
        assert pending.time == pytest.approx(1 + math.sqrt(3), rel=1e-14)


class TestHeapScheduler:
    """simulate must reproduce the full-rescan event loop exactly."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed + 5000)
        data = random_instance(rng, 60, admissible=seed % 2 == 0)
        assert engine_tables(simulate(data)) == rescan_simulate(data)

    @pytest.mark.parametrize("seed", range(20))
    def test_simultaneous_lattice_merges(self, seed):
        data = lattice_instance(seed, 30)
        assert engine_tables(simulate(data)) == rescan_simulate(data)

    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_alternating_row_keeps_disjoint_groups(self, n):
        data = alternating_row(n)
        tl = simulate(data)
        assert engine_tables(tl) == rescan_simulate(data)
        assert len(tl.events) == 1 and tl.events[0].time == 0.5
        assert [grp.members for grp in tl.events[0].groups] == [
            ((j, j), (j + 1, j + 1)) for j in range(0, n - 1, 2)]

    def test_symmetric_pile_up_and_contact(self, triple):
        # two particles closer than abs_tol with equal velocity and
        # acceleration: coincident paths, merged at t=0
        touching = validate([0.0, 5e-10, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, -1.0],
                            [0.0, 0.0, 0.0])
        for data in (triple, touching):
            assert engine_tables(simulate(data)) == rescan_simulate(data)
        assert simulate(touching).events[0].time == 0.0

    def test_finite_horizon(self):
        data = lattice_instance(3, 20)
        tl = simulate(data, t_end=0.7)
        assert engine_tables(tl) == rescan_simulate(data, 0.7)

    def test_root_solves_only_for_new_pairs(self, monkeypatch):
        calls = []
        solve = dynamics.quadratic_meet_times
        monkeypatch.setattr(dynamics, "quadratic_meet_times",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        for seed in range(5):
            data = lattice_instance(seed, 40)
            calls.clear()
            tl = simulate(data)
            groups = sum(len(e.groups) for e in tl.events)
            assert len(calls) <= (data.n - 1) + 2 * groups


def random_family(n):
    """Admissible random instance of size n: sorted-uniform positions on
    [0, n], log-uniform masses, normal velocities, normal accelerations
    sorted descending."""
    rng = np.random.default_rng([11, n])
    x = np.sort(rng.uniform(0.0, float(n), n))
    m = 10.0 ** rng.uniform(-1.0, 1.0, n)
    v = rng.normal(0.0, 1.0, n)
    th = np.sort(rng.normal(0.0, 1.0, n))[::-1]
    return validate(x, m, v, th)


def query_times(tl):
    """0, every event time, the horizon end and the midpoints between them."""
    hi = tl.t_end if math.isfinite(tl.t_end) else (
        tl.event_times[-1] + 1.0 if tl.events else 1.0)
    marks = [0.0, *tl.event_times, hi]
    return marks + [0.5 * (a + b) for a, b in zip(marks, marks[1:])]


def check_lives(data, t_end=math.inf):
    """The merge-tree timeline against the snapshot of every segment."""
    tl = simulate(data, t_end)
    _, snapshots = rescan_simulate(data, t_end)
    assert len(tl.lives) <= 2 * data.n - 1
    assert tl.n_segments == len(snapshots)
    for i in range(tl.n_segments):
        seg = tl.segment(i)
        Partition(seg.clusters)  # raises unless they tile 0.. in order
        assert seg.clusters[-1].right_index == data.n - 1
        for col, values in ((seg.size, [c.size for c in seg.clusters]),
                            (seg.mass, [c.mass for c in seg.clusters]),
                            (seg.theta, [c.acceleration for c in seg.clusters]),
                            (seg.c0, [p.c0 for p in seg.paths]),
                            (seg.c1, [p.c1 for p in seg.paths]),
                            (seg.c2, [p.c2 for p in seg.paths])):
            assert col.tolist() == values
    starts = [snap[0] for snap in snapshots]
    for t in query_times(tl):
        for left in (False, True):
            idx = (bisect_left if left else bisect_right)(starts, t) - 1
            t_lo, t_hi, clusters, paths = snapshots[max(idx, 0)]
            seg = tl.segment_before(t) if left else tl.segment_at(t)
            assert (seg.t_lo, seg.t_hi) == (t_lo, t_hi)
            assert list(seg.clusters) == clusters and list(seg.paths) == paths
            if not left:
                assert tl.partition_at(t) == Partition(tuple(clusters))
            sizes = [c.size for c in clusters]
            expected = (np.repeat([p(t) for p in paths], sizes),
                        np.repeat([p.derivative(t) for p in paths], sizes),
                        np.repeat([c.acceleration for c in clusters], sizes))
            got = ((tl.positions_at_left(t), tl.velocities_at_left(t),
                    tl.accelerations_at_left(t)) if left else
                   (tl.positions_at(t), tl.velocities_at(t), tl.accelerations_at(t)))
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)


class TestLives:
    """The at most 2N-1 cluster lives reproduce every per-segment snapshot."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed + 8000)
        check_lives(random_instance(rng, 40, admissible=seed % 2 == 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice_pile_ups(self, seed):
        check_lives(lattice_instance(seed + 100, 30))

    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_alternating_row(self, n):
        check_lives(alternating_row(n))

    def test_coincident_paths_give_a_zero_length_segment(self):
        touching = validate([0.0, 5e-10, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, -1.0],
                            [0.0, 0.0, 0.0])
        tl = simulate(touching)
        assert tl.bounds[:2] == (0.0, 0.0)
        check_lives(touching)

    def test_finite_horizon(self):
        check_lives(lattice_instance(3, 20), t_end=0.7)
        check_lives(random_family(30), t_end=0.5)

    def test_segment_views_are_kept_read_only_and_per_timeline(self):
        tl = simulate(lattice_instance(1, 20))
        t = tl.event_times[0]
        seg = tl.segment_at(t)
        assert tl.segment(tl.n_segments - 1) is not seg
        assert tl.segment_at(t) is seg
        with pytest.raises(ValueError):
            seg.c1[0] = 0.0
        # the faulted copy builds its own views from its own lives
        faulted = inject_velocity_fault(tl).segment_at(t)
        assert not np.array_equal(faulted.c1, seg.c1)
        assert np.array_equal(faulted.c0, seg.c0)

    def test_segment_index_checked(self, head_on):
        tl = simulate(head_on)
        for bad in (-1, tl.n_segments):
            with pytest.raises(IndexError):
                tl.segment(bad)

    def test_simulate_memory_is_linear(self):
        # per-event partition snapshots would hold N(N+1)/2 cluster
        # references here: about 34 MB at N=2000
        data = random_family(2000)
        tracemalloc.start()
        try:
            tl = simulate(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tl.events) > 1000
        assert peak < 8 * 2**20


class TestStateEvaluation:
    def test_initial_condition(self, weighted_pair):
        tl = simulate(weighted_pair)
        assert tl.positions_at(0.0) == pytest.approx(weighted_pair.positions, abs=0)
        assert tl.velocities_at(0.0) == pytest.approx(weighted_pair.velocities, abs=0)
        assert tl.accelerations_at(0.0) == pytest.approx(weighted_pair.accelerations, abs=0)

    def test_left_right_limits_at_shock(self, timeline_head_on):
        tl = timeline_head_on
        assert tl.velocities_at(1.0) == pytest.approx([0.5, 0.5])
        assert tl.velocities_at_left(1.0) == pytest.approx([1.0, 0.0])
        # positions do not jump
        assert tl.positions_at_left(1.0) == pytest.approx(tl.positions_at(1.0), abs=1e-12)

    def test_fully_merged_acceleration(self, weighted_pair):
        tl = simulate(weighted_pair)
        total_force = float(weighted_pair.masses @ weighted_pair.accelerations)
        expected = total_force / weighted_pair.total_mass
        assert tl.accelerations_at(5.0) == pytest.approx([expected, expected])

    def test_sample_matches_pointwise(self, weighted_pair):
        tl = simulate(weighted_pair)
        ts = [0.0, 0.5, math.sqrt(2), 2.0, 3.0]
        xs = tl.sample_positions(ts)
        vs = tl.sample_velocities(ts)
        for i, t in enumerate(ts):
            assert xs[i] == pytest.approx(tl.positions_at(t), abs=0)
            assert vs[i] == pytest.approx(tl.velocities_at(t), abs=0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("faulted", [False, True])
    def test_sample_is_bitwise_pointwise(self, seed, faulted):
        data = lattice_instance(seed, 25) if seed % 2 else random_data(seed + 4000, 30)[0]
        tl = simulate(data, t_end=simulate(data).event_times[-1] + 0.5)
        if faulted:  # a new path for the life of the first merged cluster
            tl = inject_velocity_fault(tl)
        rng = np.random.default_rng(seed)
        # unsorted, with duplicates, event times and both ends
        ts = [tl.t_end, *tl.event_times, *rng.uniform(0.0, tl.t_end, 20), 0.0,
              tl.event_times[0]]
        for sample, at in ((tl.sample_positions, tl.positions_at),
                           (tl.sample_velocities, tl.velocities_at)):
            got = sample(ts)
            assert np.array_equal(got, np.array([at(t) for t in ts]))

    def test_sample_rejects_times_outside(self, weighted_pair):
        tl = simulate(weighted_pair, t_end=2.0)
        for bad in (-1e-9, 2.5, math.nan):
            with pytest.raises(TimeOutOfRange):
                tl.sample_positions([0.0, bad])


def stepped_intervals(data, times, dt, tol=DEFAULT_TOL, chunk=4096):
    """Reference oracle: the full-stepping loop of brute_force_partitions
    without block skipping.  Every grid step is built and checked, the
    boundaries of each chunk come from np.unique, and every interval's row
    is rebuilt after each merge round.  Returns the intervals at each time."""

    def rows(intervals):
        return np.asarray([(p.c0, p.c1, p.c2)
                           for p in (interval_path(data, g, d) for g, d in intervals)])

    def positions(coeffs, ts):
        t = ts[None, :]
        return coeffs[:, 0:1] + t * (coeffs[:, 1:2] + 0.5 * t * coeffs[:, 2:3])

    def merge_at(intervals, s):
        current = list(intervals)
        while len(current) > 1:
            bad = set(np.nonzero(np.diff(positions(rows(current), np.asarray([s]))[:, 0])
                                 <= tol.abs_tol)[0].tolist())
            if not bad:
                break
            merged, k = [], 0
            while k < len(current):
                g, d = current[k]
                while k in bad:
                    k += 1
                    d = current[k][1]
                merged.append((g, d))
                k += 1
            current = merged
        return current

    def step_bounds(sorted_times):
        req = np.unique(np.asarray(sorted_times))
        t_max = sorted_times[-1]
        n_grid = math.ceil((t_max + dt - dt) / dt)
        taken = 0
        for k0 in range(0, n_grid, chunk):
            grid = dt + np.arange(k0, min(k0 + chunk, n_grid), dtype=float) * dt
            grid = grid[grid <= t_max]
            if grid.size == 0:
                break
            upto = int(np.searchsorted(req, grid[-1], "right"))
            yield np.unique(np.concatenate([grid, req[taken:upto]]))
            taken = upto
        if taken < req.size:
            yield req[taken:]

    sorted_times = sorted(float(t) for t in times)
    requested = {t: None for t in sorted_times}
    intervals = [(j, j) for j in range(data.n)]
    coeffs = rows(intervals)

    def record_upto(upto):
        for t in requested:
            if requested[t] is None and t <= upto:
                requested[t] = tuple(intervals)

    if 0.0 in requested:
        requested[0.0] = tuple(intervals)
    for bounds in step_bounds(sorted_times):
        bi = 0
        while bi < len(bounds) and len(intervals) > 1:
            tchunk = bounds[bi:]
            pos = positions(coeffs, tchunk)
            bad_cols = np.nonzero((np.diff(pos, axis=0) <= tol.abs_tol).any(axis=0))[0]
            if bad_cols.size == 0:
                record_upto(tchunk[-1])
                break
            j = int(bad_cols[0])
            if j > 0:
                record_upto(tchunk[j - 1])
            s = float(tchunk[j])
            intervals = merge_at(intervals, s)
            coeffs = rows(intervals)
            record_upto(s)
            bi += j + 1
        if len(intervals) == 1:
            break
    record_upto(math.inf)
    return [requested[float(t)] for t in times]


def grazing_pair(gap, t_min, curvature=1.0):
    """Two unit masses whose exact gap is gap + curvature (t - t_min)^2 / 2;
    the left one rests near 0."""
    x_right = gap + 0.5 * curvature * t_min * t_min
    left = (x_right - 0.5 * curvature * t_min * t_min) - gap
    return validate([left, x_right], [1.0, 1.0], [0.0, -curvature * t_min],
                    [0.0, curvature])


class TestBruteForceOracle:
    def test_single_particle(self, single):
        part = brute_force_partition(single, 1.0, 1e-3)
        assert part.intervals == ((0, 0),)

    def test_triple_merged(self, triple):
        part = brute_force_partition(triple, 1.5, 1e-5)
        assert part.intervals == ((0, 2),)

    def test_pre_shock_still_split(self, triple):
        part = brute_force_partition(triple, 0.5, 1e-4)
        assert part.intervals == ((0, 0), (1, 1), (2, 2))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_engine_on_random_instances(self, seed):
        data, rng = random_data(seed + 1000)
        tl = simulate(data)
        dt = 1e-5
        times = sample_times(tl, rng, 5, min_gap=10 * dt)
        parts = brute_force_partitions(data, times, dt)
        for t, part in zip(times, parts):
            assert tl.partition_at(t).intervals == part.intervals


class TestOracleGrid:
    @pytest.mark.parametrize("dt", [1e-5, 1e-3, 0.1, 1.0 / 3.0, 7.3e-6])
    def test_streamed_bounds_equal_materialised_grid(self, dt):
        rng = np.random.default_rng(int(dt * 1e6))
        for t_max in (0.0, dt / 2, dt, 37 * dt, 0.05, 0.3):
            times = sorted([t_max, 0.0, min(3 * dt, t_max), *rng.uniform(0.0, t_max, 3)])
            grid = np.arange(dt, t_max + dt, dt)
            expected = np.unique(np.concatenate([grid[grid <= t_max], times]))
            for chunk in (7, 4096):
                got = list(dynamics._step_bounds(times, dt, chunk, lambda t0, t1: False))
                joined = np.concatenate(got) if got else np.empty(0)
                assert np.array_equal(joined, expected)

    def test_partitions_independent_of_chunk(self):
        for seed in range(6):
            data, rng = random_data(seed + 6000, 6)
            times = list(rng.uniform(0.0, 3.0, 4))
            ref = brute_force_partitions(data, times, 1e-3)
            for chunk in (1, 7, 333):
                got = brute_force_partitions(data, times, 1e-3, chunk=chunk)
                assert [p.intervals for p in got] == [p.intervals for p in ref]

    def test_memory_does_not_grow_with_horizon(self, monkeypatch):
        # apart: particles moving apart never merge, so the bound skips the
        # whole horizon; rounding-bound: one ulp of 1e8 (1.5e-8) apart at rest,
        # never merged, but the rounding allowance of positions near 1e8
        # exceeds the gap, so every grid step up to t = 20 is stepped
        apart = validate([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        rounding_bound = validate([1e8, np.nextafter(1e8, np.inf)], [1.0, 1.0], [0.0, 0.0],
                                  [0.0, 0.0])
        stepped = []
        eval_positions = dynamics._eval_positions

        def counted(coeffs, ts):
            stepped.append(ts.size)
            return eval_positions(coeffs, ts)

        monkeypatch.setattr(dynamics, "_eval_positions", counted)
        for data, n_stepped in ((apart, 0), (rounding_bound, 2_000_000)):
            stepped.clear()
            tracemalloc.start()
            try:
                parts = brute_force_partitions(data, [20.0], 1e-5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert parts[0].intervals == tuple((j, j) for j in range(data.n))
            assert sum(stepped) == n_stepped
            assert peak < 2 * 2**20  # the whole 2e6-step grid alone is 16 MB

    def test_non_finite_times_rejected(self, head_on):
        for bad in (math.nan, math.inf):
            with pytest.raises(TimeOutOfRange):
                brute_force_partitions(head_on, [1.0, bad], 1e-3)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_invalid_dt_rejected(self, head_on, dt):
        with pytest.raises(TimeOutOfRange):
            brute_force_partitions(head_on, [1.0], dt)

    @pytest.mark.parametrize("chunk", [0, -4])
    def test_chunk_below_one_rejected(self, head_on, chunk):
        with pytest.raises(PreconditionViolated):
            brute_force_partitions(head_on, [1.0], 1e-3, chunk=chunk)


def oracle_intervals(data, times, dt, chunk):
    return [p.intervals for p in brute_force_partitions(data, times, dt, chunk=chunk)]


def with_reference(cases, dt=1e-5):
    return [(data, times, stepped_intervals(data, times, dt)) for data, times in cases]


SKIP_CHUNKS = [1, 7, 4096]


class TestOracleSkip:
    """Block skipping returns exactly the partitions of the full-stepping
    reference, whatever the chunk."""

    @pytest.fixture(scope="class")
    def random_cases(self):
        cases = []
        for k in range(300):
            rng = np.random.default_rng(30_000 + k)
            data = random_instance(rng, 12)
            cases.append((data, sample_times(simulate(data), rng, 5, min_gap=1e-4)))
        return with_reference(cases)

    @pytest.fixture(scope="class")
    def pile_up_cases(self):
        cases = []
        for seed in range(12):
            data = lattice_instance(seed + 300, 12)
            shocks = simulate(data).event_times
            cases.append((data, [*shocks, *(t + 3e-5 for t in shocks)]))
        for n in (3, 10, 12):
            x = np.arange(n, dtype=float) - 0.5 * (n - 1)
            data = validate(x, np.ones(n), -x, -x)  # all meet at t = sqrt(3) - 1
            shocks = simulate(data).event_times
            cases.append((data, [0.5, *shocks, *(t + 3e-5 for t in shocks), 1.0]))
        return with_reference(cases)

    @pytest.fixture(scope="class")
    def grazing_cases(self):
        abs_tol = DEFAULT_TOL.abs_tol
        cases = []
        for gap in [abs_tol * (1.0 + 10.0**-k) for k in range(1, 7)] + [abs_tol]:
            data = grazing_pair(gap, 0.5)
            at_min = dynamics._eval_positions(dynamics._interval_coeffs(data, [(0, 0), (1, 1)]),
                                              np.asarray([0.5]))
            assert at_min[1, 0] - at_min[0, 0] == gap
            cases.append((data, [0.25, 0.5, 0.5 + 3e-5, 1.0]))
        # a dip below abs_tol at one grid step only, at a run of grid steps
        for k in range(30_000, 30_016):
            t_min = 1e-5 + k * 1e-5
            cases.append((grazing_pair(abs_tol * (1.0 - 1e-3), t_min),
                          [t_min - 3e-5, t_min + 3e-5, 1.0]))
        # exact gap 1.04e-9 > abs_tol, but positions beyond 2^20 (t > 0.0105)
        # are spaced 2^-32, so the stepped difference rounds to 9.3e-10
        moving = validate([0.0, 1.04e-9], [1.0, 1.0], [1e8, 1e8], [0.0, 0.0])
        cases.append((moving, [0.0104, 0.0105, 0.011, 0.02]))
        # a gap closed by the accelerations alone, from rest
        cases.append((validate([0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, -1.0]),
                      [0.9, 1.0 + 3e-5, 1.5]))
        return with_reference(cases)

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_random_instances(self, random_cases, chunk):
        for data, times, expected in random_cases:
            assert oracle_intervals(data, times, 1e-5, chunk) == expected

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_pile_ups_at_and_after_every_shock(self, pile_up_cases, chunk):
        for data, times, expected in pile_up_cases:
            assert oracle_intervals(data, times, 1e-5, chunk) == expected

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_grazing_pairs(self, grazing_cases, chunk):
        for data, times, expected in grazing_cases:
            assert oracle_intervals(data, times, 1e-5, chunk) == expected
        # the cases reach both verdicts
        verdicts = {len(expected[-1]) for _, _, expected in grazing_cases}
        assert verdicts == {1, 2}


class TestInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_conservation_and_ordering(self, seed):
        data, _ = random_data(seed + 2000)
        result = conservation_suite(simulate(data))
        assert result.passed, result.detail

    def test_increasing_profile_still_simulates(self):
        # increasing acceleration: dynamics runs, only the variational
        # certification is off the table
        d = validate([0, 1], [1, 1], [2, 0], [0, 1])
        tl = simulate(d)
        assert len(tl.events) == 1
        assert not d.gvp_admissible
        assert conservation_suite(tl).passed

    def test_merge_positions_coincide_at_events(self):
        for seed in range(10):
            data, _ = random_data(seed + 3000)
            tl = simulate(data)
            assert tl.n_segments == len(tl.events) + 1
            for event in tl.events:
                xl = tl.positions_at_left(event.time)
                for grp in event.groups:
                    g, d = grp.merged.interval
                    spread = xl[g : d + 1].max() - xl[g : d + 1].min()
                    assert spread <= 1e-9 * (1.0 + abs(event.time))
