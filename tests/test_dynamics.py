import math
import tracemalloc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
import pytest

import stickygas.dynamics as dynamics
import stickygas.model as model
from stickygas import (
    FlowField,
    brute_force_partitions,
    simulate,
    validate,
    velocity_space_fields,
)
from stickygas.errors import IdenticalPaths, TimeOutOfRange, UndefinedFieldPoint
from stickygas.flow import conditioning_matches_partition
from stickygas.instances import random_instance
from stickygas.model import interval_path, make_cluster
from stickygas.quadratics import QuadraticPath, quadratic_meet_times
from stickygas.tolerances import DEFAULT_TOL, Tolerances
from stickygas.verify import (
    conservation_suite,
    gvp_suite,
    inject_velocity_fault,
    oracle_suite,
    sample_times,
)
from tests.conftest import lattice_instance, random_data, random_family, tiles


# The full-rescan reference of the scheduler: every adjacent pair solved at
# every step.

@dataclass(frozen=True)
class PendingEvent:
    time: float
    groups: tuple[tuple[int, ...], ...]  # cluster indices per merge group


def next_collision(
    paths: Sequence[QuadraticPath],
    t_now: float,
    tol: Tolerances = DEFAULT_TOL,
) -> PendingEvent | None:
    """Earliest future crossing among adjacent cluster paths, grouped.

    Returns None when no adjacent pair ever meets again.  Pairs whose
    crossing falls within tol.event_tol of the earliest time are grouped
    into connected runs, giving the simultaneous multi-cluster merges.
    This full rescan solves every adjacent pair; `simulate` reaches the same
    grouping incrementally, and this function is its reference.
    """
    k_pairs = len(paths) - 1
    if k_pairs < 1:
        return None
    candidates: list[tuple[float, int]] = []
    for k in range(k_pairs):
        try:
            roots = quadratic_meet_times(paths[k], paths[k + 1], after=t_now, tol=tol)
        except IdenticalPaths:
            # coincident paths: already in contact, merge immediately
            candidates.append((t_now, k))
            continue
        if roots:
            candidates.append((roots[0].time, k))
    if not candidates:
        return None
    t_star = min(t for t, _ in candidates)
    eps = tol.event_tol(t_star)
    chosen = sorted(k for t, k in candidates if t <= t_star + eps)
    groups: list[tuple[int, ...]] = []
    run = [chosen[0], chosen[0] + 1]
    for k in chosen[1:]:
        if k == run[-1]:
            run.append(k + 1)
        else:
            groups.append(tuple(run))
            run = [k, k + 1]
    groups.append(tuple(run))
    return PendingEvent(t_star, tuple(groups))


def rescan_simulate(data, t_end=math.inf):
    """Reference event loop: every step re-solves all adjacent pairs through
    next_collision and rebuilds the partition from the grouped runs.  Keeps
    a snapshot (t_lo, t_hi, clusters, paths) of every segment."""
    clusters, paths = map(list, zip(*(make_cluster(data, j, j) for j in range(data.n))))
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
            merged, path = make_cluster(data, g, d)
            groups.append(([clusters[k].interval for k in grp], merged, path))
            clusters[grp[0] : grp[-1] + 1] = [merged]
            paths = paths[: grp[0]] + [path] + paths[grp[-1] + 1 :]
        events.append((pending.time, groups[::-1]))
        t_now = t_star


def engine_tables(timeline):
    events = [(e.time, [(list(grp.members), grp.merged, grp.path) for grp in e.groups])
              for e in timeline.events]
    segments = [(timeline.bounds[i], timeline.bounds[i + 1], *segment_lives(timeline, i))
                for i in range(timeline.n_segments)]
    return events, segments


def segment_lives(timeline, i):
    """The clusters and paths of the lives at the rows of segment i."""
    lives = [timeline.lives[r] for r in timeline.segment_rows(i).tolist()]
    return [x.cluster for x in lives], [x.path for x in lives]


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
        grp = e.groups[0]
        assert grp.merged.interval == (0, 1)
        assert grp.path.derivative(e.time) == pytest.approx(0.5)
        # path afterwards: 1 + 0.5 (t - 1)
        assert tl.positions_at(3.0)[0] == pytest.approx(2.0)

    def test_weighted_pair(self, weighted_pair):
        tl = simulate(weighted_pair)
        e = tl.events[0]
        assert e.time == pytest.approx(math.sqrt(2), rel=1e-14)
        grp = e.groups[0]
        assert grp.merged.acceleration == pytest.approx(-0.5, abs=0)
        assert grp.path.derivative(e.time) == pytest.approx(-math.sqrt(2) / 2, rel=1e-14)

    def test_single_particle_free_flight(self, single):
        tl = simulate(single)
        assert tl.events == ()
        t = 2.5
        assert tl.positions_at(t)[0] == pytest.approx(0.5 + 0.3 * t - 0.5 * 0.7 * t * t)

    def test_finite_horizon_cuts_events(self, head_on):
        tl = simulate(head_on, t_end=0.5)
        assert tl.events == ()
        assert tl.bounds[tl.n_segments] == 0.5
        with pytest.raises(TimeOutOfRange):
            tl.positions_at(0.6)

    def test_event_count_bounded(self):
        for seed in range(20):
            data, _ = random_data(seed)
            tl = simulate(data)
            assert len(tl.events) <= data.n - 1
            counts = [len(tl.segment_rows(i)) for i in range(tl.n_segments)]
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

    def test_one_aggregate_sum_per_cluster(self, monkeypatch):
        # the N singletons and one cluster per merge group, each summed once
        calls = []
        aggregates = model.cluster_aggregates
        monkeypatch.setattr(model, "cluster_aggregates",
                            lambda *a: calls.append(a) or aggregates(*a))
        for data in (random_data(7000)[0], lattice_instance(7, 30), alternating_row(9)):
            calls.clear()
            tl = simulate(data)
            groups = [grp.merged.interval for e in tl.events for grp in e.groups]
            assert groups
            assert len(calls) == data.n + len(groups)
            assert sorted((g, d) for _, g, d in calls) == sorted(
                [(j, j) for j in range(data.n)] + groups)

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


def query_times(tl):
    """0, every event time, the horizon end and the midpoints between them."""
    hi = tl.t_end if math.isfinite(tl.t_end) else (
        tl.event_times[-1] + 1.0 if tl.events else 1.0)
    marks = [0.0, *tl.event_times, hi]
    return marks + [0.5 * (a + b) for a, b in zip(marks, marks[1:])]


def check_lives(data, t_end=math.inf):
    """The merge-tree timeline against the snapshot of every segment: the
    rows of each segment, and the rows at every query time, from the left
    and from the right."""
    tl = simulate(data, t_end)
    _, snapshots = rescan_simulate(data, t_end)
    assert len(tl.lives) <= 2 * data.n - 1
    assert tl.n_segments == len(snapshots)
    cols = tl.columns
    for i, (t_lo, t_hi, clusters, paths) in enumerate(snapshots):
        assert (tl.bounds[i], tl.bounds[i + 1]) == (t_lo, t_hi)
        assert segment_lives(tl, i) == (clusters, paths)
        tiles(tuple(c.interval for c in clusters), data.n)
        rows = tl.segment_rows(i)
        for col, values in ((cols.size, [c.size for c in clusters]),
                            (cols.mass, [c.mass for c in clusters]),
                            (cols.c0, [p.c0 for p in paths]),
                            (cols.c1, [p.c1 for p in paths]),
                            (cols.c2, [p.c2 for p in paths]),
                            (cols.c2, [c.acceleration for c in clusters])):
            assert col[rows].tolist() == values
    starts = [snap[0] for snap in snapshots]
    for t in query_times(tl):
        for left in (False, True):
            idx = max((bisect_left if left else bisect_right)(starts, t) - 1, 0)
            _, _, clusters, paths = snapshots[idx]
            assert np.array_equal(tl.rows_at(t, left), tl.segment_rows(idx))
            if not left:
                assert tl.partition_at(t) == tuple(c.interval for c in clusters)
            sizes = [c.size for c in clusters]
            expected = (np.repeat([p(t) for p in paths], sizes),
                        np.repeat([p.derivative(t) for p in paths], sizes),
                        np.repeat([c.acceleration for c in clusters], sizes))
            got = (tl.positions_at(t, left), tl.velocities_at(t, left),
                   tl.accelerations_at(t, left))
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

    def test_columns_are_read_only_and_per_timeline(self):
        tl = simulate(lattice_instance(1, 20))
        t = tl.event_times[0]
        cols = tl.columns
        assert tl.columns is cols
        for col in cols:
            assert not col.flags.writeable
        with pytest.raises(ValueError):
            cols.c1[0] = 0.0
        # the faulted copy builds its own columns from its own lives
        faulted = inject_velocity_fault(tl)
        assert faulted.columns is not cols
        rows = tl.rows_at(t)
        assert np.array_equal(faulted.rows_at(t), rows)
        assert not np.array_equal(faulted.columns.c1[rows], cols.c1[rows])
        assert np.array_equal(faulted.columns.c0[rows], cols.c0[rows])

    def test_segment_index_checked(self, head_on):
        tl = simulate(head_on)
        for bad in (-1, tl.n_segments):
            with pytest.raises(IndexError):
                tl.segment_rows(bad)

    @pytest.mark.parametrize("make", [
        lambda: simulate(random_family(40)),
        lambda: simulate(lattice_instance(5, 30)),
        lambda: inject_velocity_fault(simulate(lattice_instance(5, 30))),
    ], ids=["random", "lattice", "faulted"])
    def test_c2_is_the_cluster_acceleration(self, make):
        tl = make()
        assert tl.events
        assert tl.columns.c2.tolist() == [x.cluster.acceleration for x in tl.lives]

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
        assert tl.velocities_at(1.0, left=True) == pytest.approx([1.0, 0.0])
        # positions do not jump
        assert tl.positions_at(1.0, left=True) == pytest.approx(tl.positions_at(1.0), abs=1e-12)

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

    def test_non_finite_times_rejected_without_horizon(self, weighted_pair):
        # t_end = inf admits t = inf in the range test alone
        tl = simulate(weighted_pair)
        assert tl.t_end == math.inf
        queries = [tl.rows_at, tl.partition_at, tl.time_to_next_event,
                   *(partial(q, left=left) for q in (tl.positions_at, tl.velocities_at,
                                                    tl.accelerations_at)
                     for left in (False, True)),
                   lambda t: tl.sample_positions([0.0, t]),
                   lambda t: tl.sample_velocities([t]),
                   lambda t: tl.life_rows(np.array([0.0, t]))]
        for bad in (math.inf, -math.inf, math.nan):
            for query in queries:
                with pytest.raises(TimeOutOfRange):
                    query(bad)


def stepped_intervals(data, times, dt, tol=DEFAULT_TOL, chunk=4096):
    """Reference oracle: the full-stepping loop of brute_force_partitions
    without block skipping.  Every grid step is built and checked, the
    boundaries of each chunk come from np.unique, and every interval's row
    is rebuilt after each merge round.  A requested 0 takes the initial
    partition and is no step boundary.  Returns the intervals at each time."""

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
        req = req[req > 0.0]
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
        assert brute_force_partitions(single, [1.0], 1e-3)[0] == ((0, 0),)

    def test_triple_merged(self, triple):
        assert brute_force_partitions(triple, [1.5], 1e-5)[0] == ((0, 2),)

    def test_pre_shock_still_split(self, triple):
        assert brute_force_partitions(triple, [0.5], 1e-4)[0] == ((0, 0), (1, 1), (2, 2))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_engine_on_random_instances(self, seed):
        data, rng = random_data(seed + 1000)
        tl = simulate(data)
        dt = 1e-5
        times = sample_times(tl, rng, 5, min_gap=10 * dt)
        parts = brute_force_partitions(data, times, dt)
        for t, part in zip(times, parts):
            tiles(part, data.n)
            assert tl.partition_at(t) == part


class TestOracleGrid:
    @pytest.mark.parametrize("dt", [1e-5, 1e-3, 0.1, 1.0 / 3.0, 7.3e-6])
    def test_streamed_bounds_equal_materialised_grid(self, monkeypatch, dt):
        # one ulp of 1e8 apart at rest: never certified and never merged, so
        # every boundary after 0 is stepped, once and in order
        data = validate([1e8, np.nextafter(1e8, np.inf)], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        stepped = []
        eval_positions = dynamics._eval_positions

        def recorded(coeffs, ts):
            stepped.append(ts.copy())
            return eval_positions(coeffs, ts)

        monkeypatch.setattr(dynamics, "_eval_positions", recorded)
        rng = np.random.default_rng(int(dt * 1e6))
        for t_max in (0.0, dt / 2, dt, 37 * dt, 0.05, 0.3):
            times = sorted([t_max, 0.0, min(3 * dt, t_max), *rng.uniform(0.0, t_max, 3)])
            grid = np.arange(dt, t_max + dt, dt)
            expected = np.unique(np.concatenate([grid[grid <= t_max], times]))
            expected = expected[expected > 0.0]
            for chunk in (7, 4096):
                monkeypatch.setattr(dynamics, "_CHUNK", chunk)
                stepped.clear()
                assert brute_force_partitions(data, times, dt) == [((0, 0), (1, 1))] * len(times)
                assert np.array_equal(np.concatenate([np.empty(0), *stepped]), expected)

    def test_partitions_independent_of_chunk(self, monkeypatch):
        for seed in range(6):
            data, rng = random_data(seed + 6000, 6)
            times = list(rng.uniform(0.0, 3.0, 4))
            ref = brute_force_partitions(data, times, 1e-3)
            for chunk in (1, 7, 333):
                monkeypatch.setattr(dynamics, "_CHUNK", chunk)
                assert brute_force_partitions(data, times, 1e-3) == ref

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
            assert parts[0] == tuple((j, j) for j in range(data.n))
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


def oracle_intervals(monkeypatch, data, times, dt, chunk):
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    parts = brute_force_partitions(data, times, dt)
    for part in parts:
        tiles(part, data.n)
    return parts


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

    @pytest.fixture(scope="class")
    def bookkeeping_cases(self):
        dt = 1e-5
        rng = np.random.default_rng(30_400)
        data = random_instance(rng, 12)
        shocks = simulate(data).event_times
        late = [t + 3e-5 for t in shocks[-3:]]
        # unsorted, with duplicates and both signed zeros
        cases = [(data, [late[2], 0.0, late[0], late[2], -0.0, 0.5 * late[0], late[1],
                         late[0]])]
        cases.append((data, [0.0]))
        # a head-on pair meeting at 37.2 dt, seen first at the requested time
        # 37.5 dt, which lies between the last grid step and t_max
        head_on = validate([0.0, 74.4 * dt], [1.0, 1.0], [1.0, -1.0], [0.0, 0.0])
        cases.append((head_on, [10 * dt, 37 * dt + dt / 2]))
        # a pair within abs_tol at t = 0 that separates: a requested 0 takes
        # the initial partition and is no step boundary, so the pair stays
        # apart at 0.5 whether or not 0 was requested, as simulate has it
        touching = validate([0.0, 5e-10], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0])
        cases += [(touching, times) for times in ([0.0, 0.5], [0.5, -0.0], [0.5], [0.0])]
        cases = with_reference(cases, dt)
        singletons = ((0, 0), (1, 1))
        assert cases[2][2] == [singletons, ((0, 1),)]
        assert [expected for _, _, expected in cases[3:]] == [
            [singletons, singletons], [singletons, singletons], [singletons], [singletons]]
        assert simulate(touching).partition_at(0.5) == singletons
        return cases

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_requested_time_bookkeeping(self, monkeypatch, bookkeeping_cases, chunk):
        for data, times, expected in bookkeeping_cases:
            assert oracle_intervals(monkeypatch, data, times, 1e-5, chunk) == expected

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_random_instances(self, monkeypatch, random_cases, chunk):
        for data, times, expected in random_cases:
            assert oracle_intervals(monkeypatch, data, times, 1e-5, chunk) == expected

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_pile_ups_at_and_after_every_shock(self, monkeypatch, pile_up_cases, chunk):
        for data, times, expected in pile_up_cases:
            assert oracle_intervals(monkeypatch, data, times, 1e-5, chunk) == expected

    @pytest.mark.parametrize("chunk", SKIP_CHUNKS)
    def test_grazing_pairs(self, monkeypatch, grazing_cases, chunk):
        for data, times, expected in grazing_cases:
            assert oracle_intervals(monkeypatch, data, times, 1e-5, chunk) == expected
        # the cases reach both verdicts
        verdicts = {len(expected[-1]) for _, _, expected in grazing_cases}
        assert verdicts == {1, 2}


def stepped_calls(monkeypatch):
    """Record (rows, columns) of every _eval_positions call made while
    stepping a block, leaving out _merge_at's single-time cascade."""
    calls, merging = [], []
    eval_positions, merge_at = dynamics._eval_positions, dynamics._merge_at

    def counted(coeffs, ts):
        if not merging:
            calls.append((coeffs.shape[0], ts.size))
        return eval_positions(coeffs, ts)

    def merge(*args):
        merging.append(True)
        try:
            return merge_at(*args)
        finally:
            merging.pop()

    monkeypatch.setattr(dynamics, "_eval_positions", counted)
    monkeypatch.setattr(dynamics, "_merge_at", merge)
    return calls


class TestOracleSteppedWork:
    """A refused skip block is halved down to `_CHUNK` steps before anything
    is stepped, and a stepped block evaluates only the rows of the pairs the
    verdicts that refused it cannot clear."""

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_head_on_pair_steps_one_chunk(self, monkeypatch, chunk):
        # the pair meets at t = 50, five million grid steps in
        data = validate([0.0, 100.0], [1.0, 1.0], [1.0, -1.0], [0.0, 0.0])
        expected = stepped_intervals(data, [60.0], 1e-5)
        assert expected == [((0, 1),)]
        calls = stepped_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
        assert brute_force_partitions(data, [60.0], 1e-5) == expected
        assert 0 < sum(cols for _, cols in calls) <= chunk + 1

    def test_one_closing_pair_steps_two_rows(self, monkeypatch):
        # twelve particles moving apart but for the pair (5, 6), which meets
        # at t = 0.5; the merged cluster rests while its neighbours leave
        v = [-0.6, -0.5, -0.4, -0.3, -0.2, 1.0, -1.0, 0.2, 0.3, 0.4, 0.5, 0.6]
        data = validate(np.arange(12, dtype=float), np.ones(12), v, np.zeros(12))
        times = [0.25, 3.0]
        expected = stepped_intervals(data, times, 1e-5)
        assert expected[1] == tuple((j, j) for j in range(5)) + ((5, 6),) + tuple(
            (j, j) for j in range(7, 12))
        calls = stepped_calls(monkeypatch)
        assert brute_force_partitions(data, times, 1e-5) == expected
        assert calls and all(rows <= 2 for rows, _ in calls)


def numpy_certificate(coeffs, t0, t1, abs_tol):
    """_gap_rows and _no_merge_within as they were written over numpy arrays,
    kept as the reference for the certificate on Python floats."""
    size = np.abs(coeffs)
    if not size.max() < dynamics._SKIP_MAX_COEFF or t1 >= dynamics._SKIP_MAX_TIME:
        return None
    diff = (coeffs[1:] - coeffs[:-1]).T
    (d0, d1, d2), curvature, (s0, s1, s2) = (
        diff, np.maximum(0.0, -diff[2]), (size[1:] + size[:-1]).T)
    gap = d0 + t0 * (d1 + 0.5 * t0 * d2)
    slope = d1 + t0 * d2
    width = s0 + t1 * (s1 + 0.5 * t1 * s2)
    h = t1 - t0
    allowance = (dynamics._SKIP_ROUNDING * (width + abs(abs_tol))
                 + dynamics._SKIP_UNDERFLOW * (1.0 + t1))
    bound = (gap - np.maximum(0.0, -slope) * h - curvature * h * h * 0.5) - allowance
    return (bound > abs_tol).tolist()


def partition_rows(data):
    """Coefficient rows of every partition the engine passes through."""
    timeline = simulate(data)
    return [dynamics._interval_coeffs(data, list(timeline.partition_at(t)))
            for t in (0.0, *timeline.event_times)]


class TestCertificateOnFloats:
    """The certificate on Python floats gives, pair by pair, the verdicts of
    the same expressions over numpy arrays."""

    def verdicts(self, coeffs, windows):
        gaps = dynamics._gap_rows(coeffs)
        found = []
        for t0, t1 in windows:
            for abs_tol in (DEFAULT_TOL.abs_tol, 0.0):
                got = dynamics._no_merge_within(gaps, t0, t1, abs_tol)
                assert got == numpy_certificate(coeffs, t0, t1, abs_tol), (t0, t1, abs_tol)
                found += got
        return found

    @staticmethod
    def windows(rng, horizon):
        ends = [0.0, *rng.uniform(0.0, 2.0 * horizon, 8)]
        return [(min(a, b), max(a, b)) for a, b in zip(ends, reversed(ends))] + [
            (t, t) for t in ends[:3]]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_gap_rows(self, seed):
        data, rng = random_data(seed + 31_000)
        for coeffs in partition_rows(data):
            if len(coeffs) > 1:
                self.verdicts(coeffs, self.windows(rng, dynamics.horizon_of(simulate(data))))

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice_gap_rows(self, seed):
        # integer rows: many differences are exact zeros of either sign
        data = lattice_instance(seed + 31_100, 9)
        rng = np.random.default_rng(seed)
        found = []
        for coeffs in partition_rows(data):
            if len(coeffs) > 1:
                found += self.verdicts(coeffs, self.windows(rng, 3.0))
        assert found

    def test_near_tangent_gap_rows(self):
        abs_tol = DEFAULT_TOL.abs_tol
        found = []
        for t_min in (0.5, 3.0, 40.0):
            for gap in [abs_tol * (1.0 + 10.0**-k) for k in range(1, 9)] + [abs_tol]:
                coeffs = dynamics._interval_coeffs(grazing_pair(gap, t_min), [(0, 0), (1, 1)])
                windows = [(t_min, t_min), (0.0, t_min), (t_min, 2.0 * t_min)]
                windows += [(t_min - j * 1e-5, t_min + j * 1e-5) for j in (1, 10, 1000)]
                found += self.verdicts(coeffs, windows)
        # the cases reach both verdicts
        assert set(found) == {True, False}

    def test_too_large_to_certify(self):
        coeffs = np.asarray([[0.0, 1.0, 0.0], [2.0**500, -1.0, 0.0]])
        assert dynamics._gap_rows(coeffs) is None
        assert numpy_certificate(coeffs, 0.0, 1.0, 1e-9) is None
        coeffs = np.asarray([[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
        gaps = dynamics._gap_rows(coeffs)
        assert dynamics._no_merge_within(gaps, 0.0, 2.0**250, 1e-9) is None
        assert dynamics._no_merge_within(gaps, 0.0, 2.0**249, 1e-9) == [False]


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
                xl = tl.positions_at(event.time, left=True)
                for grp in event.groups:
                    g, d = grp.merged.interval
                    spread = xl[g : d + 1].max() - xl[g : d + 1].min()
                    assert spread <= 1e-9 * (1.0 + abs(event.time))


class TestRunTolerances:
    """Every check on a timeline compares with the tolerances of its run."""

    # A near miss: the gap 1e-3 (1 - 2t + 2t^2) stays within 1e-3 on [0, 1]
    # and never closes, so neither tolerance merges the pair; at t = 0.375
    # the velocities are 2e-3 and 1.5e-3, 5e-4 apart.
    NEAR_MISS = validate([0.0, 1e-3], [1.0, 1.0], [2e-3, 0.0], [0.0, 4e-3])
    WIDE = Tolerances(abs_tol=1e-3)

    def runs(self):
        wide, default = simulate(self.NEAR_MISS, tol=self.WIDE), simulate(self.NEAR_MISS)
        assert not wide.events and not default.events
        return wide, default

    def test_timeline_keeps_its_tolerances(self, head_on):
        assert simulate(head_on).tol == DEFAULT_TOL
        tl = simulate(head_on, tol=self.WIDE)
        assert tl.tol is self.WIDE
        assert inject_velocity_fault(tl).tol is self.WIDE

    def test_velocity_fields(self):
        wide, default = self.runs()
        # one atom at 1.75e-3, found from either velocity
        fields = velocity_space_fields(wide, 0.375)
        assert fields.tol is self.WIDE and len(fields.mu.atoms) == 1
        assert fields.w_at(2e-3) == pytest.approx(2e-3)
        assert fields.a_at(1.5e-3) == pytest.approx(4e-6)
        fields = velocity_space_fields(default, 0.375)
        assert len(fields.mu.atoms) == 2
        assert (fields.w_at(2e-3), fields.a_at(1.5e-3)) == (0.0, 0.0)
        with pytest.raises(KeyError):
            fields.w_at(1.75e-3)
        with pytest.raises(KeyError):
            fields.a_at(1.75e-3)

    def test_flow_field_and_position_grouping(self):
        wide, default = self.runs()
        y = float(wide.positions_at(0.375)[0]) + 2e-4  # off the support
        assert FlowField(wide).velocity(2e-4, 0.375) == 2e-3
        assert FlowField(wide).gamma(y, 0.375) == 0.0
        with pytest.raises(UndefinedFieldPoint):
            FlowField(default).velocity(2e-4, 0.375)
        with pytest.raises(UndefinedFieldPoint):
            FlowField(default).gamma(y, 0.375)
        assert not conditioning_matches_partition(wide, 0.375)
        assert conditioning_matches_partition(default, 0.375)

    @pytest.mark.parametrize("suite", [gvp_suite, oracle_suite])
    def test_suites(self, suite):
        # at abs_tol 1e-3 the variational cut and the oracle's stepping both
        # join the pair that the run keeps apart
        wide, default = self.runs()
        result = suite(wide, np.random.default_rng(0))
        assert not result.passed and "((0, 1),)" in result.detail
        assert suite(default, np.random.default_rng(0)).passed
