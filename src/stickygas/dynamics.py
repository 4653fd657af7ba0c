"""Event-driven construction of the sticky-particle shock timeline.

Between collisions every cluster follows its barycentric quadratic, so the
next collision is the earliest crossing time among adjacent cluster paths.
`simulate` keeps those crossing times in a heap keyed by the left cluster of
each adjacent pair, with a per-pair stamp for lazy invalidation (Lubachevsky
1991): after a merge only the pairs that touch a new cluster are solved
again, and entries of pairs that no longer exist are dropped when they reach
the top.  Every pair within the time-scaled grouping tolerance of the
earliest one is popped together and the popped pairs are split into
connected runs, which merge in one step (multi-cluster pile-ups included) --
the same grouping as the full rescan `next_collision`, kept as the reference.
After a merge the new path is re-derived from the initial data via the
barycentric formula -- never by local continuation -- so floating-point
drift cannot desynchronize paths from aggregates.

Clusters only ever merge, so a run is a merge tree of at most 2N-1
clusters, each alive on a range of consecutive inter-shock segments.  The
timeline stores those lives and the segment bounds; a segment's clusters,
column arrays and `Partition` are built when a query asks for them.

`brute_force_partitions` provides an independent oracle: explicit time
stepping that merges whenever adjacent barycenters touch or cross at a step
boundary.  It shares only the barycentric evaluation with the event engine,
not the root-finding or scheduling.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IdenticalPaths, TimeOutOfRange
from .model import (
    Cluster,
    InitialData,
    Partition,
    interval_path,
    make_cluster,
    partition_from_intervals,
    validate,
)
from .quadratics import QuadraticPath, quadratic_meet_times
from .tolerances import DEFAULT_TOL, Tolerances

_VIEW_LIVES = 1 << 16  # bound on the lives held by a timeline's kept segment views


@dataclass(frozen=True)
class MergeGroup:
    members: tuple[tuple[int, int], ...]  # cluster index ranges before the merge
    merged: Cluster


@dataclass(frozen=True)
class ShockEvent:
    time: float
    groups: tuple[MergeGroup, ...]


class Life(NamedTuple):
    """One node of the merge tree: a cluster and its barycentric path, alive
    on the consecutive segments first..last (inclusive)."""

    cluster: Cluster
    path: QuadraticPath
    first: int
    last: int


class Segment(NamedTuple):
    """Inter-shock window [t_lo, t_hi) (last segment closed at t_end): the
    lives alive on it, in particle-index order, and their column arrays."""

    t_lo: float
    t_hi: float
    lives: tuple[Life, ...]
    size: np.ndarray   # particles per cluster
    mass: np.ndarray
    theta: np.ndarray  # cluster accelerations
    c0: np.ndarray     # path coefficients
    c1: np.ndarray
    c2: np.ndarray

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return tuple(life.cluster for life in self.lives)

    @property
    def paths(self) -> tuple[QuadraticPath, ...]:
        return tuple(life.path for life in self.lives)


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


@dataclass(frozen=True, eq=False)
class ShockTimeline:
    """A run as a merge tree: segment i is [bounds[i], bounds[i+1]), and each
    of the at most 2N-1 lives is one cluster over a range of segments.  Lives
    are sorted by left particle index, then by first segment, so a mask
    picks a segment's lives in particle-index order."""

    initial: InitialData
    t_end: float
    events: tuple[ShockEvent, ...]
    bounds: tuple[float, ...]
    lives: tuple[Life, ...]
    _views: dict[int, Segment] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def event_times(self) -> tuple[float, ...]:
        return tuple(e.time for e in self.events)

    @cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """Arrays over the lives: first, last, size, mass, theta, c0, c1, c2."""
        return tuple(map(np.array, zip(*(
            (x.first, x.last, x.cluster.size, x.cluster.mass, x.cluster.acceleration,
             x.path.c0, x.path.c1, x.path.c2) for x in self.lives))))

    @property
    def n_segments(self) -> int:
        return len(self.bounds) - 1

    @property
    def total_mass(self) -> float:
        return self.initial.total_mass

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.t_end:
            raise TimeOutOfRange(f"t={t} outside [0, {self.t_end}]")

    def segment(self, i: int) -> Segment:
        """Segment i, its lives picked from the columns by one mask.

        Views are kept, so a repeated query is a lookup; their arrays are
        read-only.  A view holds at most N lives, so keeping at most
        _VIEW_LIVES // N of them (all dropped when full) bounds the memory."""
        view = self._views.get(i)
        if view is None:
            if not 0 <= i < self.n_segments:
                raise IndexError(f"no segment {i} of {self.n_segments}")
            first, last, *columns = self.columns
            rows = ((first <= i) & (last >= i)).nonzero()[0]
            columns = [c[rows] for c in columns]
            for c in columns:
                c.flags.writeable = False
            if len(self._views) >= max(1, _VIEW_LIVES // self.initial.n):
                self._views.clear()
            lives = tuple(map(self.lives.__getitem__, rows.tolist()))
            view = self._views[i] = Segment(self.bounds[i], self.bounds[i + 1], lives, *columns)
        return view

    def segment_at(self, t: float) -> Segment:
        """Segment containing t under the right-continuous convention."""
        self._check_time(t)
        return self.segment(max(bisect_right(self.bounds, t, hi=self.n_segments) - 1, 0))

    def segment_before(self, t: float) -> Segment:
        """Segment giving the left limit at t (the segment itself at non-events)."""
        self._check_time(t)
        return self.segment(max(bisect_left(self.bounds, t, hi=self.n_segments) - 1, 0))

    def partition_at(self, t: float) -> Partition:
        return Partition(self.segment_at(t).clusters)

    def _per_particle(self, seg: Segment, t: float, kind: str) -> np.ndarray:
        if kind == "x":
            values = seg.c0 + t * (seg.c1 + 0.5 * t * seg.c2)
        elif kind == "v":
            values = seg.c1 + t * seg.c2
        else:
            values = seg.theta
        # the segment's clusters tile 0..N-1 in order
        return np.repeat(values, seg.size)

    def positions_at(self, t: float) -> np.ndarray:
        return self._per_particle(self.segment_at(t), t, "x")

    def velocities_at(self, t: float) -> np.ndarray:
        return self._per_particle(self.segment_at(t), t, "v")

    def accelerations_at(self, t: float) -> np.ndarray:
        return self._per_particle(self.segment_at(t), t, "a")

    def positions_at_left(self, t: float) -> np.ndarray:
        return self._per_particle(self.segment_before(t), t, "x")

    def velocities_at_left(self, t: float) -> np.ndarray:
        return self._per_particle(self.segment_before(t), t, "v")

    def accelerations_at_left(self, t: float) -> np.ndarray:
        return self._per_particle(self.segment_before(t), t, "a")

    def sample_positions(self, ts: Sequence[float]) -> np.ndarray:
        return self._sample(ts, QuadraticPath.__call__)

    def sample_velocities(self, ts: Sequence[float]) -> np.ndarray:
        return self._sample(ts, QuadraticPath.derivative)

    def life_rows(self, tsorted: np.ndarray) -> list[tuple[Life, int, int]]:
        """(life, first, stop) for every life that covers rows [first, stop)
        of the sorted sample times, in the order of `lives`.

        Segment i holds the times in [t_lo, t_hi), the last segment closed, so
        a time belongs to the segment `segment_at` picks, and a zero-length
        segment holds none.  A life covers the rows of its segments, one
        contiguous range."""
        if tsorted.size and not ((tsorted >= 0.0) & (tsorted <= self.t_end)).all():
            raise TimeOutOfRange("sample times outside [0, t_end]")
        firsts = np.searchsorted(tsorted, self.bounds[:-1], "left")
        stops = np.searchsorted(tsorted, self.bounds[1:], "left")
        stops[-1] = np.searchsorted(tsorted, self.bounds[-1], "right")
        firsts, stops = firsts.tolist(), stops.tolist()
        return [(life, firsts[life.first], stops[life.last]) for life in self.lives
                if firsts[life.first] < stops[life.last]]

    def _sample(self, ts: Sequence[float], evaluate) -> np.ndarray:
        """Vectorized per-particle values of evaluate(path, times), a
        QuadraticPath method, shape (len(ts), N).

        Row i equals the matching *_at(ts[i]) bit for bit.  Each life is
        evaluated and written once, on the rows it covers.
        """
        tarr = np.asarray(ts, dtype=float)
        order = np.argsort(tarr, kind="stable")
        tsorted = tarr[order]
        out = np.empty((tarr.size, self.initial.n))
        for life, first, stop in self.life_rows(tsorted):
            g, d = life.cluster.interval
            out[first:stop, g : d + 1] = evaluate(life.path, tsorted[first:stop])[:, None]
        unsorted = np.empty_like(out)
        unsorted[order] = out
        return unsorted

    def time_to_next_event(self, t: float) -> float:
        """Gap from t to the next shock (inf when none remains)."""
        self._check_time(t)
        idx = bisect_right(self.event_times, t)
        if idx == len(self.event_times):
            return math.inf
        return self.event_times[idx] - t


def simulate(
    data: InitialData,
    t_end: float = math.inf,
    tol: Tolerances = DEFAULT_TOL,
) -> ShockTimeline:
    """Run the sticky dynamics up to t_end (or until no collision remains).

    The returned timeline's segments tile [0, t_end]; the cluster count
    strictly decreases across the at most N-1 events.  Each event solves
    only the adjacent pairs that touch a newly merged cluster, so a run
    makes at most (N-1) + 2*(merge groups) crossing-time solves.  A merge
    closes its members' lives and opens one, so at most 2N-1 lives result.
    """
    data = validate(data)
    if not t_end > 0.0:
        raise TimeOutOfRange("t_end must be positive")
    clusters = [make_cluster(data, j, j, 0.0) for j in range(data.n)]
    paths = [interval_path(data, j, j) for j in range(data.n)]
    lefts = list(range(data.n))  # left particle index of each live cluster
    # [cluster, path, first segment, last segment] of every life so far (the
    # last is None while the cluster lives); live[k] is the life of cluster k
    lives: list[list] = [[c, p, 0, None] for c, p in zip(clusters, paths)]
    live = list(range(data.n))
    bounds = [0.0]  # segment i is [bounds[i], bounds[i + 1])
    # A pair of live clusters is keyed by the left index of its left cluster;
    # stamp[g] changes whenever that pair changes, which invalidates its
    # earlier heap entries.
    stamp = [0] * data.n
    heap: list[tuple[float, int, int]] = []  # (crossing time, key, stamp)

    def schedule(k: int, t_now: float) -> None:
        """Push the next crossing after t_now of live clusters k and k+1."""
        g = lefts[k]
        stamp[g] += 1
        try:
            roots = quadratic_meet_times(paths[k], paths[k + 1], after=t_now, tol=tol)
        except IdenticalPaths:
            # coincident paths: already in contact, merge immediately
            heapq.heappush(heap, (t_now, g, stamp[g]))
            return
        if roots:
            heapq.heappush(heap, (roots[0].time, g, stamp[g]))

    for k in range(data.n - 1):
        schedule(k, 0.0)
    events: list[ShockEvent] = []
    t_now = 0.0
    while True:
        while heap and stamp[heap[0][1]] != heap[0][2]:
            heapq.heappop(heap)
        if not heap or heap[0][0] > t_end:
            bounds.append(float(t_end))
            break
        t_event = heap[0][0]
        limit = t_event + tol.event_tol(t_event)
        chosen: list[int] = []
        while heap and heap[0][0] <= limit:
            _, g, entry_stamp = heapq.heappop(heap)
            if stamp[g] == entry_stamp:
                chosen.append(bisect_left(lefts, g))
        chosen.sort()
        runs: list[list[int]] = []  # [first, last] live-cluster positions
        for k in chosen:
            if runs and runs[-1][1] == k:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1])

        t_star = max(t_event, t_now)
        bounds.append(t_star)
        ended = len(bounds) - 2  # the segment this event closes
        records: list[MergeGroup] = []
        for first, last in reversed(runs):  # right to left keeps positions valid
            members = clusters[first : last + 1]
            g, d = members[0].left_index, members[-1].right_index
            merged = make_cluster(data, g, d, t_event)
            records.append(MergeGroup(tuple(c.interval for c in members), merged))
            for c in members:
                stamp[c.left_index] += 1
            for k in live[first : last + 1]:
                lives[k][3] = ended
            clusters[first : last + 1] = [merged]
            paths[first : last + 1] = [interval_path(data, g, d)]
            lefts[first : last + 1] = [g]
            live[first : last + 1] = [len(lives)]
            lives.append([merged, paths[first], ended + 1, None])
        records.reverse()
        events.append(ShockEvent(t_event, tuple(records)))
        t_now = t_star

        touched: set[int] = set()
        removed = 0
        for first, last in runs:
            k = first - removed  # position of the merged cluster
            removed += last - first
            if k > 0:
                touched.add(k - 1)
            if k < len(clusters) - 1:
                touched.add(k)
        for k in sorted(touched):
            schedule(k, t_now)
    final = len(bounds) - 2
    tree = sorted((Life(c, p, first, final if last is None else last)
                   for c, p, first, last in lives),
                  key=lambda life: (life.cluster.left_index, life.first))
    return ShockTimeline(data, float(t_end), tuple(events), tuple(bounds), tuple(tree))


# ---------------------------------------------------------------------------
# Time-stepped oracle


def brute_force_partitions(
    data: InitialData,
    times: Sequence[float],
    dt: float,
    tol: Tolerances = DEFAULT_TOL,
    chunk: int = 4096,
) -> list[Partition]:
    """Partitions at the requested times from explicit time stepping.

    Advances all clusters on a grid of step dt; at each step boundary merges
    every adjacent run whose barycenters are out of order or within
    tol.abs_tol, cascading until the boundary is clean.  The requested times
    are inserted as extra boundaries; detection therefore lags a true shock
    by at most dt, so callers should sample away from shocks.  Boundaries
    are generated `chunk` steps at a time, so memory does not grow with the
    horizon.
    """
    if dt <= 0.0:
        raise TimeOutOfRange("dt must be positive")
    data = validate(data)
    order = np.argsort(times, kind="stable")
    sorted_times = [float(times[i]) for i in order]
    if sorted_times and sorted_times[0] < 0.0:
        raise TimeOutOfRange("sample times must be nonnegative")
    if not all(map(math.isfinite, sorted_times)):
        raise TimeOutOfRange("sample times must be finite")
    requested = {t: None for t in sorted_times}

    intervals: list[tuple[int, int]] = [(j, j) for j in range(data.n)]
    coeffs = _interval_coeffs(data, intervals)

    def record_upto(upto: float) -> None:
        for t in requested:
            if requested[t] is None and t <= upto:
                requested[t] = list(intervals)

    if 0.0 in requested:
        requested[0.0] = list(intervals)

    for bounds in _step_bounds(sorted_times, dt, chunk):
        bi = 0
        while bi < len(bounds) and len(intervals) > 1:
            tchunk = bounds[bi:]
            pos = _eval_positions(coeffs, tchunk)  # (K, len(chunk))
            bad_cols = np.nonzero((np.diff(pos, axis=0) <= tol.abs_tol).any(axis=0))[0]
            if bad_cols.size == 0:
                record_upto(tchunk[-1])
                break
            j = int(bad_cols[0])
            if j > 0:
                record_upto(tchunk[j - 1])
            s = float(tchunk[j])
            intervals = _merge_at(data, intervals, s, tol)
            coeffs = _interval_coeffs(data, intervals)
            record_upto(s)
            bi += j + 1
        if len(intervals) == 1:
            break
    record_upto(math.inf)

    by_time = {t: partition_from_intervals(data, iv, t) for t, iv in requested.items()}
    return [by_time[float(times[i])] for i in range(len(times))]


def _step_bounds(sorted_times: list[float], dt: float, chunk: int):
    """The sorted, distinct step boundaries: the grid dt, 2dt, ... up to the
    last requested time, with the requested times merged in, `chunk` grid
    steps at a time.  Grid values are those of
    np.arange(dt, t_max + dt, dt), computed as dt + k*dt like arange does.
    """
    if not sorted_times:
        return
    req = np.unique(np.asarray(sorted_times))
    t_max = sorted_times[-1]
    n_grid = math.ceil((t_max + dt - dt) / dt)  # np.arange's length
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


def brute_force_partition(
    data: InitialData,
    t: float,
    dt: float,
    tol: Tolerances = DEFAULT_TOL,
) -> Partition:
    return brute_force_partitions(data, [t], dt, tol)[0]


def _interval_coeffs(data: InitialData, intervals: list[tuple[int, int]]) -> np.ndarray:
    rows = []
    for g, d in intervals:
        p = interval_path(data, g, d)
        rows.append((p.c0, p.c1, p.c2))
    return np.asarray(rows)


def _eval_positions(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    c0 = coeffs[:, 0:1]
    c1 = coeffs[:, 1:2]
    c2 = coeffs[:, 2:3]
    t = ts[None, :]
    return c0 + t * (c1 + 0.5 * t * c2)


def _merge_at(
    data: InitialData,
    intervals: list[tuple[int, int]],
    s: float,
    tol: Tolerances,
) -> list[tuple[int, int]]:
    """Cascade-merge adjacent intervals overlapping at time s."""
    current = list(intervals)
    while len(current) > 1:
        pos = _eval_positions(_interval_coeffs(data, current), np.asarray([s]))[:, 0]
        gaps = np.diff(pos)
        bad = np.nonzero(gaps <= tol.abs_tol)[0]
        if bad.size == 0:
            break
        merged: list[tuple[int, int]] = []
        k = 0
        bad_set = set(int(b) for b in bad)
        while k < len(current):
            g, d = current[k]
            while k in bad_set:
                k += 1
                d = current[k][1]
            merged.append((g, d))
            k += 1
        current = merged
    return current
