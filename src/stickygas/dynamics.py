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
column arrays and partition (its clusters' index intervals) are built when a
query asks for them.

`brute_force_partitions` provides an independent oracle: explicit time
stepping that merges whenever adjacent barycenters touch or cross at a step
boundary.  A lower bound on each adjacent gap, with a proven rounding
allowance, rules out a merge of that pair over a block of steps.  One loop
asks the bound once per block: a block where it clears every pair is
skipped, a longer refused block is halved, and a refused block of at most
`_CHUNK` steps is built and steps only the pairs those same verdicts left
uncleared.  The oracle shares only the barycentric evaluation with the
event engine: neither the stepping nor the bound solves a root or schedules
an event.
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
from .model import Cluster, InitialData, interval_path, make_cluster, validate
from .quadratics import QuadraticPath, quadratic_meet_times
from .tolerances import DEFAULT_TOL, Tolerances

_VIEW_LIVES = 1 << 16  # bound on the lives held by a timeline's kept segment views


@dataclass(frozen=True)
class MergeGroup:
    members: tuple[tuple[int, int], ...]  # cluster index ranges before the merge
    merged: Cluster
    path: QuadraticPath  # the merged cluster's barycentric path


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
    picks a segment's lives in particle-index order.  `tol` is the policy
    the run was built under; every check on the timeline compares with it."""

    initial: InitialData
    t_end: float
    events: tuple[ShockEvent, ...]
    bounds: tuple[float, ...]
    lives: tuple[Life, ...]
    tol: Tolerances
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

    def partition_at(self, t: float) -> tuple[tuple[int, int], ...]:
        """The (left, right) index intervals of the clusters at t, in order."""
        return tuple(life.cluster.interval for life in self.segment_at(t).lives)

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


def horizon_of(timeline: ShockTimeline) -> float:
    """A finite window that covers all events with a margin: t_end when
    finite, else the last shock time plus 1, else 1."""
    if math.isfinite(timeline.t_end):
        return timeline.t_end
    if timeline.events:
        return timeline.event_times[-1] + 1.0
    return 1.0


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
    Each cluster is summed once, at t = 0, by make_cluster; its state at
    formation is read off its path.
    """
    data = validate(data)
    if not t_end > 0.0:
        raise TimeOutOfRange("t_end must be positive")
    # [cluster, path, first segment, last segment] of every life so far (the
    # last is None while the cluster lives); live[k] is the life of cluster k
    lives: list[list] = [[*make_cluster(data, j, j), 0, None] for j in range(data.n)]
    clusters = [life[0] for life in lives]
    paths = [life[1] for life in lives]
    lefts = list(range(data.n))  # left particle index of each live cluster
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
            merged, path = make_cluster(data, g, d)
            records.append(MergeGroup(tuple(c.interval for c in members), merged, path))
            for c in members:
                stamp[c.left_index] += 1
            for k in live[first : last + 1]:
                lives[k][3] = ended
            clusters[first : last + 1] = [merged]
            paths[first : last + 1] = [path]
            lefts[first : last + 1] = [g]
            live[first : last + 1] = [len(lives)]
            lives.append([merged, path, ended + 1, None])
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
    return ShockTimeline(data, float(t_end), tuple(events), tuple(bounds), tuple(tree), tol)


# ---------------------------------------------------------------------------
# Time-stepped oracle

# Rounding allowance of the block-skip bound per unit of the pair's magnitude
# sum (2^-47 = 64u, against the 28u derived in brute_force_partitions) and
# its floor for gradual underflow (2^-1068, against 2^-1070).
_SKIP_ROUNDING = 2.0**-47
_SKIP_UNDERFLOW = 2.0**-1068
# Coefficients and horizons below these sizes keep every intermediate of the
# bound and of the stepped positions below 2^1002, so nothing overflows.
_SKIP_MAX_COEFF = 2.0**500
_SKIP_MAX_TIME = 2.0**250
# Most grid steps built at a time: the longest block that is stepped.
_CHUNK = 4096


def brute_force_partitions(
    data: InitialData,
    times: Sequence[float],
    dt: float,
    tol: Tolerances = DEFAULT_TOL,
) -> list[tuple[tuple[int, int], ...]]:
    """Partitions at the requested times from explicit time stepping, each
    the ordered tuple of its clusters' (left, right) index intervals.

    Advances all clusters on a grid of step dt; at each step boundary merges
    every adjacent run whose barycenters are out of order or within
    tol.abs_tol, cascading until the boundary is clean.  The requested times
    after 0 are inserted as extra boundaries, and a requested 0 takes the
    initial partition; detection therefore lags a true shock by at most dt,
    so callers should sample away from shocks.  Grid values
    are those of np.arange(dt, t_max + dt, dt) up to the last requested time
    t_max, computed as dt + k*dt like arange does.  At most `_CHUNK` steps
    are built at a time, so memory does not grow with the horizon.

    The steps are checked with a certificate per adjacent pair.  Let t0 <= t1
    be two times and h = t1 - t0.  Each adjacent pair's gap
    G(s) = P_{i+1}(s) - P_i(s) is a quadratic, so for s in [t0, t1]
    (Taylor at t0, exact)

        G(s) >= G(t0) - max(0, -G'(t0)) h - max(0, -(c2_{i+1} - c2_i)) h^2/2.

    The pair is certified over [t0, t1] when this bound, less the allowance

        A = 2^-47 (W + |abs_tol|) + 2^-1068 (1 + t1),
        W = S_0 + t1 S_1 + t1^2 S_2 / 2,  S_k = |c_k,i| + |c_k,i+1|,

    exceeds abs_tol in binary64: then the pair's stepped difference is above
    abs_tol at every boundary in [t0, t1].  The differences
    D_k = c_k,i+1 - c_k,i of the pair's coefficient rows, max(0, -D_2) and
    S_k are formed once per partition; the bound takes G(t0) as
    D_0 + t0*(D_1 + 0.5*t0*D_2) and G'(t0) as D_1 + t0*D_2.  It solves no
    root and schedules nothing, so the oracle stays independent of the
    event engine.

    One loop walks the grid a block of steps at a time, and each block
    decision asks the certificate once.  With t0 the last boundary checked
    (0 at the start, the boundary itself after a merge), k1 the grid step
    that ends a block and t1 = min(dt + (k1-1)*dt, t_max) its last boundary
    (t_max for the block that ends the grid), a block in which every pair is
    certified over [t0, t1] is skipped without being built: the requested
    times up to t1 take the current partition, and the next block tried is
    twice as long.  A refused block longer than `_CHUNK` steps is halved and
    asked again.  A refused block of at most `_CHUNK` steps is built, and
    the verdicts that refused it pick its rows: only the pairs they left
    uncertified are stepped.  A certified pair has no boundary at or below
    abs_tol anywhere in [t0, t1], so the first boundary needing a merge is
    the one full stepping would find.  After a merge at boundary s the loop
    starts again at s with a block of `_CHUNK` steps.

    Why no boundary in [t0, t1] would merge a certified pair (any
    0 <= t0 <= t1; the proof is per pair).  Write u = 2^-53,
    γ_k = ku/(1-ku) and fl(a∘b) = (a∘b)(1+δ) + η with |δ| <= u, and
    |η| <= 2^-1075 for products, η = 0 for sums (Higham, Accuracy and
    Stability of Numerical Algorithms, §2.1; Horner's rule, §5.1), and
    let W and S_k be exact here.  For 0 <= s <= t1 the two rows'
    |c0| + s|c1| + s^2|c2|/2 sum to at most W, and the exact differences
    Δ_k satisfy |Δ_k| <= S_k, |D_k - Δ_k| <= u S_k and |D_k| <= (1+u) S_k:

    (a) c0 + s*(c1 + 0.5*s*c2) is Horner's rule with four roundings, so the
        difference of a pair's stepped positions at s, before it is itself
        rounded, is within γ4 W of G(s);
    (b) Horner's rule on the D_k is within uW of G(t0) from the rounding of
        the D_k and within γ4(1+u)W from its own four roundings: γ5 W;
    (c) fl(D_1 + t0*D_2) is within (u + γ2(1+u)) V <= γ3 V of G'(t0),
        V = S_1 + t0 S_2; with the roundings of h and of the product the
        slope term is within γ5 Vh <= γ5 W, as h <= t1 and t0 h <= t1^2/4;
    (d) the curvature term ((P*h)*h)*0.5, P = max(0, -D_2), is off by
        u S_2 h^2/2 from the rounding of D_2 and by γ4 from h and its
        products: γ5 W in all;
    (e) the three subtractions assembling g - slope - curvature - A, g the
        computed G(t0), add at most u(1+u)^2 (3|g| + 3 slope + 2 curvature
        + A), under 8.1uW + 2uA since each of the three terms is at most
        (1+γ5)W;
    (f) the stepped difference x rounds above abs_tol once
        x > abs_tol + γ1|abs_tol|;
    (g) gradual underflow adds at most 2^-1075 per product, scaled by at
        most t1 afterwards: under 2^-1070 (1 + t1) over (a)-(e).

    The total, under 28uW + 2uA + γ1|abs_tol| + 2^-1070 (1 + t1), is less
    than the computed A, which is at least (1-γ8) 64u (W + |abs_tol|) +
    2^-1069 (1 + t1) (nonnegative terms, at most eight roundings).  So a
    computed bound above abs_tol puts every stepped difference of the pair
    in [t0, t1] above abs_tol.  Coefficients of 2^500 and beyond or t1 of
    2^250 and beyond, where (a)-(e) could overflow, certify no pair.
    """
    if not 0.0 < dt < math.inf:
        raise TimeOutOfRange("dt must be positive and finite")
    data = validate(data)
    ts = [float(t) for t in times]
    if not all(map(math.isfinite, ts)):
        raise TimeOutOfRange("sample times must be finite")
    if ts and min(ts) < 0.0:
        raise TimeOutOfRange("sample times must be nonnegative")
    wanted = _distinct(np.asarray(sorted(ts))).tolist()  # ascending
    parts: list[tuple[tuple[int, int], ...]] = []  # the partitions at wanted[:len(parts)]

    intervals: list[tuple[int, int]] = [(j, j) for j in range(data.n)]
    coeffs = _interval_coeffs(data, intervals)

    def record(count: int) -> None:
        """The current partition for wanted[len(parts):count]."""
        parts.extend([tuple(intervals)] * (count - len(parts)))

    if wanted and wanted[0] == 0.0:
        # a requested 0 takes the initial partition and is no step boundary
        record(1)
    gaps = _gap_rows(coeffs)
    t_max = wanted[-1] if wanted else 0.0
    n_grid = math.ceil((t_max + dt - dt) / dt)  # np.arange's length
    k0, size, t0 = 0, _CHUNK, 0.0
    while len(parts) < len(wanted) and len(intervals) > 1:
        k1 = min(k0 + size, n_grid)
        t1 = t_max if k1 == n_grid else min(dt + (k1 - 1) * dt, t_max)
        certified = _no_merge_within(gaps, t0, t1, tol.abs_tol)
        if certified is not None and all(certified):
            size *= 2
        elif k1 - k0 > _CHUNK:
            size = max(_CHUNK, (k1 - k0) // 2)
            continue
        else:
            grid = dt + np.arange(k0, k1, dtype=float) * dt
            grid = grid[grid <= t1]
            bounds = np.concatenate([grid, wanted[len(parts) : bisect_right(wanted, t1)]])
            bounds.sort()
            bounds = _distinct(bounds)
            j = _first_merge_column(coeffs, certified, bounds, tol.abs_tol)
            size = _CHUNK
            if j is not None:
                t0 = float(bounds[j])
                record(bisect_left(wanted, t0))
                intervals, coeffs = _merge_at(data, intervals, coeffs, t0, tol)
                gaps = _gap_rows(coeffs)
                record(bisect_right(wanted, t0))
                k0 += int(np.searchsorted(grid, t0, "right"))
                continue
        # no boundary up to t1 needs a merge
        record(bisect_right(wanted, t1))
        k0, t0 = k1, t1
    record(len(wanted))
    return [parts[bisect_left(wanted, t)] for t in ts]


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """A sorted array without its repeated values (np.unique without the
    numpy.ma import it brings)."""
    keep = np.empty(ascending.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def _gap_rows(coeffs: np.ndarray) -> list[tuple[float, ...]] | None:
    """What the block-skip bound needs of one partition, per adjacent pair:
    the differences D_k of the coefficient rows, max(0, -D_2) and the sums
    S_k of their magnitudes, as (D_0, D_1, D_2, max(0, -D_2), S_0, S_1, S_2)
    in Python floats; None when a coefficient is too large to skip."""
    rows = coeffs.tolist()
    if not all(abs(c) < _SKIP_MAX_COEFF for row in rows for c in row):
        return None
    gaps = []
    for (a0, a1, a2), (b0, b1, b2) in zip(rows, rows[1:]):
        d2 = b2 - a2
        gaps.append((b0 - a0, b1 - a1, d2, max(0.0, -d2),
                     abs(b0) + abs(a0), abs(b1) + abs(a1), abs(b2) + abs(a2)))
    return gaps


def _no_merge_within(
    gaps: list[tuple[float, ...]] | None,
    t0: float,
    t1: float,
    abs_tol: float,
) -> list[bool] | None:
    """The certificate of brute_force_partitions, per adjacent pair: True
    where the pair's stepped difference at every boundary in [t0, t1] is
    above abs_tol.  None when the certificate clears no pair (coefficients
    or t1 too large).

    Each bound is the expression the proof bounds, in the same operations
    and order, on Python floats, which round every operation in binary64 as
    numpy's float64 arrays do; max(0.0, x) stands for np.maximum(0.0, x).
    So the verdicts are those of the same expressions over arrays:
    - the two maxima can differ only in the sign of a zero, and a zero's
      sign cannot flip `> abs_tol`;
    - they also differ on a NaN, and no NaN can occur: the inputs are
      finite, the coefficients are below 2^500 and t1 is below 2^250, so
      every intermediate stays below 2^1002."""
    if gaps is None or t1 >= _SKIP_MAX_TIME:
        return None
    h = t1 - t0
    underflow = _SKIP_UNDERFLOW * (1.0 + t1)
    verdicts = []
    for d0, d1, d2, curvature, s0, s1, s2 in gaps:
        gap = d0 + t0 * (d1 + 0.5 * t0 * d2)
        slope = d1 + t0 * d2
        width = s0 + t1 * (s1 + 0.5 * t1 * s2)
        allowance = _SKIP_ROUNDING * (width + abs(abs_tol)) + underflow
        bound = (gap - max(0.0, -slope) * h - curvature * h * h * 0.5) - allowance
        verdicts.append(bound > abs_tol)
    return verdicts


def _first_merge_column(
    coeffs: np.ndarray,
    certified: list[bool] | None,
    ts: np.ndarray,
    abs_tol: float,
) -> int | None:
    """Index of the first boundary in ts at which an adjacent pair's stepped
    difference is <= abs_tol, or None.  Only the rows of the pairs that the
    certificate's verdicts `certified` leave uncertified (all pairs when
    None) are stepped."""
    if certified is None:
        pairs = np.arange(len(coeffs) - 1)
    else:
        pairs = np.flatnonzero(np.logical_not(certified))
    stepped = np.zeros(len(coeffs), dtype=bool)
    stepped[pairs] = True
    stepped[pairs + 1] = True
    rows = np.flatnonzero(stepped)
    pos = _eval_positions(coeffs[rows], ts)  # (rows, len(ts))
    left = np.searchsorted(rows, pairs)
    bad_cols = np.flatnonzero((pos[left + 1] - pos[left] <= abs_tol).any(axis=0))
    return int(bad_cols[0]) if bad_cols.size else None


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
    coeffs: np.ndarray,
    s: float,
    tol: Tolerances,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Cascade-merge adjacent intervals overlapping at time s.  Returns the
    intervals and their coefficient rows; an interval that does not merge
    keeps its row (interval_path is deterministic, so the floats are those
    a rebuild would give)."""
    while len(intervals) > 1:
        pos = _eval_positions(coeffs, np.asarray([s]))[:, 0]
        bad = np.diff(pos) <= tol.abs_tol
        if not bad.any():
            break
        first = np.flatnonzero(np.concatenate(([True], ~bad)))  # run starts
        last = np.append(first[1:], len(intervals)) - 1
        coeffs = coeffs[first]
        merged: list[tuple[int, int]] = []
        for r, (a, b) in enumerate(zip(first.tolist(), last.tolist())):
            g, d = intervals[a][0], intervals[b][1]
            if b > a:
                p = interval_path(data, g, d)
                coeffs[r] = (p.c0, p.c1, p.c2)
            merged.append((g, d))
        intervals = merged
    return intervals, coeffs
