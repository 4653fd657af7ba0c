"""Domain types: initial particle data, clusters, partitions.

Particles live on the line at strictly increasing positions, each with a
mass, a velocity and a constant own acceleration.  A cluster is a contiguous
index interval that has merged into one composite particle; its aggregate
state follows from conservation of mass, momentum and force.  All aggregate
sums run left-to-right over the index interval for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    NonFiniteValue,
    NonIncreasingPositions,
    NonPositiveMass,
)
from .quadratics import QuadraticPath


@dataclass(frozen=True, eq=False)
class InitialData:
    """The triple (mass distribution, velocity function, acceleration function)
    realized by atoms at strictly increasing positions."""

    positions: np.ndarray
    masses: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    gvp_admissible: bool = False

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses)


def validate(
    positions: Sequence[float] | InitialData,
    masses: Sequence[float] | None = None,
    velocities: Sequence[float] | None = None,
    accelerations: Sequence[float] | None = None,
) -> InitialData:
    """Build a validated InitialData, computing the gvp_admissible flag.

    Accepts either four sequences or an existing InitialData to re-validate.
    Duplicate positions are rejected, never pre-merged: silently merging
    would change the velocity and acceleration functions.
    """
    if isinstance(positions, InitialData):
        d = positions
        positions, masses, velocities, accelerations = (
            d.positions, d.masses, d.velocities, d.accelerations)
    x = np.asarray(positions, dtype=float)
    m = np.asarray(masses, dtype=float)
    v = np.asarray(velocities, dtype=float)
    th = np.asarray(accelerations, dtype=float)
    if x.size == 0:
        raise EmptyInput("need at least one particle")
    if not (x.size == m.size == v.size == th.size):
        raise EmptyInput("positions, masses, velocities, accelerations must have equal length")
    for name, arr in (("positions", x), ("masses", m), ("velocities", v), ("accelerations", th)):
        if not np.isfinite(arr).all():
            raise NonFiniteValue(f"{name} must be finite (no NaN or infinity)")
    if np.any(np.diff(x) <= 0):
        raise NonIncreasingPositions("positions must be strictly increasing")
    if np.any(m <= 0):
        raise NonPositiveMass("masses must be strictly positive")
    admissible = bool(np.all(np.diff(th) <= 0))
    return InitialData(x.copy(), m.copy(), v.copy(), th.copy(), admissible)


def cluster_aggregates(
    data: InitialData,
    g: int,
    d: int,
    t: float,
) -> tuple[float, float, float, float]:
    """Aggregate state (mass, theta_bar, v_bar(t), x_bar(t)) of interval [g, d].

    mass is the interval mass, theta_bar the mass-weighted mean acceleration,
    v_bar(t) and x_bar(t) the barycentric velocity and position at time t.
    Sums run left-to-right over the interval.
    """
    if not (0 <= g <= d < data.n):
        raise IndexOutOfRange(f"interval [{g}, {d}] outside 0..{data.n - 1}")
    idx = range(g, d + 1)
    m = data.masses
    x = data.positions
    v = data.velocities
    th = data.accelerations
    mass = _running_sum(m[j] for j in idx)
    force = _running_sum(m[j] * th[j] for j in idx)
    momentum = _running_sum(m[j] * (v[j] + t * th[j]) for j in idx)
    moment = _running_sum(m[j] * (x[j] + t * (v[j] + 0.5 * t * th[j])) for j in idx)
    return float(mass), float(force / mass), float(momentum / mass), float(moment / mass)


def _running_sum(values: Iterable[float]) -> float:
    total = 0.0
    for val in values:
        total += val
    return total


def interval_path(data: InitialData, g: int, d: int) -> QuadraticPath:
    """Barycentric trajectory of interval [g, d] as a path in absolute time."""
    mass, theta_bar, v_bar0, x_bar0 = cluster_aggregates(data, g, d, 0.0)
    return QuadraticPath(x_bar0, v_bar0, theta_bar)


@dataclass(frozen=True)
class Cluster:
    """A contiguous run [left_index, right_index] of initial particles that
    behaves as a single composite particle from formation_time onwards."""

    left_index: int
    right_index: int
    mass: float
    acceleration: float
    velocity_at_formation: float
    position_at_formation: float
    formation_time: float

    @property
    def interval(self) -> tuple[int, int]:
        return (self.left_index, self.right_index)

    @property
    def size(self) -> int:
        return self.right_index - self.left_index + 1


def make_cluster(data: InitialData, g: int, d: int, formed_at: float) -> Cluster:
    mass, theta_bar, v_bar, x_bar = cluster_aggregates(data, g, d, formed_at)
    return Cluster(g, d, mass, theta_bar, v_bar, x_bar, formed_at)


@dataclass(frozen=True)
class Partition:
    """Ordered clusters that tile the index range 0..N-1 contiguously."""

    clusters: tuple[Cluster, ...]

    def __post_init__(self):
        expect = 0
        for c in self.clusters:
            if c.left_index != expect or c.right_index < c.left_index:
                raise IndexOutOfRange("clusters must tile the index range in order")
            expect = c.right_index + 1

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        return tuple(c.interval for c in self.clusters)


def partition_from_intervals(
    data: InitialData,
    intervals: Iterable[tuple[int, int]],
    formed_at: float = 0.0,
) -> Partition:
    """Partition with every cluster's aggregates computed at formed_at."""
    return Partition(tuple(make_cluster(data, g, d, float(formed_at)) for g, d in intervals))
