"""Domain types: initial particle data and clusters.

Particles live on the line at strictly increasing positions, each with a
mass, a velocity and a constant own acceleration.  A cluster is a contiguous
index interval that has merged into one composite particle; its aggregate
state follows from conservation of mass, momentum and force: one sum over
the interval at t = 0, left to right, fixes its barycentric path for all t.  A
partition is the ordered tuple of its clusters' (left, right) index pairs,
which tile 0..N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteValue,
    NonIncreasingPositions,
    NonPositiveMass,
    NotOneDimensional,
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

    @cached_property
    def atoms(self) -> tuple[list[float], list[float], list[float], list[float]]:
        """Positions, masses, velocities and accelerations as lists of Python
        floats, for per-atom sums (the same IEEE operations as on numpy
        scalars, without their per-element overhead)."""
        return (self.positions.tolist(), self.masses.tolist(),
                self.velocities.tolist(), self.accelerations.tolist())


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
    columns = (("positions", x), ("masses", m), ("velocities", v), ("accelerations", th))
    for name, arr in columns:
        if arr.ndim != 1:
            raise NotOneDimensional(f"{name} must be one-dimensional, got shape {arr.shape}")
    if x.size == 0:
        raise EmptyInput("need at least one particle")
    if not (x.size == m.size == v.size == th.size):
        raise LengthMismatch("positions, masses, velocities, accelerations must have equal length")
    for name, arr in columns:
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
) -> tuple[float, float, float, float]:
    """Aggregate state (mass, theta_bar, v_bar0, x_bar0) of interval [g, d].

    mass is the interval mass, theta_bar the mass-weighted mean acceleration,
    v_bar0 and x_bar0 the barycentric velocity and position at t = 0.  Sums
    of m, m*theta, m*v and m*x run left-to-right over the interval.
    """
    if not (0 <= g <= d < data.n):
        raise IndexOutOfRange(f"interval [{g}, {d}] outside 0..{data.n - 1}")
    x, m, v, th = data.atoms
    mass = force = momentum = moment = 0.0
    for j in range(g, d + 1):
        mass += m[j]
        force += m[j] * th[j]
        momentum += m[j] * v[j]
        moment += m[j] * x[j]
    return mass, force / mass, momentum / mass, moment / mass


@dataclass(frozen=True)
class Cluster:
    """A contiguous run [left_index, right_index] of initial particles that
    behaves as a single composite particle from its formation onwards."""

    left_index: int
    right_index: int
    mass: float
    acceleration: float

    @property
    def interval(self) -> tuple[int, int]:
        return (self.left_index, self.right_index)

    @property
    def size(self) -> int:
        return self.right_index - self.left_index + 1


def make_cluster(data: InitialData, g: int, d: int) -> tuple[Cluster, QuadraticPath]:
    """Cluster [g, d] and its barycentric path in absolute time, from one call
    of cluster_aggregates; its state at any time is read off the path."""
    mass, theta_bar, v_bar0, x_bar0 = cluster_aggregates(data, g, d)
    return Cluster(g, d, mass, theta_bar), QuadraticPath(x_bar0, v_bar0, theta_bar)


def interval_path(data: InitialData, g: int, d: int) -> QuadraticPath:
    """Barycentric trajectory of interval [g, d]: the path of make_cluster."""
    return make_cluster(data, g, d)[1]
