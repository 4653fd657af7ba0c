import numpy as np
import pytest

from stickygas import simulate, validate


@pytest.fixture
def head_on():
    """Equal masses, no acceleration; shock at t=1, merged velocity 1/2."""
    return validate([0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0])


@pytest.fixture
def weighted_pair():
    """Masses 1 and 3 with opposite accelerations; shock at sqrt(2)."""
    return validate([0.0, 2.0], [1.0, 3.0], [0.0, 0.0], [1.0, -1.0])


@pytest.fixture
def triple():
    """Symmetric three-body pile-up: both gaps close at t=1 simultaneously."""
    return validate([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0])


@pytest.fixture
def congestion_pair():
    """Velocities coincide at t=1 with distinct accelerations: a(1,1)=1/4."""
    return validate([0.0, 10.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0])


@pytest.fixture
def tied_velocity_pair():
    """Equal initial velocities, distinct accelerations: a_0 != 0."""
    return validate([0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, -1.0])


@pytest.fixture
def single():
    return validate([0.5], [2.0], [0.3], [-0.7])


def random_data(seed, n_max=12, zero_acceleration=False):
    from stickygas.instances import random_instance

    rng = np.random.default_rng(seed)
    data = random_instance(rng, n_max)
    if zero_acceleration:
        data = validate(data.positions, data.masses, data.velocities,
                        np.zeros(data.n))
    return data, rng


def lattice_instance(seed, n):
    """Integer positions and velocities: many exactly simultaneous merges."""
    rng = np.random.default_rng(seed)
    return validate(np.arange(n, dtype=float), rng.integers(1, 3, n).astype(float),
                    rng.integers(-2, 3, n).astype(float), rng.integers(-1, 2, n).astype(float))


@pytest.fixture
def timeline_head_on(head_on):
    return simulate(head_on)
