import math

import numpy as np
import pytest
from stickygas import (
    GvpFunctional,
    clusters_from_gvp,
    gvp_equivalence_check,
    interior_condition,
    is_left_endpoint,
    simulate,
    validate,
)
from stickygas.errors import (InadmissibleData, IndexOutOfRange, PreconditionViolated,
                              SamplingExhausted)
from stickygas.flow import _cluster_sums
from stickygas.model import make_cluster
from stickygas.gvp import classical_clusters, endpoint_tie_indices
from stickygas.verify import sample_times
from tests.conftest import random_data, random_family, tiles

# closing speed 2 over a unit gap: the free parabolas cross at 2 +- sqrt(2)
CASE1 = dict(positions=[0.0, 1.0], masses=[1.0, 1.0],
             velocities=[2.0, 0.0], accelerations=[0.0, 1.0])


def _is_right_endpoint(F, beta):
    """The right-endpoint test: beta ends a cluster iff beta + 1 starts
    one; index N-1 qualifies by convention."""
    return beta == F.data.n - 1 or is_left_endpoint(F, beta + 1)


class TestInteriorCondition:
    def test_holds_after_shock(self, weighted_pair):
        F = GvpFunctional(weighted_pair, 2.0)
        assert interior_condition(F, 0, 1, 1)

    def test_fails_before_shock(self, weighted_pair):
        F = GvpFunctional(weighted_pair, 1.0)
        assert not interior_condition(F, 0, 1, 1)

    def test_split_bounds(self, weighted_pair):
        F = GvpFunctional(weighted_pair, 1.0)
        with pytest.raises(IndexOutOfRange):
            interior_condition(F, 0, 1, 0)


class TestEndpointConditions:
    def test_leftmost_always_left(self, head_on):
        for t in (0.0, 0.5, 10.0):
            assert is_left_endpoint(GvpFunctional(head_on, t), 0)

    def test_rightmost_always_right(self, head_on):
        for t in (0.0, 0.5, 10.0):
            assert clusters_from_gvp(head_on, t)[-1][1] == 1

    def test_head_on_before_and_after(self, head_on):
        assert is_left_endpoint(GvpFunctional(head_on, 0.5), 1)
        assert not is_left_endpoint(GvpFunctional(head_on, 2.0), 1)


class TestClustersFromGvp:
    def test_time_zero_is_singletons(self, triple):
        assert clusters_from_gvp(triple, 0.0) == ((0, 0), (1, 1), (2, 2))

    def test_head_on(self, head_on):
        assert clusters_from_gvp(head_on, 2.0) == ((0, 1),)

    def test_weighted_pair_straddle(self, weighted_pair):
        assert clusters_from_gvp(weighted_pair, 1.0) == ((0, 0), (1, 1))
        assert clusters_from_gvp(weighted_pair, 2.0) == ((0, 1),)

    def test_requires_admissible(self):
        d = validate(**CASE1)
        with pytest.raises(InadmissibleData):
            clusters_from_gvp(d, 1.0)

    def test_functional_average_matches_aggregates(self):
        for seed in range(10):
            data, rng = random_data(seed + 4000)
            t = float(rng.uniform(0, 3))
            F = GvpFunctional(data, t)
            timeline = simulate(data)
            for a in range(data.n):
                for b in range(a, data.n):
                    x_bar = _cluster_sums(timeline, make_cluster(data, a, b)[0], t)[0]
                    assert F.interval_average(a, b) == pytest.approx(
                        x_bar, rel=1e-12, abs=1e-12)


class TestEquivalence:
    def test_fixture_instances(self, head_on, weighted_pair, triple):
        for data in (head_on, weighted_pair, triple):
            report = gvp_equivalence_check(simulate(data), [0.25, 0.5, 2.0, 3.0])
            assert report.all_match

    @pytest.mark.parametrize("seed", range(40))
    def test_random_admissible_instances(self, seed):
        data, rng = random_data(seed + 5000)
        tl = simulate(data)
        times = sample_times(tl, rng, 5, 1e-6)
        assert gvp_equivalence_check(tl, times).all_match

    def test_case1_mismatch_beyond_second_crossing(self):
        """Increasing acceleration: the interval inequality dies at the second
        parabola crossing, so the reconstruction splits the merged pair."""
        d = validate(**CASE1)
        tl = simulate(d)
        t1, t2 = 2 - math.sqrt(2), 2 + math.sqrt(2)
        assert tl.event_times[0] == pytest.approx(t1, rel=1e-12)
        assert tl.partition_at(t2 + 0.5) == ((0, 1),)

        F = GvpFunctional(d, t2 + 0.5)
        assert not interior_condition(F, 0, 1, 1)
        report = gvp_equivalence_check(simulate(d), [t2 + 0.5, t2 + 3.0])
        assert not report.all_match
        assert all(e.reconstructed == ((0, 0), (1, 1)) for e in report.entries)

        # between the crossings the inequality still holds
        mid = 0.5 * (t1 + t2)
        assert interior_condition(GvpFunctional(d, mid), 0, 1, 1)
        assert gvp_equivalence_check(simulate(d), [mid]).all_match

    def test_acceleration_ties_are_admissible_and_match(self):
        # non-increasing with plateaus: runs with no mismatch, ties reported
        d = validate([0, 1, 2, 3], [1, 1, 1, 1], [1.5, 0.5, 0.2, -1.0],
                     [0.5, 0.5, -0.5, -0.5])
        assert d.gvp_admissible
        tl = simulate(d)
        rng = np.random.default_rng(0)
        times = sample_times(tl, rng, 8, 1e-6)
        report = gvp_equivalence_check(tl, times)
        assert report.all_match
        for e in report.entries:
            assert e.ties == ()  # away from shocks, ties should not appear


class TestPerClusterInvariant:
    @pytest.mark.parametrize("seed", range(20))
    def test_simulated_clusters_satisfy_every_condition(self, seed):
        """Each simulated cluster passes all interior splits, its endpoints
        certify, and no interior index certifies as either endpoint."""
        data, rng = random_data(seed + 14_000)
        tl = simulate(data)
        for t in sample_times(tl, rng, 3, 1e-6):
            F = GvpFunctional(data, t)
            for g, d in tl.partition_at(t):
                assert is_left_endpoint(F, g)
                assert _is_right_endpoint(F, d)
                for y in range(g + 1, d + 1):
                    assert interior_condition(F, g, d, y)
                for y in range(g + 1, d):
                    assert not is_left_endpoint(F, y)
                    assert not _is_right_endpoint(F, y)

    def test_endpoint_sets_assemble_even_on_degenerate_data(self):
        """Integer free-flight values maximize ties; the certified left and
        right endpoint sets still pair into the reconstructed partition."""
        rng = np.random.default_rng(0)
        for _ in range(3000):
            n = int(rng.integers(3, 6))
            eta = rng.integers(-3, 4, n).astype(float)
            x = np.arange(n, dtype=float)
            d = validate(x, rng.integers(1, 4, n).astype(float), eta - x, np.zeros(n))
            part = clusters_from_gvp(d, 1.0)
            F = GvpFunctional(d, 1.0)
            lefts = [i for i in range(n) if is_left_endpoint(F, i)]
            rights = [i for i in range(n) if _is_right_endpoint(F, i)]
            assert part == tuple(zip(lefts, rights))
            tiles(part, n)


def _reference_margins(F):
    """Split margins from the per-index certificate functions."""
    return np.array([F.left_endpoint_margin(k + 1) for k in range(F.data.n - 1)])


def _reference_ties(F):
    """The per-index tie scan that split_margins replaced."""
    ties = []
    for i in range(F.data.n):
        lm = F.left_endpoint_margin(i)
        rm = F.left_endpoint_margin(i + 1) if i < F.data.n - 1 else math.inf
        if (lm is not math.inf and abs(lm) <= F.tol.abs_tol) or (
            rm is not math.inf and abs(rm) <= F.tol.abs_tol
        ):
            ties.append(i)
    return ties


def _without_acceleration(d):
    return validate(d.positions, d.masses, d.velocities, np.zeros(d.n))


def _random_cases():
    """Random instances as drawn, then with the accelerations sorted the
    inadmissible way (increasing), each as given and with zero accelerations;
    then one N = 300 instance at three times and the two-parabola case."""
    for seed in range(60):
        data, rng = random_data(seed + 21_000, n_max=30)
        rising = validate(data.positions, data.masses, data.velocities,
                          np.sort(data.accelerations))
        for d in (data, rising):
            t = float(rng.uniform(0, 4))
            yield GvpFunctional(d, t)
            yield GvpFunctional(_without_acceleration(d), t)
    rng = np.random.default_rng(3)
    n = 300
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    d = validate(x, rng.uniform(0.1, 10, n), rng.normal(size=n),
                 -np.sort(rng.normal(size=n)))
    for t in (0.0, 0.8, 5.0):
        yield GvpFunctional(d, t)
    d = validate(**CASE1)
    for t in (0.3, 2 - math.sqrt(2), 2.0, 2 + math.sqrt(2) + 0.5, 9.0):
        yield GvpFunctional(d, t)
        yield GvpFunctional(_without_acceleration(d), t)


class TestSplitMargins:
    def test_equal_to_endpoint_margins(self):
        for F in _random_cases():
            m = F.split_margins
            assert np.array_equal(m, _reference_margins(F))

    def test_one_and_two_particles(self, single, head_on):
        F = GvpFunctional(single, 0.7)
        assert F.split_margins.shape == (0,)
        assert endpoint_tie_indices(F) == []
        assert clusters_from_gvp(single, 0.7) == ((0, 0),)
        for t in (0.5, 1.0, 2.0):
            F = GvpFunctional(head_on, t)
            assert np.array_equal(F.split_margins, [F.left_endpoint_margin(1)])
        assert endpoint_tie_indices(GvpFunctional(head_on, 1.0)) == [0, 1]

    @pytest.mark.parametrize("n", [10, 1000])
    def test_exact_pile_up(self, n):
        """theta = -x, u0 = -x, unit masses: every atom meets at sqrt(3) - 1,
        where every margin is an exact tie: there only the cuts and the ties
        are pinned, since rounding may rank the collinear hull points apart."""
        x = np.linspace(0.0, 1.0, n)
        d = validate(x, np.ones(n), -x, -x)
        for t in (0.5, 0.9):
            F = GvpFunctional(d, t)
            assert np.array_equal(F.split_margins, _reference_margins(F))
        F = GvpFunctional(d, math.sqrt(3) - 1)
        ref = _reference_margins(F)
        assert np.array_equal(np.flatnonzero(F.split_margins > F.tol.abs_tol),
                              np.flatnonzero(ref > F.tol.abs_tol))
        assert endpoint_tie_indices(F) == _reference_ties(F) == list(range(n))

    def test_random_family_4096(self):
        d = random_family(4096)
        tl = simulate(d)
        times = sample_times(tl, np.random.default_rng(7), 5, 1e-6)
        for t in times:
            assert clusters_from_gvp(d, t) == tl.partition_at(t)
        F = GvpFunctional(d, times[0])
        assert np.array_equal(F.split_margins, _reference_margins(F))

    def test_unresolvable_prefix_masses_raise(self):
        """1e-10 vanishes against 1e20 in binary64: pm[2] - pm[1] is 0."""
        d = validate([0.0, 1.0, 2.0], [1e20, 1e-10, 1.0], [0.0, 0.0, -1.0], np.zeros(3))
        with pytest.raises(PreconditionViolated):
            GvpFunctional(d, 0.5).split_margins
        with pytest.raises(PreconditionViolated):
            clusters_from_gvp(d, 0.5)

    def test_ties_equal_the_per_index_scan_at_shocks(self):
        """Integer data evaluated at its own shock times, where ties occur."""
        rng = np.random.default_rng(5)
        tied = 0
        for _ in range(150):
            n = int(rng.integers(2, 9))
            x = np.sort(rng.choice(np.arange(-6, 7), n, replace=False)).astype(float)
            d = validate(x, rng.integers(1, 4, n).astype(float),
                         rng.integers(-3, 4, n).astype(float),
                         -np.sort(rng.integers(-2, 3, n)).astype(float))
            for t in [0.0, *simulate(d).event_times]:
                F = GvpFunctional(d, t)
                ties = endpoint_tie_indices(F)
                assert ties == _reference_ties(F)
                assert all(type(i) is int for i in ties)
                tied += bool(ties)
        assert tied > 100


class TestClassicalReduction:
    @pytest.mark.parametrize("seed", range(30))
    def test_zero_acceleration_matches_classical(self, seed):
        data, rng = random_data(seed + 6000, zero_acceleration=True)
        tl = simulate(data)
        for t in sample_times(tl, rng, 3, 1e-6):
            new = clusters_from_gvp(data, t)
            classical = classical_clusters(data, t)
            tiles(new, data.n)
            tiles(classical, data.n)
            assert new == classical


class TestSampleTimes:
    def test_window_inside_a_shock_neighbourhood_raises(self, head_on):
        tl = simulate(head_on)  # one shock, at t = 1
        with pytest.raises(SamplingExhausted, match="min_gap"):
            sample_times(tl, np.random.default_rng(0), 3, min_gap=1.0, lo=0.5, hi=1.5)

    def test_draws_below_the_cap_are_unchanged(self, head_on):
        tl = simulate(head_on)
        rng = np.random.default_rng(7)
        expect = [t for t in rng.uniform(0.0, 3.0, 200) if abs(t - 1.0) >= 0.4][:20]
        got = sample_times(tl, np.random.default_rng(7), 20, min_gap=0.4, lo=0.0, hi=3.0)
        assert got == expect


class TestCase2TwoParticle:
    def test_interior_holds_far_beyond_shock(self):
        # decreasing acceleration: one crossing, inequality holds ever after
        d = validate([0, 1], [1, 2], [1.5, 0.0], [0.25, -0.75])
        tl = simulate(d)
        T = tl.event_times[0]
        for t in np.geomspace(T * 1.01, T * 1e3, 50):
            assert interior_condition(GvpFunctional(d, float(t)), 0, 1, 1)
