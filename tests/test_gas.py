import numpy as np
import pytest

from stickygas import (
    position_space_residuals,
    simulate,
    threshold_crossing_measure,
    validate,
    velocity_space_fields,
    velocity_space_residuals,
)
from stickygas.errors import WindowOutOfRange
from stickygas.gas import (
    congestion_onset_delay,
    continuity_conditions_check,
    force_jump_total,
    initial_limits_check,
    initial_velocity_law,
    jump_measure,
    velocity_coincidence_times,
)
from stickygas.testfunctions import (
    TestFunction,
    bump,
    covering_test_functions,
    cubic_bspline,
    finite_difference_mismatch,
)
from tests.conftest import random_data


def plateau(lo: float, hi: float, ramp: float) -> TestFunction:
    """C^1 cutoff equal to 1 on [lo, hi] with cosine ramps outside."""

    def f(x):
        x = np.asarray(x, dtype=float)
        left = 0.5 * (1 + np.cos(np.pi * np.clip((lo - x) / ramp, 0, 1)))
        right = 0.5 * (1 + np.cos(np.pi * np.clip((x - hi) / ramp, 0, 1)))
        return left * right

    def df(x, h=1e-7):
        return (f(np.asarray(x) + h) - f(np.asarray(x) - h)) / (2 * h)

    return TestFunction("plateau", f, df, (lo - ramp, hi + ramp), (lo - ramp, lo, hi, hi + ramp))


class TestTestFunctions:
    @pytest.mark.parametrize("tf", [bump(0.3, 2.0), cubic_bspline(-1.0, 3.0)])
    def test_derivative_matches_finite_differences(self, tf):
        assert finite_difference_mismatch(tf) <= 1e-6

    @pytest.mark.parametrize("tf", [bump(1.0, 0.5), cubic_bspline(1.0, 0.5)])
    def test_vanishes_with_derivative_outside_support(self, tf):
        lo, hi = tf.support
        for x in (lo - 0.1, hi + 0.1, lo, hi):
            assert tf(x) == pytest.approx(0.0, abs=1e-15)
            assert tf.prime(x) == pytest.approx(0.0, abs=1e-15)


class TestPositionSpace:
    def test_single_free_particle(self, single):
        tl = simulate(single)
        f = bump(0.5, 3.0)
        for report in position_space_residuals(tl, f, 0.2, 1.5):
            assert report.passes
            assert report.jump == 0.0

    def test_straddling_window(self):
        d = validate([0, 1], [1, 1], [1, 0], [0.3, -0.2])
        tl = simulate(d)
        T = tl.event_times[0]
        xs = np.concatenate([tl.positions_at(0.5 * T), tl.positions_at(1.5 * T)])
        for f in covering_test_functions(xs, pad=1.0):
            mass_eq, momentum_eq = position_space_residuals(tl, f, 0.5 * T, 1.5 * T)
            assert abs(mass_eq.residual) <= 1e-8
            assert abs(momentum_eq.residual) <= 1e-8

    def test_refining_quadrature_does_not_grow_residual(self):
        d = validate([0, 1], [1, 1], [1, 0], [0.3, -0.2])
        tl = simulate(d)
        T = tl.event_times[0]
        f = cubic_bspline(1.0, 2.0)
        coarse = position_space_residuals(tl, f, 0.5 * T, 1.5 * T, quad_tol=1e-5)
        fine = position_space_residuals(tl, f, 0.5 * T, 1.5 * T, quad_tol=1e-10)
        for c, fi in zip(coarse, fine):
            assert abs(fi.residual) <= max(abs(c.residual), 1e-8)

    def test_zero_acceleration_kills_source(self, head_on):
        tl = simulate(head_on)
        _, momentum_eq = position_space_residuals(tl, bump(1.0, 2.0), 0.5, 1.5)
        assert momentum_eq.source == 0.0
        assert momentum_eq.passes

    def test_window_validation(self, timeline_head_on):
        with pytest.raises(WindowOutOfRange):
            position_space_residuals(timeline_head_on, bump(), 0.0, 1.0)
        with pytest.raises(WindowOutOfRange):
            position_space_residuals(timeline_head_on, bump(), 1.0, 0.5)


class TestVelocityFields:
    def test_designed_instance_at_coincidence(self, congestion_pair):
        tl = simulate(congestion_pair)
        fl = velocity_space_fields(tl, 1.0)
        assert fl.mu.atoms == ((1.0, 1.0),)
        assert fl.w == (0.5,)
        assert fl.a[0] == pytest.approx(0.25, abs=1e-12)

    def test_designed_instance_off_coincidence(self, congestion_pair):
        tl = simulate(congestion_pair)
        fl = velocity_space_fields(tl, 0.5)
        assert [v for v, _ in fl.mu.atoms] == pytest.approx([0.5, 1.0])
        assert fl.a == (0.0, 0.0)

    def test_variance_zero_before_onset(self, congestion_pair):
        tl = simulate(congestion_pair)
        T = tl.event_times[0]
        delta = congestion_onset_delay(congestion_pair, T)
        assert delta == pytest.approx(1.0)
        for t in np.linspace(0.01, 0.99 * delta, 25):
            assert max(velocity_space_fields(tl, float(t)).a) == 0.0

    def test_variance_nonnegative_everywhere(self):
        for seed in range(10):
            data, rng = random_data(seed + 11_000)
            tl = simulate(data)
            hi = tl.event_times[-1] + 1.0 if tl.events else 1.0
            for t in rng.uniform(1e-3, hi, 10):
                fl = velocity_space_fields(tl, float(t))
                assert all(a >= 0.0 for a in fl.a)
                assert fl.mu.is_probability()

    def test_coincidence_times_found(self, congestion_pair):
        tl = simulate(congestion_pair)
        assert velocity_coincidence_times(tl, 3.0) == pytest.approx([1.0])

    def test_weighted_law_totals(self, congestion_pair):
        tl = simulate(congestion_pair)
        assert velocity_space_fields(tl, 0.5).mu.is_probability()
        fl = velocity_space_fields(tl, 1.0)
        weights = [wt for _, wt in fl.mu.atoms]
        assert sum(wt * w for wt, w in zip(weights, fl.w)) == pytest.approx(0.5)
        assert sum(wt * (w * w + a) for wt, w, a in zip(weights, fl.w, fl.a)) == (
            pytest.approx(0.25 + 0.25))


class TestVelocityResiduals:
    def test_no_shock_window(self, congestion_pair):
        tl = simulate(congestion_pair)
        for f in covering_test_functions([0.0, 1.0, 2.0], pad=1.0):
            for report in velocity_space_residuals(tl, f, 0.2, 2.0):
                assert report.jump == 0.0
                assert report.passes

    def test_straddling_window(self, weighted_pair):
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        vs = np.concatenate([tl.velocities_at(0.5 * T), tl.velocities_at(1.5 * T),
                             tl.velocities_at_left(T)])
        for f in covering_test_functions(vs, pad=1.0):
            mass_eq, momentum_eq = velocity_space_residuals(tl, f, 0.5 * T, 1.5 * T)
            assert abs(mass_eq.residual) <= 1e-8
            assert abs(momentum_eq.residual) <= 1e-8
            # dropping the jump term leaves exactly the jump integral behind
            assert mass_eq.residual_without_jumps == pytest.approx(mass_eq.jump, abs=1e-8)
            assert momentum_eq.residual_without_jumps == pytest.approx(
                momentum_eq.jump, abs=1e-8)

    def test_jump_term_with_separating_function(self, weighted_pair):
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        v_post = tl.velocities_at(T)[0]
        v_pre = tl.velocities_at_left(T)
        width = 0.4 * min(abs(v_post - v) for v in v_pre)
        f = bump(float(v_post), float(width))
        mass_eq, momentum_eq = velocity_space_residuals(tl, f, 0.5 * T, 1.5 * T)
        # all mass enters the support at the shock: jump integral is f(v_bar)=1
        assert mass_eq.jump == pytest.approx(1.0, abs=1e-12)
        assert abs(mass_eq.residual) <= 1e-8
        assert abs(mass_eq.residual_without_jumps) == pytest.approx(1.0, abs=1e-8)
        # momentum jump carries the merged mean acceleration
        assert momentum_eq.jump == pytest.approx(-0.5, abs=1e-12)
        assert abs(momentum_eq.residual) <= 1e-8


class TestThresholdCrossing:
    def test_no_shock_window(self, timeline_head_on):
        assert threshold_crossing_measure(timeline_head_on, (0.0, 1.0), 1.5, 2.5) == 0.0

    def test_mass_enters_target_set(self, timeline_head_on):
        # merged velocity 0.5; pre-shock velocities 1 and 0
        assert threshold_crossing_measure(
            timeline_head_on, (0.4, 0.6), 0.5, 1.5) == pytest.approx(1.0)

    def test_remaining_inside_counts_zero(self, timeline_head_on):
        assert threshold_crossing_measure(
            timeline_head_on, (-5.0, 5.0), 0.5, 1.5) == 0.0


class TestJumpMeasureInvariants:
    @pytest.mark.parametrize("seed", range(15))
    def test_mass_momentum_force_conservation(self, seed):
        data, _ = random_data(seed + 12_000)
        tl = simulate(data)
        assert len(tl.events) <= data.n - 1
        for s in tl.event_times:
            jm = jump_measure(tl, s)
            assert abs(jm.total()) <= 1e-12
            assert abs(jm.first_moment()) <= 1e-10 * (1.0 + max(
                abs(v) for v, _ in jm.atoms)) if jm.atoms else True
            assert abs(force_jump_total(tl, s)) <= 1e-12

    def test_right_continuity_in_the_weak_sense(self, weighted_pair):
        tl = simulate(weighted_pair)
        T = tl.event_times[0]
        f = bump(0.0, 3.0)
        fl = velocity_space_fields(tl, T)
        now = fl.mu.integrate(f)
        just_after = velocity_space_fields(tl, T + 1e-9).mu.integrate(f)
        before = fl.mu_left.integrate(f)
        assert abs(just_after - now) <= 1e-6
        assert abs(before - now) > 1e-3


class TestInitialLimits:
    def test_generic_instance_converges(self, congestion_pair):
        tl = simulate(congestion_pair)
        g = bump(0.7, 2.0)  # asymmetric around the velocities {0, 1}
        (entry,) = initial_limits_check(tl, [g])
        assert entry.mass_monotone and entry.flux_monotone
        # linear convergence: two decades of t shrink the gap ~100x
        assert entry.mass_gaps[-1] <= 0.02 * entry.mass_gaps[0]
        assert entry.congestion_values == (0.0, 0.0, 0.0)
        assert not entry.noncommuting  # distinct initial velocities: a_0 = 0

    def test_noncommuting_tied_velocities(self, tied_velocity_pair):
        tl = simulate(tied_velocity_pair)
        (entry,) = initial_limits_check(tl, [bump(0.0, 2.0)])
        assert entry.congestion_initial == pytest.approx(1.0)
        assert entry.congestion_values[-1] == 0.0
        assert entry.noncommuting

    def test_total_mass_is_one(self, congestion_pair):
        tl = simulate(congestion_pair)
        g = plateau(-2.0, 3.0, 1.0)
        for t in (1e-2, 0.5, 1.0, 2.0):
            assert velocity_space_fields(tl, t).mu.integrate(g) == pytest.approx(1.0)

    def test_initial_law_groups_ties(self, tied_velocity_pair):
        mu0, w0, a0 = initial_velocity_law(tied_velocity_pair)
        assert mu0.atoms == ((0.0, 1.0),)
        assert w0 == (0.0,)
        assert a0[0] == pytest.approx(1.0)


class TestContinuityConditions:
    def test_acceleration_function_of_velocity_solves_jump_free_system(self):
        d = validate([0, 1, 3], [1, 1, 2], [2.0, 0.5, -1.0], [0.3, 0.3, 0.3])
        tl = simulate(d)
        report = continuity_conditions_check(
            tl, covering_test_functions([-2, 3], pad=1.0))
        assert report.initial_variance_zero
        assert report.congestion_vanishes_ae
        assert report.pre_shock_reports
        assert all(r.passes for r in report.pre_shock_reports)
        assert all(r.jump == 0.0 for r in report.pre_shock_reports)

    def test_designed_instance_flags_congestion_spike(self, congestion_pair):
        tl = simulate(congestion_pair)
        report = continuity_conditions_check(tl)
        assert any(
            t == pytest.approx(1.0) and v == pytest.approx(1.0) and a == pytest.approx(0.25)
            for t, v, a in report.coincidence_samples)
        assert not report.law_continuous  # the shock sits inside the window

    def test_single_particle_trivially_solves(self, single):
        tl = simulate(single)
        report = continuity_conditions_check(tl, window=(0.1, 1.0))
        assert report.law_continuous
        assert report.congestion_vanishes_ae
        for r in velocity_space_residuals(tl, bump(0.3, 2.0), 0.1, 1.0):
            assert r.passes and r.jump == 0.0
