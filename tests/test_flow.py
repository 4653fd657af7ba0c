import math

import numpy as np
import pytest

from stickygas import (
    FlowField,
    dermoune_identity_residuals,
    right_derivative_check,
    simulate,
)
from stickygas import verify
from stickygas.errors import UndefinedFieldPoint
from stickygas.flow import IdentityResiduals
from tests.conftest import random_data
from tests.references import cadlag_probes, conditioning_matches_partition


class TestIdentities:
    def test_exact_at_time_zero(self, weighted_pair):
        res = dermoune_identity_residuals(simulate(weighted_pair), 0.0)
        assert res.r_pos == res.r_vel == res.r_acc == 0.0

    def test_single_particle_exact(self, single):
        res = dermoune_identity_residuals(simulate(single), 1.3)
        assert res.r_pos == res.r_vel == res.r_acc == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances_within_tolerance(self, seed):
        data, rng = random_data(seed + 7000)
        tl = simulate(data)
        hi = tl.event_times[-1] + 1.0 if tl.events else 1.0
        for t in rng.uniform(0.0, hi, 20):
            res = dermoune_identity_residuals(tl, float(t))
            assert res.r_pos <= 1e-12 * (1.0 + res.scale_pos)
            assert res.r_vel <= 1e-12 * (1.0 + res.scale_vel)
            assert res.r_acc <= 1e-12 * (1.0 + res.scale_acc)

    def test_one_pass_rule_fails_nan(self, monkeypatch, head_on):
        # r <= 1e-12 * (1 + scale) for the CLI and the fuzz suite alike
        assert IdentityResiduals(2e-12, 0.0, 0.0, 1.0, 0.0, 0.0).first_failure() is None
        above = IdentityResiduals(0.0, 0.0, math.nextafter(1e-12, 1.0), 0.0, 0.0, 0.0)
        assert above.first_failure()[0] == "acceleration"
        nan = IdentityResiduals(0.0, math.nan, 0.0, 0.0, 0.0, 0.0)
        assert nan.first_failure()[0] == "velocity"
        monkeypatch.setattr(verify, "dermoune_identity_residuals", lambda timeline, t: nan)
        result = verify.dermoune_suite(simulate(head_on), np.random.default_rng(0))
        assert not result.passed and result.detail.startswith("velocity residual nan")


class TestRightDerivatives:
    def test_position_error_follows_half_h_theta(self, weighted_pair):
        tl = simulate(weighted_pair)
        t = 0.3 * math.sqrt(2)
        report = right_derivative_check(tl, t, [1e-2, 1e-3, 1e-4])
        for probe in report.probes:
            assert not probe.crossed_event
            assert probe.max_pos_error_vs_predicted <= 1e-10
            assert probe.max_vel_error <= 1e-10
        assert report.observed_position_order == pytest.approx(1.0, abs=1e-3)

    def test_velocity_derivative_exact_between_shocks(self, weighted_pair):
        tl = simulate(weighted_pair)
        report = right_derivative_check(tl, 0.5, [0.2])
        (probe,) = report.probes
        # velocity is affine: any h below the gap is exact up to rounding
        assert probe.max_vel_error <= 1e-12

    def test_at_shock_uses_post_merge_cluster(self, timeline_head_on):
        report = right_derivative_check(timeline_head_on, 1.0, [1e-3])
        (probe,) = report.probes
        assert not probe.crossed_event
        # merged cluster is acceleration-free: forward difference is exact
        assert probe.max_pos_error <= 1e-12
        assert probe.max_vel_error <= 1e-12

    def test_crossing_probes_are_marked(self, timeline_head_on):
        report = right_derivative_check(timeline_head_on, 0.9, [0.5, 1e-3])
        assert [p.crossed_event for p in report.probes] == [True, False]


class TestFlowField:
    def test_eulerian_consistency(self, weighted_pair):
        tl = simulate(weighted_pair)
        ff = FlowField(tl)
        for t in (0.5, 2.0):
            for x0 in weighted_pair.positions:
                y = ff.phi(float(x0), t)
                assert ff.u(y, t) == pytest.approx(ff.velocity(float(x0), t), abs=0)
                assert ff.gamma(y, t) == pytest.approx(ff.acceleration(float(x0), t), abs=0)

    def test_merged_particles_share_values(self, timeline_head_on):
        ff = FlowField(timeline_head_on)
        assert ff.phi(0.0, 2.0) == ff.phi(1.0, 2.0)
        assert ff.velocity(0.0, 2.0) == ff.velocity(1.0, 2.0)

    def test_off_support_is_undefined(self, timeline_head_on):
        ff = FlowField(timeline_head_on)
        with pytest.raises(UndefinedFieldPoint):
            ff.u(123.0, 0.5)
        with pytest.raises(UndefinedFieldPoint):
            ff.phi(0.123, 0.5)


class TestMeasurabilityAndCadlag:
    @pytest.mark.parametrize("seed", range(15))
    def test_conditioning_matches_partition(self, seed):
        data, rng = random_data(seed + 8000)
        tl = simulate(data)
        hi = tl.event_times[-1] + 1.0 if tl.events else 1.0
        for t in rng.uniform(0.0, hi, 10):
            if all(abs(t - s) > 1e-6 for s in tl.event_times):
                assert conditioning_matches_partition(tl, float(t))

    def test_probes_on_head_on(self, timeline_head_on):
        (probe,) = cadlag_probes(timeline_head_on)
        assert probe.position_continuity <= 1e-12
        assert probe.velocity_jump == pytest.approx(0.5)
        assert probe.velocity_right_drift <= 1e-7
        assert probe.acceleration_jump == 0.0

    @pytest.mark.parametrize("seed", range(15))
    def test_probes_on_random_instances(self, seed):
        data, _ = random_data(seed + 9000)
        tl = simulate(data)
        for probe in cadlag_probes(tl):
            assert probe.position_continuity <= 1e-9
            assert probe.velocity_right_drift <= 1e-6
            assert probe.acceleration_right_drift <= 1e-12
