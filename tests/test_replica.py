import math

import numpy as np
import pytest

from qcorr import (
    ReplicaConfig,
    ValidationError,
    four_time_scan,
    replica_model,
    three_time_scan,
    two_time_correlator,
)

GAMMA = 1.0 / 1.3


class TestReplicaModel:
    def test_aligned_axes_double_the_dephasing(self):
        model, channels = replica_model(ReplicaConfig(phi=0.0, include_mc=False))
        lam = model.lam
        assert np.allclose(lam, np.diag([-2 * GAMMA, -2 * GAMMA, 0.0]), atol=1e-12)

    def test_orthogonal_axes_generator(self):
        model, _ = replica_model(ReplicaConfig(phi=np.pi / 2, include_mc=False))
        lam = model.lam
        assert np.allclose(lam, -GAMMA * np.diag([1.0, 2.0, 1.0]), atol=1e-12)

    def test_always_unital(self):
        for phi in np.linspace(0.0, np.pi, 7):
            model, _ = replica_model(ReplicaConfig(phi=phi, include_mc=False))
            assert model.unital

    def test_tau_consistent_with_gamma(self):
        config = ReplicaConfig(phi=1.0, eta=0.8, include_mc=False)
        _, channels = replica_model(config)
        for ch in channels:
            assert ch.dephasing_rate == pytest.approx(config.gamma, rel=1e-12)

    def test_initial_state_halfway(self):
        config = ReplicaConfig(phi=1.0, include_mc=False)
        assert np.allclose(config.r_init, (math.sin(0.5), 0.0, math.cos(0.5)))
        assert np.linalg.norm(config.r_init) == pytest.approx(1.0)

    def test_phi_range_validated(self):
        with pytest.raises(ValidationError):
            ReplicaConfig(phi=-0.1)
        with pytest.raises(ValidationError):
            ReplicaConfig(phi=3.5)


class TestThreeTimeScanAnalytic:
    def test_analytic_column_constant_in_first_gap(self):
        config = ReplicaConfig(phi=3 * np.pi / 10, include_mc=False)
        rows = three_time_scan(config, dt21_values=(0.2, 0.8, 1.9), dt32_values=(0.6,))
        values = [r.analytic for r in rows]
        assert max(values) - min(values) <= 1e-12

    def test_analytic_column_tracks_last_gap(self):
        config = ReplicaConfig(phi=3 * np.pi / 10, include_mc=False)
        rows = three_time_scan(config, dt21_values=(0.5,), dt32_values=(0.2, 1.0, 2.6))
        values = [r.analytic for r in rows]
        assert values[0] > values[1] > values[2] > 0.0

    def test_orthogonal_axes_kill_the_product(self):
        config = ReplicaConfig(phi=np.pi / 2, include_mc=False)
        rows = three_time_scan(config, dt21_values=(0.5,), dt32_values=(0.5, 1.5))
        for row in rows:
            assert row.analytic == pytest.approx(0.0, abs=1e-12)
            assert math.isnan(row.mc_value)

    def test_axis_reflection_flips_pair_correlator_sign(self):
        phi = 3 * np.pi / 10
        for gap in (0.2, 0.8, 1.9):
            pair = []
            for angle in (phi, np.pi - phi):
                config = ReplicaConfig(phi=angle, include_mc=False)
                model, channels = replica_model(config)
                pair.append(two_time_correlator(model, channels, 0, 0.0, 1, gap))
            assert pair[0] == pytest.approx(-pair[1], abs=1e-12)


class TestFourTimeScanAnalytic:
    def test_analytic_is_pair_product(self):
        config = ReplicaConfig(phi=3 * np.pi / 10, include_mc=False)
        rows, summary = four_time_scan(config, dt32_values=(0.7, 1.4))
        model, channels = replica_model(config)
        gap = round(0.15 / config.gamma / config.dt) * config.dt
        expected = two_time_correlator(model, channels, 0, 0.0, 1, gap) ** 2
        for row in rows:
            assert row.analytic == pytest.approx(expected, abs=1e-12)
        assert summary.analytic == pytest.approx(expected, abs=1e-12)

    def test_analytic_independent_of_middle_gap_window_and_budget(self):
        base = ReplicaConfig(phi=1.0, include_mc=False)
        rows_a, _ = four_time_scan(base, dt32_values=(0.7, 2.9))
        values = {r.analytic for r in rows_a}
        assert max(values) - min(values) <= 1e-12
        moved = ReplicaConfig(phi=1.0, include_mc=False, t_a=2.0, window_len=1.0)
        rows_b, _ = four_time_scan(moved, dt32_values=(0.7,))
        assert rows_b[0].analytic == pytest.approx(rows_a[0].analytic, abs=1e-12)

    def test_short_gap_squared_ratio(self):
        for n in (0, 2, 3, 7):
            phi = n * np.pi / 10
            config = ReplicaConfig(phi=phi, include_mc=False)
            _, summary = four_time_scan(config, dt32_values=(1.0,))
            ratio = summary.analytic / np.cos(phi) ** 2
            assert 0.98 <= ratio <= 1.005, (n, ratio)


@pytest.fixture(scope="module")
def small_scan():
    config = ReplicaConfig(
        phi=3 * np.pi / 10, n_traj=4000, master_seed=314,
        include_mc=True, shard_size=1500,
    )
    return three_time_scan(config, dt21_values=(0.3, 1.2), dt32_values=(0.5,))


class TestScansWithMonteCarlo:
    def test_mc_matches_analytic(self, small_scan):
        for row in small_scan:
            assert abs(row.mc_value - row.analytic) <= 4.0 * row.mc_se

    def test_mc_errors_sane(self, small_scan):
        # Three noise factors of std sqrt(tau/dt) each: the per-point error
        # scale is (tau/dt)^1.5 / sqrt(W M) ~ 1.8 at this small budget.
        for row in small_scan:
            assert 0.0 < row.mc_se < 3.0

    def test_four_time_summary_pools_grid(self):
        config = ReplicaConfig(
            phi=np.pi / 10, n_traj=3000, master_seed=217,
            include_mc=True, shard_size=1000,
        )
        rows, summary = four_time_scan(config, dt32_values=(0.7, 1.0, 1.3))
        assert summary.mc_mean == pytest.approx(
            np.mean([r.mc_value for r in rows]), rel=1e-10)
        assert summary.mc_pooled_se > 0.0
        assert abs(summary.mc_mean - summary.analytic) <= 4.0 * summary.mc_pooled_se

    def test_scan_deterministic_for_fixed_seed(self):
        config = ReplicaConfig(
            phi=0.9, n_traj=600, master_seed=9, include_mc=True, shard_size=200,
        )
        a = three_time_scan(config, dt21_values=(0.4,), dt32_values=(0.6,))
        b = three_time_scan(config, dt21_values=(0.4,), dt32_values=(0.6,))
        for row_a, row_b in zip(a, b):
            assert row_a.mc_value == row_b.mc_value
            assert row_a.mc_se == row_b.mc_se
            assert row_a.analytic == row_b.analytic
