import dataclasses
import hashlib
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest

import qcorr.empirical as empirical_module
import qcorr.linalg as linalg_module
import qcorr.replica as replica_module
import qcorr.trajectory as trajectory_module
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

    @pytest.mark.parametrize("window_len", [0.0, -0.5, math.nan, math.inf])
    def test_window_len_not_positive_refused(self, window_len):
        # 0.0 must not fall back to the scan's default window.
        with pytest.raises(ValidationError, match="window_len must be positive"):
            ReplicaConfig(phi=1.0, window_len=window_len, include_mc=False)

    def test_single_trajectory_needs_no_mc(self):
        assert ReplicaConfig(phi=1.0, n_traj=1, include_mc=False).n_traj == 1

    def test_phi_range_validated(self):
        with pytest.raises(ValidationError):
            ReplicaConfig(phi=-0.1)
        with pytest.raises(ValidationError):
            ReplicaConfig(phi=3.5)


@pytest.mark.parametrize("scan, expm_calls", [(three_time_scan, 130), (four_time_scan, 22)])
def test_window_mean_state_built_once_per_scan(monkeypatch, scan, expm_calls):
    # The default grids' 64 three-time and 10 four-time points share one
    # window: its state takes two expm calls, and each point's factorized
    # value two more (the mean at t1 and one pair, or two pairs).
    calls = []
    expm = linalg_module.expm
    monkeypatch.setattr(linalg_module, "expm", lambda a: calls.append(a) or expm(a))
    scan(ReplicaConfig(phi=0.9, include_mc=False))
    assert len(calls) == expm_calls


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
        phi=3 * np.pi / 10, n_traj=4000, master_seed=314, include_mc=True,
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
            phi=np.pi / 10, n_traj=3000, master_seed=217, include_mc=True,
        )
        rows, summary = four_time_scan(config, dt32_values=(0.7, 1.0, 1.3))
        assert summary.mc_mean == pytest.approx(
            np.mean([r.mc_value for r in rows]), rel=1e-10)
        assert summary.mc_pooled_se > 0.0
        assert abs(summary.mc_mean - summary.analytic) <= 4.0 * summary.mc_pooled_se

    @pytest.mark.parametrize("scan, grid", [
        (three_time_scan, dict(dt21_values=(0.0,), dt32_values=(0.5,))),
        (four_time_scan, dict(dt32_values=(0.0,))),
    ])
    def test_coinciding_grid_point_refused_before_any_shard(self, monkeypatch, scan, grid):
        shards = []
        monkeypatch.setattr(replica_module, "simulate_range", lambda *a, **k: shards.append(a))
        with pytest.raises(ValidationError, match="snap to one bin"):
            scan(ReplicaConfig(phi=0.9, n_traj=600, include_mc=True), **grid)
        assert shards == []

    @pytest.mark.parametrize("include_mc", [True, False])
    @pytest.mark.parametrize("scan, grid, named", [
        (three_time_scan, dict(dt21_values=(), dt32_values=(0.5,)), "dt21_values"),
        (three_time_scan, dict(dt21_values=(0.5,), dt32_values=()), "dt32_values"),
        (four_time_scan, dict(dt32_values=()), "dt32_values"),
    ])
    def test_empty_gap_grid_refused_before_any_batch(self, monkeypatch, scan, grid, named,
                                                     include_mc):
        batches = []
        monkeypatch.setattr(replica_module, "simulate_range", lambda *a, **k: batches.append(a))
        with pytest.raises(ValidationError, match=f"{named} is empty"):
            scan(ReplicaConfig(phi=0.9, n_traj=600, include_mc=include_mc), **grid)
        assert batches == []

    @pytest.mark.parametrize("n_traj", [0, 1])
    def test_single_trajectory_refused_before_any_batch(self, monkeypatch, n_traj):
        batches = []
        monkeypatch.setattr(replica_module, "simulate_range", lambda *a, **k: batches.append(a))
        with pytest.raises(ValidationError, match="n_traj must be >= 2"):
            four_time_scan(ReplicaConfig(phi=0.9, n_traj=n_traj, include_mc=True),
                           dt32_values=(0.7,))
        assert batches == []

    def test_scan_deterministic_for_fixed_seed(self):
        config = ReplicaConfig(
            phi=0.9, n_traj=600, master_seed=9, include_mc=True,
        )
        a = three_time_scan(config, dt21_values=(0.4,), dt32_values=(0.6,))
        b = three_time_scan(config, dt21_values=(0.4,), dt32_values=(0.6,))
        for row_a, row_b in zip(a, b):
            assert row_a.mc_value == row_b.mc_value
            assert row_a.mc_se == row_b.mc_se
            assert row_a.analytic == row_b.analytic


def scan_sha256(rows, summary=None) -> str:
    """sha256 of every field of the rows (and summary) as float64 bytes."""
    fields = [v for row in rows for v in dataclasses.astuple(row)]
    if summary is not None:
        fields += dataclasses.astuple(summary)
    return hashlib.sha256(np.array(fields, dtype=np.float64).tobytes()).hexdigest()


def means_sha256(means) -> str:
    """sha256 of float64 per-trajectory window means."""
    assert means.dtype == np.float64
    return hashlib.sha256(means.tobytes()).hexdigest()


@pytest.fixture
def sim_configs(monkeypatch):
    """The SimConfigs that the scans make, in order."""
    made = []

    def sim_config(**kwargs):
        made.append(trajectory_module.SimConfig(**kwargs))
        return made[-1]

    monkeypatch.setattr(replica_module, "SimConfig", sim_config)
    return made


class TestScanBitsPinned:
    # 601 trajectories in batches of 200 leave a one-trajectory tail, folded
    # into the last batch (index_ranges).
    CONFIG = dict(phi=0.9, n_traj=601, master_seed=4711, include_mc=True)
    THREE_TIME_GRID = dict(dt21_values=(0.3, 1.2), dt32_values=(0.5, 0.8))
    FOUR_TIME_GRID = dict(dt32_values=(0.7, 1.0, 1.3))
    # All four re-recorded when each trajectory's window came to be summed
    # in float64 instead of long double (the ensemble sums stayed long
    # double): the scan values moved by at most 2.9e-16 of their standard
    # error and the standard errors not at all; the per-trajectory means by
    # at most 9.9e-16 of their spread over the trajectories. THREE_TIME_SHA256
    # re-recorded again when the window-mean state came to be stepped by the
    # 4x4 gap map: its analytic column moved by at most 2.8e-16 relative, no
    # other field moved. THREE_TIME_SHA256 and FOUR_TIME_SHA256 re-recorded
    # when each batch came to return long-double sums that are added
    # unrounded and pooled once: 5 of the 8 Monte Carlo values (the summary
    # mean included) moved by at most 1.22e-16 of their standard error, one
    # standard error by 1.4e-16 relative and the summary's spread by 1.2e-16
    # relative; the per-trajectory means did not move. All four re-recorded
    # when the Euler step gave way to the Bayesian step, which changes every
    # record bit; the analytic columns did not move. All four re-recorded
    # when each spec's last event and window sum became one einsum (a new
    # summation order inside each window): 7 of the 8 Monte Carlo values
    # (the summary mean included) moved, by at most 2.8e-16 of their
    # standard error, one standard error by 1.4e-16 relative and the
    # summary's spread by 3.4e-16 relative; 2835 of the 4207
    # per-trajectory means moved, by at most 1.8e-15 of their spread over
    # the trajectories; the analytic columns did not move. FOUR_TIME_SHA256
    # re-recorded when the scans' analytic column became the factorized value
    # of the window-mean spec, and the summary's analytic the mean of the
    # rows': 2 of the 3 row values moved by at most 4.4e-16 relative and the
    # summary's by 2.9e-16; no Monte Carlo field moved, and no field of the
    # three-time rows.
    THREE_TIME_SHA256 = "652a80d06b00660c82230d3eafa50a1a6416f463560ccadff9562e591e588ab9"
    FOUR_TIME_SHA256 = "6c9d32f3d0c3f3c4ef26c2d5509eb13b206d21c90db378dba9b00323e25dba2c"
    THREE_TIME_ROWS_SHA256 = "eb7a86cb8780488b28614f0845be022a6d43c58a66964532ae51d30534f7c1e8"
    FOUR_TIME_ROWS_SHA256 = "12efbe49dac14745498b4a44f71fc2863f5608b0d2e62fe8faab386bf9eb1f40"

    def test_scan_rows_and_summary_pinned(self, batch_cap):
        batch_cap(200)
        config = ReplicaConfig(**self.CONFIG)
        rows = three_time_scan(config, **self.THREE_TIME_GRID)
        assert scan_sha256(rows) == self.THREE_TIME_SHA256
        rows, summary = four_time_scan(config, **self.FOUR_TIME_GRID)
        assert scan_sha256(rows, summary) == self.FOUR_TIME_SHA256

    def test_per_trajectory_window_means_pinned(self, monkeypatch, batch_cap):
        batch_cap(200)
        config = ReplicaConfig(**self.CONFIG)
        window_means = empirical_module.window_means
        for scan, grid, expected in (
                (three_time_scan, self.THREE_TIME_GRID, self.THREE_TIME_ROWS_SHA256),
                (four_time_scan, self.FOUR_TIME_GRID, self.FOUR_TIME_ROWS_SHA256)):
            taken = []
            monkeypatch.setattr(empirical_module, "window_means",
                                lambda *a: taken.append(window_means(*a)) or taken[-1])
            scan(config, **grid)
            assert len(taken) == 3  # one call per batch
            assert means_sha256(np.concatenate(taken, axis=1)) == expected

    def test_each_point_is_resolved_once(self, monkeypatch, batch_cap):
        # Three batches estimate the points resolved once before the first.
        batch_cap(200)
        calls = []
        for module in (replica_module, empirical_module):
            monkeypatch.setattr(module, "resolve_spec", lambda *a, resolve=module.resolve_spec:
                                calls.append(a) or resolve(*a))
        four_time_scan(ReplicaConfig(**self.CONFIG), **self.FOUR_TIME_GRID)
        assert len(calls) == len(self.FOUR_TIME_GRID["dt32_values"])


class TestScanWorkers:
    def test_scans_bit_identical_at_one_and_two_workers(self, batch_cap):
        batch_cap(200)
        digests = []
        for workers in (1, 2):
            config = ReplicaConfig(phi=0.9, n_traj=601, master_seed=4711, workers=workers)
            rows = three_time_scan(config, dt21_values=(0.3, 1.2), dt32_values=(0.5,))
            digests.append((scan_sha256(rows),
                            scan_sha256(*four_time_scan(config, dt32_values=(0.7, 1.3)))))
        assert digests[0] == digests[1]
        assert multiprocessing.active_children() == []

    def _peak_bytes(self, batch_cap, sim_configs, n_traj, workers):
        """(tracemalloc peak of a four-time scan in batches of 256, one batch's sample bytes)."""
        batch_cap(256)
        config = ReplicaConfig(phi=0.9, n_traj=n_traj, master_seed=77, t_a=0.2, window_len=0.1,
                               workers=workers)
        tracemalloc.start()
        try:
            four_time_scan(config, dt32_values=(0.7,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sim = sim_configs[-1]
        return peak, sim.batch_size * sim.n_channels * sim.n_samples * 8

    def test_memory_bounded_at_any_budget_with_one_worker(self, batch_cap, sim_configs):
        self._peak_bytes(batch_cap, sim_configs, 256, 1)  # first-call allocations
        small, batch_bytes = self._peak_bytes(batch_cap, sim_configs, 1024, 1)
        large, _ = self._peak_bytes(batch_cap, sim_configs, 4096, 1)
        assert small > batch_bytes  # the batch is simulated here
        assert large == pytest.approx(small, rel=0.1)

    @pytest.mark.skipif(trajectory_module._available_cpus() < 2,
                        reason="needs two CPUs for two workers")
    def test_samples_stay_in_the_workers(self, batch_cap, sim_configs):
        self._peak_bytes(batch_cap, sim_configs, 512, 2)  # first-call allocations
        peak, batch_bytes = self._peak_bytes(batch_cap, sim_configs, 4096, 2)
        assert peak < batch_bytes
