import hashlib
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from qcorr import (
    EnsembleModel,
    MeasurementChannel,
    RecordSet,
    SimConfig,
    TimestepWarning,
    ValidationError,
    build_ensemble_model,
    measurement_dephasing_generator,
    ordered_propagator,
    propagate_ensemble,
    simulate_ensemble,
    simulate_range,
)
from qcorr.linalg import cross_matrix
from qcorr.trajectory import _channel_arrays, _step_batch, index_ranges

Z = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0)
X = MeasurementChannel((1.0, 0.0, 0.0), tau=0.65, eta=1.0)


def single_channel_setup(tau=0.65, eta=1.0):
    ch = MeasurementChannel((0.0, 0.0, 1.0), tau=tau, eta=eta)
    return build_ensemble_model([ch]), (ch,)


def one_step(r, model, channels, dt, draws):
    """One kernel step of a single state: (new_state, samples, n_clipped)."""
    out = np.empty((len(channels), 1))
    new_r, n_clipped = _step_batch(
        np.asarray(r, dtype=float).reshape(3, 1), model.lam, model.r_st,
        *_channel_arrays(channels), dt, np.asarray(draws, dtype=float).reshape(-1, 1), out)
    return new_r[:, 0], out[:, 0], n_clipped


def make_config(model, channels, **kwargs):
    defaults = dict(
        r_init=(1.0, 0.0, 0.0), t_total=1.0, dt=0.005,
        n_traj=4, master_seed=7,
    )
    defaults.update(kwargs)
    return SimConfig(model=model, channels=channels, **defaults)


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def golden_model(case):
    """(model, channels, r_init) of one pinned fixed-seed ensemble."""
    phi = 3 * np.pi / 10
    if case == "unital_preset":
        channels = (
            MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0),
            MeasurementChannel((np.sin(phi), 0.0, np.cos(phi)), tau=0.65, eta=1.0),
        )
        return build_ensemble_model(channels), channels, (np.sin(phi / 2), 0.0, np.cos(phi / 2))
    if case == "phase_backaction":
        channels = (
            MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=0.8),
            MeasurementChannel((1.0, 0.0, 0.0), tau=0.5, eta=0.7),
        )
        return build_ensemble_model(channels), channels, (0.6, 0.0, 0.8)
    # rabi_nonunital: y measurement, 3 rad/us drive about x and relaxation at
    # 0.4/us, given directly as (lam, r_st); r_st is its relaxation target,
    # rounded.
    channels = (MeasurementChannel((0.0, 1.0, 0.0), tau=0.8, eta=0.9),)
    lam = (measurement_dephasing_generator(channels) + 3.0 * cross_matrix((1.0, 0.0, 0.0))
           - 0.4 * np.eye(3))
    return EnsembleModel(lam, (0.0, 0.0636, -0.0085)), channels, (0.0, 0.0, 1.0)


def golden_config(case):
    model, channels, r_init = golden_model(case)
    return SimConfig(
        model=model, channels=channels, r_init=r_init, t_total=0.5075, dt=0.005,
        n_traj=23, master_seed=31337, store_states=True, batch_size=7,
    )


# case -> (sha256 of samples, sha256 of states, clipped steps)
GOLDEN = {
    "phase_backaction": (
        "3246b55d5dfd2fa61098a9421cbf9aac499ac6c316ee3723513a9ef3ea781b2f",
        "954103729821682d69adf62fa5c1fc46aa65bb68d77bbb116b4c586d1e8cb98a",
        0,
    ),
    "rabi_nonunital": (
        "d80ff19392cd9094fe4ffe2cdc56284b41197b62defe830bbefd6944f212a540",
        "0e4cb9e49288154f61470c4f437b9da4ad8726be6385d863e8817566b232a1dc",
        0,
    ),
    "unital_preset": (
        "dffde65c69795867da90767882d545bd0464ab7aa06c0f90a89ea5c757cc4dfd",
        "7af09afd08ce3d3927879990d7d139fae0fc653a74ec20a0d11bf032042765d3",
        813,
    ),
}


class TestSimConfig:
    def test_dt_above_hard_limit_rejected(self):
        model, channels = single_channel_setup(tau=0.2)
        with pytest.raises(ValidationError):
            make_config(model, channels, dt=0.011)  # 5.5% of tau

    def test_dt_in_warning_band_warns(self):
        model, channels = single_channel_setup(tau=0.65)
        with pytest.warns(TimestepWarning) as seen:
            make_config(model, channels, dt=0.01)  # 1.5% of tau
        # The warning points at the code that built the config.
        assert [w.filename for w in seen] == [__file__]

    def test_fine_dt_is_silent(self):
        model, channels = single_channel_setup(tau=0.65)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_config(model, channels, dt=0.005)

    def test_initial_state_validated(self):
        model, channels = single_channel_setup()
        with pytest.raises(ValidationError):
            make_config(model, channels, r_init=(1.0, 1.0, 1.0))

    def test_n_samples_floor(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, t_total=1.0, dt=0.003)
        assert config.n_samples == 333


def test_array_holding_dataclasses_compare_by_identity_and_hash():
    model, channels = single_channel_setup()
    for obj in (model, ordered_propagator(model, 0.0, 0.3), make_config(model, channels),
                RecordSet(np.zeros((2, 1, 3)), 0.01, channels, master_seed=1)):
        twin = replace(obj)
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2


class TestItoStep:
    def test_qnd_fixed_point_is_exact(self):
        # State on the sole measured axis: backaction and drift both vanish.
        model, channels = single_channel_setup(eta=0.7)
        r = np.array([0.0, 0.0, 1.0])
        for draw in (0.0, 1.3, -2.1):
            new_r, outputs, clipped = one_step(r, model, channels, 0.005, [draw])
            assert np.array_equal(new_r, r)
            assert not clipped
            assert outputs[0] == pytest.approx(1.0 + np.sqrt(0.65 / 0.005) * draw)

    def test_zero_draws_follow_drift_with_purification_rescale(self):
        # With all draws zero the step is the drift displacement times a
        # radial factor sqrt(1 + sum_l |b_l|^2 dt / |y|^2) that carries the
        # deterministic part of the Ito norm growth.
        model, channels = single_channel_setup()
        dt = 0.005
        r = np.array([0.6, 0.0, 0.3])
        y = r + (model.lam @ r) * dt
        nr = r[2]
        b = (np.array([0.0, 0.0, 1.0]) - nr * r) / np.sqrt(0.65)
        expected = y * np.sqrt(1.0 + (b @ b) * dt / (y @ y))
        new_r, outputs, clipped = one_step(r, model, channels, dt, [0.0])
        assert np.allclose(new_r, expected, rtol=1e-13, atol=1e-14)
        assert outputs[0] == pytest.approx(nr)
        assert not clipped

    def test_zero_state_stays_zero_with_zero_draws(self):
        model, channels = single_channel_setup()
        new_r, outputs, _ = one_step(np.zeros(3), model, channels, 0.005, [0.0])
        assert np.array_equal(new_r, np.zeros(3))
        assert outputs[0] == 0.0

    def test_output_statistics_at_mixed_state(self):
        # Mean 0 +- 4 sqrt(tau/dt)/sqrt(n), variance tau/dt within 1%.
        model, channels = single_channel_setup()
        dt = 0.005
        n = 1_000_000
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(n)
        axes, taus, phase_ks = _channel_arrays(channels)
        r = np.zeros((3, n))
        out = np.empty((1, n))
        _step_batch(r, model.lam, model.r_st, axes, taus, phase_ks, dt, draws[None, :], out)
        noise_scale = np.sqrt(0.65 / dt)
        assert abs(out.mean()) < 4.0 * noise_scale / np.sqrt(n)
        assert out.var() == pytest.approx(0.65 / dt, rel=0.01)

    def test_phase_backaction_rotates_about_axis(self):
        ch = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=0.8)
        model = build_ensemble_model([ch])
        r = np.array([0.5, 0.0, 0.0])
        draw = 1.7
        dt = 0.004
        new_r, _, _ = one_step(r, model, (ch,), dt, [draw])
        # The phase term tilts the step out of the xz plane along n x r = y.
        assert new_r[1] != 0.0
        new_r0, _, _ = one_step(r, model, (MeasurementChannel((0, 0, 1), 0.65, 1.0),),
                                dt, [draw])
        assert new_r0[1] == 0.0


class TestSimulateTrajectory:
    def test_deterministic_repeat(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, store_states=True)
        a = simulate_range(config, 2, 3)
        b = simulate_range(config, 2, 3)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.states, b.states)

    def test_different_indices_differ(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels)
        a = simulate_range(config, 0, 1)
        b = simulate_range(config, 1, 2)
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_counts(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, t_total=0.8, dt=0.005)
        rec = simulate_range(config, 0, 1)
        assert rec.samples[0].shape == (1, 160)
        assert rec.n_samples == 160

    def test_purity_defect_shrinks_linearly_with_dt(self):
        # Ideal single-channel monitoring keeps pure states pure; the
        # integrator's defect max_t ||r|-1| must scale ~dt.
        model, channels = single_channel_setup()
        defect = {}
        for dt, n_traj in ((0.02, 160), (0.01, 160), (0.005, 160)):
            config = SimConfig(
                model=model, channels=channels, r_init=(1.0, 0.0, 0.0),
                t_total=2.0, dt=dt, n_traj=n_traj, master_seed=11,
                store_states=True,
            )
            records = simulate_ensemble(config)
            norms = np.linalg.norm(records.states, axis=2)
            defect[dt] = np.abs(norms - 1.0).max(axis=1).mean()
        assert 1.5 <= defect[0.02] / defect[0.01] <= 3.0
        assert 1.5 <= defect[0.01] / defect[0.005] <= 3.0


class TestSimulateEnsemble:
    def test_single_trajectory_reduction(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, n_traj=1, store_states=True)
        ens = simulate_ensemble(config)
        solo = simulate_range(config, 0, 1)
        assert np.array_equal(ens.samples[0], solo.samples[0])
        assert np.array_equal(ens.states[0], solo.states[0])

    def test_rows_independent_of_batch_size(self):
        model, channels = single_channel_setup()
        base = make_config(model, channels, n_traj=9, batch_size=1000)
        odd = make_config(model, channels, n_traj=9, batch_size=2)
        a = simulate_ensemble(base)
        b = simulate_ensemble(odd)
        assert np.array_equal(a.samples, b.samples)

    def test_worker_count_invariance(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, n_traj=40, batch_size=8)
        serial = simulate_ensemble(config, workers=1)
        pooled = simulate_ensemble(config, workers=4)
        assert np.array_equal(serial.samples, pooled.samples)
        assert serial.clipped_steps == pooled.clipped_steps
        assert multiprocessing.active_children() == []

    def test_one_available_cpu_starts_no_process(self, monkeypatch):
        import concurrent.futures

        import qcorr.trajectory as trajectory

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(trajectory, "_available_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        config = golden_config("unital_preset")
        records = simulate_range(config, 0, config.n_traj, workers=3)
        assert sha256(records.samples) == GOLDEN["unital_preset"][0]
        assert sha256(records.states) == GOLDEN["unital_preset"][1]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_fixed_seed_bits_are_pinned(self, case, workers):
        # sha256 of samples, states and the clip count, recorded with the
        # (batch, 3) kernel (rabi_nonunital with the (3, batch) one); batch_size 7 cuts the 23 trajectories into
        # uneven batches and the 101 steps end in a partial block.
        config = golden_config(case)
        records = simulate_range(config, 0, config.n_traj, workers=workers)
        samples_sha, states_sha, clipped = GOLDEN[case]
        assert sha256(records.samples) == samples_sha
        assert sha256(records.states) == states_sha
        assert records.clipped_steps == clipped
        lean = simulate_range(replace(config, store_states=False), 0, config.n_traj,
                              workers=workers)
        assert sha256(lean.samples) == samples_sha
        assert lean.states is None

    def test_nonfinite_draw_names_step_and_trajectory(self, monkeypatch):
        # With 2 workers the poisoned draws reach the forked processes, and
        # the error they raise comes back pickled.
        import qcorr.trajectory as trajectory
        from qcorr import IntegrationDivergedError
        draws = trajectory.trajectory_draws

        def poisoned(seed, index, n_steps, n_channels):
            block = draws(seed, index, n_steps, n_channels)
            if index == 12:
                block[19, 0] = np.nan
            return block

        monkeypatch.setattr(trajectory, "trajectory_draws", poisoned)
        model, channels = single_channel_setup()
        config = make_config(model, channels, n_traj=16, batch_size=5)
        for workers in (1, 2):
            with pytest.raises(IntegrationDivergedError) as info:
                simulate_ensemble(config, workers=workers)
            assert (info.value.step_index, info.value.trajectory_index) == (19, 12)
            assert str(info.value) == "integration diverged at step 19, trajectory 12"
            assert multiprocessing.active_children() == []

    def test_range_matches_full_run(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, n_traj=30, batch_size=7)
        full = simulate_ensemble(config)
        part = simulate_range(config, 10, 20)
        assert np.array_equal(part.samples, full.samples[10:20])
        assert part.traj_offset == 10

    def test_index_ranges_align_and_fold_a_single_tail(self):
        assert index_ranges(0, 10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert index_ranges(5, 13, 4) == [(5, 8), (8, 13)]
        assert index_ranges(3, 4, 8) == [(3, 4)]
        model, channels = single_channel_setup()
        config = make_config(model, channels, n_traj=9, batch_size=4)
        assert np.array_equal(simulate_range(config, 0, 9).samples,
                              simulate_ensemble(make_config(model, channels, n_traj=9)).samples)

    def test_progress_callback_counts_up(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, n_traj=10, batch_size=3)
        for workers in (1, 2):
            seen = []
            simulate_ensemble(config, workers=workers,
                              progress=lambda done, total: seen.append((done, total)))
            assert len(seen) == 3  # one call per batch
            assert seen[-1] == (10, 10)
            assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_ensemble_mean_matches_analytic_propagation(self):
        config = ReplicaLikeConfig()
        records = simulate_ensemble(config)
        times = np.arange(config.n_samples + 1) * config.dt
        mean = records.states.mean(axis=0)
        se = records.states.std(axis=0, ddof=1) / np.sqrt(config.n_traj)
        for k in (10, 50, 100, 150, 200):
            expected = propagate_ensemble(config.model, config.r_init, 0.0, times[k])
            assert np.all(np.abs(mean[k] - expected) <= 4.0 * se[k] + 1e-12), k

    def test_whiteness_of_output_residuals(self):
        config = ReplicaLikeConfig(n_traj=400)
        records = simulate_ensemble(config)
        # Residual after removing the conditioned mean is the raw bin noise.
        residuals = []
        axes = np.array([ch.axis_vector for ch in config.channels])
        for c in range(records.n_channels):
            state_part = records.states[:, :-1, :] @ axes[c]
            residuals.append(records.samples[:, c, :] - state_part)
        eps = np.concatenate([r.ravel() for r in residuals])
        n = records.n_samples * records.n_traj
        lag1 = [
            np.mean(r[:, :-1] * r[:, 1:]) / np.mean(r * r)
            for r in residuals
        ]
        for rho in lag1:
            assert abs(rho) <= 4.0 / np.sqrt(n)
        expected_var = [ch.tau / config.dt for ch in config.channels]
        got_var = [float(np.var(r)) for r in residuals]
        assert got_var == pytest.approx(expected_var, rel=0.02)
        assert abs(eps.mean()) < 4.0 * np.sqrt(expected_var[0] / eps.size)

    def test_interior_dynamics_never_clips(self):
        # Inefficient monitoring from a mixed state stays well inside the
        # ball; the projection counter must stay essentially silent.
        ch = MeasurementChannel((0.0, 0.0, 1.0), tau=1.3, eta=0.5)
        model = build_ensemble_model([ch])
        config = SimConfig(
            model=model, channels=(ch,), r_init=(0.0, 0.0, 0.5),
            t_total=3.0, dt=0.01, n_traj=300, master_seed=23,
        )
        records = simulate_ensemble(config)
        assert records.clip_fraction < 1e-3

    def test_states_stay_in_ball(self):
        config = ReplicaLikeConfig(n_traj=200)
        records = simulate_ensemble(config)
        norms = np.linalg.norm(records.states, axis=2)
        assert norms.max() <= 1.0 + 1e-12


def ReplicaLikeConfig(n_traj=2000):
    phi = 3 * np.pi / 10
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0),
        MeasurementChannel((np.sin(phi), 0.0, np.cos(phi)), tau=0.65, eta=1.0),
    )
    model = build_ensemble_model(channels)
    return SimConfig(
        model=model, channels=channels,
        r_init=(np.sin(phi / 2), 0.0, np.cos(phi / 2)),
        t_total=2.0, dt=0.008, n_traj=n_traj, master_seed=99,
        store_states=True,
    )
