import hashlib
import math
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
    Window,
    build_ensemble_model,
    estimate_correlator,
    measurement_dephasing_generator,
    propagate_ensemble,
    simulate_ensemble,
    simulate_range,
)
from qcorr.linalg import cross_matrix
from qcorr.trajectory import _BayesStep, event_dephasing, index_ranges

from conftest import (
    PAULIS,
    bloch_components,
    density_matrix,
    random_unit_vector,
    rk4_affine_oracle,
)

Z = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0)
X = MeasurementChannel((1.0, 0.0, 0.0), tau=0.65, eta=1.0)


def single_channel_setup(tau=0.65, eta=1.0):
    ch = MeasurementChannel((0.0, 0.0, 1.0), tau=tau, eta=eta)
    return build_ensemble_model([ch]), (ch,)


def kernel(model, channels, dt, states):
    """The step of a batch holding the given states, one per column."""
    states = np.asarray(states, dtype=float).reshape(3, -1)
    config = SimConfig(model=model, channels=tuple(channels), r_init=(0.0, 0.0, 0.0),
                       t_total=dt, dt=dt, n_traj=1, master_seed=0)
    step = _BayesStep(config, states.shape[1])
    step.r[:] = states
    return step


def one_step(r, model, channels, dt, draws):
    """One kernel step of a single state: (new_state, samples)."""
    step = kernel(model, channels, dt, r)
    out = np.empty((len(channels), 1))
    step(np.asarray(draws, dtype=float).reshape(-1, 1), out)
    return step.r[:, 0].copy(), out[:, 0]


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


# case -> (sha256 of samples, sha256 of states)
GOLDEN = {
    "phase_backaction": (
        "30c3a70b7d43660d1ce4aff09e70b04c95a13256f02360544b2862ab69a3aff1",
        "083cc0a250bd2299540811da28c752a2f7103c8ed38f5706dbfa446c0f89d725",
    ),
    "rabi_nonunital": (
        "ecfe1e7ed4c86c94ae5c92fa583d676971ec96240df84cfbd60390d55c36c7b8",
        "1dac2e4acf310a39a5dd5bfcd01069c43133492e0c1ce7cf05ddec365a74aeaf",
    ),
    "unital_preset": (
        "86f9615d5ef1559ffaa037b168935394b7a0c5e982fd379b3794435fd517b952",
        "6e6a64fdb40580093aa9cf8a8d01df166caf21d2b050446d4bb92648d70a073e",
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

    @pytest.mark.parametrize("field, value", [
        ("t_total", math.nan), ("t_total", math.inf),
        ("n_traj", 2.5), ("n_traj", 4.0), ("batch_size", 2.5), ("batch_size", 0),
    ])
    def test_bad_number_refused_by_name(self, field, value):
        model, channels = single_channel_setup()
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            make_config(model, channels, **{field: value})

    def test_n_samples_floor(self):
        model, channels = single_channel_setup()
        config = make_config(model, channels, t_total=1.0, dt=0.003)
        assert config.n_samples == 333


def test_array_holding_dataclasses_compare_by_identity_and_hash():
    model, channels = single_channel_setup()
    for obj in (model, make_config(model, channels),
                RecordSet(np.zeros((2, 1, 3)), 0.01, channels, master_seed=1)):
        twin = replace(obj)
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2


class TestItoStep:
    def test_qnd_fixed_point_is_exact(self):
        # State on the sole measured axis: the event map and the rest flow
        # both leave it in place.
        model, channels = single_channel_setup(eta=0.7)
        r = np.array([0.0, 0.0, 1.0])
        for draw in (0.0, 1.3, -2.1):
            new_r, outputs = one_step(r, model, channels, 0.005, [draw])
            assert np.array_equal(new_r, r)
            assert outputs[0] == pytest.approx(1.0 + np.sqrt(0.65 / 0.005) * draw)

    @pytest.mark.parametrize("seed", range(6))
    def test_step_equals_kraus_oracle(self, seed):
        # Every channel's sample comes from the state before the step, with
        # the variance of the bin's +-1 mixture; then each channel in turn
        # applies M = exp(a (1 - i k) sigma_n), a = I dt / (2 tau), to the
        # density matrix. With eta = 1 and no drive nothing else moves.
        rng = np.random.default_rng(seed)
        channels = tuple(
            MeasurementChannel(tuple(random_unit_vector(rng)), tau=float(rng.uniform(0.3, 2.0)),
                               phase_k=float(rng.choice([0.0, rng.uniform(-2.0, 2.0)])))
            for _ in range(int(rng.integers(1, 4))))
        dt = float(rng.uniform(0.002, 0.01)) * min(ch.tau for ch in channels)
        r = random_unit_vector(rng) * rng.uniform(0.0, 1.0) ** 0.25
        draws = rng.normal(size=len(channels)) * 2.0
        new_r, samples = one_step(r, build_ensemble_model(channels), channels, dt, draws)

        rho = density_matrix(r)
        for ch, xi, sample in zip(channels, draws, samples):
            u = ch.axis_vector @ r
            assert sample == pytest.approx(u + np.sqrt(ch.tau / dt + 1.0 - u * u) * xi,
                                           rel=1e-14, abs=1e-14)
            sigma_n = sum(c * p for c, p in zip(ch.axis_vector, PAULIS))
            a = (1.0 - 1j * ch.phase_k) * sample * dt / (2.0 * ch.tau)
            kraus = np.cosh(a) * np.eye(2) + np.sinh(a) * sigma_n
            rho = kraus @ rho @ kraus.conj().T
            rho /= np.trace(rho).real
        assert np.abs(new_r - bloch_components(rho)).max() <= 1e-13

    def test_zero_samples_leave_only_the_rest_flow(self):
        # A sample of 0 makes every event map the identity, so the step is
        # the flow of lam minus the maps' dephasing: Rabi drive, environment
        # and the (1/eta - 1) share of each channel's dephasing.
        channels = (
            MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=0.6, phase_k=0.7),
            MeasurementChannel((0.6, 0.0, 0.8), tau=0.9, eta=0.8),
        )
        model = build_ensemble_model(
            channels, rabi_axis=(1.0, 0.0, 0.0), rabi_freq=3.0,
            env_lambda=-0.4 * np.diag([0.5, 0.5, 1.0]), env_rst=(0.0, 0.0, 0.7))
        dt = 0.005
        r = np.array([0.3, -0.5, 0.6])
        draws = [-(ch.axis_vector @ r) / np.sqrt(ch.tau / dt + 1.0 - (ch.axis_vector @ r) ** 2)
                 for ch in channels]
        # Channel 1's sample is read before channel 0's map moves the state.
        new_r, samples = one_step(r, model, channels, dt, draws)
        assert np.abs(samples).max() <= 1e-15
        rest = np.zeros((4, 4))
        rest[:3, :3] = model.lam - event_dephasing(channels)
        rest[:3, 3] = -model.lam @ model.r_st
        expected = rk4_affine_oracle(rest, np.zeros(4), np.append(r, 1.0), dt, n_steps=50)
        assert np.abs(new_r - expected[:3]).max() <= 1e-12

    def test_zero_state_stays_zero_with_zero_draws(self):
        model, channels = single_channel_setup()
        new_r, outputs = one_step(np.zeros(3), model, channels, 0.005, [0.0])
        assert np.array_equal(new_r, np.zeros(3))
        assert outputs[0] == 0.0

    def test_output_statistics_at_mixed_state(self):
        # Mean 0 +- 4 sigma/sqrt(n); the variance is the +-1 mixture's
        # tau/dt + 1, within 1%.
        model, channels = single_channel_setup()
        dt = 0.005
        n = 1_000_000
        step = kernel(model, channels, dt, np.zeros((3, n)))
        out = np.empty((1, n))
        step(np.random.default_rng(3).standard_normal((1, n)), out)
        variance = 0.65 / dt + 1.0
        assert abs(out.mean()) < 4.0 * np.sqrt(variance / n)
        assert out.var() == pytest.approx(variance, rel=0.01)

    def test_phase_backaction_rotates_about_axis(self):
        ch = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=0.8)
        model = build_ensemble_model([ch])
        r = np.array([0.5, 0.0, 0.0])
        draw = 1.7
        dt = 0.004
        new_r, _ = one_step(r, model, (ch,), dt, [draw])
        # The kick turns the state out of the xz plane along n x r = y.
        assert new_r[1] != 0.0
        new_r0, _ = one_step(r, model, (MeasurementChannel((0, 0, 1), 0.65, 1.0),), dt, [draw])
        assert new_r0[1] == 0.0


class TestRefusedModels:
    def test_generator_without_measurement_dephasing_refused(self):
        # lam = 0 with a measured channel: the rest of the generator would
        # undo the maps' dephasing, which no quantum map does.
        with pytest.raises(ValidationError, match="measurement dephasing"):
            make_config(EnsembleModel(np.zeros((3, 3))), (Z,))


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

    def test_pure_states_stay_pure_to_rounding(self):
        # Ideal single-channel monitoring keeps pure states pure; every
        # event map does so exactly, so the defect max_t ||r|-1| is
        # rounding at any dt.
        model, channels = single_channel_setup()
        for dt in (0.02, 0.01, 0.005):
            config = SimConfig(
                model=model, channels=channels, r_init=(1.0, 0.0, 0.0),
                t_total=2.0, dt=dt, n_traj=160, master_seed=11,
                store_states=True,
            )
            records = simulate_ensemble(config)
            norms = np.linalg.norm(records.states, axis=2)
            assert np.abs(norms - 1.0).max() <= 1e-12, dt


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
        # sha256 of samples and states, recorded with the Bayesian kernel;
        # batch_size 7 cuts the 23 trajectories into uneven batches and the
        # 101 steps end in a partial block.
        config = golden_config(case)
        records = simulate_range(config, 0, config.n_traj, workers=workers)
        samples_sha, states_sha = GOLDEN[case]
        assert sha256(records.samples) == samples_sha
        assert sha256(records.states) == states_sha
        assert records.clipped_steps == 0
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
        # The +-1 mixture's variance: tau/dt plus the outcome spread 1 - (n.r)^2.
        expected_var = [ch.tau / config.dt + 1.0 - np.mean((records.states[:, :-1, :] @ axis) ** 2)
                        for ch, axis in zip(config.channels, axes)]
        got_var = [float(np.var(r)) for r in residuals]
        assert got_var == pytest.approx(expected_var, rel=0.02)
        assert abs(eps.mean()) < 4.0 * np.sqrt(expected_var[0] / eps.size)

    def test_interior_dynamics_never_clips(self):
        # Inefficient monitoring from a mixed state stays strictly inside
        # the ball, and nothing is ever clipped.
        ch = MeasurementChannel((0.0, 0.0, 1.0), tau=1.3, eta=0.5)
        model = build_ensemble_model([ch])
        config = SimConfig(
            model=model, channels=(ch,), r_init=(0.0, 0.0, 0.5),
            t_total=3.0, dt=0.01, n_traj=300, master_seed=23, store_states=True,
        )
        records = simulate_ensemble(config)
        assert records.clipped_steps == 0
        assert np.linalg.norm(records.states, axis=2).max() < 1.0

    def test_same_channel_coincident_product_is_tau_over_dt_plus_one(self):
        # E[I^2] of the +-1 mixture's sample is tau/dt + 1 in every state, so
        # the coincident product 0@0;0@0 estimates it exactly. A8's model;
        # budget fixed before the first run: 4000 trajectories, seed 8106.
        ch = MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0)
        config = SimConfig(
            model=build_ensemble_model([ch]), channels=(ch,), r_init=(1.0, 0.0, 0.0),
            t_total=2.0, dt=0.01, n_traj=4000, master_seed=8106,
        )
        est = estimate_correlator(simulate_ensemble(config), [(0, 0.0), (0, 0.0)],
                                  Window(1.0, 0.5))
        assert abs(est.value - (ch.tau / config.dt + 1.0)) <= 4.0 * est.std_error

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
