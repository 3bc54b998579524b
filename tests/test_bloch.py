import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    EnsembleModel,
    MeasurementChannel,
    ValidationError,
    build_ensemble_model,
    measurement_dephasing_generator,
    ordered_propagator,
    propagate_ensemble,
)
from qcorr.bloch import require_lindblad

from conftest import (
    bloch_components,
    density_matrix,
    dephasing_generator_operator_oracle,
    random_model,
    random_unit_vector,
    rk4_affine_oracle,
)


class TestMeasurementChannel:
    def test_dephasing_rate_ideal(self):
        ch = MeasurementChannel((0, 0, 1), tau=0.5, eta=1.0)
        assert ch.dephasing_rate == pytest.approx(1.0)

    def test_dephasing_rate_with_phase_backaction(self):
        ch = MeasurementChannel((0, 0, 1), tau=0.5, eta=1.0, phase_k=1.0)
        assert ch.dephasing_rate == pytest.approx(2.0)

    def test_dephasing_rate_with_efficiency(self):
        ch = MeasurementChannel((1, 0, 0), tau=1.0, eta=0.4)
        assert ch.dephasing_rate == pytest.approx(1.25)

    @pytest.mark.parametrize("bad", [
        dict(axis=(0, 0, 2), tau=1.0, eta=1.0),
        dict(axis=(0, 0, 1), tau=0.0, eta=1.0),
        dict(axis=(0, 0, 1), tau=-1.0, eta=1.0),
        dict(axis=(0, 0, 1), tau=1.0, eta=0.0),
        dict(axis=(0, 0, 1), tau=1.0, eta=1.2),
    ])
    def test_invalid_channels_rejected(self, bad):
        with pytest.raises(ValidationError):
            MeasurementChannel(**bad)


class TestDephasingGenerator:
    def test_z_axis_unit_rate(self):
        ch = MeasurementChannel((0, 0, 1), tau=0.5, eta=1.0)  # rate 1
        assert np.allclose(measurement_dephasing_generator([ch]),
                           np.diag([-1.0, -1.0, 0.0]), atol=1e-15)

    def test_x_axis_rate_two(self):
        ch = MeasurementChannel((1, 0, 0), tau=0.25, eta=1.0)  # rate 2
        assert np.allclose(measurement_dephasing_generator([ch]),
                           np.diag([0.0, -2.0, -2.0]), atol=1e-15)

    def test_empty_channel_list(self):
        assert np.array_equal(measurement_dephasing_generator([]), np.zeros((3, 3)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_two_level_operator_oracle(self, seed):
        rng = np.random.default_rng(seed)
        channels = []
        for _ in range(int(rng.integers(1, 4))):
            axis = random_unit_vector(rng)
            channels.append(MeasurementChannel(
                tuple(axis),
                tau=float(rng.uniform(0.2, 3.0)),
                eta=float(rng.uniform(0.2, 1.0)),
                phase_k=float(rng.uniform(-1.0, 1.0)),
            ))
        got = measurement_dephasing_generator(channels)
        expected = dephasing_generator_operator_oracle(channels)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_symmetric_negative_semidefinite(self, rng):
        channels = [
            MeasurementChannel(tuple(random_unit_vector(rng)), tau=0.7, eta=0.8)
            for _ in range(3)
        ]
        gen = measurement_dephasing_generator(channels)
        assert np.allclose(gen, gen.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(gen) <= 1e-12)


class TestBuildEnsembleModel:
    def test_single_z_channel(self):
        ch = MeasurementChannel((0, 0, 1), tau=0.5, eta=1.0)
        model = build_ensemble_model([ch])
        assert np.allclose(model.lam, np.diag([-1.0, -1.0, 0.0]), atol=1e-15)
        assert np.array_equal(model.drift, np.zeros(3))
        assert model.unital

    def test_rabi_rotation_about_y(self):
        model = build_ensemble_model([], rabi_axis=(0, 1, 0), rabi_freq=1.3)
        lam = model.lam
        assert np.allclose(lam, -lam.T, atol=1e-15)
        moved = propagate_ensemble(model, (0, 0, 1), 0.0, 0.4)
        angle = 1.3 * 0.4
        assert np.allclose(moved, [np.sin(angle), 0.0, np.cos(angle)], atol=1e-12)

    def test_rabi_requires_axis(self):
        with pytest.raises(ValidationError):
            build_ensemble_model([], rabi_freq=1.0)

    def test_env_rst_recorded(self):
        model = build_ensemble_model([], env_lambda=-0.5 * np.eye(3), env_rst=(0, 0, 0.8))
        assert not model.unital
        assert np.allclose(model.drift, [0, 0, 0.4])

    def test_env_rst_carried_by_the_environment_term_alone(self):
        # lam r + drift = (L_meas + Rabi) r + L_env (r - r_env) for every r.
        channels = (MeasurementChannel((0, 0, 1), tau=0.65), MeasurementChannel((0, 1, 0), tau=0.65))
        env_lambda = -0.5 * np.diag([0.5, 0.5, 1.0])
        r_env = np.array([0.0, 0.0, 1.0])
        model = build_ensemble_model(channels, rabi_axis=(1, 0, 0), rabi_freq=2.0,
                                     env_lambda=env_lambda, env_rst=r_env)
        coherent = build_ensemble_model(channels, rabi_axis=(1, 0, 0), rabi_freq=2.0)
        assert coherent.unital
        for r in np.eye(3):
            assert np.allclose(model.lam @ r + model.drift,
                               coherent.lam @ r + env_lambda @ (r - r_env), atol=1e-14)
        # The relaxation target is not r_env: dephasing and drive pull on it too.
        assert np.linalg.norm(np.linalg.solve(model.lam, -model.drift) - r_env) > 0.1

    def test_zero_environment_drift_is_unital(self):
        ch = MeasurementChannel((0, 0, 1), tau=0.5)
        model = build_ensemble_model([ch], env_lambda=np.diag([-1.0, -1.0, 0.0]),
                                     env_rst=(0, 0, 0.9))
        assert model.unital
        assert np.array_equal(model.drift, np.zeros(3))

    def test_singular_generator_with_drift_rejected(self):
        with pytest.raises(ValidationError, match="no Lindblad generator"):
            build_ensemble_model([], env_lambda=np.diag([-1.0, -1.0, 0.0]), env_rst=(0.5, 0, 0))


class TestRequireLindblad:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_operator_form_generators_accepted(self, seed):
        # rho' = -i [H, rho] + sum_k (J_k rho J_k^+ - {J_k^+ J_k, rho} / 2) for a
        # random Hamiltonian and jump operators, read off in Bloch components.
        rng = np.random.default_rng(seed)

        def operator():
            return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

        h = operator()
        h = h + h.conj().T
        jumps = [operator() for _ in range(int(rng.integers(1, 4)))]

        def flow(r):
            rho = density_matrix(r)
            out = -1j * (h @ rho - rho @ h)
            for j in jumps:
                jj = j.conj().T @ j
                out += j @ rho @ j.conj().T - 0.5 * (jj @ rho + rho @ jj)
            return bloch_components(out)

        drift = flow(np.zeros(3))
        generator = np.column_stack([flow(e) - drift for e in np.eye(3)])
        require_lindblad(generator, drift, "the model")

    def test_amplitude_damping_is_on_the_boundary(self):
        # Decay to the ground state at gamma = 1: the largest drift any
        # Lindblad generator with this linear part can carry.
        generator = np.diag([-0.5, -0.5, -1.0])
        require_lindblad(generator, np.array([0.0, 0.0, -1.0]), "the model")
        with pytest.raises(ValidationError, match="the model is no Lindblad generator"):
            require_lindblad(generator, np.array([0.0, 0.0, -1.01]), "the model")


class TestEnsembleModel:
    def test_validates_shapes_finiteness_and_freezes_arrays(self):
        lam = np.diag([-1.0, -2.0, -3.0])
        model = EnsembleModel(lam)
        assert np.array_equal(model.drift, np.zeros(3))
        assert np.array_equal(model.lam, lam)
        for array in (model.lam, model.drift):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        lam[0, 0] = 5.0  # the model holds its own copy
        assert model.lam[0, 0] == -1.0
        for bad_lam, bad_drift in (
            (np.eye(2), np.zeros(3)),
            (np.zeros((3, 4)), np.zeros(3)),
            (np.zeros((3, 3)), np.zeros(2)),
            (np.zeros((3, 3)), np.zeros((3, 1))),
            (np.diag([np.nan, 0.0, 0.0]), np.zeros(3)),
            (np.zeros((3, 3)), (0.0, np.inf, 0.0)),
        ):
            with pytest.raises(ValidationError):
                EnsembleModel(bad_lam, drift=bad_drift)
        with pytest.raises(TypeError):  # the drift is keyword-only
            EnsembleModel(lam, (0.0, 0.0, 0.5))

    def test_unital_flag_threshold(self):
        almost = EnsembleModel(np.zeros((3, 3)), drift=(0.0, 0.0, 5e-11))
        assert almost.unital
        not_unital = EnsembleModel(np.zeros((3, 3)), drift=(0.0, 0.0, 1e-9))
        assert not not_unital.unital


class TestOrderedPropagator:
    def test_zero_span_is_identity(self):
        model = EnsembleModel(np.diag([-1.0, -1.0, 0.0]))
        gap = ordered_propagator(model, 0.7, 0.7)
        assert np.array_equal(gap[:3, :3], np.eye(3))
        assert np.array_equal(gap[:3, 3], np.zeros(3))

    def test_constant_dephasing(self):
        model = EnsembleModel(np.diag([-1.0, -1.0, 0.0]))
        gap = ordered_propagator(model, 0.0, 1.0)
        assert np.allclose(gap[:3, :3],
                           np.diag([np.exp(-1.0), np.exp(-1.0), 1.0]), rtol=1e-13)

    def test_reversed_times_rejected(self):
        model = EnsembleModel(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            ordered_propagator(model, 1.0, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95))
    def test_composition_through_interior_time(self, seed, frac):
        rng = np.random.default_rng(seed)
        model, _ = random_model(rng, unital=bool(seed % 2))
        t0, t2 = 0.3, 2.9
        t1 = t0 + frac * (t2 - t0)
        full = ordered_propagator(model, t0, t2)
        p01 = ordered_propagator(model, t0, t1)
        p12 = ordered_propagator(model, t1, t2)
        assert np.allclose(full[:3, :3], p12[:3, :3] @ p01[:3, :3], rtol=0, atol=1e-12)
        assert np.allclose(full[:3, 3], p12[:3, :3] @ p01[:3, 3] + p12[:3, 3],
                           rtol=0, atol=1e-12)

    def test_unital_propagator_has_zero_offset(self, rng):
        model, _ = random_model(rng, unital=True)
        gap = ordered_propagator(model, 0.0, 2.0)
        assert np.linalg.norm(gap[:3, 3]) <= 1e-10


class TestPropagateEnsemble:
    def test_z_dephasing_decays_transverse(self):
        model = EnsembleModel(np.diag([-1.0, -1.0, 0.0]))
        # The affine map itself is linear, so probe it beyond the unit ball.
        out = (ordered_propagator(model, 0.0, 1.0) @ (1.0, 0.0, 0.5, 1.0))[:3]
        assert np.allclose(out, [np.exp(-1.0), 0.0, 0.5], rtol=1e-12)
        assert out[0] == pytest.approx(0.3679, abs=5e-5)
        inside = propagate_ensemble(model, (0.8, 0.0, 0.5), 0.0, 1.0)
        assert np.allclose(inside, [0.8 * np.exp(-1.0), 0.0, 0.5], rtol=1e-12)

    def test_mixed_state_is_unital_fixed_point(self):
        model = EnsembleModel(np.diag([-2.0, -1.0, -3.0]))
        out = propagate_ensemble(model, (0.0, 0.0, 0.0), 0.0, 3.0)
        assert np.array_equal(out, np.zeros(3))

    def test_relaxation_toward_quasistationary_state(self):
        gamma = 1.1
        model = EnsembleModel(-gamma * np.eye(3), drift=(0.0, 0.0, gamma))
        out = propagate_ensemble(model, (0.0, 0.0, 0.0), 0.0, 0.9)
        assert np.allclose(out, [0.0, 0.0, 1.0 - np.exp(-gamma * 0.9)], rtol=1e-12)

    def test_rejects_states_outside_ball(self):
        model = EnsembleModel(np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            propagate_ensemble(model, (1.0, 1.0, 1.0), 0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_oddness_for_unital_models_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        model, _ = random_model(rng, unital=True)
        r0 = 0.9 * random_unit_vector(rng) * rng.uniform(0.1, 1.0)
        plus = propagate_ensemble(model, r0, 0.0, 1.7)
        minus = propagate_ensemble(model, -r0, 0.0, 1.7)
        assert np.array_equal(minus, -plus)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_pure_dephasing_contracts(self, seed):
        rng = np.random.default_rng(seed)
        model, _ = random_model(rng, unital=True, allow_rabi=False)
        r0 = random_unit_vector(rng) * rng.uniform(0.0, 1.0)
        out = propagate_ensemble(model, r0, 0.0, float(rng.uniform(0.0, 4.0)))
        assert np.linalg.norm(out) <= np.linalg.norm(r0) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_rk4_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model, _ = random_model(rng, unital=False)
        r0 = random_unit_vector(rng) * 0.7
        dt = float(rng.uniform(0.2, 2.5))
        out = propagate_ensemble(model, r0, 0.0, dt)
        expected = rk4_affine_oracle(model.lam, model.drift, r0, dt, n_steps=8000)
        assert np.allclose(out, expected, rtol=1e-9, atol=1e-9)
