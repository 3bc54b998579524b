import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    CorrelatorSpec,
    EnsembleModel,
    FactorizationInapplicableError,
    MeasurementChannel,
    SpecSizeError,
    ValidationError,
    Window,
    brute_force_correlator,
    build_ensemble_model,
    chain_correlator,
    factorized_correlator,
    mean_signal,
    propagate_ensemble,
    two_time_correlator,
    window_mean_state,
)
from qcorr import linalg
from qcorr.analytic import _factorized_value

from conftest import (
    density_matrix_correlator_oracle,
    random_event_spec,
    random_model,
    random_unit_vector,
)

PHI = 3 * np.pi / 10


def replica_channels(phi=PHI):
    return (
        MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0),
        MeasurementChannel((np.sin(phi), 0.0, np.cos(phi)), tau=0.65, eta=1.0),
    )


def replica_system(phi=PHI):
    channels = replica_channels(phi)
    return build_ensemble_model(channels), channels


def phase_kicked_system():
    """z channel with phase backaction, y channel without."""
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=1.0),
        MeasurementChannel((0.0, 1.0, 0.0), tau=0.65, eta=1.0),
    )
    return build_ensemble_model(channels), channels


class TestCorrelatorSpec:
    def test_strictly_increasing_times_enforced(self):
        with pytest.raises(ValidationError):
            CorrelatorSpec(((0, 1.0), (0, 1.0)))
        with pytest.raises(ValidationError):
            CorrelatorSpec(((0, 2.0), (0, 1.0)))

    def test_initial_time_before_first_event(self):
        with pytest.raises(ValidationError):
            CorrelatorSpec(((0, 1.0),), t_in=2.0)

    def test_initial_state_inside_ball(self):
        with pytest.raises(ValidationError):
            CorrelatorSpec(((0, 1.0),), r_in=(1.0, 1.0, 0.0))


class TestMeanSignal:
    def test_at_initial_time(self):
        model, channels = replica_system()
        r_in = (0.2, 0.1, 0.4)
        value = mean_signal(model, channels, 0, 0.0, r_in, 0.0)
        assert value == pytest.approx(0.4, abs=1e-15)

    def test_replica_initial_projection_is_half_angle(self):
        # Axis at phi, state halfway: overlap collapses to cos(phi/2).
        for phi in (0.2, PHI, 2.5):
            model, channels = replica_system(phi)
            r_in = (np.sin(phi / 2), 0.0, np.cos(phi / 2))
            value = mean_signal(model, channels, 1, 0.0, r_in, 0.0)
            assert value == pytest.approx(np.cos(phi / 2), abs=1e-14)

    def test_unital_mixed_state_gives_zero_forever(self):
        model, channels = replica_system()
        for t in (0.0, 0.7, 3.0):
            assert mean_signal(model, channels, 0, t, (0, 0, 0), 0.0) == 0.0

    def test_time_before_initial_rejected(self):
        model, channels = replica_system()
        with pytest.raises(ValidationError):
            mean_signal(model, channels, 0, 0.5, (0, 0, 0), 1.0)


class TestTwoTimeCorrelator:
    def test_equal_times_give_axis_overlap(self):
        model, channels = replica_system()
        value = two_time_correlator(model, channels, 0, 1.0, 1, 1.0)
        assert value == pytest.approx(np.cos(PHI), abs=1e-14)

    def test_qnd_single_channel_never_decays(self):
        ch = MeasurementChannel((0.0, 0.0, 1.0), tau=0.4, eta=0.9)
        model = build_ensemble_model([ch])
        for gap in (0.0, 1.0, 10.0):
            assert two_time_correlator(model, (ch,), 0, 0.0, 0, gap) == pytest.approx(1.0, abs=1e-12)

    def test_replica_short_gap_constant(self):
        # The pair correlator at gap 0.15/gamma stays within a percent of
        # the axis overlap for every angle.
        gamma = 1.0 / 1.3
        for n in range(11):
            if n == 5:
                continue
            phi = n * np.pi / 10
            model, channels = replica_system(phi)
            k = two_time_correlator(model, channels, 0, 0.0, 1, 0.15 / gamma)
            ratio = k ** 2 / np.cos(phi) ** 2
            assert 0.98 <= ratio <= 1.005, (n, ratio)

    def test_stationarity_under_time_shift(self):
        model, channels = replica_system()
        a = two_time_correlator(model, channels, 0, 0.0, 1, 0.9)
        b = two_time_correlator(model, channels, 0, 5.0, 1, 5.9)
        assert a == pytest.approx(b, abs=1e-12)

    def test_non_unital_model_directed_to_chain(self):
        channels = replica_channels()
        model = EnsembleModel(-np.eye(3), (0.0, 0.0, 0.5))
        with pytest.raises(ValidationError, match="chain_correlator"):
            two_time_correlator(model, channels, 0, 0.0, 1, 1.0)

    def test_reversed_times_rejected(self):
        model, channels = replica_system()
        with pytest.raises(ValidationError):
            two_time_correlator(model, channels, 0, 1.0, 1, 0.5)

    def test_phase_backaction_on_earlier_channel_refused(self):
        model, channels = phase_kicked_system()
        with pytest.raises(ValidationError, match="phase backaction"):
            two_time_correlator(model, channels, 0, 0.1, 1, 0.6)
        assert np.isfinite(two_time_correlator(model, channels, 1, 0.1, 0, 0.6))


class TestBruteForceCorrelator:
    def test_single_event_equals_mean_signal(self):
        model, channels = replica_system()
        r_in = (np.sin(PHI / 2), 0.0, np.cos(PHI / 2))
        spec = CorrelatorSpec(((1, 1.3),), r_in=r_in)
        assert brute_force_correlator(model, channels, spec) == pytest.approx(
            mean_signal(model, channels, 1, 1.3, r_in, 0.0), abs=1e-14)

    def test_two_events_match_closed_form_for_any_initial_state(self, rng):
        model, channels = replica_system()
        expected = two_time_correlator(model, channels, 0, 0.4, 1, 1.7)
        for _ in range(5):
            r_in = random_unit_vector(rng) * rng.uniform(0.0, 1.0)
            spec = CorrelatorSpec(((0, 0.4), (1, 1.7)), r_in=tuple(r_in))
            assert brute_force_correlator(model, channels, spec) == pytest.approx(
                expected, abs=1e-12)

    def test_too_many_events_rejected(self):
        model, channels = replica_system()
        events = tuple((0, 0.1 * (k + 1)) for k in range(17))
        with pytest.raises(SpecSizeError):
            brute_force_correlator(model, channels, CorrelatorSpec(events))

    def test_phase_backaction_before_last_event_refused(self):
        model, channels = phase_kicked_system()
        with pytest.raises(ValidationError, match="phase backaction"):
            brute_force_correlator(model, channels, CorrelatorSpec(((0, 0.1), (1, 0.6))))


class TestChainCorrelator:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 7))
    def test_equals_brute_force_everywhere(self, seed, n_events):
        rng = np.random.default_rng(seed)
        model, channels = random_model(rng, unital=bool(seed % 2))
        events = random_event_spec(rng, channels, n_events)
        r_in = random_unit_vector(rng) * rng.uniform(0.0, 1.0)
        spec = CorrelatorSpec(events, r_in=tuple(r_in))
        brute = brute_force_correlator(model, channels, spec)
        chain = chain_correlator(model, channels, spec)
        assert chain == pytest.approx(brute, abs=1e-12)

    def test_three_events_non_unital_equals_brute_force(self):
        channels = replica_channels()
        model = EnsembleModel(-0.9 * np.eye(3), (0.0, 0.0, 1.0))
        spec = CorrelatorSpec(((0, 0.2), (1, 0.9), (0, 2.0)), r_in=(0.5, 0.0, 0.5))
        assert chain_correlator(model, channels, spec) == pytest.approx(
            brute_force_correlator(model, channels, spec), abs=1e-12)

    def test_ten_events_match_pair_product_on_unital_model(self, rng):
        model, channels = random_model(rng, unital=True)
        events = random_event_spec(rng, channels, 10)
        spec = CorrelatorSpec(events, r_in=(0.0, 0.0, 0.7))
        chain = chain_correlator(model, channels, spec)
        product = _factorized_value(model, channels, spec)
        assert chain == pytest.approx(product, abs=1e-10)

    def test_even_chain_invariant_under_time_shift(self, rng):
        model, channels = random_model(rng, unital=True)
        events = random_event_spec(rng, channels, 4)
        spec = CorrelatorSpec(events)
        shifted = CorrelatorSpec(tuple((c, t + 2.5) for c, t in events))
        assert chain_correlator(model, channels, spec) == pytest.approx(
            chain_correlator(model, channels, shifted), abs=1e-12)

    def test_even_chain_independent_of_initial_state(self, rng):
        model, channels = random_model(rng, unital=True)
        events = random_event_spec(rng, channels, 6)
        n1 = channels[events[0][0]].axis_vector
        states = [np.zeros(3), random_unit_vector(rng) * 0.8, n1, -n1]
        values = [
            chain_correlator(model, channels, CorrelatorSpec(events, r_in=tuple(r)))
            for r in states
        ]
        assert max(values) - min(values) <= 1e-12

    def test_phase_backaction_before_last_event_matches_oracle(self):
        model, channels = phase_kicked_system()
        spec = CorrelatorSpec(((0, 0.1), (1, 0.3)), r_in=(1.0, 0.0, 0.0))
        value = chain_correlator(model, channels, spec)
        assert value == pytest.approx(
            density_matrix_correlator_oracle(model, channels, spec), abs=1e-12)
        # The z event's kick k z x r turns the decayed x into y for the y event;
        # the collapse picture, which drops it, gives 0.
        gamma_z, gamma_y = (ch.dephasing_rate for ch in channels)
        expected = channels[0].phase_k * np.exp(-(gamma_z + gamma_y) * 0.1 - gamma_z * 0.2)
        assert value == pytest.approx(expected, abs=1e-12)
        unkicked = (replace(channels[0], phase_k=0.0), channels[1])
        assert chain_correlator(model, unkicked, spec) == 0.0
        # The last event's kick reaches no later event.
        last_only = CorrelatorSpec(((1, 0.1), (1, 0.6), (0, 0.9)), r_in=(0.0, 0.6, 0.0))
        assert chain_correlator(model, channels, last_only) == pytest.approx(
            brute_force_correlator(model, channels, last_only), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
    def test_equals_density_matrix_oracle_under_phase_backaction(self, seed, n_events):
        rng = np.random.default_rng(seed)
        model, channels = random_model(rng, unital=bool(seed % 2))
        channels = tuple(replace(ch, phase_k=float(rng.uniform(-1.5, 1.5)))
                         for ch in channels)
        events = random_event_spec(rng, channels, n_events)
        r_in = random_unit_vector(rng) * rng.uniform(0.0, 1.0)
        spec = CorrelatorSpec(events, r_in=tuple(r_in))
        assert chain_correlator(model, channels, spec) == pytest.approx(
            density_matrix_correlator_oracle(model, channels, spec), abs=1e-12)


class TestFactorizedCorrelator:
    def test_two_events_reduce_to_two_time(self):
        model, channels = replica_system()
        spec = CorrelatorSpec(((0, 0.3), (1, 1.1)))
        assert factorized_correlator(model, channels, spec) == pytest.approx(
            two_time_correlator(model, channels, 0, 0.3, 1, 1.1), abs=1e-14)

    def test_four_events_ignore_intermediate_gap(self):
        model, channels = replica_system()
        base = ((0, 0.5), (1, 0.7), (0, 1.5), (1, 1.7))
        wide = ((0, 0.5), (1, 0.7), (0, 2.9), (1, 3.1))
        v_base = factorized_correlator(model, channels, CorrelatorSpec(base))
        v_wide = factorized_correlator(model, channels, CorrelatorSpec(wide))
        assert v_base == pytest.approx(v_wide, abs=1e-12)
        assert v_base == pytest.approx(
            chain_correlator(model, channels, CorrelatorSpec(base)), abs=1e-12)

    def test_three_events_ignore_leading_gap(self):
        model, channels = replica_system()
        r_in = (np.sin(PHI / 2), 0.0, np.cos(PHI / 2))
        near = CorrelatorSpec(((1, 1.0), (0, 1.2), (1, 2.0)), r_in=r_in)
        far = CorrelatorSpec(((1, 1.0), (0, 1.9), (1, 2.7)), r_in=r_in)
        # Same final gap 0.8 in both; the first gap moved from 0.2 to 0.9.
        assert factorized_correlator(model, channels, near) == pytest.approx(
            factorized_correlator(model, channels, far), abs=1e-12)

    def test_non_unital_model_rejected(self):
        channels = replica_channels()
        model = EnsembleModel(-np.eye(3), (0.0, 0.0, 0.3))
        spec = CorrelatorSpec(((0, 0.5), (1, 1.0)))
        with pytest.raises(FactorizationInapplicableError):
            factorized_correlator(model, channels, spec)

    def test_phase_backaction_rejected(self):
        phi = PHI
        channels = (
            MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0, phase_k=0.5),
            MeasurementChannel((np.sin(phi), 0.0, np.cos(phi)), tau=0.65, eta=1.0),
        )
        model = build_ensemble_model(channels)
        spec = CorrelatorSpec(((0, 0.5), (1, 1.0)))
        with pytest.raises(FactorizationInapplicableError) as exc:
            factorized_correlator(model, channels, spec)
        assert "chain_correlator" in str(exc.value)

    def test_non_unital_witness_shows_factorization_failure(self):
        # The pair-product formula applied outside its preconditions must
        # visibly disagree with the exact chain value.
        channels = (
            MeasurementChannel((0.0, 0.0, 1.0), tau=0.5, eta=1.0),
            MeasurementChannel((1.0, 0.0, 0.0), tau=0.5, eta=1.0),
        )
        model = EnsembleModel(-np.eye(3), (0.0, 0.0, 0.5))
        spec = CorrelatorSpec(((0, 0.5), (0, 1.0), (0, 1.5), (0, 2.0)))
        chain = chain_correlator(model, channels, spec)
        naive = _factorized_value(model, channels, spec)
        assert abs(chain - naive) > 1e-3

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
    def test_matches_chain_on_unital_models(self, seed, n_events):
        rng = np.random.default_rng(seed)
        model, channels = random_model(rng, unital=True)
        events = random_event_spec(rng, channels, n_events)
        spec = CorrelatorSpec(events, r_in=(0.1, 0.2, 0.3))
        assert factorized_correlator(model, channels, spec) == pytest.approx(
            chain_correlator(model, channels, spec), abs=1e-10)


def random_window_system(rng, kind):
    """Random physical model and channels of one kind: unital, nonunital or phase.

    The non-unital kind adds a Rabi drive and an amplitude-damping
    environment toward a point of the unit ball, so every state stays
    physical; the phase kind puts phase backaction on every channel.
    """
    _, channels = random_model(rng, unital=True, allow_rabi=False)
    if kind == "phase":
        channels = tuple(replace(ch, phase_k=float(rng.uniform(-1.5, 1.5)))
                         for ch in channels)
    if kind != "nonunital":
        return build_ensemble_model(channels, random_unit_vector(rng),
                                    float(rng.uniform(0.0, 4.0))), channels
    axis = random_unit_vector(rng)
    basis = np.linalg.qr(np.column_stack([axis, rng.normal(size=(3, 2))]))[0]
    env_lambda = -float(rng.uniform(0.1, 1.5)) * basis @ np.diag([1.0, 0.5, 0.5]) @ basis.T
    return build_ensemble_model(
        channels, random_unit_vector(rng), float(rng.uniform(0.5, 4.0)),
        env_lambda, float(rng.uniform(-1.0, 1.0)) * axis), channels


class TestWindowMeanState:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
           st.sampled_from(["unital", "nonunital", "phase"]))
    def test_one_evaluation_equals_mean_over_placements(self, seed, n_events, kind):
        rng = np.random.default_rng(seed)
        model, channels = random_window_system(rng, kind)
        dt = float(rng.uniform(0.005, 0.05))
        window = Window(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1.0)) + dt)
        gaps = np.concatenate([[0], np.cumsum(rng.integers(1, 40, size=n_events - 1))])
        chans = rng.integers(0, len(channels), size=n_events)
        r_in = tuple(random_unit_vector(rng) * rng.uniform(0.0, 1.0))
        routes = [chain_correlator]
        if kind == "unital":
            routes.append(factorized_correlator)
        if kind != "phase":
            routes.append(brute_force_correlator)
        r_window = window_mean_state(model, r_in, window, dt)
        one = CorrelatorSpec(tuple((int(c), g * dt) for c, g in zip(chans, gaps)), r_window)
        i0, i1 = window.bins(dt)
        for route in routes:
            placements = [
                route(model, channels, CorrelatorSpec(
                    tuple((int(c), i * dt + g * dt) for c, g in zip(chans, gaps)), r_in))
                for i in range(i0, i1 + 1)
            ]
            assert route(model, channels, one) == pytest.approx(
                np.mean(placements), abs=1e-14), route.__name__


    @pytest.mark.parametrize("n_bins", [1, 2, 250])
    def test_two_matrix_exponentials_match_the_per_placement_mean(self, monkeypatch, n_bins):
        rng = np.random.default_rng(97 + n_bins)
        model, _ = random_window_system(rng, "nonunital")
        assert not model.unital and np.any(model.lam != model.lam.T)
        dt = 0.01
        window = Window(37 * dt, (n_bins - 1 + 0.3) * dt)
        i0, i1 = window.bins(dt)
        assert i1 - i0 + 1 == n_bins
        r_in = (0.3, -0.5, 0.6)
        per_placement = np.mean([propagate_ensemble(model, r_in, 0.0, i * dt)
                                 for i in range(i0, i1 + 1)], axis=0)
        calls = []
        expm = linalg.expm
        monkeypatch.setattr(linalg, "expm", lambda a: calls.append(1) or expm(a))
        r_window = window_mean_state(model, r_in, window, dt)
        assert len(calls) == 2
        np.testing.assert_allclose(r_window, per_placement, rtol=0.0, atol=1e-14)

    def test_memory_stays_flat_across_window_lengths(self):
        model, _ = random_window_system(np.random.default_rng(5), "nonunital")
        dt = 0.001

        def peak(n_bins):
            tracemalloc.start()
            try:
                window_mean_state(model, (0.3, -0.5, 0.6), Window(0.0, (n_bins - 0.5) * dt), dt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations
        short, long = peak(2000), peak(20000)
        assert long < 1.5 * short
