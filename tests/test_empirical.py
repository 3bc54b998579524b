from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import empirical
from qcorr import (
    EstimateMismatchError,
    MeasurementChannel,
    RecordSet,
    SimConfig,
    ValidationError,
    Window,
    build_ensemble_model,
    estimate_correlator,
    merge_estimates,
    simulate_ensemble,
    simulate_range,
    two_time_correlator,
)
from qcorr.empirical import resolve_events, resolve_spec, window_means

PHI = 3 * np.pi / 10
TAU = 0.65
DT = 0.01


def replica_channels():
    return (
        MeasurementChannel((0.0, 0.0, 1.0), tau=TAU, eta=1.0),
        MeasurementChannel((np.sin(PHI), 0.0, np.cos(PHI)), tau=TAU, eta=1.0),
    )


def noise_only_records(n_traj=4000, n_samples=300, seed=0):
    """Records with the state contribution zeroed: raw bin noise only."""
    rng = np.random.default_rng(seed)
    channels = replica_channels()
    scale = np.sqrt(TAU / DT)
    samples = scale * rng.standard_normal((n_traj, 2, n_samples))
    return RecordSet(samples=samples, dt=DT, channels=channels, master_seed=seed)


def replica_records(n_traj=3000, seed=5, t_total=3.6):
    channels = replica_channels()
    model = build_ensemble_model(channels)
    config = SimConfig(
        model=model, channels=channels,
        r_init=(np.sin(PHI / 2), 0.0, np.cos(PHI / 2)),
        t_total=t_total, dt=DT, n_traj=n_traj, master_seed=seed,
    )
    return config, simulate_ensemble(config)


class TestEstimateCorrelator:
    def test_independent_noises_have_zero_correlator(self):
        records = noise_only_records()
        est = estimate_correlator(
            records, [(0, 0.0), (1, 0.5)], Window(1.0, 0.5))
        assert abs(est.value) <= 4.0 * est.std_error
        # Expected error scale: (tau/dt) / sqrt(W * M).
        predicted = (TAU / DT) / np.sqrt(est.n_window_samples * est.n_traj)
        assert est.std_error == pytest.approx(predicted, rel=0.1)

    def test_matches_analytic_pair_correlator(self):
        config, records = replica_records()
        model = build_ensemble_model(config.channels)
        window = Window(1.0, 0.5)
        # One bin is the shortest legal gap between different channels.
        for gap in (DT, 0.5, 1.0, 2.0):
            est = estimate_correlator(records, [(0, 0.0), (1, gap)], window)
            expected = two_time_correlator(model, config.channels, 0, 0.0, 1, gap)
            assert abs(est.value - expected) <= 4.0 * est.std_error, gap

    def test_same_channel_equal_time_gives_discretized_delta(self):
        records = noise_only_records()
        est = estimate_correlator(records, [(0, 0.0), (0, 0.0)], Window(1.0, 0.5))
        assert est.value == pytest.approx(TAU / DT, rel=0.05)

    def test_gap_snapping_reported(self):
        records = noise_only_records(n_traj=10, n_samples=50)
        est = estimate_correlator(
            records, [(0, 0.0), (1, 0.1234)], Window(0.1, 0.1))
        assert est.snapped_gaps_us[1] == pytest.approx(0.12)
        assert est.events == ((0, 0), (1, 12))

    def test_window_exceeding_span_rejected(self):
        records = noise_only_records(n_traj=10, n_samples=50)
        with pytest.raises(ValidationError):
            estimate_correlator(records, [(0, 0.0)], Window(0.1, 0.5))
        with pytest.raises(ValidationError):
            estimate_correlator(records, [(0, 0.0), (1, 0.3)], Window(0.1, 0.2))

    def test_decreasing_gaps_rejected(self):
        records = noise_only_records(n_traj=10, n_samples=50)
        with pytest.raises(ValidationError):
            estimate_correlator(records, [(0, 0.0), (1, 0.2), (0, 0.1)], Window(0.0, 0.1))

    def test_first_gap_must_be_zero(self):
        records = noise_only_records(n_traj=10, n_samples=50)
        with pytest.raises(ValidationError):
            estimate_correlator(records, [(0, 0.1), (1, 0.2)], Window(0.0, 0.1))

    def test_coinciding_events_on_different_channels_rejected(self):
        records = noise_only_records(n_traj=10, n_samples=50)
        with pytest.raises(ValidationError, match="channels 0 and 1 snap to one bin"):
            estimate_correlator(records, [(0, 0.0), (1, 0.004)], Window(0.0, 0.1))
        with pytest.raises(ValidationError, match="channels 0 and 1 snap to one bin"):
            estimate_correlator(records, [(0, 0.0), (0, 0.0), (1, 0.0)], Window(0.0, 0.1))

    def test_spec_is_resolved_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(empirical, "resolve_spec", lambda *a, resolve=empirical.resolve_spec:
                            calls.append(a) or resolve(*a))
        records = noise_only_records(n_traj=10, n_samples=50)
        estimate_correlator(records, [(0, 0.0)], Window(0.1, 0.1))
        empirical.trajectory_window_means(records, [(0, 0.0)], Window(0.1, 0.1))
        assert len(calls) == 2

    def test_single_trajectory_rejected(self):
        records = noise_only_records(n_traj=1, n_samples=50)
        with pytest.raises(ValidationError):
            estimate_correlator(records, [(0, 0.0)], Window(0.1, 0.1))


def full_array_window_means(records, gaps, window):
    """The per-trajectory window means formed over the whole record at once."""
    events = resolve_events(gaps, records.dt, records.n_channels)
    i0, i1 = window.bins(records.dt)
    product = np.ones((records.n_traj, i1 - i0 + 1))
    for ch, g in events:
        product *= records.samples[:, ch, i0 + g:i1 + g + 1]
    return product.sum(axis=1, dtype=np.longdouble) / product.shape[1]


@st.composite
def shared_prefix_specs(draw, n_channels, n_samples):
    """Windowed specs: prefixes of one event path under several windows.

    The first spec is the single first event.
    """
    events = [(draw(st.integers(0, n_channels - 1)), 0)]
    for _ in range(draw(st.integers(0, 4))):
        step = draw(st.integers(0, 4))
        ch = events[-1][0] if step == 0 else draw(st.integers(0, n_channels - 1))
        events.append((ch, events[-1][1] + step))
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, len(events))) if specs else 1
        width = draw(st.integers(1, 6))
        i0 = draw(st.integers(0, n_samples - width - events[k - 1][1]))
        specs.append(([(ch, g * DT) for ch, g in events[:k]],
                      Window(i0 * DT, (width - 1 + 0.25) * DT)))
    return specs


class TestWindowMeans:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 23), st.integers(1, 3), st.integers(20, 40),
           st.integers(1, 25), st.integers(1, 9))
    def test_rows_equal_the_full_array_formula(self, data, n_traj, n_channels, n_samples,
                                               rows, block_traj):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        channels = replica_channels() + (MeasurementChannel((1.0, 0.0, 0.0), tau=TAU),)
        records = RecordSet(samples=8.0 * rng.standard_normal((n_traj, n_channels, n_samples)),
                            dt=DT, channels=channels[:n_channels], master_seed=1)
        specs = (data.draw(shared_prefix_specs(n_channels, n_samples))
                 + data.draw(shared_prefix_specs(n_channels, n_samples)))
        resolved = [resolve_spec(gaps, window, DT, n_channels, n_samples)
                    for gaps, window in specs]
        # Blocks of rows trajectories, each walked by window_means in passes
        # of block_traj trajectories: neither need divide n_traj.
        means = np.empty((len(specs), n_traj), dtype=np.longdouble)
        with mock.patch.object(empirical, "BLOCK_BYTES", block_traj * 8 * n_channels * n_samples):
            for lo in range(0, n_traj, rows):
                window_means(records.samples[lo:lo + rows], resolved, means[:, lo:lo + rows])
            whole = window_means(records.samples, resolved)
        assert whole.shape == (len(specs), n_traj) and whole.dtype == np.longdouble
        assert np.array_equal(whole, means)
        for row, (gaps, window) in zip(means, specs):
            assert np.array_equal(row, full_array_window_means(records, gaps, window))

    def test_out_is_filled_in_place_and_exactly(self):
        samples = noise_only_records(n_traj=10, n_samples=50).samples
        resolved = [resolve_spec([(0, 0.0)], Window(0.1, 0.1), DT, 2, 50),
                    resolve_spec([(0, 0.0), (0, 0.05)], Window(0.1, 0.05), DT, 2, 50)]
        out = np.empty((2, 10), dtype=np.longdouble)
        assert window_means(samples, resolved, out) is out
        assert np.array_equal(out, window_means(samples, resolved))
        for out in (np.empty((2, 10)), np.empty((2, 9), dtype=np.longdouble),
                    np.empty((2, 11), dtype=np.longdouble), np.empty((1, 10), dtype=np.longdouble)):
            with pytest.raises(ValidationError, match=r"long-double array of shape \(2, 10\)"):
                window_means(samples, resolved, out)

    def test_spec_past_the_block_refused_by_index(self):
        samples = noise_only_records(n_traj=10, n_samples=50).samples
        fits = resolve_spec([(0, 0.0), (1, 0.1)], Window(0.1, 0.29), DT, 2, 50)
        past = resolve_spec([(0, 0.0), (1, 0.1)], Window(0.1, 0.3), DT, 2, 51)
        with pytest.raises(ValidationError, match=r"spec 1: window bins \[10, 40\] plus "
                                                  r"largest gap 10 run past the 50 samples"):
            window_means(samples, [fits, past])


class TestEstimateMeanSignal:
    def test_noise_only_mean_is_zero(self):
        records = noise_only_records()
        est = estimate_correlator(records, [(0, 0.0)], Window(1.0, 0.5))
        assert abs(est.value) <= 4.0 * est.std_error

    def test_deterministic_records_give_exact_window_average(self):
        # Noise-free samples: the estimate equals the plain window average.
        channels = replica_channels()
        n_traj, n_samples = 8, 100
        ramp = np.linspace(0.0, 1.0, n_samples)
        samples = np.tile(ramp, (n_traj, 2, 1))
        records = RecordSet(samples=samples, dt=DT, channels=channels, master_seed=0)
        est = estimate_correlator(records, [(1, 0.0)], Window(0.2, 0.3))
        i0, i1 = est.window_bins
        assert est.value == pytest.approx(ramp[i0:i1 + 1].mean(), abs=1e-14)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_initial_projection_recovered(self):
        config, records = replica_records(n_traj=2000, t_total=1.0)
        est = estimate_correlator(records, [(1, 0.0)], Window(0.0, 0.05))
        assert abs(est.value - np.cos(PHI / 2)) <= 4.0 * est.std_error


class TestErrorCalibration:
    def test_coverage_over_independent_repetitions(self):
        # Known model, 100 independent ensembles: the analytic value must
        # land inside 4 standard errors in at least 95 of them.
        channels = replica_channels()
        model = build_ensemble_model(channels)
        expected = two_time_correlator(model, channels, 0, 0.0, 1, 0.4)
        window = Window(0.6, 0.3)
        hits = 0
        for rep in range(100):
            config = SimConfig(
                model=model, channels=channels,
                r_init=(np.sin(PHI / 2), 0.0, np.cos(PHI / 2)),
                t_total=1.4, dt=DT, n_traj=250, master_seed=5000 + rep,
            )
            est = estimate_correlator(
                simulate_ensemble(config), [(0, 0.0), (1, 0.4)], window)
            hits += abs(est.value - expected) <= 4.0 * est.std_error
        assert hits >= 95

    def test_reported_error_matches_spread_over_repetitions(self):
        values, errors = [], []
        for rep in range(24):
            records = noise_only_records(n_traj=400, n_samples=120, seed=100 + rep)
            est = estimate_correlator(records, [(0, 0.0), (1, 0.3)], Window(0.2, 0.6))
            values.append(est.value)
            errors.append(est.std_error)
        spread = np.std(values, ddof=1)
        mean_reported = np.mean(errors)
        assert spread / mean_reported < 1.5
        assert mean_reported / spread < 1.5

    def test_error_scales_with_inverse_sqrt_trajectories(self):
        config, records = replica_records(n_traj=4000, t_total=2.0)
        window = Window(1.0, 0.4)
        gaps = [(0, 0.0), (1, 0.5)]
        small = estimate_correlator(
            RecordSet(records.samples[:1000], records.dt, records.channels, 0),
            gaps, window)
        large = estimate_correlator(records, gaps, window)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_window_start_invariance_for_stationary_model(self):
        config, records = replica_records(n_traj=6000, t_total=3.5)
        gaps = [(0, 0.0), (1, 0.4)]
        early = estimate_correlator(records, gaps, Window(1.0, 0.5))
        late = estimate_correlator(records, gaps, Window(2.0, 0.5))
        combined = np.hypot(early.std_error, late.std_error)
        assert abs(early.value - late.value) <= 4.0 * combined


class TestMergeEstimates:
    def test_merge_single_is_identity(self):
        records = noise_only_records(n_traj=100, n_samples=60)
        est = estimate_correlator(records, [(0, 0.0)], Window(0.1, 0.2))
        merged = merge_estimates([est])
        assert merged.value == est.value
        assert merged.std_error == est.std_error

    def test_merge_commutes(self):
        records = noise_only_records(n_traj=200, n_samples=60)
        a = estimate_correlator(
            RecordSet(records.samples[:90], DT, records.channels, 0),
            [(0, 0.0)], Window(0.1, 0.2))
        b = estimate_correlator(
            RecordSet(records.samples[90:], DT, records.channels, 0),
            [(0, 0.0)], Window(0.1, 0.2))
        ab = merge_estimates([a, b])
        ba = merge_estimates([b, a])
        assert ab.value == pytest.approx(ba.value, rel=1e-12)
        assert ab.std_error == pytest.approx(ba.std_error, rel=1e-12)

    def test_eight_shards_match_single_pass(self):
        records = noise_only_records(n_traj=800, n_samples=60)
        gaps = [(0, 0.0), (1, 0.2)]
        window = Window(0.1, 0.2)
        single = estimate_correlator(records, gaps, window)
        parts = [
            estimate_correlator(
                RecordSet(records.samples[i:i + 100], DT, records.channels, 0),
                gaps, window)
            for i in range(0, 800, 100)
        ]
        merged = merge_estimates(parts)
        assert merged.value == pytest.approx(single.value, rel=1e-12, abs=1e-15)
        assert merged.std_error == pytest.approx(single.std_error, rel=1e-12)
        assert merged.n_traj == single.n_traj

    def test_mismatched_specs_rejected(self):
        records = noise_only_records(n_traj=100, n_samples=60)
        a = estimate_correlator(records, [(0, 0.0)], Window(0.1, 0.2))
        b = estimate_correlator(records, [(1, 0.0)], Window(0.1, 0.2))
        with pytest.raises(EstimateMismatchError):
            merge_estimates([a, b])
        c = estimate_correlator(records, [(0, 0.0)], Window(0.2, 0.2))
        with pytest.raises(EstimateMismatchError):
            merge_estimates([a, c])

    def test_sharded_simulation_merges_to_full_run(self):
        channels = replica_channels()
        model = build_ensemble_model(channels)
        config = SimConfig(
            model=model, channels=channels, r_init=(0.0, 0.0, 1.0),
            t_total=1.5, dt=DT, n_traj=600, master_seed=17,
        )
        window = Window(0.5, 0.3)
        gaps = [(0, 0.0), (1, 0.3)]
        full = estimate_correlator(simulate_ensemble(config), gaps, window)
        parts = [
            estimate_correlator(simulate_range(config, lo, lo + 200), gaps, window)
            for lo in (0, 200, 400)
        ]
        merged = merge_estimates(parts)
        assert merged.value == pytest.approx(full.value, rel=1e-12, abs=1e-15)
        assert merged.std_error == pytest.approx(full.std_error, rel=1e-12)
