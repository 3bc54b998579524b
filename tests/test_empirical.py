import dataclasses
import math
import multiprocessing
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcorr import empirical, trajectory
from qcorr import (
    EstimateMismatchError,
    MeasurementChannel,
    RecordFormatError,
    RecordSet,
    ReplicaConfig,
    SimConfig,
    ValidationError,
    Window,
    build_ensemble_model,
    estimate_correlator,
    merge_estimates,
    read_records,
    simulate_ensemble,
    simulate_range,
    simulate_records,
    three_time_scan,
    two_time_correlator,
)
from qcorr.empirical import (
    CorrelatorEstimate,
    ResolvedSpecs,
    ensemble_sums,
    estimate_batches,
    pool_sums,
    resolve_events,
    resolve_spec,
    window_means,
)
from qcorr.recordio import RecordHeader

PHI = 3 * np.pi / 10
TAU = 0.65
DT = 0.01


def replica_channels():
    return (
        MeasurementChannel((0.0, 0.0, 1.0), tau=TAU, eta=1.0),
        MeasurementChannel((np.sin(PHI), 0.0, np.cos(PHI)), tau=TAU, eta=1.0),
    )


def from_means(traj_means, dt, window_bins, events):
    """Estimate from one spec's per-trajectory window means, pooled as one block."""
    return pool_sums([ensemble_sums(traj_means[np.newaxis])], dt, [(window_bins, events)])[0]


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


@pytest.mark.parametrize("call, named", [
    (lambda: Window(math.nan, 0.5).bins(0.01),
     "window start must be nonnegative and finite, got nan"),
    (lambda: Window(0.0, math.inf).bins(0.01),
     "window length must be positive and finite, got inf"),
    (lambda: resolve_events([(0, 0.0), (1, math.nan)], 0.01), "time nan us has no bin"),
    (lambda: three_time_scan(ReplicaConfig(phi=1.0, n_traj=0), dt21_values=(math.nan,)),
     "time nan us has no bin"),
], ids=["window-start", "window-length", "gap", "three-time-grid"])
def test_non_finite_time_refused_by_name(call, named):
    with pytest.raises(ValidationError, match=named):
        call()


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
        assert est.events[1][1] * est.dt == pytest.approx(0.12)
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
    """The per-trajectory window means formed over the whole record at once.

    All events but the last are multiplied in event order; the last one's
    product and the row sum are one einsum (a plain row sum for one event).
    """
    events = resolve_events(gaps, records.dt)
    i0, i1 = window.bins(records.dt)
    *heads, last = [records.samples[:, ch, i0 + g:i1 + g + 1] for ch, g in events]
    if not heads:
        return np.add.reduce(last, axis=1) / last.shape[1]
    product = heads[0]
    for x in heads[1:]:
        product = product * x
    return np.einsum("ij,ij->i", product, last) / last.shape[1]


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
        resolved = [resolve_spec(gaps, window, DT) for gaps, window in specs]
        # Blocks of rows trajectories, each walked by window_means in passes
        # of block_traj trajectories: neither need divide n_traj. The blocks
        # share one ResolvedSpecs; the whole array gets a plan of its own.
        sorted_once = ResolvedSpecs(resolved)
        with mock.patch.object(empirical, "BLOCK_BYTES", block_traj * 8 * n_channels * n_samples):
            means = np.concatenate([window_means(records.samples[lo:lo + rows], sorted_once)
                                    for lo in range(0, n_traj, rows)], axis=1)
            whole = window_means(records.samples, ResolvedSpecs(resolved))
        assert whole.shape == (len(specs), n_traj) and whole.dtype == np.float64
        assert np.array_equal(whole, means)
        for row, (gaps, window) in zip(means, specs):
            assert np.array_equal(row, full_array_window_means(records, gaps, window))

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.integers(2, 300), st.integers(20, 60), st.integers(2, 300),
           st.integers(1, 300))
    def test_simulated_view_gives_the_means_of_its_contiguous_copy(self, data, n_traj,
                                                                   n_samples, cap, block_traj):
        # simulate_range returns the trajectory-major view of a time-major
        # buffer, whose passes window_means stages; neither the 128-row tiles
        # nor the passes of block_traj trajectories divide n_traj.
        assume(n_traj % 128 and n_traj % block_traj)
        channels = replica_channels()
        config = SimConfig(model=build_ensemble_model(channels), channels=channels,
                           r_init=(np.sin(PHI / 2), 0.0, np.cos(PHI / 2)),
                           t_total=n_samples * DT, dt=DT, n_traj=n_traj,
                           master_seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        specs = ResolvedSpecs(resolve_spec(gaps, window, DT)
                              for gaps, window in data.draw(shared_prefix_specs(2, n_samples)))
        with mock.patch.object(trajectory, "DEFAULT_BATCH_SIZE", cap):
            samples = simulate_range(config, 0, n_traj).samples
        assert not samples.flags.c_contiguous
        with mock.patch.object(empirical, "BLOCK_BYTES", block_traj * 8 * 2 * n_samples):
            staged = window_means(samples, specs)
            contiguous = window_means(np.ascontiguousarray(samples), specs)
        assert staged.tobytes() == contiguous.tobytes()

    def test_spec_past_the_block_refused_by_index(self):
        samples = noise_only_records(n_traj=10, n_samples=50).samples
        fits = resolve_spec([(0, 0.0), (1, 0.1)], Window(0.1, 0.29), DT)
        past = resolve_spec([(0, 0.0), (1, 0.1)], Window(0.1, 0.3), DT)
        with pytest.raises(ValidationError, match=r"spec\[1\]: window bins \[10, 40\] plus "
                                                  r"largest gap 10 exceed the record span of 50"):
            window_means(samples, ResolvedSpecs([fits, past]))

    @pytest.mark.parametrize("ch", [2, -1])
    def test_channel_out_of_range_refused_by_index(self, ch):
        samples = np.zeros((3, 2, 50))
        with pytest.raises(ValidationError, match=rf"spec\[0\]: channel index {ch} out of range "
                                                  r"for 2 channels"):
            window_means(samples, ResolvedSpecs([((0, 5), ((ch, 0),))]))
        fits = ((0, 5), ((0, 0), (1, 3)))
        with pytest.raises(ValidationError, match=rf"spec\[1\]: channel index {ch} out of range"):
            window_means(samples, ResolvedSpecs([fits, ((0, 5), ((0, 0), (ch, 3)))]))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 3))
    def test_window_sums_keep_the_float64_summation_bound(self, data, n_traj, n_channels):
        # A float64 sum of W terms in any order is within (W - 1) 2**-53
        # sum|terms| of the exact sum; the division by W adds one rounding.
        # So each mean lies that close to the mean of the exactly summed
        # (math.fsum) float64 products.
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        n_samples = 340
        samples = 8.0 * rng.standard_normal((n_traj, n_channels, n_samples))
        channel = st.integers(0, n_channels - 1)
        resolved = []
        for _ in range(data.draw(st.integers(1, 4))):
            gaps = sorted(data.draw(st.lists(st.integers(0, 39), max_size=3)))
            events = ((data.draw(channel), 0),) + tuple((data.draw(channel), g) for g in gaps)
            width = data.draw(st.integers(1, 300))
            i0 = data.draw(st.integers(0, n_samples - width - events[-1][1]))
            resolved.append(((i0, i0 + width - 1), events))
        means = window_means(samples, ResolvedSpecs(resolved))
        for row, ((i0, i1), events) in zip(means, resolved):
            width = i1 - i0 + 1
            for mean, trajectory in zip(row, samples):
                terms = np.ones(width)
                for ch, g in events:
                    terms = terms * trajectory[ch, i0 + g:i1 + g + 1]
                exact = math.fsum(terms) / width
                bound = (width - 1) * 2.0 ** -53 * math.fsum(np.abs(terms)) / width
                assert abs(mean - exact) <= bound + np.spacing(abs(exact))


class TestEnsembleSums:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 1000) | st.integers(40000, 70000),
           st.floats(1e-3, 1e6), st.floats(-1e3, 1e3))
    def test_float64_means_pool_as_their_long_double_values(self, seed, n_traj, scale, offset):
        # The ensemble sums lose nothing to float64 means: the estimate
        # equals the one from the same values held in long double, summed
        # when window_means returned long doubles.
        means = scale * (offset + np.random.default_rng(seed).standard_normal(n_traj))
        ext = means.astype(np.longdouble)
        spec = (DT, (10, 20), ((0, 0), (1, 5)))
        old = CorrelatorEstimate(n_traj, *spec, ext.sum(), np.square(ext).sum())
        new = from_means(means, *spec)
        assert means.dtype == np.float64
        assert ((new.value, new.std_error, new.sum_means, new.sumsq_means)
                == (old.value, old.std_error, old.sum_means, old.sumsq_means))


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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 100), st.integers(2, 400),
           st.floats(0.0, 1e4), st.floats(1e-3, 1e3))
    @example(seed=1, n_parts=100, part=400, offset=1e4, spread=1.0)
    def test_parts_pool_their_unrounded_sums(self, seed, n_parts, part, offset, spread):
        # The variance is the difference of two sums that agree in about
        # log10((mean/spread)**2) leading digits, so a relative error eps in
        # the sums costs about eps (mean/spread)**2 in the standard error.
        # Pooling adds each part's long-double sums unrounded: the merged
        # standard error stays within that scale (times sqrt(n_parts) for
        # the running sums) of the exact one of the float64 means, plus the
        # float64 rounding of the result. Rounding each part's sums to
        # float64 first costs the float64 eps instead.
        means = spread * (offset + np.random.default_rng(seed).standard_normal(n_parts * part))
        spec = (DT, (10, 20), ((0, 0), (1, 5)))
        merged = merge_estimates(from_means(p, *spec) for p in np.split(means, n_parts))
        exact = [Fraction(x) for x in means.tolist()]
        total = sum(exact)
        var = (sum(x * x for x in exact) - total * total / len(exact)) / (len(exact) - 1)
        exact_se = math.sqrt(var / len(exact))
        ratio = float(np.mean(means)) ** 2 / float(np.var(means))
        eps = float(np.finfo(np.longdouble).eps)
        bound = 2.0 * math.sqrt(n_parts) * eps * (1.0 + ratio) + 8 * 2.0 ** -53
        assert merged.n_traj == len(means)
        assert abs(merged.std_error - exact_se) <= bound * exact_se

    def test_folds_of_blocks_pool_as_merged_block_estimates(self):
        # pool_sums over block folds and merge_estimates over block
        # estimates add the same long-double sums in the same order.
        records = noise_only_records(n_traj=230, n_samples=60)
        resolved = ResolvedSpecs([resolve_spec([(0, 0.0)], Window(0.1, 0.2), DT),
                                  resolve_spec([(0, 0.0), (1, 0.1)], Window(0.1, 0.2), DT)])
        blocks = [window_means(records.samples[lo:lo + 50], resolved) for lo in range(0, 230, 50)]
        pooled = pool_sums(map(ensemble_sums, blocks), DT, resolved)
        for j, est in enumerate(pooled):
            merged = merge_estimates(from_means(b[j], DT, *resolved[j]) for b in blocks)
            assert est == merged and est.n_traj == 230
            single = from_means(np.concatenate(blocks, axis=1)[j], DT, *resolved[j])
            assert est.value == pytest.approx(single.value, rel=1e-15, abs=1e-17)
            assert est.std_error == pytest.approx(single.std_error, rel=1e-15)

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


class TestEstimateBatches:
    GAPS = ([(0, 0.0)], [(0, 0.0), (1, 0.1)], [(0, 0.0), (0, 0.2), (1, 0.4)])

    @pytest.fixture(autouse=True)
    def setup(self, batch_cap):
        # 301 trajectories in batches of 100: the last batch holds 101.
        batch_cap(100)
        channels = replica_channels()
        self.config = SimConfig(
            model=build_ensemble_model(channels), channels=channels,
            r_init=(np.sin(PHI / 2), 0.0, np.cos(PHI / 2)),
            t_total=1.2, dt=DT, n_traj=301, master_seed=31,
        )
        self.specs = ResolvedSpecs(resolve_spec(gaps, Window(0.2, 0.3), DT)
                                   for gaps in self.GAPS)

    def simulated(self, lo, hi):
        return [simulate_range(self.config, lo, hi).samples]

    def pooled(self, load, **kwargs):
        batches = estimate_batches(load, self.specs, self.config, **kwargs)
        return [merge_estimates(parts) for parts in zip(*batches)]

    def test_record_file_and_simulation_give_identical_estimates(self, tmp_path):
        # Each batch is read from the file, or simulated, as one block.
        path = tmp_path / "records.qcr"
        simulate_records(path, self.config)

        def from_file(lo, hi):
            yield read_records(path, lo, hi).samples

        from_records = self.pooled(from_file)
        assert from_records == self.pooled(self.simulated)
        assert [est.n_traj for est in from_records] == [301] * len(self.GAPS)

    def test_one_and_two_workers_give_identical_estimates(self):
        runs = [self.pooled(self.simulated, workers=workers, grid_average=True)
                for workers in (1, 2)]
        assert runs[0] == runs[1] and len(runs[0]) == len(self.GAPS) + 1
        assert multiprocessing.active_children() == []

    def test_non_finite_window_mean_refused_by_spec_and_batch(self):
        # One NaN at trajectory 150, channel 1, bin 30: of the specs' windows
        # only spec 1's (channel 1 at bins 30-60) reads it, in batch [100, 200).
        samples = np.ones((301, 2, 120))
        samples[150, 1, 30] = np.nan
        with pytest.raises(RecordFormatError) as refused:
            self.pooled(lambda lo, hi: [samples[lo:hi]], source="memory")
        assert str(refused.value) == (
            "memory: spec 1 (events 0@0;1@0.10000000000000001, window start "
            "0.20000000000000001 us, length 0.29999999999999999 us) has a non-finite "
            "window mean in trajectories [100, 200)")

    @pytest.mark.parametrize("shape, message", [
        (lambda config: RecordHeader(DT, 80, config.channels, 301, 31),
         "spec[2]: window bins [20, 50] plus largest gap 40 exceed the record span of 80 samples"),
        (lambda config: dataclasses.replace(config, n_traj=1),
         "estimation needs at least 2 trajectories for a standard error"),
    ], ids=["header-past-span", "config-one-trajectory"])
    def test_shape_refused_before_any_load(self, shape, message):
        # A record header or a SimConfig: both are refused before the first batch.
        loads = []
        with pytest.raises(ValidationError) as refused:
            estimate_batches(lambda lo, hi: loads.append((lo, hi)) or [], self.specs,
                             shape(self.config))
        assert str(refused.value) == message
        assert loads == []
