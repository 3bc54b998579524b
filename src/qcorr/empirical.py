"""Monte Carlo estimation of correlators from sampled signal records.

An N-point correlator is estimated as the product of N record samples,
averaged over an ensemble and additionally over the placement t1 of the
earliest event inside a time window [t_a, t_a + T]; the remaining events sit
at fixed gaps from t1. Window placements within one trajectory are strongly
correlated through the shared qubit path, so standard errors are computed by
first averaging the window products inside each trajectory and then taking
the spread of those per-trajectory means across the ensemble; window_means
computes them for many specs in one cache-blocked pass over the
trajectories, block by block, so a record file can stream through. Reported
values come from extended-precision accumulation: individual noise factors
have standard deviation sqrt(tau/dt) per sample, so long sums of their
products shed float64 digits otherwise.

Requested times snap to the nearest sample bin (never further than dt/2) and
the snapped grid is reported back on the estimate. Estimates carry enough of
the snapped specification to be safely poolable: merge_estimates combines
estimates of the same specification computed on disjoint trajectory subsets
using exact pooled-moment algebra, so estimates pooled over trajectory
batches equal the single-pass result up to floating-point reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimateMismatchError, ValidationError
from .trajectory import RecordSet

# Trajectories per pass of window_means are chosen so that one block holds
# about this many bytes of samples: small enough that every spec's slices of
# a block are read while it is still in cache, large enough that the
# per-block Python work is small next to the arithmetic.
BLOCK_BYTES = 4 * 2 ** 20


def snap(value: float, dt: float) -> int:
    """Index of the sample bin nearest to a time: the one grid rule of qcorr."""
    return int(round(value / dt))


@dataclass(frozen=True)
class Window:
    """Averaging window for the earliest event time: [t_a, t_a + length]."""

    t_a: float
    length: float

    def __post_init__(self):
        if not (self.length > 0.0):
            raise ValidationError(f"window length must be positive, got {self.length}")
        if self.t_a < 0.0:
            raise ValidationError(f"window start must be nonnegative, got {self.t_a}")

    def bins(self, dt: float) -> tuple:
        """Inclusive bin range (i0, i1) of t1: both window edges snapped.

        Both sides of a comparison average over this grid:
        window_means for the records and
        analytic.window_mean_state for the exact routes.
        """
        return snap(self.t_a, dt), snap(self.t_a + self.length, dt)


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Estimated correlator value with its trajectory-level standard error.

    events holds the snapped (channel_index, gap_in_bins) pairs and
    window_bins the snapped inclusive bin range of t1; together with dt they
    identify the specification for merging. sum_means/sumsq_means keep the
    exact pooled-moment bookkeeping: sum and sum of squares of the
    per-trajectory window means.
    """

    value: float
    std_error: float
    n_traj: int
    n_window_samples: int
    dt: float
    window_bins: tuple
    events: tuple
    sum_means: float
    sumsq_means: float

    @property
    def snapped_gaps_us(self) -> tuple:
        return tuple(g * self.dt for _, g in self.events)

    def spec_key(self) -> tuple:
        return (self.dt, self.window_bins, self.events)


def resolve_events(gaps, dt: float, n_channels: int) -> tuple:
    """Validated (channel_index, gap_in_bins) events of a gap list.

    gaps is a sequence of (channel_index, gap_us) with nondecreasing gaps and
    first gap 0; each gap snaps to the nearest bin. Events that share a bin
    must share a channel: there the white noise adds the tau/dt term of the
    equal-time singularity, while a product of left-point samples of
    different channels in one bin is a state moment that no exact route
    evaluates.
    """
    events = []
    previous = None
    for ch, gap in gaps:
        ch = int(ch)
        if not (0 <= ch < n_channels):
            raise ValidationError(
                f"channel index {ch} out of range for {n_channels} channels"
            )
        g = snap(float(gap), dt)
        if g < 0:
            raise ValidationError(f"gaps must be nonnegative, got {gap}")
        if previous is not None and g < previous:
            raise ValidationError("gaps must be nondecreasing")
        if previous == g and events[-1][0] != ch:
            raise ValidationError(
                f"events on channels {events[-1][0]} and {ch} snap to one bin "
                f"(gap {gap} us at dt {dt}); coinciding events must be on one channel"
            )
        previous = g
        events.append((ch, g))
    if not events:
        raise ValidationError("at least one (channel, gap) event is required")
    if events[0][1] != 0:
        raise ValidationError("the first gap must snap to 0 (events are relative to t1)")
    return tuple(events)


def resolve_spec(gaps, window: Window, dt: float, n_channels: int, n_samples: int) -> tuple:
    """(window_bins, events) of one windowed spec, checked against a record shape.

    Refuses events that resolve_events refuses and windows whose bins plus
    the largest gap fall outside the n_samples of a record.
    """
    events = resolve_events(gaps, dt, n_channels)
    i0, i1 = window.bins(dt)
    max_gap = events[-1][1]
    if i0 < 0 or i1 + max_gap > n_samples - 1:
        raise ValidationError(
            f"window bins [{i0}, {i1}] plus largest gap {max_gap} exceed the "
            f"record span of {n_samples} samples"
        )
    return (i0, i1), events


def block_rows(n_channels: int, n_samples: int) -> int:
    """Trajectories per block of window_means: about BLOCK_BYTES of samples."""
    return max(1, BLOCK_BYTES // (8 * n_channels * n_samples))


def _block_means(samples: np.ndarray, resolved, order, out: np.ndarray) -> None:
    """Write spec j's window means over the rows of samples into out[j].

    Specs are visited in sorted (window_bins, events) order, so specs that
    share window bins and leading events are adjacent: chain holds the
    products of the last spec's event prefixes, and a prefix product whose
    key (window bins and events) matches is reused instead of recomputed.
    Products are formed in event order, as 1 * x1 * x2 * ... would be.
    """
    chain = []
    last_bins, last_events = None, ()
    for j in order:
        bins, events = resolved[j]
        shared = 0
        if bins == last_bins:
            while (shared < min(len(chain), len(events))
                   and last_events[shared] == events[shared]):
                shared += 1
        del chain[shared:]
        i0, i1 = bins
        for ch, g in events[shared:]:
            x = samples[:, ch, i0 + g:i1 + g + 1]
            chain.append(chain[-1] * x if chain else x)
        out[j] = chain[-1].sum(axis=1, dtype=np.longdouble) / (i1 - i0 + 1)
        last_bins, last_events = bins, events


def window_means(blocks, specs, out=None) -> np.ndarray:
    """Per-trajectory window means of every (gaps, window) spec in one pass.

    blocks is an iterable of RecordSets holding consecutive trajectories of
    one ensemble (a single RecordSet in a list, or the offset reads of a
    record file). Every spec is checked against the first block's shape
    once; the trajectories are then walked in blocks of about BLOCK_BYTES of
    samples, and every spec's products are formed while a block is in
    cache. Row j of the returned (len(specs), n_traj) long-double array is
    spec j's mean over its window of the product of samples at its gaps
    from t1, summed in extended precision per trajectory; its ensemble mean
    is the correlator estimate (estimate_from_means).

    out, when given, is that long-double array, allocated by a caller that
    knows n_traj (say from a record header): each block's means are written
    straight into its columns, so they are held once, and blocks that do
    not fill out exactly are refused. Without it the per-block means are
    joined after the last block.
    """
    specs = list(specs)
    if out is not None and (out.dtype != np.longdouble or out.ndim != 2
                            or out.shape[0] != len(specs)):
        raise ValidationError(
            f"out must be a long-double array of {len(specs)} rows, got {out.dtype} {out.shape}"
        )
    parts = []
    resolved = order = shape = None
    first_offset = next_offset = None
    for records in blocks:
        if resolved is None:
            shape = (records.dt, records.n_channels, records.n_samples)
            resolved = [resolve_spec(gaps, window, *shape) for gaps, window in specs]
            order = sorted(range(len(specs)), key=resolved.__getitem__)
            rows = block_rows(records.n_channels, records.n_samples)
            first_offset = records.traj_offset
        elif (records.dt, records.n_channels, records.n_samples) != shape:
            raise ValidationError("record blocks differ in dt, channel count or sample count")
        elif records.traj_offset != next_offset:
            raise ValidationError(
                f"record block starts at trajectory {records.traj_offset}, "
                f"expected {next_offset}"
            )
        next_offset = records.traj_offset + records.n_traj
        if out is None:
            means = np.empty((len(specs), records.n_traj), dtype=np.longdouble)
            parts.append(means)
        else:
            means = out[:, records.traj_offset - first_offset:next_offset - first_offset]
            if means.shape[1] != records.n_traj:
                raise ValidationError(
                    f"record blocks hold more than the {out.shape[1]} trajectories of out"
                )
        for lo in range(0, records.n_traj, rows):
            _block_means(records.samples[lo:lo + rows], resolved, order, means[:, lo:lo + rows])
        del records, means  # let the next block be read into the memory of this one
    if resolved is None:
        raise ValidationError("window_means needs at least one block of records")
    if out is not None:
        if next_offset - first_offset != out.shape[1]:
            raise ValidationError(
                f"record blocks hold {next_offset - first_offset} trajectories, "
                f"out has room for {out.shape[1]}"
            )
        return out
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def trajectory_window_means(records: RecordSet, gaps, window: Window) -> np.ndarray:
    """Per-trajectory window means of one spec: window_means of one block.

    The ensemble mean of the returned array is the correlator estimate
    (estimate_from_means); scans use this to pool statistics across grid
    points trajectory by trajectory.
    """
    return window_means([records], [(gaps, window)])[0]


def _pooled(m: int, total, total_sq, dt: float, window_bins: tuple, events: tuple):
    """Estimate from the sum and sum of squares of m per-trajectory means."""
    var = max(float((total_sq - total * total / m) / (m - 1)), 0.0)
    return CorrelatorEstimate(
        value=float(total / m),
        std_error=float(np.sqrt(var / m)),
        n_traj=m,
        n_window_samples=window_bins[1] - window_bins[0] + 1,
        dt=dt,
        window_bins=window_bins,
        events=events,
        sum_means=float(total),
        sumsq_means=float(total_sq),
    )


def require_standard_error(n_traj: int) -> None:
    """Refuse an estimate over fewer than 2 trajectories: it has no spread."""
    if n_traj < 2:
        raise ValidationError("estimation needs at least 2 trajectories for a standard error")


def estimate_from_means(traj_means: np.ndarray, dt: float, window_bins: tuple,
                        events: tuple) -> CorrelatorEstimate:
    """Estimate from one spec's per-trajectory window means (a row of window_means).

    dt, window_bins and events label the estimate for merge_estimates: the
    snapped specification the means were taken over.
    """
    require_standard_error(len(traj_means))
    return _pooled(len(traj_means), traj_means.sum(), np.square(traj_means).sum(),
                   dt, window_bins, events)


def estimate_correlator(records: RecordSet, gaps, window: Window) -> CorrelatorEstimate:
    """Estimate the correlator of events at fixed gaps from a windowed t1.

    gaps is a sequence of (channel_index, gap_us) with nondecreasing gaps and
    first gap 0; equal gaps on the same channel estimate the discretized
    equal-time singular term tau/dt plus the smooth part.
    """
    window_bins, events = resolve_spec(gaps, window, records.dt, records.n_channels,
                                       records.n_samples)
    return estimate_from_means(trajectory_window_means(records, gaps, window), records.dt,
                               window_bins, events)


def merge_estimates(parts) -> CorrelatorEstimate:
    """Pool estimates of one specification over disjoint trajectory subsets.

    Exact pooled mean and pooled variance; associative and commutative up to
    floating-point reassociation.
    """
    parts = list(parts)
    if not parts:
        raise EstimateMismatchError("nothing to merge")
    key = parts[0].spec_key()
    for p in parts[1:]:
        if p.spec_key() != key:
            raise EstimateMismatchError(
                f"cannot merge estimates of different specs: {p.spec_key()} != {key}"
            )
    total = np.longdouble(0.0)
    total_sq = np.longdouble(0.0)
    for p in parts:
        total += np.longdouble(p.sum_means)
        total_sq += np.longdouble(p.sumsq_means)
    return _pooled(sum(p.n_traj for p in parts), total, total_sq, *key)
