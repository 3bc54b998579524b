"""Monte Carlo estimation of correlators from sampled signal records.

An N-point correlator is estimated as the product of N record samples,
averaged over an ensemble and additionally over the placement t1 of the
earliest event inside a time window [t_a, t_a + T]; the remaining events sit
at fixed gaps from t1. Window placements within one trajectory are strongly
correlated through the shared qubit path, so standard errors are computed by
first averaging the window products inside each trajectory and then taking
the spread of those per-trajectory means across the ensemble. Reported
values come from extended-precision accumulation: individual noise factors
have standard deviation sqrt(tau/dt) per sample, so long sums of their
products shed float64 digits otherwise.

Requested times snap to the nearest sample bin (never further than dt/2) and
the snapped grid is reported back on the estimate. Estimates carry enough of
the snapped specification to be safely poolable: merge_estimates combines
estimates of the same specification computed on disjoint trajectory subsets
using exact pooled-moment algebra, so a sharded estimation equals the
single-pass result up to floating-point reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimateMismatchError, ValidationError
from .trajectory import RecordSet


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
        """Inclusive bin range (i0, i1) of t1: both window edges snapped."""
        return snap(self.t_a, dt), snap(self.t_a + self.length, dt)

    def average(self, f, dt: float) -> float:
        """Mean of f(t1) over the snapped placements t1 = i dt of the window.

        This is the grid the estimator averages over, so an exact value
        averaged here joins the Monte Carlo estimate of the same window.
        """
        i0, i1 = self.bins(dt)
        return float(np.mean([f(i * dt) for i in range(i0, i1 + 1)]))


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
    def snapped_window_us(self) -> tuple:
        return (self.window_bins[0] * self.dt, self.window_bins[1] * self.dt)

    @property
    def snapped_gaps_us(self) -> tuple:
        return tuple(g * self.dt for _, g in self.events)

    def spec_key(self) -> tuple:
        return (self.dt, self.window_bins, self.events)


def resolve_events(gaps, dt: float, n_channels: int) -> tuple:
    """Validated (channel_index, gap_in_bins) events of a gap list.

    gaps is a sequence of (channel_index, gap_us) with nondecreasing gaps and
    first gap 0; each gap snaps to the nearest bin.
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
        previous = g
        events.append((ch, g))
    if not events:
        raise ValidationError("at least one (channel, gap) event is required")
    if events[0][1] != 0:
        raise ValidationError("the first gap must snap to 0 (events are relative to t1)")
    return tuple(events)


def trajectory_window_means(records: RecordSet, gaps, window: Window) -> np.ndarray:
    """Per-trajectory window means of the product of samples at gaps from t1.

    Accumulated in extended precision. The ensemble mean of the returned
    array is the correlator estimate (estimate_from_means); scans use this to
    pool statistics across grid points trajectory by trajectory.
    """
    events = resolve_events(gaps, records.dt, records.n_channels)
    i0, i1 = window.bins(records.dt)
    max_gap = max(g for _, g in events)
    if i0 < 0 or i1 + max_gap > records.n_samples - 1:
        raise ValidationError(
            f"window bins [{i0}, {i1}] plus largest gap {max_gap} exceed the "
            f"record span of {records.n_samples} samples"
        )
    product = np.ones((records.n_traj, i1 - i0 + 1))
    for ch, g in events:
        product *= records.samples[:, ch, i0 + g:i1 + g + 1]
    return product.sum(axis=1, dtype=np.longdouble) / product.shape[1]


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


def estimate_from_means(traj_means: np.ndarray, dt: float, window_bins: tuple,
                        events: tuple) -> CorrelatorEstimate:
    """Estimate from per-trajectory window means (trajectory_window_means).

    dt, window_bins and events label the estimate for merge_estimates: the
    snapped specification the means were taken over.
    """
    if len(traj_means) < 2:
        raise ValidationError("estimation needs at least 2 trajectories for a standard error")
    return _pooled(len(traj_means), traj_means.sum(), np.square(traj_means).sum(),
                   dt, window_bins, events)


def estimate_correlator(records: RecordSet, gaps, window: Window) -> CorrelatorEstimate:
    """Estimate the correlator of events at fixed gaps from a windowed t1.

    gaps is a sequence of (channel_index, gap_us) with nondecreasing gaps and
    first gap 0; equal gaps on the same channel estimate the discretized
    equal-time singular term tau/dt plus the smooth part.
    """
    return estimate_from_means(trajectory_window_means(records, gaps, window), records.dt,
                               window.bins(records.dt),
                               resolve_events(gaps, records.dt, records.n_channels))


def estimate_mean_signal(records: RecordSet, channel_index: int, window: Window) -> CorrelatorEstimate:
    """Window-averaged mean output signal of one channel."""
    return estimate_correlator(records, [(channel_index, 0.0)], window)


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
