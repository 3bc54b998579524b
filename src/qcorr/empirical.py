"""Monte Carlo estimation of correlators from sampled signal records.

An N-point correlator is estimated as the product of N record samples,
averaged over an ensemble and additionally over the placement t1 of the
earliest event inside a time window [t_a, t_a + T]; the remaining events sit
at fixed gaps from t1. Window placements within one trajectory are strongly
correlated through the shared qubit path, so standard errors are computed by
first averaging the window products inside each trajectory and then taking
the spread of those per-trajectory means across the ensemble. window_means
computes them for many specs, resolved once by the caller (resolve_spec),
in one cache-blocked pass over one block of trajectories; a caller streams
a record file through it one block at a time.

Each trajectory's window is summed in float64: a window holds W products
(tens to a few hundred), and a float64 sum of W terms in any order is off
by at most about (W - 1) * 2**-53 * sum|terms| (Higham, SIAM J. Sci.
Comput. 14, 783 (1993)), about 1e-15 of a standard error. The ensemble
sums, over 1e4-1e6 per-trajectory means of noise products with standard
deviation sqrt(tau/dt) per factor, are the long ones: they run in
extended precision (estimate_from_means, merge_estimates).

Requested times snap to the nearest sample bin (never further than dt/2) and
the snapped grid is reported back on the estimate. Estimates carry enough of
the snapped specification to be safely poolable: merge_estimates combines
estimates of the same specification computed on disjoint trajectory subsets
using exact pooled-moment algebra, so estimates pooled over trajectory
batches equal the single-pass result up to floating-point reassociation.
"""

from __future__ import annotations

import math
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
    bins = value / dt
    if not math.isfinite(bins):
        raise ValidationError(f"time {value} us has no bin on the dt={dt} grid")
    return int(round(bins))


@dataclass(frozen=True)
class Window:
    """Averaging window for the earliest event time: [t_a, t_a + length]."""

    t_a: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length < math.inf):
            raise ValidationError(f"window length must be positive and finite, got {self.length}")
        if not (0.0 <= self.t_a < math.inf):
            raise ValidationError(f"window start must be nonnegative and finite, got {self.t_a}")

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
    Products are formed in event order, as 1 * x1 * x2 * ... would be, and
    each row of a spec's window is summed in float64.
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
        out[j] = chain[-1].sum(axis=1) / (i1 - i0 + 1)
        last_bins, last_events = bins, events


def window_means(samples: np.ndarray, resolved, out=None) -> np.ndarray:
    """Per-trajectory window means of every resolved spec in one pass over samples.

    samples is one (n_traj, n_channels, n_samples) block of records, the
    samples of a RecordSet; resolved holds (window_bins, events) pairs as
    resolve_spec returns them. The trajectories are walked in passes of
    about BLOCK_BYTES of samples, and every spec's products are formed while
    a pass is in cache. Row j of the returned (len(resolved), n_traj)
    float64 array is spec j's mean over its window of the product of
    samples at its gaps from t1, summed in float64 per trajectory (see the
    module docstring for its error bound); its ensemble mean is the
    correlator estimate (estimate_from_means, which sums in extended
    precision).

    out, when given, is that float64 array (say a column slice of means a
    caller allocated for a whole record file); it is filled and returned.
    A spec with a channel index outside the block's channels, or whose
    window plus largest gap runs past its samples, is refused by its index.
    """
    n_traj, n_channels, n_samples = samples.shape
    # One set of every channel keeps the common case to one cheap check;
    # only a call that fails it looks for the spec to name.
    in_range = {ch for _, events in resolved for ch, _ in events} <= set(range(n_channels))
    for j, ((i0, i1), events) in enumerate(resolved):
        if not in_range:
            bad = [ch for ch, _ in events if not 0 <= ch < n_channels]
            if bad:
                raise ValidationError(
                    f"spec {j}: channel index {bad[0]} out of range for the "
                    f"{n_channels} channels of the block"
                )
        if i1 + events[-1][1] >= n_samples:
            raise ValidationError(
                f"spec {j}: window bins [{i0}, {i1}] plus largest gap {events[-1][1]} "
                f"run past the {n_samples} samples of the block"
            )
    shape = (len(resolved), n_traj)
    if out is None:
        out = np.empty(shape)
    elif out.dtype != np.float64 or out.shape != shape:
        raise ValidationError(
            f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}"
        )
    order = sorted(range(len(resolved)), key=resolved.__getitem__)
    rows = block_rows(n_channels, n_samples)
    for lo in range(0, n_traj, rows):
        _block_means(samples[lo:lo + rows], resolved, order, out[:, lo:lo + rows])
    return out


def trajectory_window_means(records: RecordSet, gaps, window: Window) -> np.ndarray:
    """Per-trajectory window means of one spec: one row of window_means.

    The ensemble mean of the returned array is the correlator estimate
    (estimate_from_means).
    """
    spec = resolve_spec(gaps, window, records.dt, records.n_channels, records.n_samples)
    return window_means(records.samples, [spec])[0]


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
    snapped specification the means were taken over. The sum and sum of
    squares over the ensemble run in extended precision, on a long-double
    copy of the means.
    """
    require_standard_error(len(traj_means))
    ext = traj_means.astype(np.longdouble)
    total = ext.sum()
    np.square(ext, out=ext)
    return _pooled(len(ext), total, ext.sum(), dt, window_bins, events)


def estimate_correlator(records: RecordSet, gaps, window: Window) -> CorrelatorEstimate:
    """Estimate the correlator of events at fixed gaps from a windowed t1.

    gaps is a sequence of (channel_index, gap_us) with nondecreasing gaps and
    first gap 0; equal gaps on the same channel estimate the discretized
    equal-time singular term tau/dt plus the smooth part.
    """
    spec = resolve_spec(gaps, window, records.dt, records.n_channels, records.n_samples)
    return estimate_from_means(window_means(records.samples, [spec])[0], records.dt, *spec)


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
