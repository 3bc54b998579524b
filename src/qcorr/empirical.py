"""Monte Carlo estimation of correlators from sampled signal records.

An N-point correlator is estimated as the product of N record samples,
averaged over an ensemble and additionally over the placement t1 of the
earliest event inside a time window [t_a, t_a + T]; the remaining events sit
at fixed gaps from t1. Window placements within one trajectory are strongly
correlated through the shared qubit path, so standard errors are computed by
first averaging the window products inside each trajectory and then taking
the spread of those per-trajectory means across the ensemble. window_means
computes them for many specs, resolved once by the caller (resolve_spec, on
every route), in one cache-blocked pass over one block of trajectories.
ResolvedSpecs builds their evaluation plan once (the sorted order, which
leading-event products a spec shares with the spec before it, and the
columns of its own events), and its check is the one test that records of a
given shape hold every spec. Per block, a spec's last event and its window
sum are one np.einsum("ij,ij->i") over the product of its other events and
the last event's samples: numpy's own summation loop, with no BLAS call and
no temporary product array.

Each trajectory's window is summed in float64: a window holds W products
(tens to a few hundred), and a float64 sum of W terms in any order, the
einsum loop's included, is off by at most about (W - 1) * 2**-53 *
sum|terms| (Higham, SIAM J. Sci. Comput. 14, 783 (1993)), about 1e-15 of a
standard error. The ensemble sums, over 1e4-1e6 per-trajectory means of
noise products with standard deviation sqrt(tau/dt) per factor, are the
long ones: they run in extended precision. estimate_batches is the one
Monte Carlo driver, of qcorr estimate and the replica scans alike: each
batch of trajectories (trajectory.map_batches runs them here or in forked
workers) reads its source one block at a time, a record file in blocks of
block_rows and a simulated batch as one block. ensemble_sums folds each
block's means into long-double sums and sums of squares as soon as
window_means returns them, so a batch keeps O(specs) numbers between
blocks; pool_sums adds the folds in order and turns the totals into the
batch's estimates.

Requested times snap to the nearest sample bin (never further than dt/2) and
the snapped grid is reported back on the estimate. Estimates carry enough of
the snapped specification, and their unrounded long-double sums, to be
safely poolable: merge_estimates combines estimates of the same
specification computed on disjoint trajectory subsets through the same
pool_sums, so estimates pooled over trajectory batches (as every caller
of estimate_batches pools them) equal the single-pass result up to
extended-precision reassociation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (EstimateMismatchError, RecordFormatError, ValidationError, check_integer,
                     check_positive)
from .trajectory import RecordSet, index_ranges, map_batches

# Trajectories per pass of window_means are chosen so that one block holds
# about this many bytes of samples: small enough that every spec's slices of
# a block are read while it is still in cache, large enough that the
# per-block Python work is small next to the arithmetic.
BLOCK_BYTES = 4 * 2 ** 20


def snap(value: float, dt: float) -> int:
    """Index of the sample bin nearest to a time: the one grid rule of qcorr."""
    bins = value / check_positive(dt, "dt")
    if not math.isfinite(bins):
        raise ValidationError(f"time {value} us has no bin on the dt={dt} grid")
    return int(round(bins))


@dataclass(frozen=True)
class Window:
    """Averaging window for the earliest event time: [t_a, t_a + length]."""

    t_a: float
    length: float

    def __post_init__(self):
        check_positive(self.length, "window length")
        if not (0.0 <= self.t_a < math.inf):
            raise ValidationError(f"window start must be nonnegative and finite, got {self.t_a}")

    def bins(self, dt: float) -> tuple:
        """Inclusive bin range (i0, i1) of t1: both window edges snapped.

        Both sides of a comparison average over this grid: window_means
        for the records and analytic.window_mean_state for the exact routes.
        """
        return snap(self.t_a, dt), snap(self.t_a + self.length, dt)


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Estimated correlator value with its trajectory-level standard error.

    events holds the snapped (channel_index, gap_in_bins) pairs and
    window_bins the snapped inclusive bin range of t1; together with dt they
    identify the specification for merging. sum_means/sumsq_means keep the
    exact pooled-moment bookkeeping: the long-double sum and sum of squares
    of the per-trajectory window means, unrounded.
    """

    value: float
    std_error: float
    n_traj: int
    dt: float
    window_bins: tuple
    events: tuple
    sum_means: np.longdouble
    sumsq_means: np.longdouble

    n_window_samples = property(lambda self: self.window_bins[1] - self.window_bins[0] + 1)

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
    for ch, gap in gaps:
        ch = check_integer(ch, "channel index")
        if not 0 <= ch < n_channels:
            raise ValidationError(f"channel index {ch} out of range for {n_channels} channels")
        g = snap(float(gap), dt)
        if events and g < events[-1][1]:
            raise ValidationError("gaps must be nondecreasing")
        if events and g == events[-1][1] and ch != events[-1][0]:
            raise ValidationError(
                f"events on channels {events[-1][0]} and {ch} snap to one bin "
                f"(gap {gap} us at dt {dt}); coinciding events must be on one channel"
            )
        events.append((ch, g))
    if not events:
        raise ValidationError("at least one (channel, gap) event is required")
    if events[0][1] != 0:
        raise ValidationError("the first gap must snap to 0 (events are relative to t1)")
    return tuple(events)


def resolve_spec(gaps, window: Window, dt: float, n_channels: int) -> tuple:
    """(window_bins, events) of a windowed spec, its one resolution on every route; whether
    records of a given shape hold it is ResolvedSpecs.check's to say."""
    return window.bins(dt), resolve_events(gaps, dt, n_channels)


def events_key(pairs) -> str:
    """The "channel@time;..." key of (channel, time_us) pairs, times to 17 digits."""
    return ";".join(f"{ch}@{t:.17g}" for ch, t in pairs)


def window_key(dt: float, window_bins: tuple, events: tuple) -> tuple:
    """(events, window start us, window length us) of a snapped windowed spec."""
    i0, i1 = window_bins
    return events_key((ch, g * dt) for ch, g in events), i0 * dt, (i1 - i0) * dt


def block_rows(n_channels: int, n_samples: int) -> int:
    """Trajectories per block of window_means: about BLOCK_BYTES of samples."""
    return max(1, BLOCK_BYTES // (8 * n_channels * n_samples))


class ResolvedSpecs(tuple):
    """Resolved (window_bins, events) specs with their evaluation plan, built once.

    window_means visits specs in sorted order, so that specs sharing window
    bins and leading events are adjacent, and fits every spec to the shape
    of its block (check, which qcorr estimate also runs once on the record
    header). Built once, this tuple holds that plan and the range of
    channels the specs read and their last sample index, so a caller that
    streams many blocks through one spec list pays for the sort and the
    prefix comparisons once and each block's check costs three integer
    comparisons. plan holds, per spec in sorted order, (j, keep, heads,
    last): j is its index, keep how many cached prefix products of the
    previous spec's head events it reuses, heads the (channel, columns) of
    the head events it multiplies on, and last the (channel, columns) of its
    last event. widths is the (specs, 1) column of window lengths W.
    window_means wraps any other sequence of resolved specs itself.
    """

    def __new__(cls, resolved):
        self = super().__new__(cls, resolved)
        self.plan = []
        cached_bins, cached_heads = None, ()
        for j in sorted(range(len(self)), key=self.__getitem__):
            bins, events = self[j]
            keep = 0
            if bins == cached_bins:
                limit = min(len(cached_heads), len(events) - 1)
                while keep < limit and cached_heads[keep] == events[keep]:
                    keep += 1
            i0, i1 = bins
            columns = [(ch, slice(i0 + g, i1 + g + 1)) for ch, g in events]
            self.plan.append((j, keep, columns[keep:-1], columns[-1]))
            cached_bins, cached_heads = bins, events[:-1]
        channels = [ch for _, events in self for ch, _ in events]
        self.channel_range = (min(channels, default=0), max(channels, default=0))
        self.last_sample = max((i1 + events[-1][1] for (_, i1), events in self), default=-1)
        self.widths = np.array([i1 - i0 + 1 for (i0, i1), _ in self], dtype=float)[:, None]
        return self

    def check(self, n_channels: int, n_samples: int) -> None:
        """Refuse, as spec[j], the first spec j that records of this shape cannot hold:
        a channel it lacks, or a window plus largest gap past its span."""
        low, high = self.channel_range
        if 0 <= low and high < n_channels and self.last_sample < n_samples:
            return
        for j, ((i0, i1), events) in enumerate(self):
            bad = [ch for ch, _ in events if not 0 <= ch < n_channels]
            if bad:
                raise ValidationError(
                    f"spec[{j}]: channel index {bad[0]} out of range for {n_channels} channels"
                )
            if i1 + events[-1][1] >= n_samples:
                raise ValidationError(
                    f"spec[{j}]: window bins [{i0}, {i1}] plus largest gap {events[-1][1]} "
                    f"exceed the record span of {n_samples} samples"
                )


def _block_means(samples: np.ndarray, specs: ResolvedSpecs, out: np.ndarray) -> None:
    """Write spec j's window means over the rows of samples into out[j].

    Runs specs.plan: chain holds the products of the previous spec's head
    events (all but the last), formed in event order as 1 * x1 * x2 * ...
    would be; a spec keeps the shared ones and multiplies on its own. Its
    last event's product and the float64 sum over each row of its window
    are one np.einsum("ij,ij->i") (numpy's own loop: optimize is off, so no
    BLAS call and no (rows, W) temporary); a one-event spec is a plain row
    sum. One division by the window lengths ends the block.
    """
    chain = []
    for j, keep, heads, (ch, columns) in specs.plan:
        del chain[keep:]
        for head_ch, head_columns in heads:
            x = samples[:, head_ch, head_columns]
            chain.append(chain[-1] * x if chain else x)
        if chain:
            np.einsum("ij,ij->i", chain[-1], samples[:, ch, columns], out=out[j])
        else:
            np.add.reduce(samples[:, ch, columns], axis=1, out=out[j])
    out /= specs.widths


def window_means(samples: np.ndarray, resolved) -> np.ndarray:
    """Per-trajectory window means of every resolved spec in one pass over samples.

    samples is one (n_traj, n_channels, n_samples) block of records, the
    samples of a RecordSet; resolved holds (window_bins, events) pairs as
    resolve_spec returns them, ideally as a ResolvedSpecs built once for
    every block, which fits them to the block (check: a spec it cannot hold
    is refused by its index) and whose plan every pass runs (_block_means).
    The trajectories are walked in passes of about BLOCK_BYTES of samples,
    and every spec's window sums are formed while a pass is in cache. Row j
    of the returned (len(resolved), n_traj) float64 array is spec j's mean
    over its window of the product of samples at its gaps from t1, summed
    in float64 per trajectory (see the module docstring for its error
    bound); a trajectory's mean does not depend on how the trajectories are
    split into blocks or passes. Its ensemble mean is the correlator
    estimate (ensemble_sums and pool_sums, which sum in extended precision).
    """
    specs = resolved if isinstance(resolved, ResolvedSpecs) else ResolvedSpecs(resolved)
    n_traj, n_channels, n_samples = samples.shape
    specs.check(n_channels, n_samples)
    out = np.empty((len(specs), n_traj))
    rows = block_rows(n_channels, n_samples)
    for lo in range(0, n_traj, rows):
        _block_means(samples[lo:lo + rows], specs, out[:, lo:lo + rows])
    return out


def trajectory_window_means(records: RecordSet, gaps, window: Window) -> np.ndarray:
    """Per-trajectory window means of one spec: the window_means row estimate_correlator pools."""
    spec = resolve_spec(gaps, window, records.dt, records.n_channels)
    return window_means(records.samples, [spec])[0]


def _pooled(m: int, total, total_sq, dt: float, window_bins: tuple, events: tuple):
    """Estimate from the long-double sum and sum of squares of m per-trajectory means."""
    var = max(float((total_sq - total * total / m) / (m - 1)), 0.0)
    return CorrelatorEstimate(
        value=float(total / m),
        std_error=float(np.sqrt(var / m)),
        n_traj=m,
        dt=dt,
        window_bins=window_bins,
        events=events,
        sum_means=total,
        sumsq_means=total_sq,
    )


def require_standard_error(n_traj: int) -> None:
    """Refuse an estimate over fewer than 2 trajectories: it has no spread."""
    if n_traj < 2:
        raise ValidationError("estimation needs at least 2 trajectories for a standard error")


def ensemble_sums(means: np.ndarray) -> tuple:
    """(trajectories, sums, sums of squares) of the rows of one block of window means.

    means is (rows, n_traj), as window_means returns it. The fold runs in
    extended precision on one long-double copy of the block: a row sum, an
    in-place square and a second row sum. Folds of disjoint blocks add up
    to the folds of their union (pool_sums).
    """
    ext = means.astype(np.longdouble)
    sums = ext.sum(axis=1)
    np.square(ext, out=ext)
    return means.shape[1], sums, ext.sum(axis=1)


def pool_sums(folds, dt: float, labels) -> list:
    """Estimate of every row of the folds (ensemble_sums) of disjoint blocks.

    The folds are added in the order given, in extended precision, and
    never rounded. labels holds each row's (window_bins, events): with dt
    they label its estimate for merge_estimates.
    """
    n = 0
    total = np.zeros(len(labels), dtype=np.longdouble)
    total_sq = np.zeros_like(total)
    for m, sums, sumsqs in folds:
        n += m
        total += sums
        total_sq += sumsqs
    require_standard_error(n)
    return [_pooled(n, s, s2, dt, *label) for s, s2, label in zip(total, total_sq, labels)]


def estimate_batches(load, specs: ResolvedSpecs, dt: float, n_traj: int, batch_size: int,
                     workers: int = 1, grid_average: bool = False, source: str = "records"):
    """Yield each batch's estimates of every spec, in batch order: the Monte Carlo driver.

    map_batches runs the batches index_ranges(0, n_traj, batch_size) on
    workers processes. A batch folds (ensemble_sums) the window_means of
    specs over each sample block that load(lo, hi) yields for its
    trajectories [lo, hi), one block at a time, and returns pool_sums of
    the folds; merge_estimates pools a spec's estimates over the batches.
    grid_average adds the per-trajectory mean over all specs, which share
    one window, labelled with all their events. A non-finite window mean is
    refused by spec and batch range with a RecordFormatError naming source.
    """
    labels = list(specs)
    if grid_average:
        labels.append((specs[0][0], tuple(events for _, events in specs)))

    def fold(bounds, samples):
        means = window_means(samples, specs)
        if grid_average:  # per trajectory: it keeps the specs' correlation
            means = np.vstack((means, np.mean(means, axis=0)))
        sums = ensemble_sums(means)
        # A sum of squares is not finite exactly when one of its means is not.
        bad = np.flatnonzero(~np.isfinite(sums[2][:len(specs)]))
        if bad.size:
            events, start, length = window_key(dt, *specs[bad[0]])
            raise RecordFormatError(
                f"{source}: spec {bad[0]} (events {events}, window start {start:.17g} us, "
                f"length {length:.17g} us) has a non-finite window mean in "
                f"trajectories [{bounds[0]}, {bounds[1]})")
        return sums

    def task(bounds):  # map holds no block past its fold
        return pool_sums(map(partial(fold, bounds), load(*bounds)), dt, labels)

    return map_batches(task, index_ranges(0, n_traj, batch_size), workers)


def estimate_correlator(records: RecordSet, gaps, window: Window) -> CorrelatorEstimate:
    """Estimate the correlator of events at fixed gaps (resolve_events) from a windowed t1.

    Equal gaps on one channel estimate the discretized equal-time term tau/dt plus the smooth part.
    """
    spec = resolve_spec(gaps, window, records.dt, records.n_channels)
    return pool_sums([ensemble_sums(window_means(records.samples, [spec]))], records.dt, [spec])[0]


def merge_estimates(parts) -> CorrelatorEstimate:
    """Pool estimates of one specification over disjoint trajectory subsets.

    Exact pooled mean and pooled variance: pool_sums of the parts'
    unrounded long-double sums, in the order given; associative and
    commutative up to extended-precision reassociation.
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
    dt, window_bins, events = key
    folds = ((p.n_traj, [p.sum_means], [p.sumsq_means]) for p in parts)
    (est,) = pool_sums(folds, dt, [(window_bins, events)])
    return est
