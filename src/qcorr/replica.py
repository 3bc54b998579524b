"""Canned two-detector configurations and correlator scans.

The setup: two linear detectors simultaneously and continuously measure the
qubit observables along the z axis and along an axis tilted by an angle phi
from z in the xz plane, on a qubit with no Hamiltonian drive. Each channel
contributes an ensemble dephasing rate gamma in its own basis, so the model
is unital by construction. The qubit starts on the Bloch sphere halfway
between the two measurement axes, r(0) = (sin(phi/2), 0, cos(phi/2)).

Two scans reproduce the characteristic three- and four-time correlator
structure of this setup:

* three_time_scan tabulates K over event channels (phi, z, phi) at gaps
  (dt21, dt32) from a windowed earliest time. The factorization makes it the
  window-averaged mean phi signal times the two-time correlator over the
  last gap, independent of dt21.
* four_time_scan tabulates K over (z, phi, z, phi) at gaps (dt21, dt32,
  dt43). The factorization makes it the product of the two-time correlators
  over the first and last gaps, independent of dt32, the window, and the
  initial state; its summary compares the Monte Carlo average over the dt32
  grid against the average of the rows' analytic values.

Both scans resolve every grid point once. A point's analytic value is the
factorized value that qcorr analytic reports for the same windowed spec
(analytic.window_mean_spec); its Monte Carlo value comes from one loop over
simulation batches: the process that simulates a batch (a forked worker with
several workers) takes the window means of the resolved points in one
window_means call and returns only their estimates, which carry the batch's
unrounded long-double sums (ensemble_sums, pool_sums), so memory stays
bounded by one batch per process at any trajectory budget. The caller pools
them in batch order (merge_estimates adds those sums through pool_sums, the
pooling path of qcorr estimate). The summary pools grid points trajectory by
trajectory, respecting their correlation through the shared records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# mean_signal, two_time_correlator, estimate_correlator and
# trajectory_window_means are unused here but stay importable from this
# module: perfbench/layers.py traces them under this name.
from .analytic import (  # noqa: F401
    factorized_correlator,
    mean_signal,
    two_time_correlator,
    window_mean_spec,
)
from .bloch import MeasurementChannel, build_ensemble_model
from .empirical import (  # noqa: F401
    ResolvedSpecs,
    Window,
    ensemble_sums,
    estimate_correlator,
    merge_estimates,
    pool_sums,
    resolve_events,
    snap,
    trajectory_window_means,
    window_means,
)
from .errors import ValidationError
from .trajectory import SimConfig, index_ranges, map_batches, simulate_range

DEFAULT_GAMMA = 1.0 / 1.3  # per-channel ensemble dephasing rate, 1/us
DEFAULT_THREE_TIME_WINDOW = 0.2
DEFAULT_FOUR_TIME_WINDOW = 0.5
CHANNEL_Z = 0
CHANNEL_PHI = 1


@dataclass(frozen=True)
class ReplicaConfig:
    """Parameters of one two-detector scan.

    phi is the angle between the measurement axes (radians, in [0, pi]);
    gamma the per-channel ensemble dephasing rate. The trajectory budget
    (n_traj, dt, master_seed) only matters when include_mc is set.
    """

    phi: float
    gamma: float = DEFAULT_GAMMA
    eta: float = 1.0
    dt: float = 0.01
    n_traj: int = 20000
    master_seed: int = 20250101
    t_a: float = 1.0
    window_len: float | None = None
    include_mc: bool = True
    workers: int = 1

    def __post_init__(self):
        if not (0.0 <= self.phi <= math.pi):
            raise ValidationError(f"phi must lie in [0, pi], got {self.phi}")
        if not (self.gamma > 0.0):
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError(f"eta must be in (0, 1], got {self.eta}")
        if not (0.0 < self.dt < math.inf):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.include_mc and self.n_traj < 2:
            raise ValidationError(f"n_traj must be >= 2 for a standard error, got {self.n_traj}")
        if self.window_len is not None and not (0.0 < self.window_len < math.inf):
            raise ValidationError(f"window_len must be positive and finite, got {self.window_len}")

    @property
    def r_init(self) -> tuple:
        return (math.sin(self.phi / 2.0), 0.0, math.cos(self.phi / 2.0))

    @property
    def tau(self) -> float:
        """Measurement time consistent with gamma at this efficiency."""
        return 1.0 / (2.0 * self.eta * self.gamma)


def replica_model(config: ReplicaConfig):
    """Ensemble model and channel pair (z first, phi second) for the scan."""
    phi = config.phi
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), config.tau, config.eta),
        MeasurementChannel((math.sin(phi), 0.0, math.cos(phi)), config.tau, config.eta),
    )
    model = build_ensemble_model(channels)
    return model, channels


@dataclass(frozen=True)
class ScanRow:
    """One grid point of a correlator scan; mc fields are NaN without MC."""

    phi: float
    dt21: float
    dt32: float
    dt43: float
    analytic: float
    mc_value: float
    mc_se: float


@dataclass(frozen=True)
class FourTimeSummary:
    """Grid-averaged four-time correlator against the grid-averaged analytic value."""

    phi: float
    mc_mean: float
    mc_std: float
    mc_pooled_se: float
    analytic: float
    n_traj: int


def _batch_estimates(sim: SimConfig, specs: ResolvedSpecs, labels, bounds) -> list:
    """Estimates of every point, then of their per-trajectory average, over one batch.

    Runs in the process that simulates the batch: no sample leaves it.
    specs holds every point's (window_bins, events), labels those and the
    grid average's.
    """
    means = window_means(simulate_range(sim, *bounds).samples, specs)
    # The grid average per trajectory respects the points' correlation
    # through the shared records.
    return pool_sums([ensemble_sums(np.vstack((means, np.mean(means, axis=0))))], sim.dt, labels)


def _snapped(values, name: str, dt: float) -> list:
    """Sorted distinct gaps (us) of a grid, each snapped to a bin; an empty grid is refused."""
    gaps = sorted({snap(v, dt) * dt for v in values})
    if not gaps:
        raise ValidationError(f"{name} is empty: a scan needs at least one gap")
    return gaps


def _evaluate(config: ReplicaConfig, window: Window, points) -> tuple:
    """Analytic value and (value, std_error) of every point, and the latter of their average.

    points are (channel, gap_us) lists from a t1 in window. All are resolved
    once, first, also without include_mc (then every Monte Carlo pair is
    NaN), so a bad grid is refused before any batch is simulated. A point's
    analytic value is the factorized value of its window_mean_spec. Each
    batch's estimates (_batch_estimates) are pooled in batch order with
    merge_estimates, which adds their unrounded long-double sums.
    """
    model, channels = replica_model(config)
    dt = config.dt
    window_bins = window.bins(dt)
    specs = ResolvedSpecs((window_bins, resolve_events(gaps, dt, len(channels)))
                          for gaps in points)
    analytic = [
        factorized_correlator(model, channels,
                              window_mean_spec(model, config.r_init, events, window, dt))
        for _, events in specs
    ]
    if not config.include_mc:
        nan = (float("nan"), float("nan"))
        return analytic, [nan] * len(points), nan
    t_total = window.t_a + window.length + (max(e[-1][1] for _, e in specs) + 2) * dt
    sim = SimConfig(model=model, channels=channels, r_init=config.r_init, t_total=t_total,
                    dt=dt, n_traj=config.n_traj, master_seed=config.master_seed)
    # The grid average is labelled with every point's events.
    labels = [*specs, (window_bins, tuple(events for _, events in specs))]
    task = partial(_batch_estimates, sim, specs, labels)
    batches = map_batches(task, index_ranges(0, sim.n_traj, sim.batch_size), config.workers)
    mc = [(p.value, p.std_error) for p in map(merge_estimates, zip(*batches))]
    return analytic, mc[:-1], mc[-1]


def default_three_time_grid(gamma: float = DEFAULT_GAMMA):
    return tuple(np.linspace(0.1, 2.3, 8) / gamma)


def default_four_time_grid(gamma: float = DEFAULT_GAMMA):
    return tuple(np.linspace(0.5, 2.3, 10) / gamma)


def three_time_scan(config: ReplicaConfig, dt21_values=None, dt32_values=None):
    """Tabulate the (phi, z, phi) three-time correlator on a gap grid.

    Returns rows over the cartesian product of the snapped dt21 and dt32
    grids. The analytic column varies only with dt32, up to rounding.
    """
    window = Window(config.t_a, DEFAULT_THREE_TIME_WINDOW if config.window_len is None
                    else config.window_len)
    if dt21_values is None:
        dt21_values = default_three_time_grid(config.gamma)
    if dt32_values is None:
        dt32_values = default_three_time_grid(config.gamma)
    gaps21 = _snapped(dt21_values, "dt21_values", config.dt)
    gaps32 = _snapped(dt32_values, "dt32_values", config.dt)

    points = [(g21, g32) for g21 in gaps21 for g32 in gaps32]
    analytic, mc, _ = _evaluate(config, window, [
        [(CHANNEL_PHI, 0.0), (CHANNEL_Z, g21), (CHANNEL_PHI, g21 + g32)]
        for g21, g32 in points
    ])
    return [
        ScanRow(phi=config.phi, dt21=g21, dt32=g32, dt43=float("nan"),
                analytic=value, mc_value=mc_value, mc_se=mc_se)
        for (g21, g32), value, (mc_value, mc_se) in zip(points, analytic, mc)
    ]


def four_time_scan(config: ReplicaConfig, dt32_values=None):
    """Tabulate the (z, phi, z, phi) four-time correlator over a dt32 grid.

    dt21 and dt43 are both 0.15/gamma. Returns (rows, summary) where the
    summary averages the Monte Carlo values over the dt32 grid, with both the
    spread across grid points and the trajectory-pooled standard error of the
    grid average, and the analytic values over the same grid.
    """
    window = Window(config.t_a, DEFAULT_FOUR_TIME_WINDOW if config.window_len is None
                    else config.window_len)
    if dt32_values is None:
        dt32_values = default_four_time_grid(config.gamma)
    dt = config.dt
    g21 = g43 = snap(0.15 / config.gamma, dt) * dt
    gaps32 = _snapped(dt32_values, "dt32_values", dt)

    analytic, mc, (mc_mean, mc_pooled_se) = _evaluate(config, window, [
        [(CHANNEL_Z, 0.0), (CHANNEL_PHI, g21), (CHANNEL_Z, g21 + g32),
         (CHANNEL_PHI, g21 + g32 + g43)]
        for g32 in gaps32
    ])
    rows = [
        ScanRow(phi=config.phi, dt21=g21, dt32=g32, dt43=g43,
                analytic=value, mc_value=mc_value, mc_se=mc_se)
        for g32, value, (mc_value, mc_se) in zip(gaps32, analytic, mc)
    ]

    values = [row.mc_value for row in rows]
    mc_std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    summary = FourTimeSummary(
        phi=config.phi,
        mc_mean=mc_mean,
        mc_std=mc_std if config.include_mc else float("nan"),
        mc_pooled_se=mc_pooled_se,
        analytic=float(np.mean(analytic)),
        n_traj=config.n_traj if config.include_mc else 0,
    )
    return rows, summary
