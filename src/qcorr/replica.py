"""Canned two-detector configurations and correlator scans.

The setup: two linear detectors simultaneously and continuously measure the
qubit observables along the z axis and along an axis tilted by an angle phi
from z in the xz plane, on a qubit with no Hamiltonian drive. Both
detectors are ideal, with measurement time TAU, so each channel contributes
the ensemble dephasing rate DEFAULT_GAMMA in its own basis and the model is
unital by construction. The qubit starts on the Bloch sphere halfway
between the two measurement axes, r(0) = (sin(phi/2), 0, cos(phi/2)).
Windows start at WINDOW_START; a scan takes only phi and its trajectory
budget (ReplicaConfig), whose n_traj = 0 asks for the exact values alone.

Two scans reproduce the characteristic three- and four-time correlator
structure of this setup:

* three_time_scan tabulates K over event channels (phi, z, phi) at gaps
  (dt21, dt32) from a window DEFAULT_THREE_TIME_WINDOW long. The
  factorization makes it the window-averaged mean phi signal times the
  two-time correlator over the last gap, independent of dt21.
* four_time_scan tabulates K over (z, phi, z, phi) at gaps (dt21, dt32,
  dt43) from a window DEFAULT_FOUR_TIME_WINDOW long. The factorization
  makes it the product of the two-time correlators over the first and
  last gaps, independent of dt32, the window, and the initial state; its
  summary compares the Monte Carlo average over the dt32 grid against the
  average of the rows' analytic values.

Both scans resolve every grid point once on their dt grid, as qcorr
estimate and qcorr analytic resolve a spec entry (empirical.resolve_spec);
the points read only the scan's two channels. A point's analytic value is
the factorized value that qcorr analytic reports for the same spec
(analytic.window_mean_spec, from one window-mean state per scan). Its Monte
Carlo value comes from empirical.estimate_batches, the driver of qcorr
estimate too, with simulation batches as the source and the scan's
SimConfig as the record shape it fits the points to. The records end at
the last sample the points read (ResolvedSpecs.last_sample): the process that
simulates a batch (a forked worker with several workers) takes the window
means of the resolved points in one window_means call and returns only their
estimates, so memory stays bounded by one batch per process at any
trajectory budget. The caller pools each batch into running estimates as it
arrives (merge_estimates); four_time_scan's summary pools its grid points
trajectory by trajectory, respecting their correlation through the shared
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# mean_signal, two_time_correlator, estimate_correlator and
# trajectory_window_means are unused here but stay importable from this
# module: perfbench/layers.py traces them under this name.
from .analytic import (  # noqa: F401
    factorized_correlator,
    mean_signal,
    two_time_correlator,
    window_mean_spec,
    window_mean_state,
)
from .bloch import MeasurementChannel, build_ensemble_model
from .empirical import (  # noqa: F401
    ResolvedSpecs,
    Window,
    estimate_batches,
    estimate_correlator,
    merge_estimates,
    resolve_spec,
    snap,
    trajectory_window_means,
)
from .errors import ValidationError, check_integer, check_positive
from .noise import check_seed
from .trajectory import SimConfig, simulate_range

DEFAULT_GAMMA = 1.0 / 1.3  # per-channel ensemble dephasing rate, 1/us
TAU = 1.0 / (2.0 * DEFAULT_GAMMA)  # measurement time of each ideal detector, us
WINDOW_START = 1.0  # t_a of every scan's window, us
DEFAULT_THREE_TIME_WINDOW = 0.2
DEFAULT_FOUR_TIME_WINDOW = 0.5
DEFAULT_THREE_TIME_GRID = tuple(np.linspace(0.1, 2.3, 8) / DEFAULT_GAMMA)  # gaps, us
DEFAULT_FOUR_TIME_GRID = tuple(np.linspace(0.5, 2.3, 10) / DEFAULT_GAMMA)
CHANNEL_Z = 0
CHANNEL_PHI = 1


@dataclass(frozen=True)
class ReplicaConfig:
    """Parameters of one two-detector scan.

    phi is the angle between the measurement axes (radians, in [0, pi]).
    dt sets the grid that gaps snap to. n_traj is the one Monte Carlo
    switch: 0 gives the exact values alone (NaN Monte Carlo fields), and
    master_seed and workers, checked all the same, then go unused;
    otherwise n_traj trajectories are simulated, and the Monte Carlo driver
    (empirical.estimate_batches) refuses a budget too small for a standard
    error before any batch.
    """

    phi: float
    dt: float = 0.01
    n_traj: int = 20000
    master_seed: int = 20250101
    workers: int = 1

    def __post_init__(self):
        if not (0.0 <= self.phi <= math.pi):
            raise ValidationError(f"phi must lie in [0, pi], got {self.phi}")
        check_positive(self.dt, "dt")
        check_integer(self.n_traj, "n_traj", 0)
        check_seed(self.master_seed)
        check_integer(self.workers, "workers", 1)

    @property
    def r_init(self) -> tuple:
        return (math.sin(self.phi / 2.0), 0.0, math.cos(self.phi / 2.0))


def replica_model(config: ReplicaConfig):
    """Ensemble model and channel pair (z first, phi second) for the scan."""
    phi = config.phi
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), TAU),
        MeasurementChannel((math.sin(phi), 0.0, math.cos(phi)), TAU),
    )
    model = build_ensemble_model(channels)
    return model, channels


@dataclass(frozen=True)
class ScanRow:
    """One grid point of a correlator scan; mc fields are NaN at n_traj = 0."""

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


def _snapped(values, name: str, dt: float) -> list:
    """Sorted distinct gaps (us) of a grid, each snapped to a bin; an empty grid is refused."""
    gaps = sorted({snap(v, dt) * dt for v in values})
    if not gaps:
        raise ValidationError(f"{name} is empty: a scan needs at least one gap")
    return gaps


def _evaluate(config: ReplicaConfig, length: float, points, grid_average=False) -> tuple:
    """Analytic value and (value, std_error) of every point, then of their average on request.

    points are (channel, gap_us) lists from a t1 in the window of this
    length at WINDOW_START. All are resolved once, first (resolve_spec),
    also at n_traj = 0 (then every Monte Carlo pair is NaN), so a bad grid
    is refused before any batch is simulated. A point's analytic value is
    the factorized value of its window_mean_spec, all from one window-mean
    state. The simulated records end at the points' last sample;
    estimate_batches fits the points to them and cuts the batches from
    their shape, and each batch's estimates are pooled into running
    estimates with merge_estimates as they arrive.
    """
    model, channels = replica_model(config)
    dt = config.dt
    window = Window(WINDOW_START, length)
    specs = ResolvedSpecs(resolve_spec(gaps, window, dt) for gaps in points)
    r_window = window_mean_state(model, config.r_init, window, dt)
    analytic = [factorized_correlator(model, channels, window_mean_spec(r_window, events, dt))
                for _, events in specs]
    if not config.n_traj:
        return analytic, [(float("nan"), float("nan"))] * (len(points) + grid_average)
    sim = SimConfig(model=model, channels=channels, r_init=config.r_init,
                    t_total=(specs.last_sample + 1) * dt, dt=dt, n_traj=config.n_traj,
                    master_seed=config.master_seed)

    def load(lo, hi):  # the one sample block of batch [lo, hi), simulated
        return [simulate_range(sim, lo, hi).samples]

    batches = estimate_batches(load, specs, sim, config.workers, grid_average, source="simulation")
    pooled = None
    for batch in batches:  # merged into the running estimates as it arrives
        pooled = list(map(merge_estimates, zip(batch) if pooled is None else zip(pooled, batch)))
    return analytic, [(p.value, p.std_error) for p in pooled]


def three_time_scan(config: ReplicaConfig, dt21_values=None, dt32_values=None):
    """Tabulate the (phi, z, phi) three-time correlator on a gap grid.

    Returns rows over the cartesian product of the snapped dt21 and dt32
    grids. The analytic column varies only with dt32, up to rounding.
    """
    if dt21_values is None:
        dt21_values = DEFAULT_THREE_TIME_GRID
    if dt32_values is None:
        dt32_values = DEFAULT_THREE_TIME_GRID
    gaps21 = _snapped(dt21_values, "dt21_values", config.dt)
    gaps32 = _snapped(dt32_values, "dt32_values", config.dt)

    points = [(g21, g32) for g21 in gaps21 for g32 in gaps32]
    analytic, mc = _evaluate(config, DEFAULT_THREE_TIME_WINDOW, [
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

    dt21 and dt43 are both 0.15/DEFAULT_GAMMA. Returns (rows, summary)
    where the summary averages the Monte Carlo values over the dt32 grid,
    with both the spread across grid points and the trajectory-pooled
    standard error of the grid average, and the analytic values over the
    same grid.
    """
    if dt32_values is None:
        dt32_values = DEFAULT_FOUR_TIME_GRID
    dt = config.dt
    g21 = g43 = snap(0.15 / DEFAULT_GAMMA, dt) * dt
    gaps32 = _snapped(dt32_values, "dt32_values", dt)

    analytic, (*mc, (mc_mean, mc_pooled_se)) = _evaluate(config, DEFAULT_FOUR_TIME_WINDOW, [
        [(CHANNEL_Z, 0.0), (CHANNEL_PHI, g21), (CHANNEL_Z, g21 + g32),
         (CHANNEL_PHI, g21 + g32 + g43)]
        for g32 in gaps32
    ], grid_average=True)
    rows = [
        ScanRow(phi=config.phi, dt21=g21, dt32=g32, dt43=g43,
                analytic=value, mc_value=mc_value, mc_se=mc_se)
        for g32, value, (mc_value, mc_se) in zip(gaps32, analytic, mc)
    ]

    mc_std = float(np.std([row.mc_value for row in rows], ddof=1)) if len(rows) > 1 else 0.0
    return rows, FourTimeSummary(phi=config.phi, mc_mean=mc_mean,
                                 mc_std=mc_std if config.n_traj else float("nan"),
                                 mc_pooled_se=mc_pooled_se, analytic=float(np.mean(analytic)),
                                 n_traj=config.n_traj)
