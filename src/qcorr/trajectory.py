"""Stochastic trajectory integration of continuously monitored qubits.

Each step is a quantum Bayesian update (Korotkov, PRB 60, 5737 (1999)) in
Kraus-map form (Rouchon & Ralph, PRA 91, 012118 (2015)). With r the state
before the step, channel l records the bin-averaged sample

    I_l = n_l . r + sqrt(tau_l / dt + max(1 - (n_l . r)^2, 0)) xi_l

from one standard-normal draw per channel and step: the variance of the
bin's +-1 mixture, so E[I_l^2] = tau_l / dt + 1 in every state. Each channel
in turn then applies M = exp(a (1 - i k) sigma_n), a = I_l dt / (2 tau_l),
k = phase_k, and renormalises: with u = n . r and t = tanh 2a, n . r becomes
(u + t) / (1 + u t), and the perpendicular part is scaled by
sech 2a / (1 + u t) and turned about n by k I_l dt / tau_l. Last, the rest
of the generator, lam minus the (1 + k^2) / (2 tau_l) dephasing the maps
supply on average, moves r by its exact affine flow (linalg.affine_flow):
Rabi drive, environment, the model drift and the (1 / eta_l - 1) share of
the dephasing. A model whose rest, with the drift, is no Lindblad generator
(bloch.require_lindblad) is refused when its SimConfig is built, so the rest
keeps every state in the Bloch ball. So nothing is ever clipped, ideal
monitoring keeps pure states pure to rounding, and a state on the sole
measured axis stays there bit for bit.

Output never depends on worker count, scheduling or batch size: each
trajectory owns its noise stream, batches are cut at fixed multiples of
batch_rows (a function of the record shape alone) and write their own
rows, and every step is elementwise over the batch axis. simulate_batch
has two callers: simulate_range, which fills its rows of the returned
array in the calling process, and recordio.simulate_records, which fills
one buffer per map_batches process and writes it out. A batch holds its
rows, one small time-major (steps, channels, batch) block, into which the
draws are copied and over which each step writes its samples, and its
(batch,) scratch rows.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bloch import (EnsembleModel, MeasurementChannel, measurement_dephasing_generator,
                    require_lindblad, validate_state)
from .errors import IntegrationDivergedError, ValidationError, check_integer, check_positive
from .linalg import affine_flow
from .noise import check_seed, trajectory_draws

DT_ERROR_FRACTION = 0.05
DT_WARN_FRACTION = 0.01
DEFAULT_BATCH_SIZE = 8192
BATCH_BYTES = 256 * 2 ** 20  # DEFAULT_BATCH_SIZE rows of up to 32 KiB
# Steps per transposed block: 16 consecutive samples (two 64-byte cache lines)
# of each record row at a time; 4-step blocks made the 20000 x 400 preset about
# 10% slower on a 2-vCPU x86 VM. Each batch in flight holds one (steps,
# channels, batch) block, 2 MiB at batch 8192 and two channels, whose draws
# the samples overwrite step by step.
_BLOCK_STEPS = 16
# Trajectory rows per tile when a block's draws are copied in from a batch's
# rows: 128-row tiles took a third of the time of one strided copy of all
# 8192 on a 2-vCPU x86 VM. Copying the samples back is faster in one piece.
_TILE_ROWS = 128


class TimestepWarning(UserWarning):
    """dt is coarse relative to the fastest measurement time."""


def batch_rows(n_channels: int, n_samples: int) -> int:
    """Trajectories per batch: DEFAULT_BATCH_SIZE, fewer where a batch's samples would
    pass BATCH_BYTES, but never fewer than 2 (a batch's estimate needs a standard error)."""
    return max(2, min(DEFAULT_BATCH_SIZE, BATCH_BYTES // (8 * n_channels * n_samples)))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """The ensemble: all that fixes its records (batch_size follows from their shape)."""

    model: EnsembleModel
    channels: tuple
    r_init: tuple
    t_total: float
    dt: float
    n_traj: int
    master_seed: int

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValidationError("SimConfig needs at least one channel")
        for ch in channels:
            if not isinstance(ch, MeasurementChannel):
                raise ValidationError("channels must be MeasurementChannel instances")
        object.__setattr__(self, "channels", channels)
        r_init = validate_state(self.r_init)
        object.__setattr__(self, "r_init", tuple(float(c) for c in r_init))
        check_positive(self.dt, "dt")
        min_tau = min(ch.tau for ch in channels)
        ratio = self.dt / min_tau
        if ratio > DT_ERROR_FRACTION:
            raise ValidationError(
                f"dt={self.dt} exceeds {DT_ERROR_FRACTION} * min channel tau "
                f"({min_tau}); refine the time step"
            )
        if ratio > DT_WARN_FRACTION:
            warnings.warn(
                f"dt={self.dt} is {ratio:.3f} of the fastest measurement time; "
                "expect visible discretization error",
                TimestepWarning,
                stacklevel=3,  # past the generated __init__, to whoever built the config
            )
        check_integer(self.n_traj, "n_traj", 1)
        if not math.isfinite(self.t_total):
            raise ValidationError(f"t_total must be finite, got {self.t_total}")
        if self.t_total < self.dt:
            raise ValidationError(f"t_total={self.t_total} shorter than one step dt={self.dt}")
        check_seed(self.master_seed)
        row = 8 * self.n_channels * self.n_samples
        if 2 * row > BATCH_BYTES:  # a batch holds at least 2 rows
            raise ValidationError(f"a record row of {self.n_channels} x {self.n_samples} samples "
                                  f"({row} bytes) leaves no batch of 2 rows within {BATCH_BYTES} "
                                  "bytes; raise dt or shorten t_total")
        # The step's flow of lam - event_dephasing must be quantum dynamics: lam = 0
        # with a measured channel would undo the maps' dephasing.
        require_lindblad(self.model.lam - event_dephasing(channels), self.model.drift,
                         "the model minus its channels' measurement dephasing")

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.t_total / self.dt + 1e-9))

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def batch_size(self) -> int:
        """Trajectories per simulation batch: batch_rows of the record shape."""
        return batch_rows(self.n_channels, self.n_samples)


@dataclass(frozen=True, eq=False)
class RecordSet:
    """Ensemble of signal records, trajectory-major.

    samples has shape (n_traj, n_channels, n_samples); row i holds trajectory
    traj_offset + i of the ensemble, bit-identical however the ensemble was
    cut into ranges.
    """

    samples: np.ndarray
    dt: float
    channels: tuple
    master_seed: int
    states: np.ndarray | None = None
    traj_offset: int = 0

    def __post_init__(self):
        if self.samples.ndim != 3:
            raise ValidationError(f"RecordSet samples must be 3-d, got shape {self.samples.shape}")
        if self.samples.shape[1] != len(self.channels):
            raise ValidationError("RecordSet channel count does not match samples shape")

    @property
    def n_traj(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[2]

    # Always 0, as no step clips; the benchmark tracer reads it.
    clipped_steps = property(lambda self: 0)


def event_dephasing(channels) -> np.ndarray:
    """The part of lam that the event maps supply: the dephasing at eta = 1.

    The Bayesian update dephases by 1 / (2 tau), the phase kick by phase_k^2 / (2 tau).
    """
    return measurement_dephasing_generator(replace(ch, eta=1.0) for ch in channels)


class _BayesStep:
    """The Bayesian step of one batch: states r (3, batch), one per column.

    A step updates r in place, elementwise, writing only into arrays allocated here
    and into the row it is given.
    """

    def __init__(self, config: SimConfig, batch: int):
        # Per channel: n, its nonzero components (i, n_i), dt/tau and phase_k.
        self.channels = [(ch.axis_vector, [(i, n_i) for i, n_i in enumerate(ch.axis) if n_i != 0.0],
                          config.dt / ch.tau, ch.phase_k) for ch in config.channels]
        self.tau_dt = np.array([[ch.tau / config.dt] for ch in config.channels])
        self.dt_tau = np.array([[config.dt / ch.tau] for ch in config.channels])
        g = affine_flow(config.model.lam - event_dephasing(config.channels), config.model.drift,
                        config.dt)
        self.flow = None if np.array_equal(g, np.eye(4)) else g[:3]
        self.r = np.repeat(np.asarray(config.r_init, dtype=float)[:, None], batch, axis=1)
        self.u, self.spread, self.e, self.e2 = np.empty((4, len(self.channels), batch))
        self.work = np.empty((7, batch))  # four scratch rows, then a spare (3, batch)

    def _add_multiple(self, y, x, k) -> None:
        """y += k x; exact, and with no multiplication, when k is +-1."""
        if k == 1.0:
            np.add(y, x, out=y)
        elif k == -1.0:
            np.subtract(y, x, out=y)
        else:
            np.multiply(x, k, out=self.work[3])
            np.add(y, self.work[3], out=y)

    def _project(self, nonzero, out) -> None:
        """out = n . r over the nonzero components of n."""
        (i, n_i), *rest = nonzero
        np.multiply(self.r[i], n_i, out=out)
        for i, n_i in rest:
            self._add_multiple(out, self.r[i], n_i)

    def __call__(self, row) -> None:
        """Overwrite row, (n_channels, batch), holding this step's draws with the samples
        of r, then step r."""
        r, u, spread, e, e2, spare = self.r, self.u, self.spread, self.e, self.e2, self.work[4:]
        a, b, c, d = self.work[:4]
        for l, (_, nonzero, _, _) in enumerate(self.channels):
            self._project(nonzero, u[l])
        np.multiply(u, u, out=spread)
        np.subtract(1.0, spread, out=spread)
        np.maximum(spread, 0.0, out=spread)
        np.add(spread, self.tau_dt, out=spread)
        np.sqrt(spread, out=spread)
        np.multiply(spread, row, out=spread)
        np.add(u, spread, out=row)
        # e = exp(2a) = exp(I dt / tau) and 2 e, every channel at once.
        np.multiply(row, self.dt_tau, out=e)
        np.exp(e, out=e)
        np.multiply(e, 2.0, out=e2)
        for l, (n, nonzero, dt_tau, phase_k) in enumerate(self.channels):
            if l:
                self._project(nonzero, u[l])
            # w = (1 + u) e^2 + (1 - u): the new n . r, (u + t) / (1 + u t)
            # = ((1 + u) e^2 - (1 - u)) / w, into b; the perpendicular scale 2 e / w into c.
            np.add(u[l], 1.0, out=b)
            np.multiply(b, e[l], out=b)
            np.multiply(b, e[l], out=b)
            np.subtract(1.0, u[l], out=c)
            np.add(b, c, out=d)
            np.subtract(b, c, out=b)
            np.divide(b, d, out=b)
            np.divide(e2[l], d, out=c)
            if phase_k != 0.0:
                # Turn by k I dt / tau: c becomes c cos, spare (c sin) n x r.
                for i in range(3):
                    j, k = (i + 1) % 3, (i + 2) % 3
                    np.multiply(r[k], n[j], out=spare[i])
                    np.multiply(r[j], n[k], out=a)
                    np.subtract(spare[i], a, out=spare[i])
                np.multiply(row[l], phase_k * dt_tau, out=a)
                np.sin(a, out=d)
                np.cos(a, out=a)
                np.multiply(d, c, out=d)
                np.multiply(c, a, out=c)
                np.multiply(spare, d, out=spare)
            # r' = c (r - u n) + b n: exact on a coordinate axis, where r_i - u n_i = 0.
            for i, n_i in nonzero:
                self._add_multiple(r[i], u[l], -n_i)
            np.multiply(r, c, out=r)
            for i, n_i in nonzero:
                self._add_multiple(r[i], b, n_i)
            if phase_k != 0.0:
                np.add(r, spare, out=r)
        if self.flow is not None:
            for j in range(3):
                spare[j] = self.flow[j, 3]
                for i in range(3):
                    np.multiply(r[i], self.flow[j, i], out=a)
                    np.add(spare[j], a, out=spare[j])
            r[:] = spare


def simulate_batch(config: SimConfig, start: int, stop: int, samples, states) -> None:
    """Simulate trajectories [start, stop) into their rows of samples and states.

    samples has shape (stop - start, n_channels, n_samples) and states, unless
    None, (stop - start, n_samples + 1, 3); row i holds trajectory start + i.
    """
    n_steps = config.n_samples
    n_ch = config.n_channels
    batch = stop - start

    # Each trajectory's draws wait in its own sample row; a block of steps
    # reads its draws from the rows before the samples made from them
    # overwrite them.
    for j in range(batch):
        samples[j] = trajectory_draws(config.master_seed, start + j, n_steps, n_ch).T

    step = _BayesStep(config, batch)
    if states is not None:
        states[:, 0, :] = step.r.T
    block = np.empty((_BLOCK_STEPS, n_ch, batch))
    tiles = [slice(j, j + _TILE_ROWS) for j in range(0, batch, _TILE_ROWS)]
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        steps = slice(k0, min(k0 + _BLOCK_STEPS, n_steps))
        part = block[:steps.stop - k0]
        for tile in tiles:
            part[:, :, tile] = samples[tile, :, steps].transpose(2, 1, 0)
        for k, row in enumerate(part, k0):
            step(row)
            if states is not None:
                states[:, k + 1, :] = step.r.T
        # A non-finite draw or state makes its step's sample (and a state,
        # every later one) non-finite: the first bad sample names the step.
        if not math.isfinite(part.sum()):
            k, _, j = np.argwhere(~np.isfinite(part))[0]
            raise IntegrationDivergedError(step_index=k0 + int(k), trajectory_index=start + int(j))
        samples[:, :, steps] = part.transpose(2, 1, 0)


def index_ranges(start: int, stop: int, step: int) -> list:
    """Cut [start, stop) into ranges that end on multiples of step.

    A trailing range of one index is folded into the range before it: a
    single trajectory cannot carry a standard error.
    """
    edges = [start, *range((start // step + 1) * step, stop, step), stop]
    ranges = list(zip(edges, edges[1:]))
    if len(ranges) > 1 and ranges[-1][1] - ranges[-1][0] < 2:
        ranges[-2:] = [(ranges[-2][0], stop)]
    return ranges


_attached = None


def _attach(fn):
    """Pool initializer: bind the per-batch function in the worker."""
    global _attached
    _attached = fn


def _run_attached(bounds):
    return _attached(bounds)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_batches(fn, batches, workers: int = 1):
    """Yield fn(bounds) for every batch bounds = (lo, hi), in batch order.

    The batches run in min(workers, available CPUs, batches) forked
    processes, or one after another in this process when that is 1. Fork
    hands fn to the workers as it is; only the bounds and fn's results are
    pickled, so fn returns counts or estimates, never samples.
    """
    n_procs = min(check_integer(workers, "workers", 1), _available_cpus(), len(batches))
    if n_procs == 1:
        yield from map(fn, batches)
        return
    # Imported here, not at the top: the process pool's imports add about
    # 15 ms to the start of every run, and runs with one worker never use them.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(n_procs, mp_context=get_context("fork"),
                             initializer=_attach, initargs=(fn,)) as pool:
        try:
            yield from pool.map(_run_attached, batches)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def simulate_range(config: SimConfig, start: int, stop: int, states: bool = False) -> RecordSet:
    """Simulate the trajectory index range [start, stop) of the ensemble in this process.

    The range is cut into batches of config.batch_size aligned to multiples
    of batch_size in the global index space (index_ranges), so every row is
    bit-identical to the same row of the full run. With states, the
    RecordSet also holds every trajectory's Bloch vector before each step
    and after the last, shape (stop - start, n_samples + 1, 3). A parallel
    ensemble is written with recordio.simulate_records and read back.
    """
    start, stop = check_integer(start, "start"), check_integer(stop, "stop")
    if not (0 <= start < stop <= config.n_traj):
        raise ValidationError(
            f"range [{start}, {stop}) invalid for an ensemble of {config.n_traj}"
        )
    samples = np.empty((stop - start, config.n_channels, config.n_samples))
    states = np.empty((stop - start, config.n_samples + 1, 3)) if states else None
    for lo, hi in index_ranges(start, stop, config.batch_size):
        rows = slice(lo - start, hi - start)
        simulate_batch(config, lo, hi, samples[rows], None if states is None else states[rows])
    return RecordSet(samples, config.dt, config.channels, config.master_seed,
                     states=states, traj_offset=start)


def simulate_ensemble(config: SimConfig, states: bool = False) -> RecordSet:
    """Simulate all config.n_traj trajectories; see simulate_range."""
    return simulate_range(config, 0, config.n_traj, states=states)
