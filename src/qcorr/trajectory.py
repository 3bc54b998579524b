"""Stochastic trajectory integration of continuously monitored qubits.

The qubit state follows the Ito-form stochastic evolution

    dr = L (r - r_st) dt
         + sum_l [ (n_l - (n_l . r) r) / sqrt(tau_l)
                   + (phase_k_l / sqrt(tau_l)) (n_l x r) ] dW_l

driven by one Wiener increment per channel and step, while each channel
records the bin-averaged output sample

    I_l[k] = n_l . r(t_k) + sqrt(tau_l) dW_l / dt

whose noise part has variance tau_l / dt per bin. The same increment dW_l
drives both the state update and the sample, which is what correlates the
records with the conditioned state.

Integration is explicit Euler-Maruyama plus a radial correction: the raw
Euler step inflates |r|^2 by the realized quadratic variation |B|^2 of the
noise displacement instead of its Ito mean sum_l |b_l|^2 dt, a spurious
O(sqrt(dt)) random walk of the state norm that a plain clip to the unit ball
turns into a strong systematic bias of ensemble means. Each step therefore
rescales the norm to remove (|B|^2 - sum_l |b_l|^2 dt) before clipping any
state still outside the unit ball back onto it. Clipping is not rare: on the
two-detector preset (2000 trajectories) `qcorr simulate` reports a clip
fraction of 0.32 of all steps at dt = 0.01 us and 0.27 at dt = 0.005 us, so
it barely falls with dt. The count is kept in run metadata (clipped_steps).
Tangential dynamics is untouched Euler-Maruyama.

Trajectories are embarrassingly parallel: states and noise streams are owned
by one batch at a time and each batch writes its own rows of the result, so
output never depends on worker count or scheduling. Batching is by fixed
batch_size (not by worker count) and the per-step arithmetic is written as
elementwise operations, making every trajectory's path bit-identical no
matter how it is batched. map_batches runs any per-batch function over the
batches, in this process or in forked worker processes; only batch bounds
and the function's per-batch results cross a pipe. simulate_range's batches
write their rows in place into anonymous shared memory mappings holding the
range's samples (and states) and return per-batch counts; the replica scans
simulate and estimate each batch in the worker, so their samples never
leave it, and recordio.simulate_records writes each batch's rows into the
record file from the process that simulated it.

Layout: a batch keeps its states as one contiguous (3, batch) array, one row
per Bloch component, so every operation of the kernel runs over contiguous
memory. Each trajectory's draws are copied once, transposed to channel-major,
into that trajectory's own sample row; a few steps at a time they are
gathered into a small time-major (steps, channels, batch) block that the
kernel reads, and the samples it writes into a block of the same shape are
transposed back over the draws they were made from. A batch therefore holds
nothing beyond its rows and those two blocks.
"""

from __future__ import annotations

import math
import mmap
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bloch import EnsembleModel, MeasurementChannel, validate_state
from .errors import IntegrationDivergedError, ValidationError
from .noise import check_seed, trajectory_draws

DT_ERROR_FRACTION = 0.05
DT_WARN_FRACTION = 0.01
DEFAULT_BATCH_SIZE = 8192
# Steps per transposed noise/sample block. A block writes 16 consecutive
# samples (two 64-byte cache lines) of each record row at a time; 4-step
# blocks made the 20000 x 400 preset about 10% slower on a 2-vCPU x86 VM.
# Each batch in flight holds two (steps, channels, batch) blocks, 2 MiB each
# at batch 8192 and two channels, so much longer blocks show up in peak
# memory.
_BLOCK_STEPS = 16


class TimestepWarning(UserWarning):
    """dt is coarse relative to the fastest measurement time."""


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything needed to reproduce an ensemble of signal records."""

    model: EnsembleModel
    channels: tuple
    r_init: tuple
    t_total: float
    dt: float
    n_traj: int
    master_seed: int
    store_states: bool = False
    batch_size: int = DEFAULT_BATCH_SIZE

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
        if not (self.dt > 0.0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
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
        if self.n_traj < 1:
            raise ValidationError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.t_total < self.dt:
            raise ValidationError(f"t_total={self.t_total} shorter than one step dt={self.dt}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        check_seed(self.master_seed)

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.t_total / self.dt + 1e-9))

    @property
    def n_channels(self) -> int:
        return len(self.channels)


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
    clipped_steps: int = 0
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

    @property
    def clip_fraction(self) -> float:
        return self.clipped_steps / float(self.n_traj * self.n_samples)


def _channel_arrays(channels):
    axes = np.array([ch.axis_vector for ch in channels])
    taus = np.array([ch.tau for ch in channels])
    phase_ks = np.array([ch.phase_k for ch in channels])
    return axes, taus, phase_ks


def _step_batch(r, lam, r_st, axes, taus, phase_ks, dt, xi, out_samples):
    """Advance a batch of states one step and record their output samples.

    r has shape (3, batch), one state per column; xi and out_samples have
    shape (n_channels, batch). All contractions are written elementwise over
    the batch axis so the result of a column never depends on the other
    columns present in the batch. Returns (new_r, n_clipped).
    """
    n_channels = axes.shape[0]
    sqrt_dt = math.sqrt(dt)
    x, y, z = r

    u0 = x - r_st[0]
    u1 = y - r_st[1]
    u2 = z - r_st[2]
    drift = np.empty_like(r)
    for j in range(3):
        drift[j] = (lam[j, 0] * u0 + lam[j, 1] * u1 + lam[j, 2] * u2) * dt

    disp = np.zeros_like(r)          # realized noise displacement B
    qvar = np.zeros(r.shape[1])      # sum_l |b_l|^2 dt
    for c in range(n_channels):
        n = axes[c]
        inv_sqrt_tau = 1.0 / math.sqrt(taus[c])
        nr = n[0] * x + n[1] * y + n[2] * z
        out_samples[c] = nr + math.sqrt(taus[c] / dt) * xi[c]
        # b_c = (n - (n.r) r) / sqrt(tau) + (phase_k / sqrt(tau)) (n x r)
        b0 = (n[0] - nr * x) * inv_sqrt_tau
        b1 = (n[1] - nr * y) * inv_sqrt_tau
        b2 = (n[2] - nr * z) * inv_sqrt_tau
        if phase_ks[c] != 0.0:
            k_tau = phase_ks[c] * inv_sqrt_tau
            b0 = b0 + k_tau * (n[1] * z - n[2] * y)
            b1 = b1 + k_tau * (n[2] * x - n[0] * z)
            b2 = b2 + k_tau * (n[0] * y - n[1] * x)
        dw = sqrt_dt * xi[c]
        disp[0] += b0 * dw
        disp[1] += b1 * dw
        disp[2] += b2 * dw
        qvar += (b0 * b0 + b1 * b1 + b2 * b2) * dt

    new_r = r + drift + disp

    # Remove the spurious radial quadratic variation |B|^2 - sum |b|^2 dt.
    norm2 = new_r[0] ** 2 + new_r[1] ** 2 + new_r[2] ** 2
    spur = disp[0] ** 2 + disp[1] ** 2 + disp[2] ** 2 - qvar
    target = np.maximum(norm2 - spur, 0.0)
    nontrivial = norm2 > 1e-24
    scale = np.ones_like(norm2)
    np.divide(target, norm2, out=scale, where=nontrivial)
    np.sqrt(scale, out=scale)
    new_r *= scale

    norm2 = new_r[0] ** 2 + new_r[1] ** 2 + new_r[2] ** 2
    outside = norm2 > 1.0
    n_clipped = int(np.count_nonzero(outside))
    if n_clipped:
        new_r[:, outside] /= np.sqrt(norm2[outside])
    return new_r, n_clipped


def _simulate_batch(config: SimConfig, start: int, stop: int, samples, states) -> int:
    """Simulate trajectories [start, stop) into their rows of samples and states.

    samples has shape (stop - start, n_channels, n_samples) and states, unless
    None, (stop - start, n_samples + 1, 3); row i holds trajectory start + i.
    Returns the number of clipped steps.
    """
    n_steps = config.n_samples
    n_ch = config.n_channels
    batch = stop - start
    axes, taus, phase_ks = _channel_arrays(config.channels)
    lam, r_st = config.model.lam, config.model.r_st

    # Each trajectory's draws wait in its own sample row; a block of steps
    # reads its draws from the rows before the samples made from them
    # overwrite them.
    for j in range(batch):
        samples[j] = trajectory_draws(config.master_seed, start + j, n_steps, n_ch).T

    r = np.empty((3, batch))
    r[:] = np.asarray(config.r_init, dtype=float)[:, None]
    if states is not None:
        states[:, 0, :] = r.T
    xi = np.empty((_BLOCK_STEPS, n_ch, batch))
    out = np.empty((_BLOCK_STEPS, n_ch, batch))
    clipped = 0
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        steps = range(k0, min(k0 + _BLOCK_STEPS, n_steps))
        xi_block = xi[:len(steps)]
        out_block = out[:len(steps)]
        xi_block[:] = samples[:, :, steps.start:steps.stop].transpose(2, 1, 0)
        for k, xi_k, out_k in zip(steps, xi_block, out_block):
            r, n_clip = _step_batch(r, lam, r_st, axes, taus, phase_ks, config.dt, xi_k, out_k)
            clipped += n_clip
            if states is not None:
                states[:, k + 1, :] = r.T
            if not np.all(np.isfinite(r)):
                bad = int(np.flatnonzero(~np.isfinite(r).all(axis=0))[0])
                raise IntegrationDivergedError(step_index=k, trajectory_index=start + bad)
        samples[:, :, steps.start:steps.stop] = out_block.transpose(2, 1, 0)
    return clipped


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


def _run_batch(config, start, samples, states, bounds) -> tuple:
    """Simulate batch bounds = (lo, hi) into its rows; (trajectories, clipped steps)."""
    lo, hi = bounds
    rows = slice(lo - start, hi - start)
    batch_states = None if states is None else states[rows]
    return hi - lo, _simulate_batch(config, lo, hi, samples[rows], batch_states)


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


def _pool_size(workers: int, n_batches: int) -> int:
    """Processes that map_batches runs n_batches batches in (1: this one)."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return min(workers, _available_cpus(), n_batches)


def map_batches(fn, batches, workers: int = 1):
    """Yield fn(bounds) for every batch bounds = (lo, hi), in batch order.

    With workers > 1 the batches run in min(workers, available CPUs,
    batches) forked processes, otherwise one after another in this process.
    Fork hands fn to the workers as it is, so it may hold arrays on shared
    mappings; only the bounds and fn's results are pickled.
    """
    n_procs = _pool_size(workers, len(batches))
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


def _shared_empty(shape) -> np.ndarray:
    """Uninitialised float64 array on an anonymous shared mapping.

    Forked workers write into the same pages; the array keeps its mapping
    alive, and the mapping is unmapped once the array is gone.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def simulate_range(config: SimConfig, start: int, stop: int,
                   workers: int = 1, progress=None) -> RecordSet:
    """Simulate the trajectory index range [start, stop) of the ensemble.

    The range is cut into batches of config.batch_size aligned to multiples
    of batch_size in the global index space (index_ranges); workers only changes
    how batches are scheduled (map_batches), never what they compute, so the
    result is bit-identical for any worker count. With several worker
    processes the batches write their rows into shared memory. progress,
    when given, is called as progress(trajectories_done, range_size) after
    each finished batch.
    """
    if not (0 <= start < stop <= config.n_traj):
        raise ValidationError(
            f"range [{start}, {stop}) invalid for an ensemble of {config.n_traj}"
        )
    total = stop - start
    bounds = index_ranges(start, stop, config.batch_size)
    empty = np.empty if _pool_size(workers, len(bounds)) == 1 else _shared_empty
    samples = empty((total, config.n_channels, config.n_samples))
    states = empty((total, config.n_samples + 1, 3)) if config.store_states else None
    clipped = 0
    done = 0
    run = partial(_run_batch, config, start, samples, states)
    for n_done, n_clip in map_batches(run, bounds, workers):
        clipped += n_clip
        done += n_done
        if progress is not None:
            progress(done, total)

    return RecordSet(
        samples=samples,
        dt=config.dt,
        channels=config.channels,
        master_seed=config.master_seed,
        clipped_steps=clipped,
        states=states,
        traj_offset=start,
    )


def simulate_ensemble(config: SimConfig, workers: int = 1, progress=None) -> RecordSet:
    """Simulate all config.n_traj trajectories; see simulate_range."""
    return simulate_range(config, 0, config.n_traj, workers=workers, progress=progress)
