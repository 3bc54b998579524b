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
Rabi drive, environment and the (1 / eta_l - 1) share of the dephasing. A
model whose rest would push states out of the Bloch ball is refused when
its SimConfig is built. So nothing is ever clipped, ideal monitoring keeps
pure states pure to rounding, and a state on the sole measured axis stays
there bit for bit.

Output never depends on worker count, scheduling or batch size: each
trajectory owns its noise stream, batches are cut at fixed multiples of
batch_size and write their own rows, and every step is elementwise over the
batch axis. map_batches runs a per-batch function here or in forked
workers; only batch bounds and per-batch results cross a pipe. A batch
holds its rows, two small time-major (steps, channels, batch) blocks that
carry draws in and samples out, and its (batch,) scratch rows.
"""

from __future__ import annotations

import math
import mmap
import os
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bloch import EnsembleModel, MeasurementChannel, measurement_dephasing_generator, validate_state
from .errors import IntegrationDivergedError, ValidationError
from .linalg import affine_flow
from .noise import check_seed, trajectory_draws

DT_ERROR_FRACTION = 0.05
DT_WARN_FRACTION = 0.01
DEFAULT_BATCH_SIZE = 8192
# Steps per transposed noise/sample block: 16 consecutive samples (two 64-byte
# cache lines) of each record row at a time; 4-step blocks made the 20000 x 400
# preset about 10% slower on a 2-vCPU x86 VM. Each batch in flight holds two
# (steps, channels, batch) blocks, 2 MiB each at batch 8192 and two channels.
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
        for name in ("n_traj", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if not math.isfinite(self.t_total):
            raise ValidationError(f"t_total must be finite, got {self.t_total}")
        if self.t_total < self.dt:
            raise ValidationError(f"t_total={self.t_total} shorter than one step dt={self.dt}")
        check_seed(self.master_seed)
        # The step's flow of lam - event_dephasing must not stretch the Bloch
        # ball (as lam = 0 with a measured channel would): no quantum map does.
        rest = self.model.lam - event_dephasing(channels)
        top = float(np.linalg.eigvalsh(0.5 * (rest + rest.T))[-1])
        if top > 1e-12 * (1.0 + float(np.abs(self.model.lam).max())):
            raise ValidationError(f"model generator lacks its channels' measurement dephasing: lam "
                                  f"minus it stretches the Bloch ball at rate {top:.6g}/us")

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
    cut into ranges. clipped_steps is always 0, as no step clips; the
    benchmark tracer reads it until runs report their own health.
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


def event_dephasing(channels) -> np.ndarray:
    """The part of lam that the event maps supply: the dephasing at eta = 1.

    The Bayesian update dephases by 1 / (2 tau), the phase kick by phase_k^2 / (2 tau).
    """
    return measurement_dephasing_generator(replace(ch, eta=1.0) for ch in channels)


class _BayesStep:
    """The Bayesian step of one batch: states r (3, batch), one per column.

    A step updates r in place, elementwise, writing only into arrays allocated here.
    """

    def __init__(self, config: SimConfig, batch: int):
        # Per channel: n, its nonzero components (i, n_i), dt/tau and phase_k.
        self.channels = [(ch.axis_vector, [(i, n_i) for i, n_i in enumerate(ch.axis) if n_i != 0.0],
                          config.dt / ch.tau, ch.phase_k) for ch in config.channels]
        self.tau_dt = np.array([[ch.tau / config.dt] for ch in config.channels])
        g = affine_flow(config.model.lam, config.model.r_st, config.dt,
                        applied=event_dephasing(config.channels))
        self.flow = None if np.array_equal(g, np.eye(4)) else g[:3]
        self.r = np.repeat(np.asarray(config.r_init, dtype=float)[:, None], batch, axis=1)
        self.u, self.spread = np.empty((2, len(self.channels), batch))
        self.work = np.empty((7, batch))  # four scratch rows, then a spare (3, batch)

    def _project(self, nonzero, out) -> None:
        """out = n . r over the nonzero components of n."""
        for m, (i, n_i) in enumerate(nonzero):
            np.multiply(self.r[i], n_i, out=out if m == 0 else self.work[3])
            if m:
                np.add(out, self.work[3], out=out)

    def __call__(self, xi, out) -> None:
        """Write the samples of r into out, then step r; xi, out: (n_channels, batch)."""
        r, u, spread, spare = self.r, self.u, self.spread, self.work[4:]
        a, b, c, d = self.work[:4]
        for l, (_, nonzero, _, _) in enumerate(self.channels):
            self._project(nonzero, u[l])
        np.multiply(u, u, out=spread)
        np.subtract(1.0, spread, out=spread)
        np.maximum(spread, 0.0, out=spread)
        np.add(spread, self.tau_dt, out=spread)
        np.sqrt(spread, out=spread)
        np.multiply(spread, xi, out=spread)
        np.add(u, spread, out=out)
        for l, (n, nonzero, dt_tau, phase_k) in enumerate(self.channels):
            if l:
                self._project(nonzero, u[l])
            # e = exp(2a), w = (1 + u) e^2 + (1 - u): the new n . r, (u + t) / (1 + u t)
            # = ((1 + u) e^2 - (1 - u)) / w, into b; the perpendicular scale 2 e / w into c.
            np.multiply(out[l], dt_tau, out=a)
            np.exp(a, out=a)
            np.add(u[l], 1.0, out=b)
            np.multiply(b, a, out=b)
            np.multiply(b, a, out=b)
            np.subtract(1.0, u[l], out=c)
            np.add(b, c, out=d)
            np.subtract(b, c, out=b)
            np.divide(b, d, out=b)
            np.multiply(a, 2.0, out=c)
            np.divide(c, d, out=c)
            if phase_k != 0.0:
                # Turn by k I dt / tau: c becomes c cos, spare (c sin) n x r.
                for i in range(3):
                    j, k = (i + 1) % 3, (i + 2) % 3
                    np.multiply(r[k], n[j], out=spare[i])
                    np.multiply(r[j], n[k], out=a)
                    np.subtract(spare[i], a, out=spare[i])
                np.multiply(out[l], phase_k * dt_tau, out=a)
                np.sin(a, out=d)
                np.cos(a, out=a)
                np.multiply(d, c, out=d)
                np.multiply(c, a, out=c)
                np.multiply(spare, d, out=spare)
            # r' = c (r - u n) + b n: exact on a coordinate axis, where r_i - u n_i = 0.
            for i, n_i in nonzero:
                np.multiply(u[l], n_i, out=a)
                np.subtract(r[i], a, out=r[i])
            np.multiply(r, c, out=r)
            for i, n_i in nonzero:
                np.multiply(b, n_i, out=a)
                np.add(r[i], a, out=r[i])
            if phase_k != 0.0:
                np.add(r, spare, out=r)
        if self.flow is not None:
            for j in range(3):
                spare[j] = self.flow[j, 3]
                for i in range(3):
                    np.multiply(r[i], self.flow[j, i], out=a)
                    np.add(spare[j], a, out=spare[j])
            r[:] = spare


def _simulate_batch(config: SimConfig, start: int, stop: int, samples, states) -> None:
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
    xi = np.empty((_BLOCK_STEPS, n_ch, batch))
    out = np.empty((_BLOCK_STEPS, n_ch, batch))
    for k0 in range(0, n_steps, _BLOCK_STEPS):
        steps = range(k0, min(k0 + _BLOCK_STEPS, n_steps))
        xi_block = xi[:len(steps)]
        out_block = out[:len(steps)]
        xi_block[:] = samples[:, :, steps.start:steps.stop].transpose(2, 1, 0)
        for k, xi_k, out_k in zip(steps, xi_block, out_block):
            step(xi_k, out_k)
            if states is not None:
                states[:, k + 1, :] = step.r.T
        # A non-finite draw or state makes its step's sample (and a state,
        # every later one) non-finite: the first bad sample names the step.
        if not math.isfinite(out_block.sum()):
            k, _, j = np.argwhere(~np.isfinite(out_block))[0]
            raise IntegrationDivergedError(step_index=k0 + int(k), trajectory_index=start + int(j))
        samples[:, :, steps.start:steps.stop] = out_block.transpose(2, 1, 0)


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


def _run_batch(config, start, samples, states, bounds) -> int:
    """Simulate batch bounds = (lo, hi) into its rows; returns its trajectory count."""
    lo, hi = bounds
    rows = slice(lo - start, hi - start)
    _simulate_batch(config, lo, hi, samples[rows], None if states is None else states[rows])
    return hi - lo


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
    done = 0
    run = partial(_run_batch, config, start, samples, states)
    for n_done in map_batches(run, bounds, workers):
        done += n_done
        if progress is not None:
            progress(done, total)

    return RecordSet(
        samples=samples,
        dt=config.dt,
        channels=config.channels,
        master_seed=config.master_seed,
        states=states,
        traj_offset=start,
    )


def simulate_ensemble(config: SimConfig, workers: int = 1, progress=None) -> RecordSet:
    """Simulate all config.n_traj trajectories; see simulate_range."""
    return simulate_range(config, 0, config.n_traj, workers=workers, progress=progress)
