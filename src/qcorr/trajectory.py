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
rescales the norm to remove (|B|^2 - sum_l |b_l|^2 dt) before clipping;
clipping then only trims O(dt^1.5) residuals and is counted in run metadata.
Tangential dynamics is untouched Euler-Maruyama.

Trajectories are embarrassingly parallel: states and noise streams are owned
by one worker at a time and results are collected by trajectory index, so
output never depends on worker count or scheduling. Batching is by fixed
batch_size (not by worker count) and the per-step arithmetic is written as
elementwise operations, making every trajectory's path bit-identical no
matter how it is batched.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bloch import EnsembleModel, MeasurementChannel, validate_state
from .errors import IntegrationDivergedError, ValidationError
from .noise import check_seed, trajectory_draws

DT_ERROR_FRACTION = 0.05
DT_WARN_FRACTION = 0.01
DEFAULT_BATCH_SIZE = 8192


class TimestepWarning(UserWarning):
    """dt is coarse relative to the fastest measurement time."""


@dataclass(frozen=True)
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
                stacklevel=2,
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


@dataclass(frozen=True)
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

    All contractions are written elementwise over the batch axis so the
    result of a row never depends on the other rows present in the batch.
    Returns (new_r, n_clipped).
    """
    n_channels = axes.shape[0]
    sqrt_dt = math.sqrt(dt)

    u0 = r[:, 0] - r_st[0]
    u1 = r[:, 1] - r_st[1]
    u2 = r[:, 2] - r_st[2]
    drift = np.empty_like(r)
    for j in range(3):
        drift[:, j] = (lam[j, 0] * u0 + lam[j, 1] * u1 + lam[j, 2] * u2) * dt

    disp = np.zeros_like(r)          # realized noise displacement B
    qvar = np.zeros(r.shape[0])      # sum_l |b_l|^2 dt
    for c in range(n_channels):
        n = axes[c]
        inv_sqrt_tau = 1.0 / math.sqrt(taus[c])
        nr = n[0] * r[:, 0] + n[1] * r[:, 1] + n[2] * r[:, 2]
        out_samples[:, c] = nr + math.sqrt(taus[c] / dt) * xi[:, c]
        # b_c = (n - (n.r) r) / sqrt(tau) + (phase_k / sqrt(tau)) (n x r)
        b0 = (n[0] - nr * r[:, 0]) * inv_sqrt_tau
        b1 = (n[1] - nr * r[:, 1]) * inv_sqrt_tau
        b2 = (n[2] - nr * r[:, 2]) * inv_sqrt_tau
        if phase_ks[c] != 0.0:
            k_tau = phase_ks[c] * inv_sqrt_tau
            b0 = b0 + k_tau * (n[1] * r[:, 2] - n[2] * r[:, 1])
            b1 = b1 + k_tau * (n[2] * r[:, 0] - n[0] * r[:, 2])
            b2 = b2 + k_tau * (n[0] * r[:, 1] - n[1] * r[:, 0])
        dw = sqrt_dt * xi[:, c]
        disp[:, 0] += b0 * dw
        disp[:, 1] += b1 * dw
        disp[:, 2] += b2 * dw
        qvar += (b0 * b0 + b1 * b1 + b2 * b2) * dt

    new_r = r + drift + disp

    # Remove the spurious radial quadratic variation |B|^2 - sum |b|^2 dt.
    norm2 = new_r[:, 0] ** 2 + new_r[:, 1] ** 2 + new_r[:, 2] ** 2
    spur = disp[:, 0] ** 2 + disp[:, 1] ** 2 + disp[:, 2] ** 2 - qvar
    target = np.maximum(norm2 - spur, 0.0)
    nontrivial = norm2 > 1e-24
    scale = np.ones_like(norm2)
    np.divide(target, norm2, out=scale, where=nontrivial)
    np.sqrt(scale, out=scale)
    new_r *= scale[:, None]

    norm2 = new_r[:, 0] ** 2 + new_r[:, 1] ** 2 + new_r[:, 2] ** 2
    outside = norm2 > 1.0
    n_clipped = int(np.count_nonzero(outside))
    if n_clipped:
        new_r[outside] /= np.sqrt(norm2[outside])[:, None]
    return new_r, n_clipped


def ito_step(r, lam, r_st, channels, dt, noise_draws):
    """Single Ito step of one state; reference entry point for the kernel.

    noise_draws holds one standard-normal value per channel. Returns
    (new_state, output_samples, clipped) with output_samples one per channel.
    """
    r = np.asarray(r, dtype=float).reshape(1, 3)
    axes, taus, phase_ks = _channel_arrays(channels)
    xi = np.asarray(noise_draws, dtype=float).reshape(1, -1)
    if xi.shape[1] != len(channels):
        raise ValidationError("noise_draws must supply one draw per channel")
    out = np.empty((1, len(channels)))
    new_r, n_clipped = _step_batch(
        r, np.asarray(lam, float), np.asarray(r_st, float), axes, taus, phase_ks, dt, xi, out
    )
    if not np.all(np.isfinite(new_r)):
        raise IntegrationDivergedError(step_index=0)
    return new_r[0], out[0], bool(n_clipped)


def _segment_step_table(config: SimConfig):
    """Per-step (lam, r_st) lookup; segment active at each bin start governs the bin."""
    model = config.model
    if model.t_start > 0.0:
        raise ValidationError("model must be defined from t=0 for trajectory simulation")
    table = []
    for k in range(config.n_samples):
        seg = model.segment_at(k * config.dt)
        table.append((seg.lam, seg.r_st))
    return table


def _simulate_batch(config: SimConfig, start: int, stop: int):
    """Simulate trajectories [start, stop); returns (samples, states, clipped)."""
    n_steps = config.n_samples
    n_ch = config.n_channels
    batch = stop - start
    axes, taus, phase_ks = _channel_arrays(config.channels)
    seg_table = _segment_step_table(config)

    noise = np.empty((n_steps, batch, n_ch))
    for j in range(batch):
        noise[:, j, :] = trajectory_draws(config.master_seed, start + j, n_steps, n_ch)

    r = np.tile(np.asarray(config.r_init, dtype=float), (batch, 1))
    samples = np.empty((batch, n_ch, n_steps))
    states = np.empty((batch, n_steps + 1, 3)) if config.store_states else None
    if states is not None:
        states[:, 0, :] = r
    out_k = np.empty((batch, n_ch))
    clipped = 0
    for k in range(n_steps):
        lam, r_st = seg_table[k]
        r, n_clip = _step_batch(r, lam, r_st, axes, taus, phase_ks, config.dt, noise[k], out_k)
        clipped += n_clip
        samples[:, :, k] = out_k
        if states is not None:
            states[:, k + 1, :] = r
        if not np.all(np.isfinite(r)):
            bad = int(np.flatnonzero(~np.isfinite(r).all(axis=1))[0])
            raise IntegrationDivergedError(step_index=k, trajectory_index=start + bad)
    return samples, states, clipped


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


def simulate_range(config: SimConfig, start: int, stop: int,
                   workers: int = 1, progress=None) -> RecordSet:
    """Simulate the trajectory index range [start, stop) of the ensemble.

    The range is cut into batches of config.batch_size aligned to multiples
    of batch_size in the global index space (index_ranges); workers only changes
    how batches are scheduled, never what they compute, so the result is
    bit-identical for any worker count. progress, when given, is called as
    progress(trajectories_done, range_size) after each finished batch.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if not (0 <= start < stop <= config.n_traj):
        raise ValidationError(
            f"range [{start}, {stop}) invalid for an ensemble of {config.n_traj}"
        )
    total = stop - start
    samples = np.empty((total, config.n_channels, config.n_samples))
    states = np.empty((total, config.n_samples + 1, 3)) if config.store_states else None
    bounds = index_ranges(start, stop, config.batch_size)
    clipped = 0
    done = 0

    def run_batch(lo_hi):
        lo, hi = lo_hi
        return lo, hi, _simulate_batch(config, lo, hi)

    def collect(lo, hi, result):
        nonlocal clipped, done
        block, state_block, n_clip = result
        samples[lo - start:hi - start] = block
        if states is not None:
            states[lo - start:hi - start] = state_block
        clipped += n_clip
        done += hi - lo
        if progress is not None:
            progress(done, total)

    if workers == 1 or len(bounds) == 1:
        for lo, hi, result in map(run_batch, bounds):
            collect(lo, hi, result)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for lo, hi, result in pool.map(run_batch, bounds):
                collect(lo, hi, result)

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
