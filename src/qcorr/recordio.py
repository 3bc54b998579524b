"""Binary container for record sets.

Layout (all little-endian), one file per ensemble, trajectories in index
order with channel-major float64 sample arrays:

    magic   7s   "QCORR01"
    version u32  (currently 1)
    dt      f64  (us)
    n_samples u64
    n_channels u32
    n_traj  u64
    per channel: axis 3*f64, tau f64, eta f64, phase_k f64
    master_seed u64
    payload: n_traj * n_channels * n_samples * f64

Round trips are bit-exact. Both directions move the payload between the
file and one contiguous array through its buffer, so neither holds a second
copy of it.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .bloch import MeasurementChannel
from .errors import MagicMismatchError, TruncatedRecordError, VersionMismatchError
from .trajectory import RecordSet

MAGIC = b"QCORR01"
FORMAT_VERSION = 1
_FIXED_HEADER = struct.Struct("<IdQIQ")
_CHANNEL = struct.Struct("<dddddd")
_SEED = struct.Struct("<Q")


def write_records(path, records: RecordSet) -> None:
    """Write a RecordSet to path in the container format above."""
    samples = np.ascontiguousarray(records.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_FIXED_HEADER.pack(
            FORMAT_VERSION,
            records.dt,
            records.n_samples,
            records.n_channels,
            records.n_traj,
        ))
        for ch in records.channels:
            ax = ch.axis_vector
            fh.write(_CHANNEL.pack(ax[0], ax[1], ax[2], ch.tau, ch.eta, ch.phase_k))
        fh.write(_SEED.pack(records.master_seed))
        fh.write(samples.reshape(-1).view(np.uint8))


def read_records(path) -> RecordSet:
    """Read a RecordSet written by write_records; validates the container."""
    with open(path, "rb") as fh:
        def take(n: int, what: str) -> bytes:
            offset = fh.tell()
            chunk = fh.read(n)
            if len(chunk) < n:
                raise TruncatedRecordError(
                    f"file ends inside {what} (need {n} bytes at offset {offset}, "
                    f"have {len(chunk)})"
                )
            return chunk

        magic = take(len(MAGIC), "magic")
        if magic != MAGIC:
            raise MagicMismatchError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, dt, n_samples, n_channels, n_traj = _FIXED_HEADER.unpack(
            take(_FIXED_HEADER.size, "header")
        )
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"unsupported format version {version}")
        channels = []
        for _ in range(n_channels):
            ax0, ax1, ax2, tau, eta, phase_k = _CHANNEL.unpack(
                take(_CHANNEL.size, "channel metadata")
            )
            channels.append(MeasurementChannel((ax0, ax1, ax2), tau, eta, phase_k))
        (master_seed,) = _SEED.unpack(take(_SEED.size, "master seed"))
        expected = n_traj * n_channels * n_samples * 8
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise TruncatedRecordError(
                f"payload holds {payload} bytes but the header implies {expected}"
            )
        samples = np.empty((n_traj, n_channels, n_samples), dtype="<f8")
        got = fh.readinto(samples.reshape(-1).view(np.uint8))
        if got != expected:
            raise TruncatedRecordError(
                f"payload holds {got} bytes but the header implies {expected}"
            )
    return RecordSet(
        samples=samples,
        dt=dt,
        channels=tuple(channels),
        master_seed=master_seed,
    )
