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
copy of it. simulate_records, the way to simulate an ensemble in
parallel, never holds the whole payload: after a zeroed placeholder of the
header, each of map_batches' processes simulates its batches into one
buffer, kept for the whole run, and writes their rows at their offset, so a
file of any size is written through one batch of samples per process. An
existing file is rewritten in place and cut to the container's size at the
end. The header goes in last, so every reader refuses the zeroed magic of
a run that never got there. read_records can read any range of trajectory
rows, so a reader can stream a file through a bounded footprint;
read_header checks the container without reading the payload.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from collections import namedtuple
from contextlib import closing, suppress
from functools import partial

import numpy as np

from .bloch import MeasurementChannel
from .errors import (
    MagicMismatchError,
    RecordFormatError,
    TruncatedRecordError,
    ValidationError,
    VersionMismatchError,
    check_integer,
)
from . import trajectory
from .trajectory import RecordSet, SimConfig, index_ranges, map_batches

MAGIC = b"QCORR01"
FORMAT_VERSION = 1
_FIXED_HEADER = struct.Struct("<IdQIQ")
_CHANNEL = struct.Struct("<dddddd")
_SEED = struct.Struct("<Q")


def _header(dt: float, n_samples: int, channels, n_traj: int, master_seed: int) -> bytes:
    """The container header that precedes the payload, as written to the file."""
    parts = [MAGIC, _FIXED_HEADER.pack(FORMAT_VERSION, dt, n_samples, len(channels), n_traj)]
    for ch in channels:
        ax = ch.axis_vector
        parts.append(_CHANNEL.pack(ax[0], ax[1], ax[2], ch.tau, ch.eta, ch.phase_k))
    parts.append(_SEED.pack(master_seed))
    return b"".join(parts)


def write_records(path, records: RecordSet) -> None:
    """Write a RecordSet to path in the container format above.

    The file is truncated and written front to back, so path may be a pipe.
    """
    samples = np.ascontiguousarray(records.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_header(records.dt, records.n_samples, records.channels, records.n_traj,
                         records.master_seed))
        fh.write(samples.reshape(-1).view(np.uint8))


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write the bytes of a C-contiguous buffer at offset of fd, looping on short writes."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _write_batch(config: SimConfig, fd: int, payload_offset: int, buffer, bounds) -> int:
    """Simulate batch bounds = (lo, hi) into the first rows of buffer and write them at
    their offset; returns the batch's trajectory count."""
    lo, hi = bounds
    samples = buffer[:hi - lo]
    trajectory.simulate_batch(config, lo, hi, samples, None)
    _pwrite_all(fd, samples, payload_offset + lo * samples[0].nbytes)
    return hi - lo


def simulate_records(path, config: SimConfig, workers: int = 1, progress=None) -> None:
    """Simulate config's ensemble straight into a record file.

    The file is byte-identical to write_records(path, simulate_ensemble(config)).
    An existing file at path is rewritten in place, not truncated first, so
    a rerun overwrites the old record's cached pages instead of freeing and
    allocating them again. A zeroed placeholder of the header is written
    first; then map_batches runs every batch of index_ranges on one of up
    to workers processes, which simulates it into one buffer of the longest
    batch's rows and writes its rows at their offset. After the last batch
    a regular file is cut to the container's size (a non-regular output
    such as /dev/null is never truncated) and the header is written over
    the placeholder. The buffer is made once per run and untouched until a
    batch fills it, so a process holds one batch of samples for the whole
    run, and with several workers (forked, each filling its own copy) the
    calling process holds none. Until the header lands, a reader finds the
    zeroed magic and read_header refuses the file as unfinished: a run
    killed without an exception (SIGKILL, out of memory) leaves such a
    file, of full length if batches landed out of order and at least as
    long as an older file it was rewriting. States are not simulated: the
    container stores none. path must be seekable. On any error a regular
    output file is removed before the error propagates. progress, when
    given, is called as progress(trajectories_done, n_traj) after each
    finished batch, before the header is written.
    """
    header = _header(config.dt, config.n_samples, config.channels, config.n_traj,
                     config.master_seed)
    bounds = index_ranges(0, config.n_traj, config.batch_size)
    rows = max(hi - lo for lo, hi in bounds)
    buffer = np.empty((rows, config.n_channels, config.n_samples), dtype="<f8")
    done = 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            _pwrite_all(fd, bytes(len(header)), 0)
            task = partial(_write_batch, config, fd, len(header), buffer)
            with closing(map_batches(task, bounds, workers)) as batches:
                for n_done in batches:
                    done += n_done
                    if progress is not None:
                        progress(done, config.n_traj)
            if regular:
                os.ftruncate(fd, len(header) + config.n_traj * buffer[0].nbytes)
            _pwrite_all(fd, header, 0)
        except BaseException:
            if regular:
                with suppress(OSError):
                    os.unlink(path)
            raise
    finally:
        os.close(fd)


class RecordHeader(namedtuple("RecordHeader", "dt n_samples channels n_traj master_seed")):
    """What a record file's header says about its payload.

    A named tuple rather than a dataclass: it is built on every import, and
    a dataclass costs about ten times as long to build.
    """

    __slots__ = ()

    @property
    def n_channels(self) -> int:
        return len(self.channels)


def _read_header(fh) -> RecordHeader:
    """Parse and check the header at the start of fh, leaving fh at the payload.

    Raises MagicMismatchError (saying unfinished for the zeroed magic that
    simulate_records leaves until its last batch), VersionMismatchError or
    TruncatedRecordError, and RecordFormatError for a dt that is not
    positive and finite; the file's size must match the payload the header
    implies.
    """
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
    if magic == bytes(len(MAGIC)):
        raise MagicMismatchError(
            "unfinished record file: its magic is zeroed, as simulate_records "
            "leaves it until every batch is written"
        )
    if magic != MAGIC:
        raise MagicMismatchError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, dt, n_samples, n_channels, n_traj = _FIXED_HEADER.unpack(
        take(_FIXED_HEADER.size, "header")
    )
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    if not (0.0 < dt < math.inf):
        raise RecordFormatError(f"header dt must be positive and finite, got {dt}")
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
    return RecordHeader(dt, n_samples, tuple(channels), n_traj, master_seed)


def read_header(path) -> RecordHeader:
    """The checked header of a record file, without reading its payload."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def read_records(path, start: int = 0, stop: int | None = None) -> RecordSet:
    """Read trajectories [start, stop) of a file written by write_records.

    Validates the whole container (header and payload length) and reads only
    the requested rows, straight into the returned array; its traj_offset is
    start. stop defaults to the file's trajectory count.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        start = check_integer(start, "start")
        stop = header.n_traj if stop is None else check_integer(stop, "stop")
        if not (0 <= start <= stop <= header.n_traj):
            raise ValidationError(
                f"trajectory range [{start}, {stop}) outside the file's "
                f"[0, {header.n_traj})"
            )
        samples = np.empty((stop - start, header.n_channels, header.n_samples), dtype="<f8")
        fh.seek(start * header.n_channels * header.n_samples * 8, os.SEEK_CUR)
        got = fh.readinto(samples.reshape(-1).view(np.uint8))
        if got != samples.nbytes:
            raise TruncatedRecordError(
                f"payload holds {got} bytes where rows [{start}, {stop}) need {samples.nbytes}"
            )
    return RecordSet(
        samples=samples,
        dt=header.dt,
        channels=header.channels,
        master_seed=header.master_seed,
        traj_offset=start,
    )
