import dataclasses
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr import (
    MagicMismatchError,
    MeasurementChannel,
    RecordFormatError,
    RecordSet,
    SimConfig,
    TruncatedRecordError,
    ValidationError,
    VersionMismatchError,
    build_ensemble_model,
    read_records,
    simulate_range,
    trajectory,
    write_records,
)
from qcorr.recordio import FORMAT_VERSION, MAGIC, _header, read_header


def sample_records(n_traj=3, n_channels=2, n_samples=17, seed=0):
    rng = np.random.default_rng(seed)
    channels = (
        MeasurementChannel((0.0, 0.0, 1.0), tau=0.65, eta=1.0),
        MeasurementChannel((1.0, 0.0, 0.0), tau=0.4, eta=0.8, phase_k=0.3),
    )[:n_channels]
    return RecordSet(
        samples=rng.standard_normal((n_traj, n_channels, n_samples)) * 8.0,
        dt=0.01,
        channels=channels,
        master_seed=123456789,
    )


def written_to_a_pipe(records) -> bytes:
    """The bytes write_records sends down a pipe, read by a thread as they come."""
    read_end, write_end = os.pipe()
    chunks = []
    with os.fdopen(read_end, "rb") as reader:
        thread = threading.Thread(target=lambda: chunks.extend(iter(lambda: reader.read(1 << 16),
                                                                     b"")))
        thread.start()
        try:
            write_records(f"/dev/fd/{write_end}", records)
        finally:
            os.close(write_end)
            thread.join(timeout=30)
    assert not thread.is_alive()
    return b"".join(chunks)


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 40), st.integers(2, 300),
           st.integers(0, 2 ** 32 - 1))
    def test_simulated_set_writes_the_bytes_of_its_contiguous_copy(self, n_traj, n_samples,
                                                                   cap, seed):
        # A simulated set is the trajectory-major view of a time-major
        # buffer; write_records cuts it in 128-row tiles, which need not
        # divide n_traj.
        assume(n_traj % 128)
        channels = sample_records().channels
        config = SimConfig(model=build_ensemble_model(channels), channels=channels,
                           r_init=(0.6, 0.0, 0.8), t_total=n_samples * 0.005, dt=0.005,
                           n_traj=n_traj, master_seed=seed)
        with mock.patch.object(trajectory, "DEFAULT_BATCH_SIZE", cap):
            records = simulate_range(config, 0, n_traj)
        assert not records.samples.flags.c_contiguous
        contiguous = dataclasses.replace(records, samples=np.ascontiguousarray(records.samples))
        with tempfile.TemporaryDirectory() as tmp:
            expected, written = Path(tmp) / "expected.qcr", Path(tmp) / "written.qcr"
            write_records(expected, contiguous)
            write_records(written, records)
            assert expected.read_bytes().endswith(contiguous.samples.tobytes())
            assert written.read_bytes() == expected.read_bytes()
            assert written_to_a_pipe(records) == expected.read_bytes()

    def test_payload_bit_exact(self, tmp_path):
        records = sample_records()
        path = tmp_path / "records.qcr"
        write_records(path, records)
        loaded = read_records(path)
        assert np.array_equal(loaded.samples, records.samples)
        assert loaded.dt == records.dt
        assert loaded.master_seed == records.master_seed
        assert loaded.channels == records.channels

    def test_file_bytes_stable(self, tmp_path):
        records = sample_records()
        a, b = tmp_path / "a.qcr", tmp_path / "b.qcr"
        write_records(a, records)
        write_records(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_write_read_write_identical(self, tmp_path):
        records = sample_records()
        first = tmp_path / "first.qcr"
        second = tmp_path / "second.qcr"
        write_records(first, records)
        write_records(second, read_records(first))
        assert first.read_bytes() == second.read_bytes()

    def test_payload_length_matches_header(self, tmp_path):
        records = sample_records(n_traj=5, n_channels=2, n_samples=11)
        path = tmp_path / "records.qcr"
        write_records(path, records)
        data = path.read_bytes()
        header_len = len(MAGIC) + 4 + 8 + 8 + 4 + 8 + 2 * 48 + 8
        assert len(data) - header_len == 5 * 2 * 11 * 8


def test_payload_is_copied_at_most_once(tmp_path):
    # About 8 MiB of samples: reading holds one copy of the payload and
    # writing none beyond the records passed in.
    records = sample_records(n_traj=256, n_channels=2, n_samples=2048)
    payload = records.samples.nbytes
    path = tmp_path / "records.qcr"
    tracemalloc.start()
    try:
        write_records(path, records)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = read_records(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.samples, records.samples)
    assert write_peak < 0.5 * payload
    assert read_peak < 1.5 * payload


class TestOffsetReads:
    @pytest.mark.parametrize("lo, hi", [(0, 7), (0, 0), (2, 5), (6, 7), (7, 7), (3, 3)])
    def test_range_equals_the_slice_of_the_full_read(self, tmp_path, lo, hi):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records(n_traj=7))
        full = read_records(path)
        part = read_records(path, lo, hi)
        assert part.samples.shape == (hi - lo, 2, 17)
        assert part.samples.tobytes() == full.samples[lo:hi].tobytes()
        assert part.traj_offset == lo
        assert (part.dt, part.channels, part.master_seed) == \
            (full.dt, full.channels, full.master_seed)

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (0, 8), (8, 8), (5, 4), (-2, -1)])
    def test_range_outside_the_file_refused(self, tmp_path, lo, hi):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records(n_traj=7))
        with pytest.raises(ValidationError, match=r"outside the file's \[0, 7\)"):
            read_records(path, lo, hi)

    def test_header_alone(self, tmp_path):
        path = tmp_path / "records.qcr"
        records = sample_records(n_traj=7)
        write_records(path, records)
        header = read_header(path)
        assert (header.dt, header.n_samples, header.n_channels, header.n_traj) == \
            (records.dt, records.n_samples, records.n_channels, records.n_traj)
        assert (header.channels, header.master_seed) == (records.channels, records.master_seed)


    @pytest.mark.parametrize("corrupt, error", [
        (lambda data: b"NOTQCOR" + data[7:], MagicMismatchError),
        (lambda data: data[:7] + bytes([FORMAT_VERSION + 1]) + data[8:], VersionMismatchError),
        (lambda data: data[:-5], TruncatedRecordError),
        (lambda data: data[:10], TruncatedRecordError),
        (lambda data: data + bytes(16), TruncatedRecordError),
    ], ids=["magic", "version", "payload", "header", "trailing"])
    @pytest.mark.parametrize("read", [lambda path: read_records(path, 1, 2), read_header],
                             ids=["range", "header"])
    def test_range_and_header_reads_check_the_container(self, tmp_path, corrupt, error, read):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records())
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(error):
            read(path)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    @pytest.mark.parametrize("read", [read_records, read_header], ids=["records", "header"])
    def test_header_dt_must_be_positive_and_finite(self, tmp_path, dt, read):
        records = sample_records()
        path = tmp_path / "records.qcr"
        path.write_bytes(_header(dt, records.n_samples, records.channels, records.n_traj,
                                 records.master_seed) + records.samples.astype("<f8").tobytes())
        with pytest.raises(RecordFormatError, match=f"dt must be positive and finite, got {dt}"):
            read(path)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records())
        data = bytearray(path.read_bytes())
        data[:7] = b"NOTQCOR"
        path.write_bytes(bytes(data))
        with pytest.raises(MagicMismatchError):
            read_records(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records())
        data = bytearray(path.read_bytes())
        data[7] = FORMAT_VERSION + 1
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            read_records(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records())
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TruncatedRecordError):
            read_records(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records())
        data = path.read_bytes()
        path.write_bytes(data[:10])
        with pytest.raises(TruncatedRecordError):
            read_records(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "records.qcr"
        write_records(path, sample_records())
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 16)
        with pytest.raises(TruncatedRecordError):
            read_records(path)
