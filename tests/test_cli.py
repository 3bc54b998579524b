import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import qcorr.cli as cli_module
import qcorr.replica as replica_module
import qcorr.trajectory as trajectory_module
from qcorr import (
    MagicMismatchError,
    MeasurementChannel,
    RecordSet,
    ReplicaConfig,
    TimestepWarning,
    Window,
    empirical,
    parse_config,
    replica_model,
    simulate_ensemble,
    simulate_records,
    write_records,
)
from qcorr.cli import main
from qcorr.recordio import FORMAT_VERSION, read_header

CONFIG = {
    "channels": [
        {"axis": [0.0, 0.0, 1.0], "tau_us": 0.65},
        {"axis": [float(np.sin(0.6 * np.pi)), 0.0, float(np.cos(0.6 * np.pi))], "tau_us": 0.65},
    ],
    "sim": {
        "dt_us": 0.01, "t_total_us": 2.2, "n_traj": 1500, "seed": 424242,
        "r_init": [float(np.sin(0.3 * np.pi)), 0.0, float(np.cos(0.3 * np.pi))],
    },
}

SPECS = [
    {
        "window": {"t_a_us": 0.5, "T_us": 0.3},
        "gaps": [{"channel": 0, "dt_us": 0.0}, {"channel": 1, "dt_us": 0.4}],
    },
    {
        "window": {"t_a_us": 0.5, "T_us": 0.3},
        "gaps": [{"channel": 0, "dt_us": 0.0}, {"channel": 1, "dt_us": 1.0}],
    },
]

# (t_a_us, T_us, [(channel, gap_us), ...]) of the estimate byte pin.
PINNED_SPECS = [
    (0.2, 0.3, [(0, 0.0), (1, 0.4)]),
    (0.2, 0.3, [(0, 0.0), (1, 0.4), (0, 1.0)]),
    (0.2, 0.3, [(0, 0.0), (1, 0.4), (1, 1.3)]),
    (0.5, 0.4, [(0, 0.0), (1, 0.4), (0, 1.0)]),
    (0.5, 0.4, [(0, 0.0)]),
    (0.2, 0.3, [(1, 0.0)]),
    (0.1, 0.1, [(0, 0.0), (0, 0.0)]),
    (0.3, 0.5, [(0, 0.0), (1, 0.3), (0, 0.6), (1, 0.9)]),
]
# Re-recorded when each trajectory's window came to be summed in float64
# instead of long double (the ensemble sums stayed long double): 4 of the 8
# values moved, by at most 2.1e-16 of their standard error; no standard
# error moved. Re-recorded again when the Euler step gave way to the
# Bayesian step, which changes every record bit. Re-recorded when each
# spec's last event and window sum became one einsum (a new summation
# order inside each window): 5 of the 8 values moved, by at most 3.4e-16
# of their standard error; no standard error moved.
PINNED_ESTIMATE_SHA256 = "d9bd477f3906b600396808f7d4bd37dee38051c2d69a9946e930985cc4992443"

PRESETS = resources.files("qcorr").joinpath("presets")
PRESET = PRESETS.joinpath("two_detector_sim.json")
# The preset's dt = 0.01 us against tau = 0.65 us, as the command-line tool prints it.
PRESET_WARNING = ("warning: dt=0.01 is 0.015 of the fastest measurement time; "
                  "expect visible discretization error\n")
FOUR_EVENT_SPEC = {
    "initial": {"r": [0.6, 0.0, 0.8], "t_us": 0.2},
    "events": [{"channel": 0, "t_us": 0.5}, {"channel": 1, "t_us": 0.9},
               {"channel": 0, "t_us": 1.4}, {"channel": 1, "t_us": 1.8}],
}
# Non-unital and Rabi-driven, with phase backaction on channel 0.
DRIVEN_CONFIG = dict(
    CONFIG,
    channels=[{"axis": [0.0, 0.0, 1.0], "tau_us": 0.65, "phase_k": 0.8},
              {"axis": CONFIG["channels"][1]["axis"], "tau_us": 0.9, "eta": 0.7}],
    hamiltonian={"rabi_axis": [0.0, 1.0, 0.0], "rabi_freq_rad_per_us": 3.0},
    environment={"lambda": [[-0.4, 0.0, 0.0], [0.0, -0.4, 0.0], [0.0, 0.0, -0.8]],
                 "r_st": [0.0, 0.0, -0.5]},
)
# The kick sits before the last event of every entry but the last, which
# brute force therefore evaluates too.
DRIVEN_SPECS = SPECS + [FOUR_EVENT_SPEC, {
    "events": [{"channel": 1, "t_us": 0.3}, {"channel": 0, "t_us": 0.7}],
}]
# sha256 of `qcorr analytic --out` bytes. Recorded before and after the gap
# and event maps became 4x4 arrays on (v, c). Preset: value and chain moved
# by at most 1.4e-16 relative, brute_force by 1.7e-16, factorized and the
# key columns unchanged. Driven: unchanged.
PRESET_ANALYTIC_SHA256 = "8adf62e48f88dcf9cc84ea5c70baa8b0147f30fbd8e98b549d7dfcbe666355d5"
DRIVEN_ANALYTIC_SHA256 = "3949816dc80ca8297a87178ecf402efc8f7ac986e32c04beb955bab2b7d90b71"


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    spec = tmp_path / "specs.json"
    spec.write_text(json.dumps(SPECS))
    return tmp_path, config, spec


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def sim_config(tmp, **sim):
    """CONFIG with the given sim keys replaced, written to tmp/config.json."""
    path = tmp / "config.json"
    path.write_text(json.dumps(dict(CONFIG, sim=dict(CONFIG["sim"], **sim))))
    return path


class TestSimulate:
    def test_row_past_the_batch_budget_refused_before_any_buffer(self, tmp_path, capsys):
        # At dt 1e-9 a preset row holds 2 x 3999999999 samples: numpy was
        # asked for a (3, 2, 3999999999) buffer. The config is refused first.
        out = tmp_path / "x.qcr"
        assert main(["simulate", "--config", str(PRESETS.joinpath("two_detector_sim.json")),
                     "--n-traj", "3", "--dt", "1e-9", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config: a record row of 2 x 3999999999 samples (63999999984 bytes) "
                       "leaves no batch of 2 rows within 268435456 bytes; raise dt or shorten "
                       "t_total"]
        assert not out.exists()

    def test_drift_out_of_the_bloch_ball_refused_before_any_record(self, tmp_path, capsys):
        # Relaxation toward (1, 0, 0) at 0.5/us, the x-y dephasing the z
        # channel leaves, and z relaxing at 0.01/us: the ensemble state
        # would leave the Bloch ball.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "channels": [{"axis": [0.0, 0.0, 1.0], "tau_us": 0.5, "eta": 1.0}],
            "environment": {"lambda": [[-0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.01]],
                            "r_st": [1.0, 0.0, 0.0]},
            "sim": {"dt_us": 0.005, "t_total_us": 2.0, "n_traj": 200, "seed": 1,
                    "r_init": [0.0, 0.0, 1.0]},
        }))
        out = tmp_path / "records.qcr"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        assert "no Lindblad generator" in err[0]
        assert not out.exists()

    def test_writes_records(self, workspace, capsys):
        tmp, config, _ = workspace
        out = tmp / "records.qcr"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--n-traj", "50"]) == 0
        assert out.exists()
        assert "50 trajectories" in capsys.readouterr().out

    def test_deterministic_bytes_across_runs_and_workers(self, workspace):
        tmp, config, _ = workspace
        a, b = tmp / "a.qcr", tmp / "b.qcr"
        main(["simulate", "--config", str(config), "--out", str(a),
              "--n-traj", "120", "--workers", "1"])
        main(["simulate", "--config", str(config), "--out", str(b),
              "--n-traj", "120", "--workers", "8"])
        assert a.read_bytes() == b.read_bytes()

    def test_dt_option_replaces_the_file_dt_before_it_is_checked(self, workspace, capsys):
        # The preset's dt = 0.01 sits in the warning band; --dt 0.005 does not.
        tmp, _, _ = workspace
        with warnings.catch_warnings():
            warnings.simplefilter("always", TimestepWarning)
            assert main(["simulate", "--config", str(PRESET), "--out", str(tmp / "fine.qcr"),
                         "--n-traj", "4", "--dt", "0.005"]) == 0
            assert capsys.readouterr().err == ""
            assert main(["simulate", "--config", str(PRESET), "--out", str(tmp / "coarse.qcr"),
                         "--n-traj", "4"]) == 0
        assert capsys.readouterr().err == PRESET_WARNING

    def test_warning_is_one_line_on_stderr(self, tmp_path):
        # A process of its own, so Python's default warning filters apply.
        out = tmp_path / "records.qcr"
        done = subprocess.run(
            [sys.executable, "-m", "qcorr.cli", "simulate", "--config", str(PRESET),
             "--n-traj", "4", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parents[1])))
        assert done.returncode == 0
        assert done.stderr == PRESET_WARNING
        assert done.stdout == f"wrote 4 trajectories x 2 channels x 400 samples to {out}\n"

    def test_dt_option_makes_a_coarse_file_legal(self, workspace, capsys):
        # dt = 0.04 us is 0.06 of tau = 0.65 us, above the 0.05 limit.
        tmp, _, _ = workspace
        coarse = tmp / "coarse.json"
        coarse.write_text(json.dumps(dict(CONFIG, sim=dict(CONFIG["sim"], dt_us=0.04))))
        out = tmp / "records.qcr"
        assert main(["simulate", "--config", str(coarse), "--out", str(out)]) == 1
        assert "dt=0.04 exceeds" in capsys.readouterr().err
        assert main(["simulate", "--config", str(coarse), "--out", str(out),
                     "--dt", "0.005", "--n-traj", "6"]) == 0
        assert "6 trajectories x 2 channels x 440 samples" in capsys.readouterr().out

    def test_infinite_duration_refused_by_name(self, workspace, capsys):
        tmp, config, _ = workspace
        config.write_text(json.dumps(CONFIG).replace('"t_total_us": 2.2', '"t_total_us": Infinity'))
        out = tmp / "records.qcr"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config.sim.t_total_us: expected a finite number, got inf"]
        assert not out.exists()

    def test_missing_config_fails_cleanly(self, workspace, capsys):
        tmp, _, _ = workspace
        rc = main(["simulate", "--config", str(tmp / "nope.json"),
                   "--out", str(tmp / "x.qcr")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestStreamedSimulate:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_equals_write_records_of_the_ensemble(self, tmp_path, capsys, batch_cap,
                                                       workers):
        # 17 trajectories in batches of 8: the one-trajectory tail is folded
        # into the second batch, and no batch divides the count.
        batch_cap(8)
        config = sim_config(tmp_path, n_traj=17)
        out, expected = tmp_path / "records.qcr", tmp_path / "expected.qcr"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--workers", str(workers)]) == 0
        records = simulate_ensemble(parse_config(config).sim)
        write_records(expected, records)
        assert out.read_bytes() == expected.read_bytes()
        assert capsys.readouterr().out == (
            f"wrote 17 trajectories x {records.n_channels} channels "
            f"x {records.n_samples} samples to {out}\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_run_leaves_no_record_file(self, tmp_path, capsys, monkeypatch, batch_cap,
                                              workers):
        # Trajectory 0 diverges in the first of five batches; with two
        # workers later batches, the last included, may be written first.
        draws = trajectory_module.trajectory_draws

        def poisoned(seed, index, n_steps, n_channels):
            block = draws(seed, index, n_steps, n_channels)
            if index == 0:
                block[5, 0] = np.nan
            return block

        monkeypatch.setattr(trajectory_module, "trajectory_draws", poisoned)
        batch_cap(8)
        config = sim_config(tmp_path, n_traj=40)
        out = tmp_path / "records.qcr"
        out.write_bytes(b"an earlier file")
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--workers", str(workers)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: integration diverged at step 5, trajectory 0"]
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unfinished_file_refused_until_the_last_batch(self, tmp_path, batch_cap, workers):
        # Whatever batches have landed, a run killed now would leave a file
        # that read_header refuses as unfinished; the finished file is the
        # one write_records makes.
        batch_cap(8)
        config = parse_config(sim_config(tmp_path, n_traj=30)).sim
        out, expected = tmp_path / "records.qcr", tmp_path / "expected.qcr"
        seen = []

        def progress(done, total):
            if done < total:
                with pytest.raises(MagicMismatchError, match="unfinished record file"):
                    read_header(out)
                seen.append(done)

        simulate_records(out, config, workers=workers, progress=progress)
        assert seen == [8, 16, 24]
        write_records(expected, simulate_ensemble(config))
        assert out.read_bytes() == expected.read_bytes()
        assert read_header(out).n_traj == 30

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("old", ["longer-record", "shorter-file", "empty-file"])
    def test_rewrite_over_an_existing_file_gives_a_fresh_write(self, tmp_path, batch_cap, old,
                                                               workers):
        # An existing output is rewritten in place, not truncated first: an
        # older, longer record (40 trajectories of another seed), 1 KiB of
        # non-record bytes (past the header, short of the payload) or an
        # empty file all end as the bytes of a fresh write.
        batch_cap(8)
        out, expected = tmp_path / "records.qcr", tmp_path / "expected.qcr"
        if old == "longer-record":
            assert main(["simulate", "--config", str(sim_config(tmp_path, n_traj=40, seed=5)),
                         "--out", str(out)]) == 0
        else:
            out.write_bytes(bytes(range(256)) * 4 if old == "shorter-file" else b"")
        config = sim_config(tmp_path, n_traj=17)
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--workers", str(workers)]) == 0
        write_records(expected, simulate_ensemble(parse_config(config).sim))
        assert out.read_bytes() == expected.read_bytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rewritten_record_refused_and_never_shorter_until_the_last_batch(self, tmp_path,
                                                                             batch_cap, workers):
        # Over an older, longer record, a reader that re-checks the header
        # finds the zeroed magic after every batch, and the file keeps the
        # old length until it is cut to size just before the header lands.
        batch_cap(8)
        out, expected = tmp_path / "records.qcr", tmp_path / "expected.qcr"
        simulate_records(out, parse_config(sim_config(tmp_path, n_traj=40, seed=5)).sim)
        old_size = out.stat().st_size
        config = parse_config(sim_config(tmp_path, n_traj=30)).sim
        seen = []

        def progress(done, total):
            with pytest.raises(MagicMismatchError, match="unfinished record file"):
                read_header(out)
            seen.append((done, out.stat().st_size))

        simulate_records(out, config, workers=workers, progress=progress)
        assert seen == [(n, old_size) for n in (8, 16, 24, 30)]
        write_records(expected, simulate_ensemble(config))
        assert out.read_bytes() == expected.read_bytes()

    def test_non_regular_output_is_never_truncated(self, workspace, capsys):
        # /dev/null takes the rows and the header; cutting it to the record's
        # size would fail with EINVAL.
        tmp, config, _ = workspace
        assert main(["simulate", "--config", str(config), "--out", os.devnull,
                     "--n-traj", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_memory_bounded_at_any_budget(self, tmp_path, batch_cap):
        batch_cap(64)

        def peak(n_traj):
            config = sim_config(tmp_path, n_traj=n_traj, t_total_us=0.5)
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", str(config),
                             "--out", str(tmp_path / "records.qcr")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-call allocations
        small, large = peak(256), peak(1024)
        assert small > 64 * 2 * 50 * 8  # one batch of samples is held
        assert large == pytest.approx(small, rel=0.1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_counts_up_to_the_trajectory_count(self, tmp_path, capsys, batch_cap,
                                                        workers):
        batch_cap(8)
        config = sim_config(tmp_path, n_traj=30)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.qcr"),
                     "--workers", str(workers), "--progress"]) == 0
        counts = [part.strip() for part in capsys.readouterr().err.split("\r") if part.strip()]
        assert counts == [f"{n}/30 trajectories" for n in (8, 16, 24, 30)]

    def test_states_are_not_simulated(self, tmp_path, monkeypatch, batch_cap):
        simulate_batch = trajectory_module.simulate_batch
        states_seen = []

        def spy(config, start, stop, samples, states):
            states_seen.append(states)
            return simulate_batch(config, start, stop, samples, states)

        monkeypatch.setattr(trajectory_module, "simulate_batch", spy)
        batch_cap(8)
        assert main(["simulate", "--config", str(sim_config(tmp_path, n_traj=20)),
                     "--out", str(tmp_path / "records.qcr")]) == 0
        assert states_seen == [None] * 3

    @pytest.mark.parametrize("key, value", [("store_states", True), ("batch_size", 7)])
    def test_settings_that_fix_no_record_bit_are_refused(self, tmp_path, capsys, key, value):
        # The sim keys are the ensemble alone: batches follow from the record
        # shape, and the record file stores no states.
        out = tmp_path / "records.qcr"
        assert main(["simulate", "--config", str(sim_config(tmp_path, **{key: value})),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config.sim.{key}: unknown key")
        assert not out.exists()

    def test_long_rows_are_batched_within_the_byte_budget(self, tmp_path, monkeypatch):
        # With a 16 KiB budget a 2 x 220-sample row (3520 bytes) fits 4 times,
        # so 30 trajectories run in 8 batches and no batch passes the budget.
        monkeypatch.setattr(trajectory_module, "BATCH_BYTES", 16 * 1024)
        simulate_batch = trajectory_module.simulate_batch
        batch_bytes = []

        def spy(config, start, stop, samples, states):
            batch_bytes.append(samples.nbytes)
            return simulate_batch(config, start, stop, samples, states)

        monkeypatch.setattr(trajectory_module, "simulate_batch", spy)
        config = parse_config(sim_config(tmp_path, n_traj=30)).sim
        out, expected = tmp_path / "records.qcr", tmp_path / "expected.qcr"
        simulate_records(out, config)
        assert batch_bytes == [4 * 3520] * 7 + [2 * 3520]
        write_records(expected, simulate_ensemble(config))
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("n_traj, rows", [(20, 8), (17, 9)], ids=["partial-tail", "folded-tail"])
    def test_every_batch_is_simulated_into_one_buffer(self, tmp_path, monkeypatch, batch_cap,
                                                      n_traj, rows):
        # 20 trajectories run as 8 + 8 + 4; 17 as 8 + 9, the one-trajectory
        # tail folded in. Either way one array of the longest batch's rows
        # holds every batch.
        simulate_batch = trajectory_module.simulate_batch
        seen = []

        def spy(config, start, stop, samples, states):
            seen.append(samples)
            return simulate_batch(config, start, stop, samples, states)

        monkeypatch.setattr(trajectory_module, "simulate_batch", spy)
        batch_cap(8)
        config = parse_config(sim_config(tmp_path, n_traj=n_traj)).sim
        simulate_records(tmp_path / "records.qcr", config)
        buffer = seen[0].base
        assert buffer is not None and len(buffer) == rows
        assert sum(len(samples) for samples in seen) == n_traj
        assert all(samples.base is buffer for samples in seen)

    def test_unseekable_output_refused(self, workspace, capsys):
        tmp, config, _ = workspace
        read_end, write_end = os.pipe()
        try:
            assert main(["simulate", "--config", str(config), "--out", f"/dev/fd/{write_end}",
                         "--n-traj", "4"]) == 1
        finally:
            os.close(read_end)
            os.close(write_end)
        assert capsys.readouterr().err.strip().splitlines() == ["error: [Errno 29] Illegal seek"]


class TestAnalytic:
    def test_windowed_spec_values(self, workspace, capsys):
        tmp, config, spec = workspace
        out = tmp / "analytic.csv"
        assert main(["analytic", "--config", str(config), "--spec", str(spec),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            # Unital model: chain and factorized agree tightly.
            assert float(row["chain"]) == pytest.approx(float(row["factorized"]), abs=1e-10)
            assert row["value"] == row["chain"]

    def test_absolute_events_print_all_routes(self, workspace, capsys):
        tmp, config, _ = workspace
        spec = tmp / "abs.json"
        spec.write_text(json.dumps({
            "initial": {"r": CONFIG["sim"]["r_init"], "t_us": 0.0},
            "events": [
                {"channel": 0, "t_us": 0.5}, {"channel": 1, "t_us": 0.9},
                {"channel": 0, "t_us": 1.4}, {"channel": 1, "t_us": 1.8},
            ],
        }))
        out = tmp / "analytic.csv"
        assert main(["analytic", "--config", str(config), "--spec", str(spec),
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        chain = float(row["chain"])
        assert chain == pytest.approx(float(row["factorized"]), abs=1e-10)
        assert chain == pytest.approx(float(row["brute_force"]), abs=1e-12)

    def test_phase_model_prints_chain_and_nan_for_refusing_routes(self, workspace, capsys):
        tmp, _, _ = workspace
        config = tmp / "phase.json"
        config.write_text(json.dumps(dict(CONFIG, channels=[
            {"axis": [0.0, 0.0, 1.0], "tau_us": 0.65, "phase_k": 1.0},
            {"axis": [0.0, 1.0, 0.0], "tau_us": 0.65},
        ])))
        spec = tmp / "phase_spec.json"
        spec.write_text(json.dumps([
            {"initial": {"r": [1.0, 0.0, 0.0]},
             "events": [{"channel": 0, "t_us": 0.1}, {"channel": 1, "t_us": 0.3}]},
            {"initial": {"r": [0.0, 1.0, 0.0]},
             "events": [{"channel": 1, "t_us": 0.1}, {"channel": 0, "t_us": 0.3}]},
        ]))
        out = tmp / "analytic.csv"
        assert main(["analytic", "--config", str(config), "--spec", str(spec),
                     "--out", str(out)]) == 0
        kicked, last_only = read_csv(out)
        # A kick before the last event, which only the chain evaluates: x decays
        # at 30/13 per us until the z event kicks it into y, which decays at
        # 20/13 per us until the y event.
        expected = np.exp(-(30 / 13) * 0.1 - (20 / 13) * 0.2)
        assert float(kicked["chain"]) == pytest.approx(expected, abs=1e-12)
        assert kicked["factorized"] == "nan" and kicked["brute_force"] == "nan"
        # A kick at the last event only: brute force accepts it and agrees.
        assert last_only["factorized"] == "nan"
        assert float(last_only["brute_force"]) == pytest.approx(
            float(last_only["chain"]), abs=1e-12)
        assert "chain=" in capsys.readouterr().out

    def test_window_mean_state_built_once_per_window(self, workspace, monkeypatch):
        # The two SPECS share a window; a third spec brings a second one.
        tmp, config, _ = workspace
        spec = tmp / "windows.json"
        spec.write_text(json.dumps(SPECS + [
            {"window": {"t_a_us": 0.2, "T_us": 0.3}, "gaps": [{"channel": 1, "dt_us": 0.0}]},
        ]))
        windows = []
        window_mean_state = cli_module.window_mean_state
        monkeypatch.setattr(cli_module, "window_mean_state",
                            lambda *a: windows.append(a[2]) or window_mean_state(*a))
        assert main(["analytic", "--config", str(config), "--spec", str(spec)]) == 0
        assert windows == [Window(0.5, 0.3), Window(0.2, 0.3)]

    @pytest.mark.parametrize("config, specs, expected", [
        (json.loads(PRESETS.joinpath("two_detector_sim.json").read_text()),
         json.loads(PRESETS.joinpath("two_detector_specs.json").read_text())
         + [FOUR_EVENT_SPEC], PRESET_ANALYTIC_SHA256),
        (DRIVEN_CONFIG, DRIVEN_SPECS, DRIVEN_ANALYTIC_SHA256),
    ], ids=["preset", "driven"])
    def test_csv_bytes_pinned(self, tmp_path, config, specs, expected):
        config_path, spec_path = tmp_path / "config.json", tmp_path / "specs.json"
        config_path.write_text(json.dumps(config))
        spec_path.write_text(json.dumps(specs))
        out = tmp_path / "analytic.csv"
        assert main(["analytic", "--config", str(config_path), "--spec", str(spec_path),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    @pytest.mark.parametrize("entry, message", [
        ({"gaps": [{"channel": 0, "dt_us": 0.0}]},
         "spec[0].window: missing required key"),
        ({"window": {"t_a_us": 0.5}, "gaps": [{"channel": 0, "dt_us": 0.0}]},
         "spec[0].window.T_us: missing required key"),
    ])
    def test_malformed_spec_names_the_missing_key(self, workspace, capsys, entry, message):
        tmp, config, _ = workspace
        spec = tmp / "bad.json"
        spec.write_text(json.dumps([entry]))
        assert main(["analytic", "--config", str(config), "--spec", str(spec)]) == 1
        assert f"error: {message}" in capsys.readouterr().err


    def test_coinciding_same_channel_events_refused_by_name(self, tmp_path, capsys):
        spec = tmp_path / "coinciding.json"
        spec.write_text(json.dumps([{
            "window": {"t_a_us": 0.5, "T_us": 0.3},
            "gaps": [{"channel": 0, "dt_us": 0.0}, {"channel": 0, "dt_us": 0.0}],
        }]))
        out = tmp_path / "analytic.csv"
        assert main(["analytic", "--config", str(PRESETS.joinpath("two_detector_sim.json")),
                     "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "no exact route evaluates coinciding events" in err[0]
        assert not out.exists()


class TestEstimateAndCompare:
    def test_pipeline_and_agreement(self, workspace):
        tmp, config, spec = workspace
        records = tmp / "records.qcr"
        main(["simulate", "--config", str(config), "--out", str(records)])
        est_csv = tmp / "estimates.csv"
        assert main(["estimate", "--records", str(records), "--spec", str(spec),
                     "--out", str(est_csv)]) == 0
        ana_csv = tmp / "analytic.csv"
        main(["analytic", "--config", str(config), "--spec", str(spec),
              "--out", str(ana_csv)])
        assert main(["compare", "--analytic", str(ana_csv),
                     "--empirical", str(est_csv)]) == 0

    def test_estimate_csv_deterministic(self, workspace):
        tmp, config, spec = workspace
        records = tmp / "records.qcr"
        main(["simulate", "--config", str(config), "--out", str(records),
              "--n-traj", "300"])
        a_csv, b_csv = tmp / "a.csv", tmp / "b.csv"
        main(["estimate", "--records", str(records), "--spec", str(spec), "--out", str(a_csv)])
        main(["estimate", "--records", str(records), "--spec", str(spec), "--out", str(b_csv)])
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_estimate_csv_bytes_pinned(self, workspace):
        # The specs share event prefixes under different windows and include
        # single-event and coinciding same-channel entries.
        tmp, config, _ = workspace
        records = tmp / "records.qcr"
        assert main(["simulate", "--config", str(config), "--out", str(records),
                     "--n-traj", "300"]) == 0
        spec = write_specs(tmp / "pinned.json", PINNED_SPECS)
        out = tmp / "estimates.csv"
        assert main(["estimate", "--records", str(records), "--spec", str(spec),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ESTIMATE_SHA256

    def test_compare_flags_disagreement(self, workspace, capsys):
        tmp, config, spec = workspace
        records = tmp / "records.qcr"
        main(["simulate", "--config", str(config), "--out", str(records),
              "--n-traj", "200"])
        est_csv = tmp / "estimates.csv"
        main(["estimate", "--records", str(records), "--spec", str(spec),
              "--out", str(est_csv)])
        # Fabricate analytic values far away from the estimates.
        ana_csv = tmp / "analytic.csv"
        rows = read_csv(est_csv)
        with open(ana_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["events", "window_start_us", "window_len_us", "value"])
            for row in rows:
                writer.writerow([row["events"], row["window_start_us"],
                                 row["window_len_us"], "99.0"])
        rc = main(["compare", "--analytic", str(ana_csv), "--empirical", str(est_csv)])
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_compare_reports_unmatched_rows(self, tmp_path, capsys):
        ana = tmp_path / "a.csv"
        emp = tmp_path / "e.csv"
        ana.write_text("events,value\nx@1,0.5\nz@3,0.1\n")
        emp.write_text("events,value,std_error\nx@1,0.5,0.1\ny@2,0.5,0.1\n")
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 1
        assert "unmatched rows: 1 analytic, 1 empirical" in capsys.readouterr().out
        # One side's extra row alone fails too.
        emp.write_text("events,value,std_error\nx@1,0.5,0.1\nz@3,0.1,0.1\ny@2,0.5,0.1\n")
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 1
        assert "unmatched rows: 0 analytic, 1 empirical" in capsys.readouterr().out
        emp.write_text("events,value,std_error\nx@1,0.5,0.1\n")
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 1
        assert "unmatched rows: 1 analytic, 0 empirical" in capsys.readouterr().out

    def test_compare_prints_the_sigma_distribution(self, tmp_path, capsys):
        ana, emp = tmp_path / "a.csv", tmp_path / "e.csv"
        sigmas = (0.0, 3.5, 1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.25, 0.75)
        ana.write_text("events,value\n" + "".join(f"p@{i},1.0\n" for i in range(10)))
        emp.write_text("events,value,std_error\n"
                       + "".join(f"p@{i},{1.0 + s / 10},0.1\n" for i, s in enumerate(sigmas)))
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 0
        assert ("compared 10 rows on ['events']: max |delta|/se = 3.500 (threshold 4.0), "
                "median 1.000, 90th percentile 3.000; unmatched rows: 0 analytic, 0 empirical"
                in capsys.readouterr().out)

    def test_compare_with_no_shared_rows_fails(self, workspace, capsys):
        tmp, config, spec = workspace
        ana = tmp / "a.csv"
        emp = tmp / "e.csv"
        ana.write_text("events,value\nx@1,0.5\n")
        emp.write_text("events,value,std_error\ny@2,0.5,0.1\n")
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 1

    @pytest.mark.parametrize("value, std_error", [
        ("nan", "0.1"), ("0.5", "nan"), ("0.5", "inf"), ("inf", "0.1"),
    ])
    def test_compare_counts_a_non_finite_sigma_as_a_mismatch(self, tmp_path, capsys,
                                                              value, std_error):
        ana, emp = tmp_path / "a.csv", tmp_path / "e.csv"
        ana.write_text("events,value\nx@1,0.5\ny@2,0.1\n")
        emp.write_text(f"events,value,std_error\nx@1,{value},{std_error}\ny@2,0.1,0.1\n")
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH {'events': 'x@1'}" in out and "y@2" not in out
        assert "max |delta|/se = nan" in out or "max |delta|/se = inf" in out

    @pytest.mark.parametrize("analytic, empirical, extra, named", [
        ("events,value\nx@1,0.5\n", "", [], "e.csv has no header line"),
        ("", "events,value,std_error\nx@1,0.5,0.1\n", [], "a.csv has no header line"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,abc,0.1\n", [],
         "e.csv: value 'abc' is not a number"),
        ("events,value\nx@1,half\n", "events,value,std_error\nx@1,0.5,0.1\n", [],
         "a.csv: value 'half' is not a number"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,0.5\n", [],
         "e.csv: std_error None is not a number"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,0.5,0.1\n",
         ["--max-sigma", "nan"], "--max-sigma must be positive and finite, got nan"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,0.5,0.1\n",
         ["--max-sigma", "0"], "--max-sigma must be positive and finite, got 0.0"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,0.5,0.1\n",
         ["--max-sigma=-1"], "--max-sigma must be positive and finite, got -1.0"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,0.5,0.1\n",
         ["--max-sigma", "inf"], "--max-sigma must be positive and finite, got inf"),
        ("events,value\nx@1,0.5\n", b"events,value\xff\n", [], "e.csv: 'utf-8' codec"),
        ("events,value\nx@1,0.5\n", "events,value,std_error\nx@1,0.5," + "9" * 200000,
         [], "e.csv: field larger than field limit"),
        # Joined by the last of its rows, the 0.5 row would go unchecked.
        ("events,value\nx@1,0.5\nx@1,9.0\n", "events,value,std_error\nx@1,9.0,0.1\n", [],
         "a.csv: key {'events': 'x@1'} appears more than once"),
        ("events,value\nx@1,9.0\n", "events,value,std_error\nx@1,9.0,0.1\nx@1,0.5,0.1\n", [],
         "e.csv: key {'events': 'x@1'} appears more than once"),
    ], ids=["empty-empirical", "empty-analytic", "empirical-not-a-number",
            "analytic-not-a-number", "short-row", "max-sigma-nan", "max-sigma-zero",
            "max-sigma-negative", "max-sigma-inf", "not-utf-8", "field-too-large",
            "analytic-repeated-key", "empirical-repeated-key"])
    def test_malformed_compare_input_exits_with_one_named_error(self, tmp_path, capsys,
                                                                analytic, empirical, extra,
                                                                named):
        ana, emp = tmp_path / "a.csv", tmp_path / "e.csv"
        ana.write_text(analytic)
        emp.write_bytes(empirical if isinstance(empirical, bytes) else empirical.encode())
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)] + extra) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert captured.out == ""

    def test_coinciding_cross_channel_events_refused_by_both_commands(self, workspace, capsys):
        tmp, config, _ = workspace
        records = tmp / "records.qcr"
        assert main(["simulate", "--config", str(config), "--out", str(records),
                     "--n-traj", "20"]) == 0
        spec = tmp / "coinciding.json"
        spec.write_text(json.dumps([{
            "window": {"t_a_us": 0.5, "T_us": 0.3},
            "gaps": [{"channel": 0, "dt_us": 0.0}, {"channel": 1, "dt_us": 0.004}],
        }]))
        capsys.readouterr()
        errors = []
        for argv in (["estimate", "--records", str(records)], ["analytic", "--config", str(config)]):
            assert main(argv + ["--spec", str(spec), "--out", str(tmp / "out.csv")]) == 1
            errors.append(capsys.readouterr().err.strip().splitlines())
        assert errors[0] == errors[1]
        assert len(errors[0]) == 1 and errors[0][0].startswith("error:")
        assert "channels 0 and 1 snap to one bin" in errors[0][0]
        assert not (tmp / "out.csv").exists()


def synthetic_records(path, n_traj, n_samples=64, seed=0):
    """Write a two-channel record file of Gaussian samples at dt 0.01."""
    rng = np.random.default_rng(seed)
    channels = (MeasurementChannel((0.0, 0.0, 1.0), tau=0.65),
                MeasurementChannel((1.0, 0.0, 0.0), tau=0.65))
    write_records(path, RecordSet(samples=8.0 * rng.standard_normal((n_traj, 2, n_samples)),
                                  dt=0.01, channels=channels, master_seed=seed))
    return path


def write_specs(path, specs):
    path.write_text(json.dumps([
        {"window": {"t_a_us": t_a, "T_us": length},
         "gaps": [{"channel": ch, "dt_us": gap} for ch, gap in gaps]}
        for t_a, length, gaps in specs
    ]))
    return path


class TestStreamedEstimate:
    def test_peak_memory_is_a_fraction_of_the_payload(self, tmp_path, monkeypatch):
        # About 8 MiB of samples streamed in blocks of 1 MiB: the estimate
        # holds one block and the per-trajectory means, never the payload.
        records = synthetic_records(tmp_path / "records.qcr", n_traj=256, n_samples=2048)
        payload = 256 * 2 * 2048 * 8
        spec = write_specs(tmp_path / "specs.json", PINNED_SPECS)
        monkeypatch.setattr(empirical, "BLOCK_BYTES", 2 ** 20)
        tracemalloc.start()
        try:
            assert main(["estimate", "--records", str(records), "--spec", str(spec),
                         "--out", str(tmp_path / "estimates.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * payload

    def test_each_spec_is_resolved_once(self, tmp_path, monkeypatch):
        # 20 trajectories in blocks of 4: five window_means calls share the
        # specs resolved against the header.
        records = synthetic_records(tmp_path / "records.qcr", n_traj=20, n_samples=200)
        spec = write_specs(tmp_path / "specs.json", PINNED_SPECS)
        monkeypatch.setattr(empirical, "BLOCK_BYTES", 4 * 2 * 200 * 8)
        calls = []
        for module in (cli_module, empirical):
            monkeypatch.setattr(module, "resolve_spec", lambda *a, resolve=module.resolve_spec:
                                calls.append(a) or resolve(*a))
        assert main(["estimate", "--records", str(records), "--spec", str(spec)]) == 0
        assert len(calls) == len(PINNED_SPECS)

    def test_specs_are_sorted_once_per_run(self, tmp_path, monkeypatch):
        # 20 trajectories in blocks of 4: five window_means calls share one
        # sort and scan of the resolved specs.
        records = synthetic_records(tmp_path / "records.qcr", n_traj=20, n_samples=200)
        spec = write_specs(tmp_path / "specs.json", PINNED_SPECS)
        monkeypatch.setattr(empirical, "BLOCK_BYTES", 4 * 2 * 200 * 8)
        built = []

        class Counted(empirical.ResolvedSpecs):
            def __new__(cls, resolved):
                built.append(cls)
                return super().__new__(cls, resolved)

        for module in (cli_module, empirical):
            monkeypatch.setattr(module, "ResolvedSpecs", Counted)
        blocks = []
        window_means = empirical.window_means
        monkeypatch.setattr(empirical, "window_means",
                            lambda *a: blocks.append(a) or window_means(*a))
        assert main(["estimate", "--records", str(records), "--spec", str(spec)]) == 0
        assert len(blocks) == 5 and len(built) == 1

    def test_memory_bounded_at_any_budget(self, tmp_path, monkeypatch, batch_cap):
        # Blocks and batches of 64 trajectories: the estimate holds one block
        # of samples, its window means and O(specs) sums, whatever the
        # trajectory count, as each batch is pooled as soon as it arrives.
        spec = write_specs(tmp_path / "specs.json", PINNED_SPECS)
        block_bytes = 64 * 2 * 200 * 8
        monkeypatch.setattr(empirical, "BLOCK_BYTES", block_bytes)
        batch_cap(64)

        def peak(n_traj):
            records = synthetic_records(tmp_path / "records.qcr", n_traj=n_traj, n_samples=200)
            tracemalloc.start()
            try:
                assert main(["estimate", "--records", str(records), "--spec", str(spec),
                             "--out", str(tmp_path / "estimates.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-call allocations
        small, large = peak(1024), peak(4096)
        assert small > block_bytes  # one block of samples is held
        assert large == pytest.approx(small, rel=0.1)

    def test_non_finite_sample_refused_with_spec_and_block(self, tmp_path, capsys):
        # A preset record with one NaN at trajectory 3, channel 1, bin 120:
        # only the preset's four-event spec (spec 1) reads that bin.
        records, out = tmp_path / "records.qcr", tmp_path / "estimates.csv"
        assert main(["simulate", "--config", str(PRESETS.joinpath("two_detector_sim.json")),
                     "--out", str(records), "--n-traj", "50"]) == 0
        header = read_header(records)
        payload = 50 * header.n_channels * header.n_samples * 8
        offset = records.stat().st_size - payload
        offset += ((3 * header.n_channels + 1) * header.n_samples + 120) * 8
        data = bytearray(records.read_bytes())
        data[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        records.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["estimate", "--records", str(records),
                     "--spec", str(PRESETS.joinpath("two_detector_specs.json")),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "spec 1 (events 0@0;1@0.20000000000000001;" in err[0]
        assert "non-finite window mean in trajectories [0, 50)" in err[0]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("n_traj, specs, named", [
        (50, [(0.2, 0.3, [(0, 0.0), (1, 0.2)]), (0.3, 0.2, [(0, 0.0), (1, 0.2)])],
         "exceed the record span of 64 samples"),
        (1, [(0.1, 0.1, [(0, 0.0)])], "at least 2 trajectories"),
        (0, [(0.1, 0.1, [(0, 0.0)])], "at least 2 trajectories"),
    ], ids=["window-past-span", "one-trajectory", "no-trajectory"])
    def test_refused_from_the_header_before_any_payload_read(self, tmp_path, capsys,
                                                             monkeypatch, n_traj, specs, named):
        records = synthetic_records(tmp_path / "records.qcr", n_traj=n_traj)
        spec = write_specs(tmp_path / "specs.json", specs)
        reads = []
        monkeypatch.setattr(cli_module, "read_records", lambda *a: reads.append(a))
        out = tmp_path / "estimates.csv"
        assert main(["estimate", "--records", str(records), "--spec", str(spec),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("corrupt, named", [
        (lambda data: b"NOTQCOR" + data[7:], "bad magic"),
        (lambda data: data[:7] + bytes([FORMAT_VERSION + 1]) + data[8:],
         "unsupported format version"),
        (lambda data: data[:-5], "payload holds"),
    ], ids=["magic", "version", "truncated-payload"])
    def test_damaged_file_exits_with_its_named_error(self, tmp_path, capsys, corrupt, named):
        records = synthetic_records(tmp_path / "records.qcr", n_traj=5)
        records.write_bytes(corrupt(records.read_bytes()))
        spec = write_specs(tmp_path / "specs.json", [(0.1, 0.1, [(0, 0.0)])])
        assert main(["estimate", "--records", str(records), "--spec", str(spec)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


class TestSpecFiles:
    @pytest.mark.parametrize("path, literal", [
        ("window.T_us", "Infinity"),
        ("window.t_a_us", "NaN"),
        ("gaps[1].dt_us", "-Infinity"),
    ])
    def test_non_finite_number_refused_by_both_commands(self, workspace, capsys, path, literal):
        # json reads NaN and Infinity; unchecked, snap fails on them with a traceback.
        tmp, config, _ = workspace
        records = synthetic_records(tmp / "records.qcr", n_traj=5)
        finite = write_specs(tmp / "finite.json", [(0.1, 0.15, [(0, 0.0), (1, 0.2)])])
        key = path.rsplit(".", 1)[1]
        value = {"t_a_us": 0.1, "T_us": 0.15, "dt_us": 0.2}[key]
        spec = tmp / "spec.json"
        spec.write_text(finite.read_text().replace(f'"{key}": {value}', f'"{key}": {literal}'))
        for argv in (["estimate", "--records", str(records)], ["analytic", "--config", str(config)]):
            assert main(argv + ["--spec", str(spec), "--out", str(tmp / "out.csv")]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: spec[0].{path}: expected a finite number, got {float(literal)!r}"]
            assert not (tmp / "out.csv").exists()

    @pytest.mark.parametrize("command", ["estimate", "analytic"])
    @pytest.mark.parametrize("bad, named", [
        ((0.1, 0.1, [(0, 0.0), (1, 0.2), (0, 0.1)]), "gaps must be nondecreasing"),
        ((0.1, 0.1, [(0, 0.0), (1, 0.004)]), "events on channels 0 and 1 snap to one bin"),
        ((0.1, 0.1, [(0, 0.0), (5, 0.1)]), "channel index 5 out of range for 2 channels"),
        ((0.1, 0.1, [(0, 0.0), (-1, 0.1)]), "channel index must be >= 0, got -1"),
        ((2.1, 0.2, [(0, 0.0), (1, 0.2)]),
         "window bins [210, 230] plus largest gap 20 exceed the record span of 64 samples"),
        ((0.1, 0.0, [(0, 0.0)]), "window length must be positive and finite, got 0.0"),
    ], ids=["decreasing-gaps", "two-channels-one-bin", "channel-5", "channel-negative",
            "window-past-record", "zero-length-window"])
    def test_bad_entry_refused_by_its_index(self, workspace, capsys, monkeypatch, command,
                                            bad, named):
        tmp, config, _ = workspace
        records = synthetic_records(tmp / "records.qcr", n_traj=5)
        spec = write_specs(tmp / "spec.json",
                           [(0.1, 0.1, [(0, 0.0)]), bad, (0.1, 0.15, [(0, 0.0), (1, 0.2)])])
        reads = []
        monkeypatch.setattr(cli_module, "read_records", lambda *a: reads.append(a))
        source = ["--records", str(records)] if command == "estimate" else ["--config", str(config)]
        out = tmp / "out.csv"
        code = main([command, *source, "--spec", str(spec), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        if command == "analytic" and "record span" in named:
            # Exact routes read no record: the config's 220 samples bound no window.
            assert code == 0 and err == [] and len(read_csv(out)) == 3
            return
        assert code == 1 and len(err) == 1 and err[0].startswith(f"error: spec[1]: {named}")
        assert not out.exists() and reads == []

    def test_empty_spec_list_refused_before_any_read(self, workspace, capsys, monkeypatch):
        tmp, config, _ = workspace
        records = synthetic_records(tmp / "records.qcr", n_traj=5)
        spec = tmp / "spec.json"
        spec.write_text("[]")
        reads = []
        monkeypatch.setattr(cli_module, "read_header", lambda *a: reads.append(a))
        monkeypatch.setattr(cli_module, "read_records", lambda *a: reads.append(a))
        for argv in (["estimate", "--records", str(records)], ["analytic", "--config", str(config)]):
            assert main(argv + ["--spec", str(spec), "--out", str(tmp / "out.csv")]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == ["error: spec: expected a non-empty array"]
            assert reads == [] and not (tmp / "out.csv").exists()

    @pytest.mark.parametrize("command, bad", [
        ("simulate", "config"), ("analytic", "config"), ("analytic", "spec"), ("estimate", "spec"),
    ])
    def test_file_that_is_not_utf8_exits_with_one_named_error(self, workspace, capsys,
                                                              command, bad):
        # A UnicodeDecodeError is no OSError: unchecked, it ends in a traceback.
        tmp, config, spec = workspace
        records = synthetic_records(tmp / "records.qcr", n_traj=5)
        files = {"config": config, "spec": spec}
        files[bad].write_bytes(b"\xff" + files[bad].read_bytes())
        source = {"simulate": ["--config", str(config)],
                  "analytic": ["--config", str(config), "--spec", str(spec)],
                  "estimate": ["--records", str(records), "--spec", str(spec)]}[command]
        out = tmp / "out"
        assert main([command, *source, "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {files[bad]}: not UTF-8 text: invalid start byte at offset 0"]
        assert not out.exists()


class TestReplicaCommands:
    def test_fig1_analytic_only(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["replica-fig1", "--phi", "0.9424777960769379",
                     "--n-traj", "0", "--out", str(out),
                     "--dt21-grid", "0.3,1.0", "--dt32-grid", "0.7"]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[0]["analytic"] == rows[1]["analytic"]
        assert rows[0]["mc_value"] == "nan"

    def test_fig2_with_summary(self, tmp_path):
        out = tmp_path / "fig2.csv"
        summary = tmp_path / "summary.csv"
        assert main(["replica-fig2", "--phi", "0.31,2.2", "--n-traj", "0",
                     "--out", str(out), "--summary-out", str(summary),
                     "--dt32-grid", "0.7,1.4"]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        srows = read_csv(summary)
        assert len(srows) == 2
        for srow in srows:
            assert float(srow["analytic"]) > 0.0

    @pytest.mark.parametrize("phi", [0.9, 1.3])
    def test_analytic_columns_are_qcorr_analytic_factorized(self, tmp_path, phi):
        # The same ReplicaConfig and grids, written as a config and a spec
        # file: the scans' analytic column is qcorr analytic's factorized
        # column, string for string.
        config = ReplicaConfig(phi=phi)
        _, channels = replica_model(config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "channels": [{"axis": list(ch.axis), "tau_us": ch.tau, "eta": ch.eta}
                         for ch in channels],
            "sim": {"dt_us": config.dt, "t_total_us": 1.0, "n_traj": 2, "seed": 0,
                    "r_init": list(config.r_init)},
        }))
        z, p = replica_module.CHANNEL_Z, replica_module.CHANNEL_PHI
        for command, window_len, events in (
                ("replica-fig1", replica_module.DEFAULT_THREE_TIME_WINDOW,
                 lambda r: [(p, 0.0), (z, r["dt21_us"]), (p, r["dt21_us"] + r["dt32_us"])]),
                ("replica-fig2", replica_module.DEFAULT_FOUR_TIME_WINDOW,
                 lambda r: [(z, 0.0), (p, r["dt21_us"]), (z, r["dt21_us"] + r["dt32_us"]),
                            (p, r["dt21_us"] + r["dt32_us"] + r["dt43_us"])])):
            scan = tmp_path / f"{command}.csv"
            assert main([command, "--phi", repr(phi), "--n-traj", "0", "--out", str(scan)]) == 0
            rows = read_csv(scan)
            spec = tmp_path / f"{command}_specs.json"
            spec.write_text(json.dumps([
                {"window": {"t_a_us": replica_module.WINDOW_START, "T_us": window_len},
                 "gaps": [{"channel": ch, "dt_us": gap}
                          for ch, gap in events({k: float(v) for k, v in row.items()})]}
                for row in rows
            ]))
            exact = tmp_path / f"{command}_analytic.csv"
            assert main(["analytic", "--config", str(config_path), "--spec", str(spec),
                         "--out", str(exact)]) == 0
            exact_rows = read_csv(exact)
            assert [r["analytic"] for r in rows] == [r["factorized"] for r in exact_rows]
            for row, exact_row in zip(rows, exact_rows):
                assert float(exact_row["chain"]) == pytest.approx(float(row["analytic"]),
                                                                  rel=0, abs=1e-12)

    def test_fig1_small_mc_run(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["replica-fig1", "--phi", "0.9", "--out", str(out),
                     "--n-traj", "400", "--seed", "5",
                     "--dt21-grid", "0.4", "--dt32-grid", "0.6"]) == 0
        row = read_csv(out)[0]
        assert abs(float(row["mc_value"]) - float(row["analytic"])) \
            <= 4.0 * float(row["mc_se"])

    @pytest.mark.parametrize("argv, named", [
        (["replica-fig2", "--phi", "0.5", "--dt", "0", "--n-traj", "0"], "dt must be positive"),
        (["replica-fig2", "--phi", "0.5", "--dt", "-0.01", "--n-traj", "0"], "dt must be positive"),
        (["replica-fig1", "--phi", "abc", "--n-traj", "0"], "--phi"),
        (["replica-fig2", "--phi", "0.5", "--dt32-grid", ",", "--n-traj", "100"], "--dt32-grid"),
        (["replica-fig1", "--phi", ",", "--n-traj", "0"], "--phi"),
        (["replica-fig1", "--phi", "0.5", "--dt21-grid", ",", "--n-traj", "0"], "--dt21-grid"),
        (["replica-fig1", "--phi", "0.5", "--dt21-grid", "", "--n-traj", "0"], "--dt21-grid"),
        (["replica-fig2", "--phi", "0.5", "--workers", "0", "--n-traj", "0"],
         "workers must be >= 1"),
        (["replica-fig1", "--phi", "0.5", "--dt21-grid", "0", "--n-traj", "0"], "snap to one bin"),
        (["replica-fig2", "--phi", "0.5", "--n-traj", "1"],
         "estimation needs at least 2 trajectories for a standard error"),
        (["replica-fig1", "--phi", "0.5", "--n-traj", "-1"], "n_traj must be >= 0, got -1"),
        (["replica-fig2", "--phi", "0.5", "--n-traj", "0", "--seed", "-1", "--dt32-grid", "1"],
         "master_seed must fit in an unsigned 64-bit integer"),
    ], ids=["dt-zero", "dt-negative", "phi-not-a-number", "empty-dt32-grid",
            "empty-phi", "empty-dt21-grid", "blank-dt21-grid", "zero-workers",
            "coinciding-dt21-grid", "single-trajectory", "negative-n-traj",
            "negative-seed-exact-only"])
    def test_malformed_input_exits_with_one_named_error(self, tmp_path, capsys, argv, named):
        out = tmp_path / "scan.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize("option", ["--mc", "--no-mc"])
    def test_trajectory_budget_is_the_only_monte_carlo_switch(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["replica-fig2", "--phi", "0.5", option, "--out", str(tmp_path / "fig2.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, kind", [
        ("--dt", "abc", "float"), ("--n-traj", "1.5", "int"), ("--seed", "x", "int"),
    ], ids=["dt", "n-traj", "seed"])
    def test_value_argparse_cannot_read_exits_two(self, tmp_path, capsys, option, value, kind):
        # argparse refuses it before any command runs, as it does an unknown option.
        out = tmp_path / "fig2.csv"
        with pytest.raises(SystemExit) as exc:
            main(["replica-fig2", "--phi", "0.5", option, value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[0].startswith("usage: qcorr replica-fig2")
        assert err[-1] == f"qcorr replica-fig2: error: argument {option}: invalid {kind} value: " \
                          f"{value!r}"
        assert not out.exists()

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0
