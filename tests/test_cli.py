import csv
import json

import numpy as np
import pytest

from qcorr.cli import main

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


class TestSimulate:
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

    def test_missing_config_fails_cleanly(self, workspace, capsys):
        tmp, _, _ = workspace
        rc = main(["simulate", "--config", str(tmp / "nope.json"),
                   "--out", str(tmp / "x.qcr")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


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
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 0
        assert "unmatched rows: 1 analytic, 1 empirical" in capsys.readouterr().out

    def test_compare_with_no_shared_rows_fails(self, workspace, capsys):
        tmp, config, spec = workspace
        ana = tmp / "a.csv"
        emp = tmp / "e.csv"
        ana.write_text("events,value\nx@1,0.5\n")
        emp.write_text("events,value,std_error\ny@2,0.5,0.1\n")
        assert main(["compare", "--analytic", str(ana), "--empirical", str(emp)]) == 1


class TestReplicaCommands:
    def test_fig1_analytic_only(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        assert main(["replica-fig1", "--phi", "0.9424777960769379",
                     "--no-mc", "--out", str(out),
                     "--dt21-grid", "0.3,1.0", "--dt32-grid", "0.7"]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert rows[0]["analytic"] == rows[1]["analytic"]
        assert rows[0]["mc_value"] == "nan"

    def test_fig2_with_summary(self, tmp_path):
        out = tmp_path / "fig2.csv"
        summary = tmp_path / "summary.csv"
        assert main(["replica-fig2", "--phi", "0.31,2.2", "--no-mc",
                     "--out", str(out), "--summary-out", str(summary),
                     "--dt32-grid", "0.7,1.4"]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        srows = read_csv(summary)
        assert len(srows) == 2
        for srow in srows:
            assert float(srow["analytic"]) > 0.0

    def test_fig1_small_mc_run(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["replica-fig1", "--phi", "0.9", "--out", str(out),
                     "--n-traj", "400", "--seed", "5",
                     "--dt21-grid", "0.4", "--dt32-grid", "0.6"]) == 0
        row = read_csv(out)[0]
        assert abs(float(row["mc_value"]) - float(row["analytic"])) \
            <= 4.0 * float(row["mc_se"])


class TestUsage:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0
