"""The four benchmark workloads: inputs made from a seed, argv lists, checks.

Every workload is a list of `qcorr` command lines, run in-process through
`qcorr.cli.main`.  `setup` commands prepare inputs and are timed as set-up;
`measure` commands are one timed iteration; `check` commands run afterwards
in their own process so that they neither add to the measured wall time nor
to the peak memory of the measured process.

Only the standard library is used here: the parent process (run.py) imports
this module without numpy or qcorr.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

PRESET_DIR = Path("src") / "qcorr" / "presets"
PRESET_CONFIG = PRESET_DIR / "two_detector_sim.json"
PRESET_SPECS = PRESET_DIR / "two_detector_specs.json"

# The replica regime of the presets: gamma = 1 / (2 tau) with tau = 0.65 us.
GAMMA = 1.0 / 1.3
MC_DT_US = 0.01
ANALYTIC_DT_US = 0.002
FIG2_PHI = "0.9424777960769379"   # 3 pi / 10, the A6 angle
MAX_SIGMA = 4.0                    # per-point Monte Carlo tolerance, as in `qcorr compare`
ORACLE_TOL = 1e-12                 # chain vs brute force, chain vs factorized
EXPLICIT_EVENT_COUNTS = (8, 10, 12)
# Columns `qcorr compare` never joins on.
VALUE_COLUMNS = {"value", "std_error", "chain", "factorized", "brute_force",
                 "n_traj", "n_window_samples", "mc_value", "mc_se"}

WHY = {
    "simulate_write": "documented simulate entry path, one worker: noise draws, Ito kernel, "
                      "batch assembly and the record write do all the work",
    "estimate_grid": "read side: read_records and the window estimator over a 74-spec grid "
                     "on a 256 MB record, with no simulation in the timed part",
    "fig2_scan": "the paper's four-time scan with 2 workers and streamed shards: the only "
                 "workload where worker scheduling and the replica shard loop matter",
    "analytic_window": "exact layers only at dt 0.002 on a unital and a non-unital Rabi model: "
                       "windowed chain, factorized and brute-force evaluation, no Monte Carlo",
}
NAMES = tuple(WHY)


def master_seed(seed: int) -> int:
    """The program's --seed, derived from the benchmark seed."""
    return random.Random(f"qcorr-bench-{seed}").randrange(1, 2 ** 63)


def _snap(value: float, dt: float) -> float:
    return round(round(value / dt) * dt, 9)


def _linspace(lo: float, hi: float, n: int):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def windowed_specs(dt: float):
    """The 74 windowed specs: 8x8 (phi, z, phi) and 10-point (z, phi, z, phi).

    Grids and windows are those of `qcorr.replica`'s three- and four-time
    scans, with gaps snapped to the record grid.
    """
    three = [_snap(v / GAMMA, dt) for v in _linspace(0.1, 2.3, 8)]
    four = [_snap(v / GAMMA, dt) for v in _linspace(0.5, 2.3, 10)]
    g_edge = _snap(0.15 / GAMMA, dt)

    def entry(window_len, gaps):
        return {"window": {"t_a_us": 1.0, "T_us": window_len},
                "gaps": [{"channel": ch, "dt_us": round(g, 9)} for ch, g in gaps]}

    specs = [entry(0.2, [(1, 0.0), (0, g21), (1, g21 + g32)])
             for g21 in three for g32 in three]
    specs += [entry(0.5, [(0, 0.0), (1, g_edge), (0, g_edge + g32),
                          (1, g_edge + g32 + g_edge)]) for g32 in four]
    return specs


def explicit_specs(rng: random.Random):
    """Event lists of N = 8, 10, 12 for the brute-force oracle."""
    specs = []
    for n in EXPLICIT_EVENT_COUNTS:
        t = 0.2
        events = []
        for _ in range(n):
            events.append({"channel": rng.randrange(2), "t_us": round(t, 6)})
            t += rng.uniform(0.05, 0.6)
        specs.append({"events": events})
    return specs


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def _n_steps(config: dict) -> int:
    return math.floor(config["sim"]["t_total_us"] / config["sim"]["dt_us"] + 1e-9)


def plan(name: str, root: Path, work: Path, seed: int, tiny: bool) -> dict:
    """Write the workload's inputs for `seed` into `work`; return its plan.

    The plan holds argv lists for the phases `setup`, `measure` and
    `check`, the work done by one measured iteration (`work_items`, with
    `work_unit`), and the output files whose sha256 each result reports.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(seed)
    mseed = str(master_seed(seed))
    preset = json.loads((root / PRESET_CONFIG).read_text())
    records, estimates, analytic = str(work / "records.qcr"), str(work / "estimates.csv"), \
        str(work / "analytic.csv")

    if name == "simulate_write":
        n_traj = 200 if tiny else preset["sim"]["n_traj"]
        preset_config, preset_specs = str(root / PRESET_CONFIG), str(root / PRESET_SPECS)
        return {
            "setup": [],
            "measure": [["simulate", "--config", preset_config, "--out", records, "--seed", mseed,
                         "--n-traj", str(n_traj), "--workers", "1"]],
            "check": [["estimate", "--records", records, "--spec", preset_specs, "--out", estimates],
                      ["analytic", "--config", preset_config, "--spec", preset_specs,
                       "--out", analytic]],
            "work_items": n_traj * _n_steps(preset),
            "work_unit": "traj_steps",
            "outputs": [records, estimates, analytic],
            "mc_pairs": [(analytic, estimates)],
        }

    if name == "estimate_grid":
        config = dict(preset, sim=dict(preset["sim"], t_total_us=8.0, n_traj=200 if tiny else 20000))
        cfg = _write_json(work / "config.json", config)
        spec = _write_json(work / "specs.json", windowed_specs(MC_DT_US))
        return {
            "setup": [["simulate", "--config", cfg, "--out", records, "--seed", mseed, "--workers", "1"],
                      ["analytic", "--config", cfg, "--spec", spec, "--out", analytic]],
            "measure": [["estimate", "--records", records, "--spec", spec, "--out", estimates]],
            "check": [],
            "work_items": len(windowed_specs(MC_DT_US)),
            "work_unit": "correlators",
            "outputs": [records, analytic, estimates],
            "mc_pairs": [(analytic, estimates)],
        }

    if name == "fig2_scan":
        n_traj = 512 if tiny else 32768
        rows, summary = str(work / "fig2.csv"), str(work / "fig2_summary.csv")
        # The scan simulates t_a + window + dt21 + max dt32 + dt43 + 2 dt.
        edge = _snap(0.15 / GAMMA, MC_DT_US)
        t_total = 1.0 + 0.5 + 2 * edge + _snap(2.3 / GAMMA, MC_DT_US) + 2 * MC_DT_US
        return {
            "setup": [],
            "measure": [["replica-fig2", "--phi", FIG2_PHI, "--n-traj", str(n_traj), "--workers", "2",
                         "--seed", mseed, "--out", rows, "--summary-out", summary]],
            "check": [],
            "work_items": n_traj * _n_steps({"sim": {"t_total_us": t_total, "dt_us": MC_DT_US}}),
            "work_unit": "traj_steps",
            "outputs": [rows, summary],
            "fig2": (rows, summary),
        }

    # analytic_window: the unital preset model and a non-unital, Rabi-driven one.
    sim = dict(preset["sim"], dt_us=0.02 if tiny else ANALYTIC_DT_US, t_total_us=1.0, n_traj=2)
    theta = rng.uniform(0.0, math.pi)
    models = {
        "unital": dict(preset, sim=sim),
        "nonunital": dict(
            preset, sim=sim,
            hamiltonian={"rabi_axis": [math.cos(theta), math.sin(theta), 0.0],
                         "rabi_freq_rad_per_us": rng.uniform(2.0, 6.0)},
            environment={"lambda": [[-0.2, 0.0, 0.0], [0.0, -0.2, 0.0], [0.0, 0.0, -0.4]],
                         "r_st": [0.0, 0.0, -rng.uniform(0.3, 0.8)]}),
    }
    specs = windowed_specs(sim["dt_us"])[::8 if tiny else 1]
    spec = _write_json(work / "specs.json", specs + explicit_specs(rng))
    outputs = {label: str(work / f"{label}.csv") for label in models}
    return {
        "setup": [],
        "measure": [["analytic", "--config", _write_json(work / f"{label}.json", cfg), "--spec", spec,
                     "--out", outputs[label]] for label, cfg in models.items()],
        "check": [],
        "work_items": len(models) * (len(specs) + len(EXPLICIT_EVENT_COUNTS)),
        "work_unit": "correlators",
        "outputs": list(outputs.values()),
        "exact": outputs,
    }


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def _sigma(delta: float, se: float) -> float:
    """|delta| in standard errors, as `qcorr compare` computes it."""
    return abs(delta) / se if se > 0 else float("inf") if delta else 0.0


def mc_checks(analytic_csv, estimates_csv):
    """Monte Carlo vs exact per point, joined on `qcorr compare`'s key columns.

    Returns (label, passed, detail) per analytic row; an analytic row with
    no matching estimate fails.
    """
    a_header, a_rows = read_csv(analytic_csv)
    e_header, e_rows = read_csv(estimates_csv)
    keys = [c for c in a_header if c in set(e_header) and c not in VALUE_COLUMNS]
    estimates = {tuple(r[k] for k in keys): r for r in e_rows}
    out = []
    for row in a_rows:
        key = tuple(row[k] for k in keys)
        est = estimates.get(key)
        if est is None:
            out.append((f"mc {key}", False, "no matching estimate"))
            continue
        z = _sigma(float(est["value"]) - float(row["value"]), float(est["std_error"]))
        out.append((f"mc {key}", z <= MAX_SIGMA, f"{z:.3f} sigma"))
    return out


def fig2_checks(rows_csv, summary_csv):
    """Scan rows and the grid summary against the analytic constant."""
    out = []
    for row in read_csv(rows_csv)[1]:
        z = _sigma(float(row["mc_value"]) - float(row["analytic"]), float(row["mc_se"]))
        out.append((f"fig2 dt32={row['dt32_us']}", z <= MAX_SIGMA, f"{z:.3f} sigma"))
    for row in read_csv(summary_csv)[1]:
        z = _sigma(float(row["mc_mean"]) - float(row["analytic"]), float(row["mc_pooled_se"]))
        out.append((f"fig2 summary phi={row['phi']}", z <= MAX_SIGMA, f"{z:.3f} sigma"))
    return out


def exact_checks(unital_csv, nonunital_csv):
    """chain vs brute force on explicit specs; chain vs factorized on the unital model.

    The non-unital model must have its factorized column refused (NaN).
    """
    out = []
    for label, path in (("unital", unital_csv), ("nonunital", nonunital_csv)):
        for row in read_csv(path)[1]:
            chain, fact, brute = (float(row[c]) for c in ("chain", "factorized", "brute_force"))
            if not math.isnan(brute):
                d = abs(chain - brute)
                out.append((f"{label} brute {row['events']}", d <= ORACLE_TOL, f"|chain-brute|={d:.2e}"))
            if label == "unital":
                d = abs(chain - fact)
                out.append((f"unital factorized {row['events']}", d <= ORACLE_TOL,
                            f"|chain-factorized|={d:.2e}"))
            else:
                out.append((f"nonunital refuses factorization {row['events']}", math.isnan(fact),
                            f"factorized={fact}"))
    return out


def checks(p: dict):
    """Every output check of a workload's plan, as (label, passed, detail).

    Output that is missing or malformed fails its group of checks.
    """
    groups = [(mc_checks, pair) for pair in p.get("mc_pairs", ())]
    if "fig2" in p:
        groups.append((fig2_checks, p["fig2"]))
    if "exact" in p:
        groups.append((exact_checks, (p["exact"]["unital"], p["exact"]["nonunital"])))
    out = []
    for check, paths in groups:
        try:
            out += check(*paths)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            out.append((f"{check.__name__} {paths}", False, f"unreadable output: {exc!r}"))
    return out
