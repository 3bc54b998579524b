"""Command-line interface: simulate, analytic, estimate, replica scans, compare.

Every float written to CSV uses 17 significant digits so values round-trip
exactly; a fixed seed therefore yields byte-identical outputs across runs
and worker counts. estimate and analytic resolve each windowed spec entry
once (empirical.resolve_spec), against the record header or the config; a
refusal names its entry as spec[i], as a parse error does. estimate fits
the specs to the header's record span (ResolvedSpecs.check) and checks its
trajectory count before it reads any payload, then runs the Monte Carlo
driver of the replica scans (empirical.estimate_batches) on the file: each
batch of trajectory.batch_rows trajectories for the header's record shape
is read in blocks of empirical.block_rows, each folded before the next is
read. simulate takes the ensemble from the config's sim keys alone and
writes it batch by batch (recordio.simulate_records).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import contextmanager
from functools import cache, partial

import numpy as np

from .analytic import (
    CorrelatorSpec,
    brute_force_correlator,
    chain_correlator,
    factorized_correlator,
    window_mean_spec,
    window_mean_state,
)
from .config import (
    _integer,
    _number,
    _require_keys,
    _vector3,
    parse_config,
    read_json,
    setup_from_json,
)
# estimate_correlator is unused here but stays importable from this module:
# perfbench/layers.py traces it under this name.
from .empirical import (  # noqa: F401
    ResolvedSpecs,
    Window,
    block_rows,
    estimate_batches,
    estimate_correlator,
    events_key,
    merge_estimates,
    require_standard_error,
    resolve_spec,
    window_key,
)
from .errors import (
    ConfigError,
    FactorizationInapplicableError,
    QcorrError,
    ValidationError,
)
# write_records and simulate_ensemble are unused here but stay importable from
# this module: perfbench/layers.py traces them under this name.
from .recordio import read_header, read_records, simulate_records, write_records  # noqa: F401
from .replica import ReplicaConfig, four_time_scan, three_time_scan
from .trajectory import batch_rows, index_ranges, simulate_ensemble  # noqa: F401

FLOAT_FMT = ".17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, FLOAT_FMT)
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _channel_times(items, path: str, time_key: str) -> list:
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{path}: expected a non-empty array")
    pairs = []
    for i, item in enumerate(items):
        _require_keys(item, f"{path}[{i}]", required=("channel", time_key))
        pairs.append((_integer(item["channel"], f"{path}[{i}].channel"),
                      _number(item[time_key], f"{path}[{i}].{time_key}")))
    return pairs


@contextmanager
def _entry(i: int):
    """Name spec[i] in a ValidationError raised inside: it refuses that entry."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"spec[{i}]: {exc}") from None


def _spec_entries(path, r_init) -> list:
    """Validated entries of a spec file: each a CorrelatorSpec or (gaps, Window).

    Explicit event lists are accepted only when r_init, their default initial
    state, is not None; the windowed form needs no state.
    """
    raw = read_json(path)
    if raw == []:
        raise ConfigError("spec: expected a non-empty array")
    entries = []
    for i, entry in enumerate(raw if isinstance(raw, list) else [raw]):
        where = f"spec[{i}]"
        with _entry(i):
            if r_init is not None and isinstance(entry, dict) and "events" in entry:
                _require_keys(entry, where, required=("events",), optional=("initial",))
                init = entry.get("initial", {})
                _require_keys(init, f"{where}.initial", required=(), optional=("r", "t_us"))
                r_in = tuple(_vector3(init["r"], f"{where}.initial.r")) if "r" in init else r_init
                t_in = _number(init.get("t_us", 0.0), f"{where}.initial.t_us")
                events = _channel_times(entry["events"], f"{where}.events", "t_us")
                entries.append(CorrelatorSpec(events, r_in, t_in))
            else:
                _require_keys(entry, where, required=("window", "gaps"))
                window = entry["window"]
                _require_keys(window, f"{where}.window", required=("t_a_us", "T_us"))
                entries.append((
                    _channel_times(entry["gaps"], f"{where}.gaps", "dt_us"),
                    Window(_number(window["t_a_us"], f"{where}.window.t_a_us"),
                           _number(window["T_us"], f"{where}.window.T_us")),
                ))
    return entries


def _parse_float_list(text, option: str) -> list:
    """The numbers of a comma-separated option value: finite, at least one."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"{option}: expected comma-separated finite numbers, got {text!r}")
    return values


def _do_simulate(args) -> int:
    # The options replace the file's values before anything is validated, so
    # the file's own dt or n_traj is neither warned about nor refused.
    raw = read_json(args.config)
    if isinstance(raw, dict) and isinstance(raw.get("sim"), dict):
        for key, value in (("seed", args.seed), ("n_traj", args.n_traj), ("dt_us", args.dt)):
            if value is not None:
                raw["sim"][key] = value
    setup = setup_from_json(raw)
    sim = setup.sim
    out = args.out or setup.outputs.get("records")
    if not out:
        raise QcorrError("no output path: pass --out or set outputs.records in the config")
    progress = None
    if args.progress:
        def progress(done, total):
            print(f"\r{done}/{total} trajectories", end="", file=sys.stderr, flush=True)
    simulate_records(out, sim, workers=args.workers, progress=progress)
    if args.progress:
        print(file=sys.stderr)
    print(
        f"wrote {sim.n_traj} trajectories x {sim.n_channels} channels "
        f"x {sim.n_samples} samples to {out}"
    )
    return 0


def _do_analytic(args) -> int:
    sim = parse_config(args.config).sim
    model, channels, dt = sim.model, sim.channels, sim.dt
    entries = _spec_entries(args.spec, sim.r_init)
    rows = []
    window_state = cache(partial(window_mean_state, model, sim.r_init))  # once per window
    for i, entry in enumerate(entries):
        with _entry(i):
            if isinstance(entry, CorrelatorSpec):
                spec = entry
                key = (events_key(entry.events), float("nan"), float("nan"))
            else:
                bins, events = resolve_spec(*entry, dt, len(channels))
                spec = window_mean_spec(window_state(entry[1], dt), events, dt)
                key = window_key(dt, bins, events)
            chain = chain_correlator(model, channels, spec)
        try:
            fact = factorized_correlator(model, channels, spec)
        except FactorizationInapplicableError:
            fact = float("nan")
        try:
            brute = brute_force_correlator(model, channels, spec)
        except ValidationError:
            # The chain accepted the spec: brute force refused its size or phase kicks.
            brute = float("nan")
        rows.append((*key, chain, chain, fact, brute))
    header = ["events", "window_start_us", "window_len_us", "value",
              "chain", "factorized", "brute_force"]
    for row in rows:
        print(f"{row[0]}: chain={_fmt(row[4])} factorized={_fmt(row[5])} "
              f"brute_force={_fmt(row[6])}")
    if args.out:
        _write_csv(args.out, header, rows)
    return 0


def _do_estimate(args) -> int:
    entries = _spec_entries(args.spec, None)
    header = read_header(args.records)
    resolved = []
    for i, (gaps, window) in enumerate(entries):
        with _entry(i):
            resolved.append(resolve_spec(gaps, window, header.dt, header.n_channels))
    specs = ResolvedSpecs(resolved)
    specs.check(header.n_channels, header.n_samples)
    require_standard_error(header.n_traj)
    block = block_rows(header.n_channels, header.n_samples)

    def load(lo, hi):  # trajectories [lo, hi), read block trajectories at a time
        for start, stop in index_ranges(lo, hi, block):
            yield read_records(args.records, start, stop).samples

    batches = estimate_batches(load, specs, header.dt, header.n_traj,
                               batch_rows(header.n_channels, header.n_samples), source=args.records)
    pooled = None
    for batch in batches:  # merged into the running estimates as it arrives
        pooled = list(map(merge_estimates, zip(batch) if pooled is None else zip(pooled, batch)))
    rows = []
    for est in pooled:
        key, w0, wlen = window_key(*est.spec_key())
        rows.append((key, w0, wlen, est.value, est.std_error,
                     est.n_traj, est.n_window_samples))
        print(f"{key}: value={_fmt(est.value)} +- {_fmt(est.std_error)}")
    columns = ["events", "window_start_us", "window_len_us", "value",
               "std_error", "n_traj", "n_window_samples"]
    if args.out:
        _write_csv(args.out, columns, rows)
    return 0


def _replica_config(args, phi) -> ReplicaConfig:
    kwargs = dict(phi=phi, include_mc=args.mc, workers=args.workers)
    if args.n_traj is not None:
        kwargs["n_traj"] = args.n_traj
    if args.dt is not None:
        kwargs["dt"] = args.dt
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    return ReplicaConfig(**kwargs)


def _do_replica_fig1(args) -> int:
    rows = []
    grid21 = None if args.dt21_grid is None else _parse_float_list(args.dt21_grid, "--dt21-grid")
    grid32 = None if args.dt32_grid is None else _parse_float_list(args.dt32_grid, "--dt32-grid")
    for phi in _parse_float_list(args.phi, "--phi"):
        config = _replica_config(args, phi)
        rows.extend(three_time_scan(config, grid21, grid32))
    _write_csv(
        args.out,
        ["phi", "dt21_us", "dt32_us", "analytic", "mc_value", "mc_se"],
        [(r.phi, r.dt21, r.dt32, r.analytic, r.mc_value, r.mc_se) for r in rows],
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _do_replica_fig2(args) -> int:
    rows = []
    summaries = []
    grid32 = None if args.dt32_grid is None else _parse_float_list(args.dt32_grid, "--dt32-grid")
    for phi in _parse_float_list(args.phi, "--phi"):
        config = _replica_config(args, phi)
        phi_rows, summary = four_time_scan(config, grid32)
        rows.extend(phi_rows)
        summaries.append(summary)
    _write_csv(
        args.out,
        ["phi", "dt21_us", "dt32_us", "dt43_us", "analytic", "mc_value", "mc_se"],
        [(r.phi, r.dt21, r.dt32, r.dt43, r.analytic, r.mc_value, r.mc_se) for r in rows],
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.summary_out:
        _write_csv(
            args.summary_out,
            ["phi", "mc_mean", "mc_std", "mc_pooled_se", "analytic", "n_traj"],
            [(s.phi, s.mc_mean, s.mc_std, s.mc_pooled_se, s.analytic, s.n_traj)
             for s in summaries],
        )
        print(f"wrote {len(summaries)} summary rows to {args.summary_out}")
    return 0


_VALUE_COLUMNS = {"value", "std_error", "chain", "factorized", "brute_force",
                  "n_traj", "n_window_samples", "mc_value", "mc_se"}


def _read_csv(path):
    """(header, rows as dicts) of a CSV; a short row's missing fields read None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header, rows = reader.fieldnames, list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise QcorrError(f"{path}: {exc}") from None
    if not header:
        raise QcorrError(f"{path} has no header line")
    return header, rows


def _float(row, column: str, path) -> float:
    try:
        return float(row[column])
    except (TypeError, ValueError):
        raise QcorrError(f"{path}: {column} {row[column]!r} is not a number") from None


def _by_key(path, rows, keys) -> dict:
    """The rows of a CSV by their key columns' values; a repeated key is refused."""
    keyed = {}
    for row in rows:
        key = tuple(row[k] for k in keys)
        if key in keyed:
            raise QcorrError(f"{path}: key {dict(zip(keys, key))} appears more than once")
        keyed[key] = row
    return keyed


def _do_compare(args) -> int:
    if not (0.0 < args.max_sigma < math.inf):
        raise QcorrError(f"--max-sigma must be positive and finite, got {args.max_sigma}")
    a_header, a_rows = _read_csv(args.analytic)
    e_header, e_rows = _read_csv(args.empirical)
    if "value" not in a_header:
        raise QcorrError(f"{args.analytic} has no 'value' column")
    if "value" not in e_header or "std_error" not in e_header:
        raise QcorrError(f"{args.empirical} needs 'value' and 'std_error' columns")
    keys = [c for c in a_header if c in set(e_header) and c not in _VALUE_COLUMNS]
    if not keys:
        raise QcorrError("the two files share no key columns to join on")
    analytic = {key: _float(row, "value", args.analytic)
                for key, row in _by_key(args.analytic, a_rows, keys).items()}
    sigmas = []
    unmatched_empirical = 0
    failures = 0
    for key, row in _by_key(args.empirical, e_rows, keys).items():
        if key not in analytic:
            unmatched_empirical += 1
            continue
        delta = _float(row, "value", args.empirical) - analytic[key]
        se = _float(row, "std_error", args.empirical)
        sigma = abs(delta) / se if se > 0 else float("inf") if delta else 0.0
        if not math.isfinite(se):
            sigma = float("nan")  # no error bar to measure delta against
        sigmas.append(sigma)
        if not sigma <= args.max_sigma:  # a NaN sigma is a mismatch too
            failures += 1
            print(f"MISMATCH {dict(zip(keys, key))}: |delta|/se = {sigma:.2f}")
    if not sigmas:
        raise QcorrError("no rows matched between the two files")
    unmatched_analytic = len(analytic) - len(sigmas)
    # Each is a sigma of some point (the smallest at or above that share of
    # them); numpy, unlike max, keeps a NaN sigma in the summary.
    median, p90, worst = np.percentile(sigmas, (50, 90, 100), method="inverted_cdf")
    print(f"compared {len(sigmas)} rows on {keys}: "
          f"max |delta|/se = {worst:.3f} (threshold {args.max_sigma}), "
          f"median {median:.3f}, 90th percentile {p90:.3f}; "
          f"unmatched rows: {unmatched_analytic} analytic, {unmatched_empirical} empirical")
    # A row of either file that the other lacks is a point left unchecked.
    return 0 if failures == 0 and unmatched_analytic == unmatched_empirical == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Simulate continuous qubit measurement records and "
                    "compute multi-time output correlators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate trajectories and write a record file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-traj", type=int, dest="n_traj")
    p.add_argument("--dt", type=float)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_do_simulate)

    p = sub.add_parser("analytic", help="evaluate correlators of a spec file exactly")
    p.add_argument("--config", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_do_analytic)

    p = sub.add_parser("estimate", help="estimate correlators from a record file")
    p.add_argument("--records", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_do_estimate)

    for name, fn in (("replica-fig1", _do_replica_fig1), ("replica-fig2", _do_replica_fig2)):
        p = sub.add_parser(name, help=f"run the two-detector {name[-4:]} scan")
        p.add_argument("--phi", required=True,
                       help="comma-separated measurement-axis angles in radians")
        p.add_argument("--out", required=True)
        p.add_argument("--n-traj", type=int, dest="n_traj")
        p.add_argument("--dt", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--mc", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--dt32-grid", dest="dt32_grid",
                       help="comma-separated gap values in microseconds")
        if name == "replica-fig1":
            p.add_argument("--dt21-grid", dest="dt21_grid",
                           help="comma-separated gap values in microseconds")
        else:
            p.add_argument("--summary-out", dest="summary_out")
        p.set_defaults(func=fn)

    p = sub.add_parser("compare", help="join analytic and empirical CSVs, check agreement")
    p.add_argument("--analytic", required=True)
    p.add_argument("--empirical", required=True)
    p.add_argument("--max-sigma", type=float, default=4.0, dest="max_sigma")
    p.set_defaults(func=_do_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
