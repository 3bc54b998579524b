"""Per-layer spans for the traced benchmark run.

`Tracer` wraps, from outside the program, the module-level functions that one
qcorr layer calls in another.  It replaces the name in the module that calls
it (the binding made by `from .x import f`) and restores every original on
exit, so untraced iterations run the program exactly as shipped.  Each call
becomes a span (layer, function, start, end, parent span) kept in memory;
`layer_metrics` turns the spans of one traced iteration into the per-layer
metrics.  Calls made from worker threads get their own span stacks.
"""

from __future__ import annotations

import importlib
import inspect
import resource
import statistics
import sys
import threading
import time
import tracemalloc

# (module whose global is replaced, function name, layer).  `config` and
# `errors` are not traced: together they take about a millisecond per run.
WRAPPED = (
    ("qcorr.trajectory", "trajectory_draws", "noise"),
    ("qcorr.cli", "simulate_ensemble", "trajectory"),
    ("qcorr.replica", "simulate_range", "trajectory"),
    ("qcorr.cli", "write_records", "recordio"),
    ("qcorr.cli", "read_records", "recordio"),
    ("qcorr.cli", "estimate_correlator", "empirical"),
    ("qcorr.replica", "estimate_correlator", "empirical"),
    ("qcorr.replica", "trajectory_window_means", "empirical"),
    ("qcorr.replica", "merge_estimates", "empirical"),
    ("qcorr.cli", "three_time_scan", "replica"),
    ("qcorr.cli", "four_time_scan", "replica"),
    ("qcorr.cli", "chain_correlator", "analytic"),
    ("qcorr.cli", "factorized_correlator", "analytic"),
    ("qcorr.cli", "brute_force_correlator", "analytic"),
    ("qcorr.replica", "mean_signal", "analytic"),
    ("qcorr.replica", "two_time_correlator", "analytic"),
    ("qcorr.analytic", "ordered_propagator", "bloch"),
    ("qcorr.bloch", "ordered_propagator", "bloch"),
    ("qcorr.linalg", "expm", "linalg"),
)

# Per-layer metrics with their units, in report order.
LAYER_METRICS = (
    ("noise.calls", "count"), ("noise.busy_s", "s"), ("noise.draws_per_s", "1/s"),
    ("trajectory.busy_s", "s"), ("trajectory.self_s", "s"), ("trajectory.traj_steps", "count"),
    ("trajectory.cpu_per_wall", "ratio"), ("trajectory.clip_fraction", "ratio"),
    ("trajectory.sample_mib", "MiB"),
    ("recordio.write_s", "s"), ("recordio.read_s", "s"), ("recordio.payload_mib", "MiB"),
    ("recordio.read_peak_ratio", "ratio"),
    ("empirical.estimate_calls", "count"), ("empirical.estimate_s", "s"),
    ("empirical.window_means_calls", "count"), ("empirical.window_means_s", "s"),
    ("empirical.samples_read", "count"), ("empirical.msamples_per_s", "1/s"),
    ("empirical.duplicate_frac", "ratio"),
    ("replica.shards", "count"), ("replica.self_s", "s"),
    ("analytic.chain_calls", "count"), ("analytic.chain_s", "s"),
    ("analytic.factorized_s", "s"), ("analytic.brute_force_s", "s"),
    ("bloch.propagator_calls", "count"), ("bloch.propagator_s", "s"),
    ("linalg.expm_calls", "count"), ("linalg.expm_s", "s"), ("linalg.expm_distinct_frac", "ratio"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

MIB = 2.0 ** 20


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "info")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.info = None


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _window_call(fn, args, kwargs, result):
    """Samples read by a window estimate, and its (shard, gaps, window) key."""
    a = _bound(fn, args, kwargs)
    records, gaps, window = a["records"], a["gaps"], a["window"]
    dt = records.dt
    bins = round((window.t_a + window.length) / dt) - round(window.t_a / dt) + 1
    gaps = tuple((int(ch), float(g)) for ch, g in gaps)
    return {"samples": records.n_traj * bins * len(gaps),
            "key": (records.traj_offset, records.n_traj, gaps, window)}


def _records_made(fn, args, kwargs, result):
    return {"traj_steps": result.n_traj * result.n_samples,
            "clipped": result.clipped_steps, "sample_bytes": result.samples.nbytes}


def _records_written(fn, args, kwargs, result):
    return {"payload": _bound(fn, args, kwargs)["records"].samples.nbytes}


# Function name -> what a span of it records beyond its timing.
_INFO = {
    "trajectory_draws": lambda fn, args, kwargs, result: {"draws": result.size},
    "simulate_ensemble": _records_made,
    "simulate_range": _records_made,
    "write_records": _records_written,
    "read_records": lambda fn, args, kwargs, result: {"payload": result.samples.nbytes},
    "estimate_correlator": _window_call,
    "trajectory_window_means": _window_call,
    "expm": lambda fn, args, kwargs, result: {"key": args[0].tobytes()},
}


class Tracer:
    """Context manager that wraps the functions in WRAPPED while active."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        info = _INFO.get(name)
        cpu = layer == "trajectory"
        peak = name == "read_records"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(layer, name, stack[-1] if stack else None)
            stack.append(span)
            if peak:
                tracemalloc.start()
            cpu0 = _cpu_s() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span.info = info(fn, args, kwargs, result) if info else {}
            if cpu:
                span.info["cpu_s"] = _cpu_s() - cpu0
            if peak:
                span.info["peak"] = peak_bytes
            tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def __enter__(self):
        for module_name, name, layer in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if fn is None:
                # A later version may have dropped this import; trace the rest.
                self.missing.append(f"{module_name}.{name}")
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(layer, name, fn))
        if self.missing:
            print(f"not traced (absent): {', '.join(self.missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    def root(self, start: float, end: float) -> None:
        """Record the span of the whole iteration (the `cli` layer)."""
        span = Span("cli", "main", None)
        span.start, span.end = start, end
        self.spans.append(span)


def _covered(outer: Span, spans) -> float:
    """Length of [outer.start, outer.end] covered by the union of `spans`."""
    intervals = sorted((max(s.start, outer.start), min(s.end, outer.end)) for s in spans
                       if s.end > outer.start and s.start < outer.end)
    total = 0.0
    lo = hi = None
    for a, b in intervals:
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def _self_s(outers, others) -> float:
    """Summed span time of `outers` not covered by any span in `others`."""
    return sum((s.end - s.start) - _covered(s, others) for s in outers)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced iteration, all but `trace.overhead_frac`."""
    by = {}
    for s in spans:
        by.setdefault(s.layer, []).append(s)
    busy = lambda ss: sum(s.end - s.start for s in ss)  # noqa: E731
    of = lambda layer, *names: [s for s in by.get(layer, []) if s.name in names]  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    noise = by.get("noise", [])
    sims = by.get("trajectory", [])
    draws = sum(s.info["draws"] for s in noise)
    traj_steps = sum(s.info["traj_steps"] for s in sims)
    writes, reads = of("recordio", "write_records"), of("recordio", "read_records")
    payloads = [s.info["payload"] for s in writes + reads]
    estimates = of("empirical", "estimate_correlator")
    means = of("empirical", "trajectory_window_means")
    windowed = estimates + means
    keys = [s.info["key"] for s in windowed]
    samples = sum(s.info["samples"] for s in windowed)
    replica = by.get("replica", [])
    chains = of("analytic", "chain_correlator")
    props = by.get("bloch", [])
    expms = by.get("linalg", [])
    root = by["cli"]
    layered = [s for s in spans if s.layer != "cli"]

    return {
        "noise.calls": len(noise),
        "noise.busy_s": busy(noise),
        "noise.draws_per_s": ratio(draws, busy(noise)),
        "trajectory.busy_s": busy(sims),
        "trajectory.self_s": _self_s(sims, noise),
        "trajectory.traj_steps": traj_steps,
        "trajectory.cpu_per_wall": ratio(sum(s.info["cpu_s"] for s in sims), busy(sims)),
        "trajectory.clip_fraction": ratio(sum(s.info["clipped"] for s in sims), traj_steps),
        "trajectory.sample_mib": max((s.info["sample_bytes"] for s in sims), default=0) / MIB,
        "recordio.write_s": busy(writes),
        "recordio.read_s": busy(reads),
        "recordio.payload_mib": max(payloads, default=0) / MIB,
        "recordio.read_peak_ratio": max((ratio(s.info["peak"], s.info["payload"]) for s in reads),
                                        default=0.0),
        "empirical.estimate_calls": len(estimates),
        "empirical.estimate_s": busy(estimates),
        "empirical.window_means_calls": len(means),
        "empirical.window_means_s": busy(means),
        "empirical.samples_read": samples,
        "empirical.msamples_per_s": ratio(samples, busy(windowed)) / 1e6,
        "empirical.duplicate_frac": ratio(len(keys) - len(set(keys)), len(keys)),
        "replica.shards": len(of("trajectory", "simulate_range")),
        "replica.self_s": _self_s(replica, [s for s in layered if s.layer != "replica"]),
        "analytic.chain_calls": len(chains),
        "analytic.chain_s": busy(chains),
        "analytic.factorized_s": busy(of("analytic", "factorized_correlator")),
        "analytic.brute_force_s": busy(of("analytic", "brute_force_correlator")),
        "bloch.propagator_calls": len(props),
        "bloch.propagator_s": busy(props),
        "linalg.expm_calls": len(expms),
        "linalg.expm_s": busy(expms),
        "linalg.expm_distinct_frac": ratio(len({s.info["key"] for s in expms}), len(expms)),
        "cli.self_s": _self_s(root, layered),
    }


def function_table(spans) -> dict:
    """Calls and busy seconds per wrapped function, for the detail report."""
    table = {}
    for s in spans:
        row = table.setdefault(f"{s.layer}:{s.name}", {"calls": 0, "busy_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
    return table


def median_metrics(runs, traced_walls, untraced_walls) -> dict:
    """Per-metric median over the traced iterations of one run.

    `trace.overhead_frac` is the median traced over the median untraced
    iteration wall time, minus 1.
    """
    m = {name: statistics.median(r[name] for r in runs) for name, _ in LAYER_METRICS[:-1]}
    m["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    return m
