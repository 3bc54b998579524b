"""One benchmark process: runs `qcorr.cli.main` in-process for one phase.

    python perfbench/worker.py JOB.json

JOB.json names the repository root, the phase (`setup`, `measure` or
`check`), the argv lists of one iteration, and for `measure` the run length
in seconds and whether to trace.  `setup` and `check` run their argv lists
once.  `measure` repeats the iteration until the run length is used up,
and at least MIN_ITERATIONS times; with tracing on it alternates an
untraced and a traced iteration until the run length is used up, and the
traced ones give the per-layer metrics.  The result, with the process's
peak RSS, goes to the JSON file the job names.  qcorr is imported from the
root's `src/`, never from an installed copy.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

# The median of fewer iterations would flip between the middle value and the
# mean of two as a workload's speed crosses the run length.
MIN_ITERATIONS = 3


def _import_qcorr(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import qcorr.cli

    if not Path(qcorr.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qcorr imported from {qcorr.cli.__file__}, not from {src}")
    return qcorr.cli, numpy.__version__


def _iteration(cli, argvs):
    gc.collect()
    t0 = time.perf_counter()
    codes = [cli.main(list(argv)) for argv in argvs]
    t1 = time.perf_counter()
    return t0, t1, codes


def measure(cli, argvs, seconds: float, trace: bool) -> dict:
    out = {"walls": [], "exit_codes": []}
    if trace:
        import layers
        out.update(traced_walls=[], layer_runs=[], functions=[], not_traced=[])

    def untraced():
        t0, t1, codes = _iteration(cli, argvs)
        out["walls"].append(t1 - t0)
        out["exit_codes"] += codes

    deadline = time.perf_counter() + seconds
    while True:
        # Traced iterations alternate between first and second place in a
        # pair, so that neither side always pays the process's first run.
        traced_first = trace and len(out["walls"]) % 2 == 1
        if not traced_first:
            untraced()
        if trace:
            with layers.Tracer() as tracer:
                t0, t1, codes = _iteration(cli, argvs)
                tracer.root(t0, t1)
            out["exit_codes"] += codes
            out["traced_walls"].append(t1 - t0)
            out["layer_runs"].append(layers.layer_metrics(tracer.spans))
            out["functions"].append(layers.function_table(tracer.spans))
            out["not_traced"] = tracer.missing
            del tracer
        if traced_first:
            untraced()
        if time.perf_counter() >= deadline and (trace or len(out["walls"]) >= MIN_ITERATIONS):
            return out


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    cli, numpy_version = _import_qcorr(Path(job["root"]))
    result = {"numpy": numpy_version}
    if job["phase"] == "measure":
        result.update(measure(cli, job["argvs"], job["seconds"], job["trace"]))
    else:
        result["exit_codes"] = [cli.main(list(a)) for a in job["argvs"]]
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
