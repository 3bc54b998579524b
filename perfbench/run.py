"""qcorr benchmark: one workload per call, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are made from --seed;
the program sees only the generated configs and specs and a --seed derived
from it.  Each phase runs in a fresh process (perfbench/worker.py) that
calls `qcorr.cli.main` in-process, timed with the standard library only:

* set-up, repeated SETUP_REPEATS times (once when tracing); `setup_s` is
  the median wall time of one set-up process, interpreter start included;
* the measured process, which repeats one iteration of the workload for
  --seconds; its peak RSS is `peak_rss_mib`;
* checks of the outputs, in a process of their own.

The last line of standard output is the JSON result.  With --trace 0 its
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics.  Lines before it give each metric with its unit, every
check that failed, the sha256 of each output file and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0   # a workload's set-up, measurement and checks end within this
END_TO_END = (("wall_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))


class BenchError(Exception):
    """A benchmark process failed to produce a result."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read(path, default="unknown") -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return default


def machine(root: Path) -> dict:
    """The machine and the code a result was measured on."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo", "").splitlines()
                  if line.startswith("model name")), "unknown")
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    head = _read(root / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        head = _read(root / ".git" / head[5:]).strip()
    src = hashlib.sha256()
    for path in sorted((root / "src" / "qcorr").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": model, "l3": l3,
            "python": platform.python_version(), "git_commit": head,
            "src_sha256": src.hexdigest()}


def _run_phase(root: Path, work: Path, phase: str, argvs, deadline: float, seconds=0.0, trace=False):
    """Run one worker process; return (its result, its wall seconds).

    The process is killed once the workload's run deadline has passed.
    """
    job = {"root": str(root), "phase": phase, "argvs": argvs, "seconds": seconds,
           "trace": trace, "result": str(work / f"{phase}.result.json")}
    job_path = work / f"{phase}.job.json"
    job_path.write_text(json.dumps(job))
    log_path = work / f"{phase}.log"
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=root,
                                stdout=log, stderr=subprocess.STDOUT)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the set-up times.
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:  # SIGTERM or ^C: stop the worker, then unwind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    if proc.returncode == -signal.SIGKILL and time.monotonic() >= deadline:
        raise BenchError(f"{phase} process killed at the {RUN_BUDGET_S:.0f} s run deadline")
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-3000:]
        raise BenchError(f"{phase} process exited with {proc.returncode}:\n{tail}")
    return json.loads(Path(job["result"]).read_text()), wall


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> dict:
    """Set up, measure and check one workload; return its full result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.plan(name, root, work, seed, tiny)
        checks = []
        setup_walls, setup_digests = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            res, wall = _run_phase(root, work, "setup", plan["setup"], deadline)
            setup_walls.append(wall)
            checks += [(f"exit {a[0]} (setup)", rc == 0, f"exit code {rc}")
                       for a, rc in zip(plan["setup"], res["exit_codes"])]
            setup_digests.append({Path(p).name: _sha256(p) for p in plan["outputs"] if Path(p).exists()})
        if plan["setup"] and len(setup_digests) > 1:
            same = all(d == setup_digests[0] for d in setup_digests)
            checks.append(("set-up outputs identical across repeats", same, str(setup_digests)))
        measured, _ = _run_phase(root, work, "measure", plan["measure"], deadline, seconds, trace)
        checks += [(f"exit {plan['measure'][i % len(plan['measure'])][0]} (measure)", rc == 0,
                    f"exit code {rc}") for i, rc in enumerate(measured["exit_codes"])]
        if plan["check"]:
            res, _ = _run_phase(root, work, "check", plan["check"], deadline)
            checks += [(f"exit {a[0]} (check)", rc == 0, f"exit code {rc}")
                       for a, rc in zip(plan["check"], res["exit_codes"])]
        checks += workloads.checks(plan)
        digests = {Path(p).name: _sha256(p) if Path(p).exists() else "missing" for p in plan["outputs"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    walls = measured["walls"]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "why": workloads.WHY[name],
        "work_unit": plan["work_unit"], "work_items": plan["work_items"],
        "iterations": len(walls), "walls_s": walls, "setup_walls_s": setup_walls,
        "checks_attempted": len(checks), "checks_failed": [c for c in checks if not c[1]],
        "sha256": digests,
        "machine": dict(machine(root), numpy=measured["numpy"]),
    }
    if trace:
        result["metrics"] = layers.median_metrics(measured["layer_runs"], measured["traced_walls"], walls)
        result["traced_walls_s"] = measured["traced_walls"]
        result["functions"] = measured["functions"][-1]
        result["not_traced"] = measured["not_traced"]
    else:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "work_per_s": statistics.median(plan["work_items"] / w for w in walls),
            "peak_rss_mib": measured["peak_rss_kib"] / 1024.0,
            "setup_s": statistics.median(setup_walls),
        }
    return result


def _units(trace: bool) -> dict:
    return dict(layers.LAYER_METRICS if trace else END_TO_END)


def report(result: dict) -> None:
    """Human-readable lines for one workload's result."""
    units = _units(result["trace"])
    failed = result["checks_failed"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={result['iterations']}  ({result['why']})")
    for name, value in result["metrics"].items():
        alias = f"  ({result['work_unit']}_per_s)" if name == "work_per_s" else ""
        print(f"  {name:28s} {value:.6g} {units[name]}{alias}")
    print(f"  {'check_fail_frac':28s} {len(failed) / result['checks_attempted']:.6g} ratio"
          f"  ({len(failed)} of {result['checks_attempted']} checks failed)")
    for label, _, detail in failed:
        print(f"  FAILED {label}: {detail}")
    for fname, digest in result["sha256"].items():
        print(f"  sha256 {fname} {digest}")
    print(f"  machine {json.dumps(result['machine'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for testing the benchmark itself")
    parser.add_argument("--record", help="append each full result as a JSON line to this file")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running phase is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "qcorr" / "cli.py").is_file():
        print(f"error: {root} holds no qcorr source tree (src/qcorr); run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.tiny, root))
        except BenchError as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(results[-1]) + "\n")

    units = _units(bool(args.trace))
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for r in results for k, v in r["metrics"].items()}
    failed = sum(len(r["checks_failed"]) for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["checks_attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
