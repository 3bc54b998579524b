"""Median and quartiles per workload and metric of recorded benchmark runs.

    python3 perfbench/summarize.py perfbench/results/BENCH_baseline.jsonl [more.jsonl ...]

Reads the JSON lines that `run.py --record` appends and prints, for each
workload, trace mode and metric, the number of runs, the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the distance
between them as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths) -> int:
    groups = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                r = json.loads(line)
                for name, value in r["metrics"].items():
                    groups.setdefault((r["workload"], r["trace"], name), []).append(value)
    print(f"{'workload':16s} {'trace':5s} {'metric':28s} {'runs':>4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    for (workload, trace, name), values in groups.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{workload:16s} {trace:<5d} {name:28s} {len(values):4d} {median:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
