"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs at --tiny size (a few seconds each).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])


def test_declared_workloads_are_defined_here():
    for w in SPEC["workloads"]:
        assert workloads.WHY[w["name"]] == w["why"]


def test_traced_run_restores_every_wrapped_function(tmp_path):
    import importlib

    from qcorr.cli import main

    originals = {(m, n): getattr(importlib.import_module(m), n) for m, n, _ in layers.WRAPPED}
    out = tmp_path / "fig2.csv"
    with pytest.raises(RuntimeError):
        with layers.Tracer() as tracer:
            for (m, n), fn in originals.items():
                assert getattr(importlib.import_module(m), n) is not fn
            assert main(["replica-fig2", "--phi", "0.5", "--n-traj", "64", "--out", str(out)]) == 0
            raise RuntimeError("leave the traced block by an exception")
    for (m, n), fn in originals.items():
        assert getattr(importlib.import_module(m), n) is fn
    assert {s.layer for s in tracer.spans} >= {"noise", "trajectory", "empirical", "replica"}


def test_self_time_subtracts_the_union_of_child_spans():
    def span(start, end):
        s = layers.Span("x", "f", None)
        s.start, s.end = start, end
        return s

    outer = span(0.0, 10.0)
    children = [span(1.0, 3.0), span(2.0, 4.0), span(9.0, 12.0), span(20.0, 21.0)]
    assert layers._self_s([outer], children) == pytest.approx(10.0 - 3.0 - 1.0)


def test_fails_without_a_source_tree(tmp_path):
    proc = _run(tmp_path, "--workload", "fig2_scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
