"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "playout-50k", "serve-mixed", "paper-fig7",
    ]


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 90
    assert run.tail([3.0, 1.0]) == (1.0, 0)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("bench.op") as root:
        with tracer.span("session") as child:
            with tracer.span("des.playout"):
                pass
    selfs = tracer.self_times()
    kids = [s for s in tracer.spans if s.parent == child.id]
    assert selfs[child.id] == pytest.approx(
        (child.end - child.start) - sum(k.end - k.start for k in kids))
    assert sum(selfs.values()) == pytest.approx(root.end - root.start)
    roots = tracer.roots()
    assert all(roots[s.id] is root for s in tracer.spans)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "playout-50k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(last["metrics"]) == set(units)
    result = json.loads(
        (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    return result


@pytest.mark.parametrize("workload", ["playout-50k", "serve-mixed", "paper-fig7"])
def test_deterministic_numbers_repeat(tmp_path, workload):
    """Two processes, one traced and one not, agree on every simulated number."""
    untraced = _run(tmp_path, workload, 0)
    traced = _run(tmp_path, workload, 1)
    assert untraced["deterministic"]
    assert traced["deterministic"] == untraced["deterministic"]
    assert traced["end_to_end"]["model_err"] == untraced["end_to_end"]["model_err"]
    layers = traced["per_layer"]
    assert layers["trace.coverage"] >= 0.9
    assert layers["setup.trace.coverage"] >= 0.9
    assert (tmp_path / f"{workload}-seed3-trace1-chrome.json").is_file()
