"""The benchmark command, run as its own process on every workload at a tiny
size, traced and untraced: it must exit 0, and its last line of standard
output must be a strict-JSON result of a correct run that holds every
metric BENCHMARK.json declares for its mode (per_layer traced, end_to_end
untraced). An in-process test cannot see a stray line printed after the
result or a non-JSON constant such as NaN in it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def _run_tiny(workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "codecbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True, result
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_ends_with_a_strict_json_result(workload):
    metrics = _run_tiny(workload, trace=1)["metrics"]
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in metrics] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run_ends_with_a_strict_json_result(workload):
    metrics = _run_tiny(workload, trace=0)["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"] if m["name"] not in metrics] == []
