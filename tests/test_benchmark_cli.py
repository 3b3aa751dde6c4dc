"""The benchmark command, run as its own process on every workload at a tiny
size with the tracer on: it must exit 0, and its last line of standard
output must be a strict-JSON result of a correct run. An in-process test
cannot see a stray line printed after the result or a non-JSON constant
such as NaN in it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_ends_with_a_strict_json_result(workload):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "codecbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True, result
