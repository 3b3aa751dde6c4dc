"""Smoke test of the benchmark command line: every workload at a tiny size."""

import json
import re

import numpy as np
import pytest

from codecbench import run

SPEC = run.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_declared_metrics_are_well_formed():
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert metric["unit"], metric
            assert metric["better"] in ("higher", "lower"), metric
    assert run.use_checkout_sources()
    from codecbench import workloads

    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_declared_metrics(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]["unit"]
        assert np.isfinite(metric["value"])
    if not trace:
        assert set(result["metrics"]) == set(declared)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _differs(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return not np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return any(_differs(x, y) for x, y in zip(a, b))
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    assert run.use_checkout_sources()
    from codecbench import workloads

    wl = workloads.WORKLOADS[workload](tiny=True)
    assert not _differs(wl.inputs(5), wl.inputs(5))
    assert _differs(wl.inputs(5), wl.inputs(6))


def test_tracer_skips_missing_hooks_and_restores_originals():
    assert run.use_checkout_sources()
    import bnvc.codec
    import bnvc.network
    import bnvc.tensor
    from codecbench.tracing import HOOKS, Tracer

    gone = ("codec.gone", "bnvc.codec", "no_such_function")
    with Tracer(HOOKS + (gone,)) as tracer:
        assert bnvc.network.conv2d is not bnvc.tensor.conv2d.__wrapped__
        assert bnvc.network.conv2d is bnvc.tensor.conv2d
    assert any("no_such_function not found" in note for note in tracer.notes)
    assert "codec.gone" not in tracer.layers
    assert not hasattr(bnvc.tensor.conv2d, "__wrapped__")
    assert bnvc.network.conv2d is bnvc.tensor.conv2d
    assert not hasattr(bnvc.codec.encode_sequence, "__wrapped__")
