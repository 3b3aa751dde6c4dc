"""Codec benchmark: command-line entry point.

    python3 codecbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the bnvc package is imported from its
`src/` directory. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a
separate run measures one unit untraced, then the same unit under the
span tracer, and reports the per-layer metrics. Earlier lines starting
with "# " carry the environment, sample counts and notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # one in this process, the rest in fresh child processes


def spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    p = argparse.ArgumentParser(prog="codecbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec()["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def use_checkout_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if bnvc is not there."""
    if not (ROOT / "src" / "bnvc" / "__init__.py").is_file():
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    return True


def _blas_info() -> dict:
    """OpenBLAS core type and thread count, read from the loaded library."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    info: dict = {"library": os.path.basename(libs[0]) if libs else None}
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype, core.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                info["coretype"] = core().decode()
                info["threads"] = int(threads())
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _set_up(args):
    """Import bnvc, build the model and warm it up at the workload's size."""
    t0 = time.perf_counter()
    from codecbench import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    model = workload.build()
    workload.warm_up(model)
    return workloads, workload, model, time.perf_counter() - t0


def _child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _note(tag: str, payload) -> None:
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def _percentile_report(samples: list[float]) -> dict | None:
    """Median plus the highest percentile with at least ten samples beyond it."""
    if not samples:
        return None
    out = {"samples": len(samples), "mean": statistics.fmean(samples), "p50": statistics.median(samples)}
    if len(samples) >= 20:
        pct = int(100 * (1 - 10 / len(samples)))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def run(args):
    """Set up, measure and check one workload; (labelled metrics, tally)."""
    wl_mod, workload, model, setup_first = _set_up(args)
    from codecbench.tracing import Tracer

    inputs = workload.inputs(args.seed)
    m, tally = wl_mod.Measure(), wl_mod.Tally()
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "duplicated_p_share": workload.duplicated_p_share(),
        "environment": environment(),
    }

    if args.trace:
        t0 = time.perf_counter()
        workload.unit(model, inputs, m, tally)
        untraced = time.perf_counter() - t0
        m.end_unit(tally)
        with Tracer() as tracer:
            t0 = time.perf_counter()
            workload.unit(model, inputs, m, tally)
            traced = time.perf_counter() - t0
        m.end_unit(tally)
        metrics, errors = tracer.metrics(traced, untraced)
        for err in errors:
            tally.fail("trace accounting", err)
        details["notes"] = tracer.notes + tally.notes
        details["spans"] = len(tracer.spans)
        labelled = _labelled(metrics, "per_layer", details["notes"])
        _note("detail", details)
        return labelled, tally

    setup = [setup_first] + [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    start = time.perf_counter()
    n_units = 0
    while True:
        workload.unit(model, inputs, m, tally)
        m.end_unit(tally)
        n_units += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / n_units > args.seconds:
            break  # another unit would end nearer to the budget overrun than this one

    quality = wl_mod.quality(m)
    values = {
        "setup_s": statistics.median(setup),
        # means, not medians: on a shared 2-vCPU host the CPU speed can flip
        # between two levels every few seconds, and a median then jumps
        # between them from run to run
        "encode_fps": m.frames_coded / m.encode_s if m.encode_s else 0.0,
        "decode_fps": m.frames_coded / m.decode_s if m.decode_s else 0.0,
        "step_ms": statistics.fmean(m.step_ms) if m.step_ms else 0.0,
        **quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - tally.failed / tally.attempted if tally.attempted else 0.0,
    }
    details.update(
        units=n_units,
        measured_s=time.perf_counter() - start,
        setup_s_samples=setup,
        frames_coded=m.frames_coded,
        step_ms=_percentile_report(m.step_ms),
        notes=tally.notes,
    )
    labelled = _labelled(values, "end_to_end", tally.notes)
    _note("detail", details)
    return labelled, tally


def _labelled(values: dict, kind: str, notes: list) -> dict:
    """values with their BENCHMARK.json units, in the declared order.

    A declared metric with no value (its layer hook found nothing to
    wrap) is left out with a note.
    """
    out = {}
    for metric in spec()[kind]:
        name = metric["name"]
        if name in values:
            out[name] = {"value": values[name], "unit": metric["unit"]}
        else:
            notes.append(f"{name}: absent")
    undeclared = sorted(set(values) - set(out))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json {kind}: {undeclared}")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not use_checkout_sources():
        print(f"codecbench: no bnvc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    if args.setup_only:
        *_, setup_s = _set_up(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    metrics, tally = run(args)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
