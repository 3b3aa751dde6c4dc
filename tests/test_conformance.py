"""Cross-kernel conformance: a stream encoded under one OpenBLAS core
must be byte-identical to the same encode under another, and decode to
the same pictures.

The child process forces the Sandybridge kernels on one thread; this
process keeps the library's default core. Both sides read back
their core with the benchmark's own probe: if the library ignores the
request, or this host already runs that core, the test skips instead of
passing vacuously.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnvc.codec import decode_sequence, encode_sequence
from bnvc.model import CodecModel

ROOT = Path(__file__).resolve().parents[1]
CORE = "Sandybridge"

PROBE = "import json; from codecbench.run import _blas_info; print(json.dumps(_blas_info()))"

CHILD = """
import json, sys
import numpy as np
from bnvc.codec import encode_sequence
from bnvc.model import CodecModel
from codecbench.run import _blas_info
from codecbench.workloads import mosaic_sequence

frames = mosaic_sequence(64, 32, 3, seed=0)
stream, _, _ = encode_sequence(frames, CodecModel(seed=0))
np.save(sys.argv[1], frames)
with open(sys.argv[2], "wb") as f:
    f.write(stream)
print(json.dumps(_blas_info()))
"""


def _run_child(args, **overrides) -> dict:
    """Run a Python snippet with src/ and the checkout importable; its last line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]), **overrides)
    done = subprocess.run(
        [sys.executable, "-c", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_stream_identical_across_blas_cores(tmp_path):
    frames_path, stream_path = tmp_path / "frames.npy", tmp_path / "stream.bin"
    default = _run_child([PROBE])  # same environment as this process
    forced = _run_child([CHILD, str(frames_path), str(stream_path)], OPENBLAS_CORETYPE=CORE, OPENBLAS_NUM_THREADS="1")
    if forced.get("coretype", "").lower() != CORE.lower():
        pytest.skip(f"OpenBLAS did not switch to {CORE}: child reports {forced}")
    if default.get("coretype", "").lower() == CORE.lower():
        pytest.skip(f"this process already runs the {CORE} core: {default}")

    frames = np.load(frames_path)
    child_stream = stream_path.read_bytes()
    model = CodecModel(seed=0)
    stream, _, recons = encode_sequence(frames, model)
    assert hashlib.sha256(child_stream).hexdigest() == hashlib.sha256(stream).hexdigest()
    decoded, _ = decode_sequence(child_stream, model)
    np.testing.assert_array_equal(decoded, recons)
