"""Cross-kernel conformance: a stream encoded under other float kernels
must be byte-identical to the same encode in this process, and decode to
the same pictures.

Each test runs one child process under other kernels and encodes each
case in CASES there and here:

* the OpenBLAS test forces the Sandybridge kernels on one thread;
* the numpy test switches off numpy's AVX512 dispatch, which picks the
  `exp` and `log` kernels.

Each child reports what it ran, through the benchmark's own BLAS probe
and a hash of `np.exp` over a fixed grid. If the request was ignored, or
this host already runs those kernels, the test skips instead of passing
vacuously.
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
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

PROBE = """
import hashlib, json
import numpy as np
from codecbench.run import _blas_info
exp = hashlib.sha256(np.exp(np.linspace(-20.0, 20.0, 200_000)).tobytes()).hexdigest()
print(json.dumps({**_blas_info(), "exp": exp}))
"""

# mosaic_sequence(size, tile, n_frames, seed=0) inputs; the 128x128 case is
# the long128 frame size, where a float32 coding path drifted across cores
CASES = [(64, 32, 3), (128, 16, 5)]

CHILD = """
import json, sys
from pathlib import Path
import numpy as np
from bnvc.codec import encode_sequence
from bnvc.model import CodecModel
from codecbench.workloads import mosaic_sequence

out = Path(sys.argv[1])
for size, tile, n_frames in json.loads(sys.argv[2]):
    frames = mosaic_sequence(size, tile, n_frames, seed=0)
    stream, _, _ = encode_sequence(frames, CodecModel(seed=0))
    np.save(out / f"frames{size}.npy", frames)
    (out / f"stream{size}.bin").write_bytes(stream)
""" + PROBE


def _run_child(args, **overrides) -> dict:
    """Run a Python snippet with src/ and the checkout importable; its last line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]), **overrides)
    done = subprocess.run(
        [sys.executable, "-c", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_child_streams_match(tmp_path):
    """Each case's child stream equals this process's encode and decodes to its recons."""
    model = CodecModel(seed=0)
    for size, _, _ in CASES:
        frames = np.load(tmp_path / f"frames{size}.npy")
        child_stream = (tmp_path / f"stream{size}.bin").read_bytes()
        stream, _, recons = encode_sequence(frames, model)
        assert hashlib.sha256(child_stream).hexdigest() == hashlib.sha256(stream).hexdigest(), size
        decoded, _ = decode_sequence(child_stream, model)
        np.testing.assert_array_equal(decoded, recons, err_msg=f"{size}x{size}")


def test_stream_identical_across_blas_cores(tmp_path):
    default = _run_child([PROBE])  # same environment as this process
    forced = _run_child([CHILD, str(tmp_path), json.dumps(CASES)], OPENBLAS_CORETYPE=CORE, OPENBLAS_NUM_THREADS="1")
    if forced.get("coretype", "").lower() != CORE.lower():
        pytest.skip(f"OpenBLAS did not switch to {CORE}: child reports {forced}")
    if default.get("coretype", "").lower() == CORE.lower():
        pytest.skip(f"this process already runs the {CORE} core: {default}")
    _assert_child_streams_match(tmp_path)


def test_stream_identical_without_avx512_math(tmp_path):
    default = _run_child([PROBE])
    forced = _run_child([CHILD, str(tmp_path), json.dumps(CASES)], NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    if forced["exp"] == default["exp"]:
        pytest.skip(f"np.exp computes the same with {NO_AVX512!r} disabled: no AVX512 kernels to switch off")
    _assert_child_streams_match(tmp_path)
