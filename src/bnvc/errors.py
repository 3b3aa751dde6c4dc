"""Exception classes shared across the package, and the three caller-input
rules: `check_int` (an int, not a bool, within bounds) for the integer fields
of `ModelConfig`, `StreamHeader`, `TrainingConfig`, `LossModelParams`,
`codec.Frame`, `CodecModel`'s seed, `pad_references`, the `synth`
generators, `conv2d`'s stride, `bilinear_resize`'s target size and
`estimate_motion`'s block; `check_type` (an instance of one class) for the
model, config, policy and fusion-mode arguments, `train_toy`'s dataset,
`metrics.rd_by_position`'s stats, `bd_rate`'s curves and their points,
`generate_sequence`'s occlusion flag and the bytes that
`ParamStore.load_f32_bytes` reads; and `check_frames` (uint8 planar RGB, no
empty axis) for `codec.Frame`, `encode_sequence`, `train_toy`,
`frameio.write_frames` and the frames `frameio.read_frames` returns.

Exit codes, the contract for the planned `bnvc` CLI (ROADMAP item 7): a
`UsageError` exits 1, a `CorruptStreamError` exits 2, and any other
exception is a bug.
"""

import numpy as np


class BnvcError(Exception):
    """Base class for all package errors."""


class UsageError(BnvcError, ValueError):
    """Caller violated a documented precondition (bad shapes, bad flags,
    mismatched model/stream configuration)."""


class ShapeError(UsageError):
    """Tensor shape mismatch with a descriptive message."""


class CorruptStreamError(BnvcError, RuntimeError):
    """Bitstream or payload failed an integrity or framing check."""


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """`value` if it is an int, not a bool, in lo..hi (hi None: no upper bound); else UsageError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        bounds = f"at least {lo}" + ("" if hi is None else f" and at most {hi}")
        raise UsageError(f"{name} must be an int {bounds}, got {value!r}")
    return value


def check_type(name: str, value, kind: type):
    """`value` if it is an instance of `kind`, else UsageError naming the field
    and, on one line, the value: an array's type, dtype and shape, or the
    first line of any other value's repr, cut at 80 characters."""
    if not isinstance(value, kind):
        if isinstance(value, np.ndarray):
            got = f"{type(value).__name__} of {value.dtype} {value.shape}"
        else:
            got = repr(value).split("\n", 1)[0][:80]
        raise UsageError(f"{name} must be a {kind.__name__}, got {got}")
    return value


def check_frames(name: str, value, ndim: int) -> np.ndarray:
    """`value` as uint8 planar RGB, (3, H, W) if `ndim` is 3 or (N, 3, H, W) if 4, no empty axis; else UsageError."""
    try:
        frames = np.asarray(value)
    except ValueError as err:  # a ragged list of frames
        raise UsageError(f"{name} must be one array of equal-shape frames: {err}") from None
    if frames.dtype != np.uint8 or frames.ndim != ndim or frames.shape[-3] != 3:
        layout = "(3, H, W)" if ndim == 3 else "(N, 3, H, W)"
        raise UsageError(f"{name} must be uint8 {layout}, got {frames.dtype} {frames.shape}")
    if 0 in frames.shape:
        raise UsageError(f"{name} must hold at least one frame of at least one pixel, got {frames.shape}")
    return frames
