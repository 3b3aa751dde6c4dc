"""Frame files: a sequence is one binary PPM file (Netpbm P6, maxval 255)
holding its frames as images back to back, a form the Netpbm spec allows
("a PPM file consists of a sequence of one or more PPM images"). A
one-frame file is a plain PPM.

Frames are numpy arrays of shape (N, 3, H, W), dtype uint8, planar RGB.
Each image's header is "P6", width, height and maxval, separated by
whitespace and ended by one whitespace byte; header comments are not read.

Errors: an unreadable or unwritable path, or a well-formed file the codec
does not support (a maxval other than 255, images of different sizes, a
side of 0), raises `UsageError`. A malformed file (empty, not a P6 header,
a raster cut short, or trailing bytes that do not start an image) raises
`CorruptStreamError`.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import CorruptStreamError, UsageError, check_frames

__all__ = ["read_frames", "write_frames"]

_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def write_frames(path: str | Path, frames: np.ndarray) -> None:
    """Write (N, 3, H, W) uint8 frames to `path` as one N-image P6 file."""
    frames = check_frames("frames", frames, 4)
    _, _, h, w = frames.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    try:
        with Path(path).open("wb") as f:
            for frame in frames:
                f.write(header + frame.transpose(1, 2, 0).tobytes())
    except (OSError, TypeError) as err:
        raise UsageError(f"cannot write frame file {path!r}: {err}") from None


def read_frames(path: str | Path) -> np.ndarray:
    """Every image of the P6 file at `path`, as one (N, 3, H, W) uint8 array."""
    try:
        data = Path(path).read_bytes()
    except (OSError, TypeError) as err:
        raise UsageError(f"cannot read frame file {path!r}: {err}") from None
    if not data:
        raise CorruptStreamError(f"{path}: empty frame file")
    images, pos = [], 0
    while pos < len(data):
        m = _HEADER.match(data, pos)
        if not m:
            raise CorruptStreamError(f"{path}: no binary PPM (P6) header at byte {pos}")
        try:
            w, h, maxval = (int(g) for g in m.groups())
        except ValueError:  # past int's digit limit, so far more raster than any file holds
            raise CorruptStreamError(f"{path}: image {len(images)} has a number too long to read") from None
        if maxval != 255:
            raise UsageError(f"{path}: only maxval 255 is supported, got {maxval}")
        if images and (h, w) != images[0].shape[1:]:
            raise UsageError(f"{path}: image {len(images)} is {w}x{h}, unlike image 0")
        pos = m.end() + 3 * h * w
        if pos > len(data):
            raise CorruptStreamError(f"{path}: image {len(images)} pixel data truncated")
        images.append(np.frombuffer(data, np.uint8, 3 * h * w, m.end()).reshape(h, w, 3).transpose(2, 0, 1))
    return check_frames(str(path), np.stack(images, out=np.empty((len(images), 3, h, w), np.uint8)), 4)
