"""Frame and sequence I/O: binary PPM (P6) per frame, or raw planar RGB
with a JSON sidecar {width, height, frame_count}.

Frames are numpy arrays of shape (3, H, W), dtype uint8, planar RGB.
Sequence directories hold frame_0000.ppm, frame_0001.ppm, ...
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import CorruptStreamError, UsageError, check_frames

__all__ = [
    "read_ppm",
    "write_ppm",
    "read_sequence_dir",
    "write_sequence_dir",
    "read_raw_sequence",
    "write_raw_sequence",
    "load_sequences",
]


def write_ppm(path: str | Path, frame: np.ndarray) -> None:
    frame = check_frames("frame", frame, 3)
    _, h, w = frame.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.transpose(1, 2, 0).tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise CorruptStreamError(f"{path}: not a binary PPM (P6) file")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise UsageError(f"{path}: only maxval 255 is supported, got {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=m.end())
    if pixels.size < 3 * h * w:
        raise CorruptStreamError(f"{path}: pixel data truncated")
    return pixels[: 3 * h * w].reshape(h, w, 3).transpose(2, 0, 1).copy()


def write_sequence_dir(path: str | Path, frames: np.ndarray) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_ppm(path / f"frame_{i:04d}.ppm", frame)


def read_sequence_dir(path: str | Path) -> np.ndarray:
    path = Path(path)
    files = sorted(path.glob("frame_*.ppm"))
    if not files:
        raise UsageError(f"{path}: no frame_*.ppm files found")
    frames = [read_ppm(f) for f in files]
    shape = frames[0].shape
    for f, frame in zip(files, frames):
        if frame.shape != shape:
            raise UsageError(f"{f}: frame size {frame.shape} differs from {shape}")
    return np.stack(frames)


def write_raw_sequence(path: str | Path, frames: np.ndarray) -> None:
    """Raw planar RGB frames back to back, plus a JSON sidecar."""
    frames = check_frames("sequence", frames, 4)
    path = Path(path)
    path.write_bytes(frames.tobytes())
    sidecar = {"width": int(frames.shape[3]), "height": int(frames.shape[2]), "frame_count": int(frames.shape[0])}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))


def read_raw_sequence(path: str | Path) -> np.ndarray:
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read sidecar {sidecar_path}: {err}") from err
    w, h, n = int(sidecar["width"]), int(sidecar["height"]), int(sidecar["frame_count"])
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size != n * 3 * h * w:
        raise CorruptStreamError(f"{path}: expected {n * 3 * h * w} bytes, found {raw.size}")
    return raw.reshape(n, 3, h, w).copy()


def load_sequences(root: str | Path) -> dict[str, np.ndarray]:
    """All sequences under a directory: subdirs of PPMs and/or .rgb files."""
    root = Path(root)
    out: dict[str, np.ndarray] = {}
    if root.is_dir() and list(root.glob("frame_*.ppm")):
        out[root.name] = read_sequence_dir(root)
        return out
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        if list(sub.glob("frame_*.ppm")):
            out[sub.name] = read_sequence_dir(sub)
    for raw in sorted(root.glob("*.rgb")):
        out[raw.stem] = read_raw_sequence(raw)
    if not out:
        raise UsageError(f"{root}: no sequences found (PPM dirs or .rgb files)")
    return out
