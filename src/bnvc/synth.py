"""Seeded synthetic sequences: moving rectangles over a static gradient.

The occlusion variant adds a blinker object that is drawn on only one
frame out of every four, so at any later time exactly one of the four
most recent frames contains it. Predicting the frame where
it reappears requires reaching past the nearest reference.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int, check_type
from .model import CodecModel

__all__ = ["generate_sequence", "generate_dataset"]

_N_RECTS = 2
_OCCLUSION_PERIOD = 4
_MIN_SIDE = 12  # the smallest multiple of 4 whose sides fit the rectangles' size draw


def _draw_rect(frame: np.ndarray, y: int, x: int, hh: int, ww: int, color: np.ndarray) -> None:
    h, w = frame.shape[1:]
    y0, y1 = max(0, y), min(h, y + hh)
    x0, x1 = max(0, x), min(w, x + ww)
    if y1 > y0 and x1 > x0:
        frame[:, y0:y1, x0:x1] = color[:, None, None]


def generate_sequence(
    width: int = 32,
    height: int = 32,
    n_frames: int = 20,
    seed: int = 0,
    occlusion: bool = False,
) -> np.ndarray:
    """(n_frames, 3, height, width) uint8 frames, fully seeded."""
    check_int("width", width, _MIN_SIDE)
    check_int("height", height, _MIN_SIDE)
    check_int("n_frames", n_frames, 1)
    check_int("seed", seed, 0)
    check_type("occlusion", occlusion, bool)
    CodecModel.latent_hw(height, width)  # the codec's frame grid
    rng = np.random.default_rng(seed)

    gx = np.linspace(0, 1, width)[None, :]
    gy = np.linspace(0, 1, height)[:, None]
    base_colors = rng.integers(40, 160, size=(3, 2))
    background = np.empty((3, height, width), dtype=np.float64)
    for c in range(3):
        background[c] = base_colors[c, 0] + (base_colors[c, 1] - base_colors[c, 0]) * (0.5 * gx + 0.5 * gy)
    background = background.astype(np.uint8)

    rects = []
    for _ in range(_N_RECTS):
        rects.append(
            {
                "y": int(rng.integers(0, max(1, height - 8))),
                "x": int(rng.integers(0, max(1, width - 8))),
                "h": int(rng.integers(5, min(13, height // 2 + 1))),
                "w": int(rng.integers(5, min(13, width // 2 + 1))),
                "vy": int(rng.integers(-2, 3)),
                "vx": int(rng.integers(-2, 3)),
                "color": rng.integers(0, 256, size=3),
            }
        )
        if rects[-1]["vy"] == 0 and rects[-1]["vx"] == 0:
            rects[-1]["vx"] = 1

    blinker = None
    if occlusion:
        side = max(8, min(height, width) // 3)
        blinker = {
            "y": (height - side) // 2,
            "x": (width - side) // 2,
            "side": side,
            "color": rng.integers(180, 256, size=3),
            "phase": int(rng.integers(0, _OCCLUSION_PERIOD)),
        }

    frames = np.empty((n_frames, 3, height, width), dtype=np.uint8)
    for t in range(n_frames):
        frame = background.copy()
        for r in rects:
            _draw_rect(frame, r["y"], r["x"], r["h"], r["w"], r["color"])
            r["y"] += r["vy"]
            r["x"] += r["vx"]
            if r["y"] < 0 or r["y"] + r["h"] > height:
                r["vy"] = -r["vy"]
                r["y"] += 2 * r["vy"]
            if r["x"] < 0 or r["x"] + r["w"] > width:
                r["vx"] = -r["vx"]
                r["x"] += 2 * r["vx"]
        if blinker is not None and t % _OCCLUSION_PERIOD == blinker["phase"]:
            _draw_rect(frame, blinker["y"], blinker["x"], blinker["side"], blinker["side"], blinker["color"])
        frames[t] = frame
    return frames


def generate_dataset(
    n_sequences: int,
    width: int = 32,
    height: int = 32,
    n_frames: int = 20,
    seed: int = 0,
    occlusion: bool = False,
) -> list[np.ndarray]:
    """`n_sequences` sequences of `generate_sequence`, the i-th at seed seed * 10_000 + i."""
    check_int("n_sequences", n_sequences, 1)
    check_int("seed", seed, 0)
    return [
        generate_sequence(width, height, n_frames, seed=seed * 10_000 + i, occlusion=occlusion)
        for i in range(n_sequences)
    ]
