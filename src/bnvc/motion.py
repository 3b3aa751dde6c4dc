"""Integer-pel block-matching motion estimation and flow composition.

Block matching replaces a learned flow network at desk scale: for every
block of the current frame, the displacement into the reference with
the smallest SAD wins, searched exhaustively over a square window. The
flow convention is backward: warped(p) = reference(p + flow(p)), with
flow channel 0 horizontal and channel 1 vertical, in pixels.

Flows are composed to reach older references: composing the flow
current->A with the stored flow A->B samples the inner flow at the
displaced position, which is exactly a bilinear warp of the inner flow
by the outer one, so composition is differentiable for free.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UsageError
from .tensor import Tensor, warp_bilinear

__all__ = ["estimate_motion", "compose_flows"]

_PAD_VALUE = 1.0e18  # poisons SAD for windows leaving the frame
_SEARCH_RANGE = 4


def estimate_motion(
    current: np.ndarray,
    reference: np.ndarray,
    block: int = 8,
) -> np.ndarray:
    """Dense backward flow from exhaustive per-block SAD search.

    Candidates (dy, dx) run over [-4, 4]^2 in raster order (dy outer);
    windows that would leave the reference are excluded. Ties break
    toward the smaller displacement magnitude dy^2 + dx^2, then toward
    the earlier candidate in raster order. The per-block winner is
    broadcast over its block in the returned (2, H, W) field.
    """
    cur = np.asarray(current, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if cur.shape != ref.shape:
        raise ShapeError(f"frame shapes differ: {cur.shape} vs {ref.shape}")
    if cur.ndim != 3:
        raise ShapeError(f"frames must be (C, H, W), got {cur.shape}")
    _, h, w = cur.shape
    if h % block or w % block:
        raise UsageError(f"frame {h}x{w} not divisible by block size {block}")
    r = _SEARCH_RANGE
    nby, nbx = h // block, w // block

    refp = np.pad(ref, ((0, 0), (r, r), (r, r)), constant_values=_PAD_VALUE)
    best_sad = np.full((nby, nbx), np.inf)
    best_mag = np.full((nby, nbx), np.inf)
    best_dy = np.zeros((nby, nbx))
    best_dx = np.zeros((nby, nbx))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            win = refp[:, r + dy : r + dy + h, r + dx : r + dx + w]
            sad = np.abs(cur - win).reshape(cur.shape[0], nby, block, nbx, block).sum(axis=(0, 2, 4))
            mag = float(dy * dy + dx * dx)
            better = (sad < best_sad) | ((sad == best_sad) & (mag < best_mag))
            best_sad = np.where(better, sad, best_sad)
            best_mag = np.where(better, mag, best_mag)
            best_dy = np.where(better, float(dy), best_dy)
            best_dx = np.where(better, float(dx), best_dx)

    flow = np.empty((2, h, w), dtype=np.float64)
    flow[0] = np.repeat(np.repeat(best_dx, block, axis=0), block, axis=1)
    flow[1] = np.repeat(np.repeat(best_dy, block, axis=0), block, axis=1)
    return flow


def compose_flows(outer: Tensor | np.ndarray, inner: Tensor | np.ndarray) -> Tensor:
    """Chain two backward flows: result(p) = outer(p) + inner(p + outer(p)).

    With outer mapping the current frame to reference A and inner
    mapping A one step further back, the result maps the current frame
    directly to the older reference. The inner flow is sampled
    bilinearly with border clamping.
    """
    outer_t = outer if isinstance(outer, Tensor) else Tensor(np.asarray(outer, dtype=np.float64))
    inner_t = inner if isinstance(inner, Tensor) else Tensor(np.asarray(inner, dtype=np.float64))
    if outer_t.shape != inner_t.shape or outer_t.shape[0] != 2:
        raise ShapeError(f"flows must share shape (2, H, W): {outer_t.shape} vs {inner_t.shape}")
    return outer_t + warp_bilinear(inner_t, outer_t)
