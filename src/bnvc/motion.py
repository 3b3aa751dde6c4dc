"""Integer-pel block-matching motion estimation and flow composition.

Block matching replaces a learned flow network at desk scale: for every
block of the current frame, the displacement into the reference with
the smallest SAD wins, searched exhaustively over a square window on
the uint8 pixels. Integer SADs are exact, so ties follow the stated
rule, not float summation order. The flow convention is backward:
warped(p) = reference(p + flow(p)), with flow channel 0 horizontal and
channel 1 vertical, in pixels.

Flows are composed to reach older references: composing the flow
current->A with the stored flow A->B samples the inner flow at the
displaced position, which is exactly a bilinear warp of the inner flow
by the outer one, so composition is differentiable for free.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, UsageError, check_int
from .tensor import Tensor, warp_bilinear

__all__ = ["estimate_motion", "compose_flows"]

_SEARCH_RANGE = 4
_OFFSETS = np.arange(-_SEARCH_RANGE, _SEARCH_RANGE + 1)
_SPAN = _OFFSETS.size
# candidates in raster order (dy outer); argmin's first minimum over
# _TIE_ORDER breaks SAD ties by dy^2 + dx^2, then by raster index
_DY, _DX = np.repeat(_OFFSETS, _SPAN), np.tile(_OFFSETS, _SPAN)
_TIE_ORDER = np.argsort(_DY * _DY + _DX * _DX, kind="stable")


def estimate_motion(current: np.ndarray, reference: np.ndarray, block: int = 8) -> np.ndarray:
    """Dense backward flow from exhaustive per-block integer SAD search.

    Takes uint8 (C, H, W) frames. Candidates (dy, dx) run over [-4, 4]^2
    in raster order (dy outer); a window that would leave the reference
    is excluded. Each pass computes the exact SADs of one candidate row.
    The winner is the lexicographic minimum of (SAD, dy^2 + dx^2, raster
    index), broadcast over its block in the float64 (2, H, W) field.
    """
    cur, ref = np.asarray(current), np.asarray(reference)
    if cur.dtype != np.uint8 or ref.dtype != np.uint8:
        raise UsageError(f"motion search takes uint8 pixels, got {cur.dtype} and {ref.dtype}")
    if cur.ndim != 3 or cur.shape != ref.shape:
        raise ShapeError(f"frames must share one (C, H, W) shape, got {cur.shape} and {ref.shape}")
    check_int("block", block, 1)
    c, h, w = cur.shape
    if h % block or w % block:
        raise UsageError(f"frame {h}x{w} not divisible by block size {block}")
    nby, nbx = h // block, w // block

    # rows outermost, so one reshape puts a block's rows and channels on one axis
    cur_rows = cur.transpose(1, 0, 2)[:, :, None, :]  # (H, C, 1, W)
    r = _SEARCH_RANGE
    refp = np.pad(ref, ((0, 0), (r, r), (r, r))).transpose(1, 0, 2)
    windows = sliding_window_view(refp, w, axis=2)  # (H + 2r, C, _SPAN, W): every dx
    sad = np.empty((_SPAN, _SPAN, nby, nbx), dtype=np.int32)
    for i in range(_SPAN):
        win = windows[i : i + h]
        diff = np.maximum(cur_rows, win)
        diff -= np.minimum(cur_rows, win)  # |cur - win|, exact in uint8
        rows = diff.reshape(nby, block * c, _SPAN, w).sum(axis=1, dtype=np.int32)
        sad[i] = rows.reshape(nby, _SPAN, nbx, block).sum(axis=3).transpose(1, 0, 2)
    y0, x0 = np.arange(0, h, block) + _OFFSETS[:, None], np.arange(0, w, block) + _OFFSETS[:, None]
    inside = ((y0 >= 0) & (y0 + block <= h))[:, None, :, None] & ((x0 >= 0) & (x0 + block <= w))[None, :, None, :]
    sad = np.where(inside, sad, np.iinfo(np.int32).max).reshape(_SPAN * _SPAN, nby, nbx)
    best = _TIE_ORDER[np.argmin(sad[_TIE_ORDER], axis=0)]
    return np.stack([_DX[best], _DY[best]]).astype(np.float64).repeat(block, axis=1).repeat(block, axis=2)


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
