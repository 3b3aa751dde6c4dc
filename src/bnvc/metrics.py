"""Distortion and rate metrics: PSNR and BD-rate.

BD-rate follows the classic polynomial form: each curve's log10(rate)
is fitted with a cubic in PSNR, the fitted log-rate difference is
averaged over the overlapping PSNR interval (exact polynomial
integration, no sampling), and the average is mapped back to a percent
rate change. Negative results mean the test curve saves rate relative
to the anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError

__all__ = ["RDPoint", "psnr", "bd_rate"]


@dataclass(frozen=True)
class RDPoint:
    """One operating point of a rate-distortion curve."""

    bpp: float
    psnr: float


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two 8-bit images, in dB.

    Computed as 10*log10(255^2 / MSE) over every sample of every
    channel. Identical inputs return math.inf.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise UsageError(f"psnr needs equal shapes, got {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def _validate_curve(points: Sequence[RDPoint], name: str) -> tuple[np.ndarray, np.ndarray]:
    if len(points) < 4:
        raise UsageError(f"{name} curve needs at least 4 points, got {len(points)}")
    bpp = np.array([p.bpp for p in points], dtype=np.float64)
    q = np.array([p.psnr for p in points], dtype=np.float64)
    if not (np.all(np.isfinite(bpp)) and np.all(np.isfinite(q))):
        raise UsageError(f"{name} curve contains non-finite values")
    if np.any(bpp <= 0.0):
        raise UsageError(f"{name} curve has non-positive bpp")
    if np.any(np.diff(bpp) <= 0.0):
        raise UsageError(f"{name} curve must have strictly increasing bpp")
    return bpp, q


def bd_rate(anchor: Sequence[RDPoint], test: Sequence[RDPoint]) -> float:
    """Average percent rate difference of `test` against `anchor`.

    Both curves are fitted with a cubic polynomial mapping PSNR to
    log10(bpp); the fitted difference is integrated exactly over the
    overlapping PSNR interval. Extrapolation outside the overlap is
    forbidden (no overlap raises UsageError).
    """
    a_bpp, a_q = _validate_curve(anchor, "anchor")
    t_bpp, t_q = _validate_curve(test, "test")
    lo = max(a_q.min(), t_q.min())
    hi = min(a_q.max(), t_q.max())
    if not hi > lo:
        raise UsageError(f"curves have no overlapping PSNR range (got [{lo}, {hi}])")
    fit_a = np.polyfit(a_q, np.log10(a_bpp), 3)
    fit_t = np.polyfit(t_q, np.log10(t_bpp), 3)
    int_a = np.polyint(fit_a)
    int_t = np.polyint(fit_t)
    avg_diff = (
        (np.polyval(int_t, hi) - np.polyval(int_t, lo)) - (np.polyval(int_a, hi) - np.polyval(int_a, lo))
    ) / (hi - lo)
    return (10.0**avg_diff - 1.0) * 100.0
