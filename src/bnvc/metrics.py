"""Distortion and rate metrics: PSNR, P-frame RD accounting and BD-rate.

`EncodeStats` holds a coded sequence's per-frame record bits, PSNR and
type. `rd_by_position` is the one P-frame RD aggregation: it groups P
frames by position since the last intra, which sets both the reference
padding and whether the intra frame is still a reference.

BD-rate follows the classic polynomial form: each curve's log10(rate)
is fitted with a cubic in PSNR, the fitted log-rate difference is
averaged over the overlapping PSNR interval (exact polynomial
integration, no sampling), and the average is mapped back to a percent
rate change. Negative results mean the test curve saves rate relative
to the anchor.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, check_type

__all__ = ["RDPoint", "EncodeStats", "psnr", "rd_by_position", "bd_rate"]


@dataclass(frozen=True)
class RDPoint:
    """One operating point of a rate-distortion curve; both fields are real numbers."""

    bpp: float
    psnr: float

    def __post_init__(self):
        check_type("RDPoint bpp", self.bpp, numbers.Real)
        check_type("RDPoint psnr", self.psnr, numbers.Real)


@dataclass
class EncodeStats:
    """Rate/quality accounting for one encoded sequence."""

    width: int
    height: int
    n_frames: int
    n_ref: int
    total_bits: int
    frame_bits: list[int] = field(default_factory=list)
    frame_psnr: list[float] = field(default_factory=list)
    frame_types: list[str] = field(default_factory=list)

    @property
    def bpp(self) -> float:
        return self.total_bits / (self.n_frames * self.width * self.height)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two 8-bit images, in dB.

    Computed as 10*log10(255^2 / MSE) over every sample of every
    channel. Identical inputs return math.inf. Both must be arrays, or
    nested sequences, of integers or floats.
    """
    try:
        a = np.asarray(a)
        b = np.asarray(b)
    except ValueError as err:  # a ragged nested sequence
        raise UsageError(f"psnr needs two numeric arrays: {err}") from None
    if a.dtype.kind not in "uif" or b.dtype.kind not in "uif":
        raise UsageError(f"psnr needs two numeric arrays, got {a.dtype} and {b.dtype}")
    if a.shape != b.shape:
        raise UsageError(f"psnr needs equal shapes, got {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


_POSITION_GROUPS = ("padded", "intra_ref", "past_intra", "all")


def rd_by_position(stats: Sequence[EncodeStats]) -> dict[str, RDPoint]:
    """P-frame rate and quality of coded sequences, grouped by position since the last intra.

    The P frame k frames after the last "I" of its sequence is in
    "padded" if k < n_ref (its reference list repeats an entry),
    "intra_ref" if k <= n_ref (the intra frame is one of its references),
    "past_intra" if k > n_ref, and always in "all". A group's bpp is its
    summed record bits (`frame_bits`) over its summed pixels, its PSNR
    the mean of its `frame_psnr`. A group with no P frame is left out.
    Every entry must come from models of one n_ref.
    """
    check_type("stats", stats, Sequence)
    n_refs = {check_type("stats entry", s, EncodeStats).n_ref for s in stats}
    if len(n_refs) != 1:
        raise UsageError(f"rd_by_position needs one or more EncodeStats of one n_ref, got n_ref {sorted(n_refs)}")
    (n_ref,) = n_refs
    members: dict[str, list[tuple[int, int, float]]] = {name: [] for name in _POSITION_GROUPS}
    for s in stats:
        if s.frame_types and s.frame_types[0] != "I":
            raise UsageError(f"every stats entry must start with an intra frame, got {s.frame_types[0]!r}")
        for bits, q, kind in zip(s.frame_bits, s.frame_psnr, s.frame_types):
            k = 0 if kind == "I" else k + 1
            for name, hit in zip(_POSITION_GROUPS, (0 < k < n_ref, 0 < k <= n_ref, k > n_ref, k > 0)):
                if hit:
                    members[name].append((bits, s.width * s.height, q))
    out = {}
    for name, group in members.items():
        if group:
            bits, pixels, psnrs = zip(*group)
            out[name] = RDPoint(sum(bits) / sum(pixels), float(np.mean(psnrs)))
    return out


def _validate_curve(points: Sequence[RDPoint], name: str) -> tuple[np.ndarray, np.ndarray]:
    check_type(f"{name} curve", points, Sequence)
    for p in points:
        check_type(f"{name} point", p, RDPoint)
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
