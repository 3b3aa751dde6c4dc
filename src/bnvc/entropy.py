"""Bit-exact range coder and the probability tables that drive it.

Symbols are coded against quantized CDFs with 16-bit total frequency,
built once and shared by every symbol that uses them:

* Main latents are coded mean-removed, so only the scale picks the
  table. `GAUSSIAN_SCALES` holds 64 log-spaced scales over
  [SCALE_MIN, SCALE_MAX]; their zero-mean tables are built at import,
  and `gaussian_tables` maps each clamped scale to the table of the
  smallest entry >= it. Rounding the scale up costs a little rate but
  never cuts a tail, and table choice is an integer index, so an
  ULP-level change of a scale alters a stream only at an entry.
* Hyper latents use a per-channel logistic prior; the codec builds one
  table per channel and repeats it over the channel's symbols.

Each table covers round(mean) +- (ceil(4.6 * scale) + 1). Bin
probabilities over that support are renormalized, quantized to 16-bit
frequencies with a minimum of 1, and the rounding deficit is corrected
deterministically on the largest bucket, so encoder and decoder always
derive identical tables from identical parameters.

The coder keeps a 40-bit range state renormalized one byte at a time
(range always in [2^32, 2^40)), so the per-symbol truncation loss of
the range/total division is below 2^-16 relative and a 10^5 symbol
chunk stays within a few tenths of a bit of the table rate; the flush
is exactly six bytes. All coder internals are integer-only, so payloads
are identical across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as _special

from .errors import CorruptStreamError, UsageError

__all__ = [
    "SCALE_MIN",
    "SCALE_MAX",
    "SUPPORT_MULT",
    "GAUSSIAN_SCALES",
    "QuantizedCdf",
    "build_gaussian_cdf_rows",
    "build_logistic_cdf_rows",
    "gaussian_tables",
    "row_support_bounds",
    "range_encode",
    "range_decode",
    "GaussianModel",
    "LogisticModel",
    "UniformModel",
    "estimate_bits",
]

TOTAL_BITS = 16
TOTAL = 1 << TOTAL_BITS

_RANGE_TOP = 1 << 40
_RANGE_BOT = 1 << 32
_LOW_MASK = _RANGE_TOP - 1
_FLUSH_BYTES = 6

SCALE_MIN = 0.04
SCALE_MAX = 16.0
SUPPORT_MULT = 4.6

_LOG2 = math.log(2.0)
_MIN_PROB = 2.0**-60


class QuantizedCdf:
    """Frequencies over an integer support summing exactly to 2^16."""

    __slots__ = ("s_min", "freq", "cum")

    def __init__(self, s_min: int, freq: np.ndarray, cum: np.ndarray | None = None):
        self.s_min = int(s_min)
        self.freq = freq
        if cum is None:
            cum = np.zeros(len(freq) + 1, dtype=np.int64)
            np.cumsum(freq, out=cum[1:])
        self.cum = cum

    @property
    def s_max(self) -> int:
        return self.s_min + len(self.freq) - 1

    def __len__(self) -> int:
        return len(self.freq)


def _quantize_rows(probs: np.ndarray) -> np.ndarray:
    """Quantize probability rows to integer frequencies summing to 2^16.

    Minimum frequency is 1; the rounding deficit or excess lands on the
    largest bucket (first occurrence), shaving further buckets in
    descending order if the largest alone cannot absorb an excess.
    """
    n = probs.shape[1]
    if n > TOTAL:
        raise UsageError(f"support width {n} exceeds {TOTAL} buckets")
    freq = np.maximum(1, np.rint(probs * TOTAL).astype(np.int64))
    deficits = TOTAL - freq.sum(axis=1)
    pos = deficits > 0
    if np.any(pos):
        rows = np.nonzero(pos)[0]
        np.add.at(freq, (rows, np.argmax(freq[rows], axis=1)), deficits[rows])
    for row in np.nonzero(deficits < 0)[0]:
        need = -int(deficits[row])
        while need > 0:
            i = int(np.argmax(freq[row]))
            take = min(int(freq[row, i]) - 1, need)
            if take <= 0:
                raise UsageError("cannot normalize CDF: support too wide for 16-bit totals")
            freq[row, i] -= take
            need -= take
    return freq


def _bin_probs_from_cdf_edges(edges: np.ndarray) -> np.ndarray:
    probs = np.diff(edges, axis=-1)
    mass = probs.sum(axis=-1, keepdims=True)
    if np.any(mass <= 0.0) or not np.all(np.isfinite(mass)):
        raise UsageError("support does not cover the distribution (zero bin mass)")
    return probs / mass


def clamp_scale(scale) -> np.ndarray:
    return np.clip(np.asarray(scale, dtype=np.float64), SCALE_MIN, SCALE_MAX)


def row_support_bounds(means, scales) -> tuple[np.ndarray, np.ndarray]:
    """Per-row support bounds [round(mean)-K, round(mean)+K], K=ceil(SUPPORT_MULT*scale)+1."""
    means = np.asarray(means, dtype=np.float64).reshape(-1)
    sigmas = clamp_scale(scales).reshape(-1)
    centers = np.rint(means).astype(np.int64)
    ks = np.ceil(SUPPORT_MULT * sigmas).astype(np.int64) + 1
    return centers - ks, centers + ks


def _build_cdf_rows(means, scales, cdf_fn) -> list[QuantizedCdf]:
    """One table per (mean, scale) row, vectorized by grouping equal widths.

    Row i's support is centered on round(mean_i) with half-width
    ceil(SUPPORT_MULT*scale_i)+1, so narrow distributions never pay the
    minimum-frequency padding of a wide shared support.
    """
    means = np.asarray(means, dtype=np.float64).reshape(-1)
    sigmas = clamp_scale(scales).reshape(-1)
    lo_arr, hi_arr = row_support_bounds(means, sigmas)
    widths = hi_arr - lo_arr + 1
    out: list[QuantizedCdf | None] = [None] * len(means)
    for w in np.unique(widths):
        rows = np.nonzero(widths == w)[0]
        edges_int = lo_arr[rows, None] + np.arange(w + 1, dtype=np.int64)[None, :]
        z = (edges_int - 0.5 - means[rows, None]) / sigmas[rows, None]
        freq = _quantize_rows(_bin_probs_from_cdf_edges(cdf_fn(z)))
        cums = np.zeros((freq.shape[0], freq.shape[1] + 1), dtype=np.int64)
        np.cumsum(freq, axis=1, out=cums[:, 1:])
        for j, r in enumerate(rows):
            out[r] = QuantizedCdf(int(lo_arr[r]), freq[j], cums[j])
    return out  # type: ignore[return-value]


def build_gaussian_cdf_rows(means, scales) -> list[QuantizedCdf]:
    """Gaussian tables, one per (mean, scale) row."""
    return _build_cdf_rows(means, scales, _special.ndtr)


def build_logistic_cdf_rows(locs, scales) -> list[QuantizedCdf]:
    """Logistic tables, one per (loc, scale) row."""
    return _build_cdf_rows(locs, scales, _special.expit)


# Ends pinned exactly: exp(log(SCALE_MAX)) is 15.999999999999998, so a scale
# clamped to SCALE_MAX would otherwise find no entry >= it.
GAUSSIAN_SCALES = np.exp(np.linspace(math.log(SCALE_MIN), math.log(SCALE_MAX), 64))
GAUSSIAN_SCALES[0], GAUSSIAN_SCALES[-1] = SCALE_MIN, SCALE_MAX
GAUSSIAN_SCALES.flags.writeable = False
_GAUSSIAN_TABLES = np.array(build_gaussian_cdf_rows(np.zeros(len(GAUSSIAN_SCALES)), GAUSSIAN_SCALES), dtype=object)


def gaussian_tables(scales) -> list[QuantizedCdf]:
    """The shared zero-mean table of each scale, its clamped value rounded up to the table."""
    return _GAUSSIAN_TABLES[np.searchsorted(GAUSSIAN_SCALES, clamp_scale(scales).reshape(-1))].tolist()


# -- range coder -------------------------------------------------------------

class _RangeEncoder:
    def __init__(self) -> None:
        self.low = 0
        self.range = _RANGE_TOP - 1
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def _shift_low(self) -> None:
        if self.low < 0xFF_0000_0000 or self.low > _LOW_MASK:
            carry = self.low >> 40
            temp = self.cache
            while True:
                self.out.append((temp + carry) & 0xFF)
                temp = 0xFF
                self.cache_size -= 1
                if self.cache_size == 0:
                    break
            self.cache = (self.low >> 32) & 0xFF
        self.cache_size += 1
        self.low = (self.low << 8) & _LOW_MASK

    def encode(self, cum_lo: int, cum_hi: int) -> None:
        r = self.range // TOTAL
        self.low += r * cum_lo
        if cum_hi == TOTAL:
            # top interval absorbs the division remainder
            self.range -= r * cum_lo
        else:
            self.range = r * (cum_hi - cum_lo)
        while self.range < _RANGE_BOT:
            self._shift_low()
            self.range <<= 8

    def flush(self) -> bytes:
        for _ in range(_FLUSH_BYTES):
            self._shift_low()
        return bytes(self.out)


class _RangeDecoder:
    def __init__(self, payload: bytes) -> None:
        self.data = payload
        self.pos = 0
        self.range = _RANGE_TOP - 1
        self._read()  # encoder's leading cache byte
        code = 0
        for _ in range(_FLUSH_BYTES - 1):
            code = (code << 8) | self._read()
        self.code = code

    def _read(self) -> int:
        if self.pos >= len(self.data):
            raise CorruptStreamError("range-coded payload truncated")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cum: np.ndarray) -> int:
        r = self.range // TOTAL
        dv = self.code // r
        if dv >= TOTAL:
            dv = TOTAL - 1
        idx = int(np.searchsorted(cum, dv, side="right")) - 1
        cum_lo = int(cum[idx])
        cum_hi = int(cum[idx + 1])
        self.code -= r * cum_lo
        if cum_hi == TOTAL:
            self.range -= r * cum_lo
        else:
            self.range = r * (cum_hi - cum_lo)
        while self.range < _RANGE_BOT:
            self.code = (self.code << 8) | self._read()
            self.range <<= 8
        return idx


def range_encode(symbols: Sequence[int], cdfs: Sequence[QuantizedCdf]) -> bytes:
    """Range-encode `symbols`, symbol i coded against cdfs[i].

    Symbols outside their CDF support raise UsageError. An empty symbol
    list produces the fixed-size flush payload.
    """
    if len(symbols) != len(cdfs):
        raise UsageError(f"{len(symbols)} symbols but {len(cdfs)} CDFs")
    enc = _RangeEncoder()
    for s, cdf in zip(symbols, cdfs):
        idx = int(s) - cdf.s_min
        if idx < 0 or idx >= len(cdf.freq):
            raise UsageError(f"symbol {s} outside CDF support [{cdf.s_min}, {cdf.s_max}]")
        enc.encode(int(cdf.cum[idx]), int(cdf.cum[idx + 1]))
    return enc.flush()


def range_decode(payload: bytes, cdfs: Sequence[QuantizedCdf], count: int) -> list[int]:
    """Decode `count` symbols; cdfs must match the encoder's exactly."""
    if count != len(cdfs):
        raise UsageError(f"count {count} but {len(cdfs)} CDFs")
    if len(payload) < _FLUSH_BYTES:
        raise CorruptStreamError(f"payload shorter than the {_FLUSH_BYTES}-byte flush")
    dec = _RangeDecoder(payload)
    out = []
    for cdf in cdfs:
        idx = dec.decode(cdf.cum)
        out.append(cdf.s_min + idx)
    return out


# -- rate estimation ----------------------------------------------------------

@dataclass(frozen=True)
class GaussianModel:
    """Per-symbol Gaussian bin model (arrays broadcast against values)."""

    mean: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class LogisticModel:
    loc: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class UniformModel:
    support_size: int


def _gaussian_bin_probs(values, mean, scale) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(mean, dtype=np.float64), v.shape)
    sigma = np.broadcast_to(clamp_scale(scale), v.shape)
    z_hi = (v + 0.5 - mu) / sigma
    z_lo = (v - 0.5 - mu) / sigma
    # evaluate in the tail-stable direction
    upper = _special.ndtr(z_hi) - _special.ndtr(z_lo)
    lower = _special.ndtr(-z_lo) - _special.ndtr(-z_hi)
    return np.where(z_hi < 0.0, upper, lower)


def _logistic_bin_probs(values, loc, scale) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    mu = np.broadcast_to(np.asarray(loc, dtype=np.float64), v.shape)
    s = np.broadcast_to(clamp_scale(scale), v.shape)
    return _special.expit((v + 0.5 - mu) / s) - _special.expit((v - 0.5 - mu) / s)


def estimate_bits(values, model) -> float:
    """Ideal code length of `values` under `model`, in bits.

    Each value is charged -log2 of its unit-bin probability. Pass
    rounded integers to rate the inference path, or noisy continuous
    values (value + uniform(-0.5, 0.5)) to rate the training surrogate;
    the formula is the same. A UniformModel charges exactly
    log2(support_size) per value. Probabilities are floored at 2^-60.
    """
    v = np.asarray(values, dtype=np.float64)
    if isinstance(model, UniformModel):
        if model.support_size < 1:
            raise UsageError("uniform model needs support_size >= 1")
        return float(v.size * math.log2(model.support_size))
    if isinstance(model, GaussianModel):
        probs = _gaussian_bin_probs(v, model.mean, model.scale)
    elif isinstance(model, LogisticModel):
        probs = _logistic_bin_probs(v, model.loc, model.scale)
    elif isinstance(model, (list, tuple)) and all(isinstance(c, QuantizedCdf) for c in model):
        if len(model) != v.size:
            raise UsageError(f"{v.size} values but {len(model)} CDFs")
        bits = 0.0
        for val, cdf in zip(v.reshape(-1), model):
            idx = int(val) - cdf.s_min
            if idx < 0 or idx >= len(cdf.freq):
                raise UsageError(f"value {val} outside CDF support")
            bits += -math.log2(cdf.freq[idx] / TOTAL)
        return bits
    else:
        raise UsageError(f"unsupported model type {type(model).__name__}")
    probs = np.maximum(probs, _MIN_PROB)
    return float(-np.sum(np.log(probs)) / _LOG2)
