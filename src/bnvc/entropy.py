"""Bit-exact range coder and the probability tables that drive it.

Symbols are coded against quantized CDFs with 16-bit total frequency.
A latent's tables arrive as a `TableSet`: its distinct tables plus one
integer table index per symbol, so a table is built once and shared by
every symbol that uses it.

* Main latents are coded mean-removed, so only the scale picks the
  table. `GAUSSIAN_SCALES` holds 64 log-spaced scales over
  [SCALE_MIN, SCALE_MAX]; their zero-mean tables are built at import,
  and `gaussian_tables` maps each clamped scale to the index of the
  smallest entry >= it. Rounding the scale up costs a little rate but
  never cuts a tail, and table choice is an integer index, so an
  ULP-level change of a scale alters a stream only at an entry.
* Hyper latents use a per-channel logistic prior: one table per
  channel, indexed by each symbol's channel.

Each table covers round(mean) +- (ceil(4.6 * scale) + 1). Bin
probabilities over that support are renormalized, quantized to 16-bit
frequencies with a minimum of 1, and the rounding deficit is corrected
deterministically on the largest bucket, so encoder and decoder always
derive identical tables from identical parameters. The CDFs are
`special.ndtr` and `special.expit`, numpy ports of scipy.special's
kernels, bit-equal to them. They take every `exp` from the C library and
never from `np.exp`, whose kernel numpy picks by CPU feature, so a CDF
value does not hang on the host's instruction set (the scales that pick
a table still pass through `np.exp`).

`range_encode` and `range_decode` are LZMA-style carry/cache coders
with a 40-bit range state renormalized one byte at a time (range always
in [2^32, 2^40)), so the per-symbol truncation loss of the range/total
division is below 2^-16 relative and a 10^5 symbol chunk stays within a
few tenths of a bit of the table rate; the flush is exactly six bytes.
All coder arithmetic is on Python integers, so payloads are identical
across platforms.

One payload may code several TableSets joined: one `DecoderState` carries
the decoder across them, one `range_decode` call each. It refuses a
payload whose leading byte is not the encoder's zero, and reads one byte
per byte the encoder wrote, so it ends exactly on the payload's last byte.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptStreamError, UsageError
from .special import expit, ndtr

__all__ = [
    "SCALE_MIN",
    "SCALE_MAX",
    "SUPPORT_MULT",
    "GAUSSIAN_SCALES",
    "MIN_PROB",
    "QuantizedCdf",
    "TableSet",
    "build_gaussian_cdf_rows",
    "build_logistic_cdf_rows",
    "gaussian_tables",
    "row_support_bounds",
    "range_encode",
    "DecoderState",
    "range_decode",
    "GaussianModel",
    "LogisticModel",
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
MIN_PROB = 2.0**-60  # floor of every bin probability a rate is charged


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


class TableSet:
    """The distinct tables of one latent and the table index of each symbol."""

    __slots__ = ("tables", "index", "s_min", "s_max")

    def __init__(self, tables: Sequence[QuantizedCdf], index) -> None:
        self.tables = tuple(tables)
        self.index = np.asarray(index, dtype=np.intp).reshape(-1)
        if self.index.size and not 0 <= self.index.min() <= self.index.max() < len(self.tables):
            raise UsageError(f"table index outside [0, {len(self.tables)})")
        self.s_min = np.array([t.s_min for t in self.tables], dtype=np.int64)
        self.s_max = np.array([t.s_max for t in self.tables], dtype=np.int64)

    def __len__(self) -> int:
        return self.index.size

    def symbol_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each symbol's support bounds [s_min, s_max]."""
        return self.s_min[self.index], self.s_max[self.index]


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
    groups = [np.nonzero(widths == w)[0] for w in np.unique(widths)]
    zs = []
    for rows in groups:
        edges_int = lo_arr[rows, None] + np.arange(widths[rows[0]] + 1, dtype=np.int64)
        zs.append((edges_int - 0.5 - means[rows, None]) / sigmas[rows, None])
    # cdf_fn is elementwise, so one call covers the edges of every width
    cdf = cdf_fn(np.concatenate([z.ravel() for z in zs])) if zs else None
    out: list[QuantizedCdf | None] = [None] * len(means)
    start = 0
    for rows, z in zip(groups, zs):
        freq = _quantize_rows(_bin_probs_from_cdf_edges(cdf[start : start + z.size].reshape(z.shape)))
        start += z.size
        cums = np.zeros((freq.shape[0], freq.shape[1] + 1), dtype=np.int64)
        np.cumsum(freq, axis=1, out=cums[:, 1:])
        for j, r in enumerate(rows):
            out[r] = QuantizedCdf(int(lo_arr[r]), freq[j], cums[j])
    return out  # type: ignore[return-value]


def build_gaussian_cdf_rows(means, scales) -> list[QuantizedCdf]:
    """Gaussian tables, one per (mean, scale) row."""
    return _build_cdf_rows(means, scales, ndtr)


def build_logistic_cdf_rows(locs, scales) -> list[QuantizedCdf]:
    """Logistic tables, one per (loc, scale) row."""
    return _build_cdf_rows(locs, scales, expit)


# Ends pinned exactly: exp(log(SCALE_MAX)) is 15.999999999999998, so a scale
# clamped to SCALE_MAX would otherwise find no entry >= it.
GAUSSIAN_SCALES = np.exp(np.linspace(math.log(SCALE_MIN), math.log(SCALE_MAX), 64))
GAUSSIAN_SCALES[0], GAUSSIAN_SCALES[-1] = SCALE_MIN, SCALE_MAX
GAUSSIAN_SCALES.flags.writeable = False
_GAUSSIAN_TABLES = tuple(build_gaussian_cdf_rows(np.zeros(len(GAUSSIAN_SCALES)), GAUSSIAN_SCALES))


def gaussian_tables(scales) -> TableSet:
    """The shared zero-mean tables, indexed by each clamped scale rounded up to an entry."""
    return TableSet(_GAUSSIAN_TABLES, np.searchsorted(GAUSSIAN_SCALES, clamp_scale(scales).reshape(-1)))


# -- range coder -------------------------------------------------------------

def range_encode(symbols, tables: TableSet) -> bytes:
    """Range-encode `symbols`, symbol i coded against tables.tables[tables.index[i]].

    Symbols outside their table's support raise UsageError. An empty
    symbol list produces the fixed-size flush payload.
    """
    if len(symbols) != len(tables):
        raise UsageError(f"{len(symbols)} symbols but {len(tables)} table indices")
    sym = np.asarray(symbols, dtype=np.int64).reshape(-1)
    lo, hi = tables.symbol_bounds()
    outside = np.nonzero((sym < lo) | (sym > hi))[0]
    if outside.size:
        i = outside[0]
        raise UsageError(f"symbol {sym[i]} outside CDF support [{lo[i]}, {hi[i]}]")
    cums = [t.cum.tolist() for t in tables.tables]
    low, rng = 0, _RANGE_TOP - 1
    out = bytearray(1)  # a leading zero byte: no carry ever reaches it
    for t, k in zip(tables.index.tolist(), (sym - lo).tolist()):
        cum = cums[t]
        cum_lo, cum_hi = cum[k], cum[k + 1]
        r = rng // TOTAL
        low += r * cum_lo
        if cum_hi == TOTAL:
            rng -= r * cum_lo  # the top interval absorbs the division remainder
        else:
            rng = r * (cum_hi - cum_lo)
        if low > _LOW_MASK:  # carry into the bytes already written
            low &= _LOW_MASK
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        while rng < _RANGE_BOT:
            out.append(low >> 32)
            low = (low << 8) & _LOW_MASK
            rng <<= 8
    out += low.to_bytes(_FLUSH_BYTES - 1, "big")
    return bytes(out)


class DecoderState:
    """Where a range decoder stands in one payload: code, range and next byte (0: not started)."""

    code = rng = pos = 0


def range_decode(payload: bytes, tables: TableSet, state: DecoderState | None = None) -> list[int]:
    """Decode one symbol per table index from where `state` stands, and leave it at the
    next TableSet of the same payload. The tables must match the encoder's exactly."""
    if state is None:
        state = DecoderState()
    code, rng, pos = state.code, state.rng, state.pos
    if not pos:
        if len(payload) < _FLUSH_BYTES:
            raise CorruptStreamError(f"payload shorter than the {_FLUSH_BYTES}-byte flush")
        if payload[0]:  # the encoder's leading zero byte
            raise CorruptStreamError(f"payload starts with byte {payload[0]}, not the encoder's 0")
        code, rng, pos = int.from_bytes(payload[1:_FLUSH_BYTES], "big"), _RANGE_TOP - 1, _FLUSH_BYTES
    cums = [t.cum.tolist() for t in tables.tables]
    s_mins = tables.s_min.tolist()
    end = len(payload)
    out = []
    for t in tables.index.tolist():
        cum = cums[t]
        r = rng // TOTAL
        dv = code // r
        if dv >= TOTAL:  # the top interval also holds the division remainder
            dv = TOTAL - 1
        k = bisect_right(cum, dv) - 1
        cum_lo, cum_hi = cum[k], cum[k + 1]
        code -= r * cum_lo
        if cum_hi == TOTAL:
            rng -= r * cum_lo
        else:
            rng = r * (cum_hi - cum_lo)
        while rng < _RANGE_BOT:
            if pos >= end:
                raise CorruptStreamError("range-coded payload truncated")
            code = (code << 8) | payload[pos]
            pos += 1
            rng <<= 8
        out.append(s_mins[t] + k)
    state.code, state.rng, state.pos = code, rng, pos
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


def _bin_probs(values, loc, scale, cdf) -> np.ndarray:
    """Unit-bin masses of `values` under `cdf((x - loc) / scale)`, taken at
    -|values - loc| (the mass is symmetric about `loc`), where both CDF terms
    are small and their difference keeps its digits."""
    v = np.asarray(values, dtype=np.float64)
    u = -np.abs(v - np.asarray(loc, dtype=np.float64))
    s = clamp_scale(scale)
    return cdf((u + 0.5) / s) - cdf((u - 0.5) / s)


def estimate_bits(values, model) -> float:
    """Ideal code length of `values` under a GaussianModel or LogisticModel, in bits.

    The rate tests hold the coder and the training rate terms to this
    figure. Each value is charged -log2 of its unit-bin probability. Pass
    rounded integers to rate the inference path, or noisy continuous
    values (value + uniform(-0.5, 0.5)) to rate the training surrogate;
    the formula is the same. Probabilities are floored at 2^-60.
    """
    v = np.asarray(values, dtype=np.float64)
    if isinstance(model, GaussianModel):
        probs = _bin_probs(v, model.mean, model.scale, ndtr)
    elif isinstance(model, LogisticModel):
        probs = _bin_probs(v, model.loc, model.scale, expit)
    else:
        raise UsageError(f"unsupported model type {type(model).__name__}")
    probs = np.maximum(probs, MIN_PROB)
    return float(-np.sum(np.log(probs)) / _LOG2)
