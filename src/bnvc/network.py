"""Network building blocks: named parameter store, conv/residual layers,
deterministic initialization, and the weights' byte form.

The byte form (`ParamStore.to_f32_bytes`, read back in place by
`ParamStore.load_f32_bytes`) is every parameter's values as
little-endian float32 in C order, the parameters in insertion order. It
names no parameter and no shape, so only a store built the same way
reads it; `model` keeps it in the weights file. A 64-bit FNV-1a hash of
those bytes, taken of the current values, identifies the weights in
bitstream headers; `fnv1a64` evaluates the per-byte FNV recurrence as
chunked numpy prefix scans (Blelloch, "Prefix sums and their
applications", CMU-CS-90-190), exact for every input. Computation runs
in float64; parameters are "snapped" through float32 before coding so
that the values used for coding are exactly the values a decoder will
load from the file.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError, check_type
from .tensor import Tensor, conv2d, leaky_relu

__all__ = ["ParamStore", "Conv", "ResBlock", "fnv1a64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1
_FNV_CHUNK = 1 << 14  # bytes per scan; keeps the transients of one chunk under 1 MB
_FNV_POWERS = np.multiply.accumulate(np.full(_FNV_CHUNK, _FNV_PRIME, dtype=np.uint64))[::-1].copy()  # P^CHUNK .. P^1
# uint8 and uint64 scalars keep every step in its dtype under numpy 1.x and 2.x casting rules alike
_FNV_PRIME_LOW = np.uint8(_FNV_PRIME & 0xFF)
_FNV_BITS = tuple((np.uint8(1 << k), np.uint8((1 << k) - 1)) for k in range(8))  # (bit k, bits below k)
_WORD_SHIFTS = tuple(np.uint64(s) for s in (8, 16, 32))
_TOP_BYTE = np.uint64(56)
_EVERY_BYTE = np.uint64(0x0101010101010101)


def _prefix_xor(flips: np.ndarray) -> None:
    """Replace each byte of `flips` (uint8, whole 8-byte words) with the XOR
    of it and every byte before it: three shift-XORs within each
    little-endian word, then one `bitwise_xor.accumulate` over the words'
    last bytes carries each word's total into the words after it."""
    words = flips.view("<u8")
    for shift in _WORD_SHIFTS:
        words ^= words << shift
    carry = np.bitwise_xor.accumulate(words >> _TOP_BYTE)
    words[1:] ^= carry[:-1] * _EVERY_BYTE


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64 of a bytes-like `data`: h = ((h ^ b) * P) mod 2^64 per byte,
    from the offset basis (Fowler, Noll, Vo).

    Evaluated as prefix-XOR scans over chunks of at most `_FNV_CHUNK`
    bytes, with the same value as the per-byte loop for every input:

    * The state's low byte l evolves on its own, l' = ((l ^ b) * P) mod
      256. P is odd, so bit k of l' is bit k of (((l ^ b) mod 2^k) * P)
      XOR bit k of b XOR bit k of l. Once the bits below k are known at
      every position, bit k is a prefix XOR (`_prefix_xor`); eight uint8
      passes give the low byte before every byte of the chunk. The scan
      runs on whole words, so a chunk is zero-padded to a multiple of 8
      bytes; padding after the last byte changes nothing before it.
    * A byte changes only the low byte, so h ^ b = h + d with
      d = (l ^ b) - l, and a chunk of m bytes ends at
      P^m * h + sum_i d_i * P^(m - i) mod 2^64: one wrapping uint64
      multiply and sum against the precomputed powers of P.
    """
    h = _FNV_OFFSET
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, len(buf), _FNV_CHUNK):
        m = min(_FNV_CHUNK, len(buf) - start)
        b = np.zeros(-(-m // 8) * 8, dtype=np.uint8)
        b[:m] = buf[start : start + m]
        low = np.zeros(len(b) + 1, dtype=np.uint8)  # the state's low byte before each byte, then after the last
        low[0] = h & 0xFF
        for bit, below in _FNV_BITS:
            flips = ((low[:-1] ^ b) & below) * _FNV_PRIME_LOW
            flips ^= b
            flips &= bit
            flips[0] ^= low[0] & bit
            _prefix_xor(flips)
            low[1:] |= flips
        d = (low[:m] ^ b[:m]).astype(np.uint64) - low[:m].astype(np.uint64)  # wraps: d mod 2^64
        d *= _FNV_POWERS[-m:]
        h = (int(_FNV_POWERS[-m]) * h + int(d.sum(dtype=np.uint64))) & _U64
    return h


class ParamStore:
    """Insertion-ordered named float64 parameters.

    Loading writes into the existing arrays in place, so layer objects
    holding references to these tensors see updated values without
    rebinding.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._hashed = (b"", _FNV_OFFSET)  # (bytes last hashed, their FNV); fnv1a64(b"") is the offset

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self._params:
            raise UsageError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(values, dtype=np.float64), name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def n_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def set_requires_grad(self, flag: bool) -> None:
        for t in self._params.values():
            t.requires_grad = flag

    def snap_to_f32(self) -> None:
        """Round every parameter through float32 in place.

        Snapping does not change the float32 serialization, so it leaves
        `weights_hash` as it was.
        """
        for t in self._params.values():
            t.data[...] = t.data.astype(np.float32)

    def to_f32_bytes(self) -> bytes:
        return b"".join(t.data.astype("<f4").tobytes() for t in self._params.values())

    def weights_hash(self) -> int:
        """FNV-1a 64 of the float32 serialization; FNV reruns only when those bytes change."""
        data = self.to_f32_bytes()
        if data != self._hashed[0]:
            self._hashed = (data, fnv1a64(data))
        return self._hashed[1]

    def load_f32_bytes(self, data: bytes) -> None:
        """Write `to_f32_bytes`'s form back into the parameters, in place.
        `data` must be `bytes`, 4 per value; a refused load writes nothing."""
        check_type("weights data", data, bytes)
        if len(data) != 4 * self.n_values():
            raise UsageError(f"weights binary holds {len(data)} bytes, model needs {4 * self.n_values()}")
        raw = np.frombuffer(data, dtype="<f4")
        pos = 0
        for t in self._params.values():
            n = t.data.size
            t.data[...] = raw[pos : pos + n].reshape(t.data.shape)
            pos += n


class Conv:
    """Same-padded 3x3 (by default) convolution layer with He-normal
    initialization; see tensor.conv2d, which also takes the input as a
    list of channel parts."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        c_in: int,
        c_out: int,
        k: int = 3,
        stride: int = 1,
        *,
        rng: np.random.Generator,
        init_scale: float = 1.0,
        bias_fill: float = 0.0,
    ):
        self.stride = stride
        std = init_scale * np.sqrt(2.0 / (c_in * k * k))
        self.w = store.add(f"{name}.w", rng.normal(0.0, std, size=(c_out, c_in, k, k)))
        self.b = store.add(f"{name}.b", np.full(c_out, bias_fill))

    def __call__(self, x: Tensor | list[Tensor]) -> Tensor:
        return conv2d(x, self.w, self.b, stride=self.stride)


class ResBlock:
    """conv-lrelu-conv plus identity skip, width-preserving."""

    def __init__(self, store: ParamStore, name: str, channels: int, rng: np.random.Generator):
        self.conv1 = Conv(store, f"{name}.conv1", channels, channels, rng=rng)
        self.conv2 = Conv(store, f"{name}.conv2", channels, channels, rng=rng, init_scale=0.5)

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.conv2(leaky_relu(self.conv1(x)))
