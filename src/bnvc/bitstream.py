"""Bitstream container: sequence header plus per-frame records.

Layout (all integers little-endian):

    magic "BNVC" | version u8
    header: width u16, height u16, n_ref u8, policy u8 (0=near,
            1=further), fusion u8 (0=butterfly, 1=together,
            2=independent), intra_period u16, lambda_index u8,
            weights_hash u64
    records to the end, record i intra iff i % intra_period == 0:
      intra: type u8 = 0, crc u32, raw planar RGB (3*H*W bytes)
      inter: type u8 = 1, crc u32, length u32, one range-coded payload
             of that many bytes

The crc field is CRC-32 (zlib) of the record body after the crc itself;
it exists so that any single corrupted payload byte is detected before
entropy decoding rather than silently decoding into garbage symbols.

Version 3 range-codes the four latents of an inter frame (mv hyper, mv
main, ctx hyper, ctx main) in one payload, with one flush (see `entropy`
and `codec`); version 2 gave each its own length-prefixed payload. A
stream of any other version is rejected as corrupt.

`StreamHeader` holds the header's rules: it refuses a field no encoder
writes with `UsageError`, which `StreamHeader.unpack` turns, like an
unknown policy or fusion byte, into `CorruptStreamError`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from .errors import CorruptStreamError, UsageError, check_int, check_type
from .fusion import FusionMode
from .model import LAMBDA_VALUES, CodecModel
from .policies import DuplicationPolicy

__all__ = ["MAGIC", "VERSION", "StreamHeader", "BitstreamWriter", "BitstreamReader"]

MAGIC = b"BNVC"
VERSION = 3

_HEADER_FMT = "<4sBHHBBBHBQ"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

FRAME_TYPE_INTRA = 0
FRAME_TYPE_INTER = 1

# each enum's members in the order of their header byte values
_POLICY_WIRE = (DuplicationPolicy.NEAR, DuplicationPolicy.FURTHER)
_FUSION_WIRE = (FusionMode.BUTTERFLY, FusionMode.TOGETHER, FusionMode.INDEPENDENT)
_U16_MAX = 0xFFFF


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    n_ref: int
    policy: DuplicationPolicy
    fusion: FusionMode
    intra_period: int
    lambda_index: int
    weights_hash: int

    def __post_init__(self):
        check_type("policy", self.policy, DuplicationPolicy)
        check_type("fusion", self.fusion, FusionMode)
        check_int("frame size (height)", self.height, 0, _U16_MAX)
        check_int("frame size (width)", self.width, 0, _U16_MAX)
        CodecModel.latent_hw(self.height, self.width)  # refuses a side of 0 or not a multiple of 4
        check_int("reference count", self.n_ref, 1, 0xFF)
        check_int("intra period", self.intra_period, 1, _U16_MAX)
        check_int("lambda index", self.lambda_index, 0, len(LAMBDA_VALUES) - 1)
        check_int("weights hash", self.weights_hash, 0, 2**64 - 1)

    def intra_at(self, index: int) -> bool:
        """Whether frame `index` is coded intra: the schedule of both encoder and decoder."""
        return index % self.intra_period == 0

    def pack(self) -> bytes:
        return struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
            self.width,
            self.height,
            self.n_ref,
            _POLICY_WIRE.index(self.policy),
            _FUSION_WIRE.index(self.fusion),
            self.intra_period,
            self.lambda_index,
            self.weights_hash,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "StreamHeader":
        if len(data) < _HEADER_SIZE:
            raise CorruptStreamError(f"stream shorter than the {_HEADER_SIZE}-byte header")
        magic, version, w, h, n_ref, policy, fusion, period, lam, whash = struct.unpack_from(_HEADER_FMT, data)
        if magic != MAGIC:
            raise CorruptStreamError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CorruptStreamError(f"unsupported stream version {version}")
        if policy >= len(_POLICY_WIRE) or fusion >= len(_FUSION_WIRE):
            raise CorruptStreamError(f"invalid stream header: policy byte {policy}, fusion mode byte {fusion}")
        try:
            return cls(w, h, n_ref, _POLICY_WIRE[policy], _FUSION_WIRE[fusion], period, lam, whash)
        except UsageError as err:
            raise CorruptStreamError(f"invalid stream header: {err}") from None


class BitstreamWriter:
    def __init__(self, header: StreamHeader):
        self._buf = bytearray(header.pack())
        self.frame_bits: list[int] = []

    def add_intra(self, raw_planar: bytes) -> None:
        self._add(FRAME_TYPE_INTRA, bytes(raw_planar))

    def add_inter(self, payload: bytes) -> None:
        self._add(FRAME_TYPE_INTER, struct.pack("<I", len(payload)) + payload)

    def _add(self, ftype: int, body: bytes) -> None:
        rec = struct.pack("<BI", ftype, zlib.crc32(body)) + body
        self._buf += rec
        self.frame_bits.append(8 * len(rec))

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class BitstreamReader:
    def __init__(self, data: bytes):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise UsageError(f"a stream must be bytes-like, got {type(data).__name__}")
        self.data = data
        self.header = StreamHeader.unpack(data)
        self.pos = _HEADER_SIZE

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptStreamError(f"stream truncated at byte {self.pos} (needed {n} more)")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def next_record(self) -> tuple[int, bytes]:
        """(frame_type, raw planar pixels or inter payload), CRC verified."""
        ftype, crc = struct.unpack("<BI", self._take(5))
        start = self.pos
        if ftype == FRAME_TYPE_INTRA:
            size = 3 * self.header.width * self.header.height
        elif ftype == FRAME_TYPE_INTER:
            (size,) = struct.unpack("<I", self._take(4))
        else:
            raise CorruptStreamError(f"unknown frame record type {ftype}")
        body = self._take(size)
        if zlib.crc32(self.data[start : self.pos]) != crc:
            raise CorruptStreamError(f"{('intra', 'inter')[ftype]} record failed its CRC check")
        return ftype, body
