"""Tests for the container: header fields, record framing, CRC guards."""

import numpy as np
import pytest

from bnvc.bitstream import (
    FRAME_TYPE_INTER,
    FRAME_TYPE_INTRA,
    BitstreamReader,
    BitstreamWriter,
    StreamHeader,
)
from bnvc.errors import CorruptStreamError, UsageError
from bnvc.fusion import FusionMode
from bnvc.policies import DuplicationPolicy


def _header(**kw):
    base = dict(
        width=32,
        height=24,
        n_ref=4,
        policy=DuplicationPolicy.NEAR,
        fusion=FusionMode.BUTTERFLY,
        intra_period=32,
        lambda_index=2,
        weights_hash=0x0123456789ABCDEF,
    )
    base.update(kw)
    return StreamHeader(**base)


class TestHeader:
    def test_pack_unpack_round_trip(self):
        h = _header()
        assert StreamHeader.unpack(h.pack()) == h
        assert len(h.pack()) == 23

    def test_bad_magic_rejected(self):
        data = bytearray(_header().pack())
        data[0] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            StreamHeader.unpack(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(_header().pack())
        data[4] = 99
        with pytest.raises(CorruptStreamError):
            StreamHeader.unpack(bytes(data))

    def test_short_header_rejected(self):
        with pytest.raises(CorruptStreamError):
            StreamHeader.unpack(b"BNVC")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("width", 30, "positive multiple of 4"),
            ("height", 0, "positive multiple of 4"),
            ("width", 65540, "at most 65535"),
            ("n_ref", 0, "reference count"),
            ("n_ref", 256, "reference count"),
            ("intra_period", 0, "intra period"),
            ("intra_period", 65536, "intra period"),
            ("intra_period", True, "intra period"),
            ("intra_period", 1.5, "intra period"),
            ("lambda_index", 4, "lambda index"),
            ("lambda_index", -1, "lambda index"),
            ("lambda_index", "2", "lambda index"),
            ("lambda_index", 2.0, "lambda index"),
            ("weights_hash", 2**64, "weights hash"),
            ("weights_hash", -1, "weights hash"),
            ("policy", "near", "DuplicationPolicy"),
            ("policy", FusionMode.BUTTERFLY, "DuplicationPolicy"),
            ("fusion", "butterfly", "FusionMode"),
        ],
    )
    def test_field_no_encoder_writes_refused(self, field, value, message):
        with pytest.raises(UsageError, match=message):
            _header(**{field: value})


class TestRecords:
    def test_intra_and_inter_round_trip(self):
        h = _header(width=4, height=4)
        writer = BitstreamWriter(h)
        raw = bytes(range(48))  # 3 * 4 * 4
        writer.add_intra(raw)
        payload = b"\x01\x02abcdef" + b"\xff" * 9
        writer.add_inter(payload)
        reader = BitstreamReader(writer.getvalue())
        t0, body0 = reader.next_record()
        assert t0 == FRAME_TYPE_INTRA and body0 == raw
        t1, body1 = reader.next_record()
        assert t1 == FRAME_TYPE_INTER and body1 == payload
        assert reader.at_end()

    def test_frame_bits_accounting(self):
        h = _header(width=4, height=4)
        writer = BitstreamWriter(h)
        writer.add_intra(bytes(48))
        writer.add_inter(b"123456")
        total = len(writer.getvalue())
        assert total == 23 + sum(writer.frame_bits) // 8
        assert writer.frame_bits[0] == 8 * (5 + 48)
        assert writer.frame_bits[1] == 8 * (5 + 4 + 6)

    def test_crc_catches_every_single_byte_flip(self):
        h = _header(width=4, height=4)
        writer = BitstreamWriter(h)
        writer.add_inter(b"\x00\x01\x02\x03\x04\x05\x06\x07\x08")
        data = writer.getvalue()
        body_start = 23 + 5
        for pos in range(body_start, len(data)):
            for bit in range(8):
                bad = bytearray(data)
                bad[pos] ^= 1 << bit
                reader = BitstreamReader(bytes(bad))
                with pytest.raises(CorruptStreamError):
                    reader.next_record()

    def test_truncation_detected(self):
        writer = BitstreamWriter(_header(width=4, height=4))
        writer.add_intra(bytes(48))
        data = writer.getvalue()
        reader = BitstreamReader(data[:-3])
        with pytest.raises(CorruptStreamError):
            reader.next_record()

    def test_unknown_record_type_rejected(self):
        writer = BitstreamWriter(_header(width=4, height=4))
        writer.add_intra(bytes(48))
        data = bytearray(writer.getvalue())
        data[23] = 7  # type byte
        reader = BitstreamReader(bytes(data))
        with pytest.raises(CorruptStreamError):
            reader.next_record()
