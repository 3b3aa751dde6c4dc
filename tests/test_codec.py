"""End-to-end codec tests: reference handling, motion coding, drift-free
frame and sequence round trips, corruption detection, and refusal paths.
"""

import json
import tracemalloc
import zlib
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bnvc.bitstream import FRAME_TYPE_INTER, BitstreamReader
import bnvc.codec as codec
from bnvc.codec import (
    Decode,
    Encode,
    Frame,
    decode_frame,
    decode_sequence,
    encode_frame,
    encode_sequence,
    inter_step,
    intra_frame,
    reference_flows,
)
import bnvc.entropy as entropy
from bnvc.entropy import GAUSSIAN_SCALES, GaussianModel, LogisticModel, estimate_bits
from bnvc.errors import BnvcError, CorruptStreamError, UsageError
from bnvc.fusion import FusionMode
from bnvc.metrics import EncodeStats
from bnvc.model import CodecModel, ModelConfig
from bnvc.policies import DuplicationPolicy, pad_references
from bnvc.synth import generate_sequence
from bnvc.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]
NEAR = DuplicationPolicy.NEAR
FURTHER = DuplicationPolicy.FURTHER

TINY = ModelConfig.toy()
# the "model" section of a toy weights manifest before the config became
# (n_ref, fusion, width): five width fields, no "width"
OLD_TOY_MODEL_SECTION = {
    "n_ref": 4, "fusion": "butterfly", "ctx_channels": [8, 12, 16], "mv_hyper": 4, "ctx_hyper": 6,
    **{f"{path}_latent": c for path, c in (("mv", 8), ("ctx", 12))},
}


def _model(seed=0, **kw):
    return CodecModel(replace(TINY, **kw), seed=seed)


def _frame(index, seed=None, h=32, w=32):
    rng = np.random.default_rng(index if seed is None else seed)
    return Frame(rng.integers(0, 256, size=(3, h, w), dtype=np.uint8), index, Tensor(np.zeros((8, h, w))))


class TestReferenceSet:
    def test_single_frame_pads_identically_for_both_policies(self):
        dpb = deque(maxlen=4)
        f1 = _frame(0)
        dpb.append(f1)
        for policy in (NEAR, FURTHER):
            refs = pad_references(dpb, 4, policy)
            assert refs == [f1, f1, f1, f1]

    def test_two_frames_policies_differ(self):
        dpb = deque(maxlen=4)
        f1, f2 = _frame(0), _frame(1)
        dpb.append(f1)
        dpb.append(f2)
        assert pad_references(dpb, 4, NEAR) == [f1, f2, f2, f2]
        assert pad_references(dpb, 4, FURTHER) == [f1, f1, f1, f2]

    def test_full_buffer_no_duplication(self):
        dpb = deque(maxlen=4)
        frames = [_frame(i) for i in range(4)]
        for f in frames:
            dpb.append(f)
        assert pad_references(dpb, 4, NEAR) == frames
        assert pad_references(dpb, 4, FURTHER) == frames

    def test_empty_buffer_rejected(self):
        with pytest.raises(UsageError):
            pad_references(deque(maxlen=4), 4, NEAR)


class TestReferenceFlows:
    def test_newest_flow_is_exact(self):
        dpb = deque(maxlen=4)
        for i in range(4):
            f = _frame(i)
            f.flow = Tensor(np.full((2, 32, 32), float(i)))
            dpb.append(f)
        v = Tensor(np.random.default_rng(0).normal(size=(2, 32, 32)))
        flows = reference_flows(list(dpb), v)
        assert flows[-1] is v

    def test_non_consecutive_frames_rejected(self):
        frames = [_frame(i) for i in (2, 3, 5)]
        for f in frames:
            f.flow = Tensor(np.zeros((2, 32, 32)))
        with pytest.raises(UsageError, match="consecutive"):
            reference_flows(frames, Tensor(np.zeros((2, 32, 32))))

    def test_intra_reference_contributes_zero_step(self):
        intra = _frame(0)  # flow None
        p1 = _frame(1)
        p1.flow = Tensor(np.zeros((2, 32, 32)))
        v = Tensor(np.full((2, 32, 32), 0.25))
        flows = reference_flows([intra, p1], v)
        np.testing.assert_allclose(flows[0].data, 0.25, rtol=0, atol=1e-12)

    def test_one_warp_per_decoded_frame(self, monkeypatch):
        """Each decoded frame is warped once; the policy pads the warped list."""
        model = _model()
        model.prepare_for_coding()
        seq = _sequence(seed=25, n=5)
        dpb = deque([intra_frame(model, seq[0], 0)], maxlen=4)
        for i in range(1, 4):
            dpb.append(encode_frame(seq[i], dpb, model, NEAR)[1])
        warps, fused = [], []
        real_warp, real_fusion = codec.warp_bilinear, model.fusion
        monkeypatch.setattr(codec, "warp_bilinear", lambda *a: warps.append(real_warp(*a)) or warps[-1])
        monkeypatch.setattr(model, "fusion", lambda warped: fused.append(list(warped)) or real_fusion(warped))
        for n in (1, 2, 4):
            for policy in (NEAR, FURTHER):
                warps.clear()
                fused.clear()
                inter_step(model, seq[4], list(dpb)[4 - n :], policy, Encode())
                assert len(warps) == n
                padded = pad_references(warps, 4, policy)
                assert len(fused) == 1 and len(fused[0]) == 4
                assert all(got is want for got, want in zip(fused[0], padded))


class _Recorder:
    """Bottleneck wrapper recording (output, mean, scale) at each latent point."""

    def __init__(self, inner):
        self.inner = inner
        self.outputs = []

    def hyper(self, model, which, z, shape):
        out = self.inner.hyper(model, which, z, shape)
        self.outputs.append((out.data, None, None))
        return out

    def main(self, model, y, mean, scale):
        out = self.inner.main(model, y, mean, scale)
        self.outputs.append((out.data, mean.data, scale.data))
        return out


def _moved_frames(seed):
    """A noise reference and a frame whose quadrants moved by different amounts."""
    ref = np.random.default_rng(seed).integers(0, 256, size=(3, 32, 32), dtype=np.uint8)
    cur = ref.copy()
    shifts = {(0, 0): (1, 2), (0, 16): (-2, 0), (16, 0): (3, -1), (16, 16): (0, -3)}
    for (i, j), shift in shifts.items():
        cur[:, i : i + 16, j : j + 16] = np.roll(ref, shift, axis=(1, 2))[:, i : i + 16, j : j + 16]
    return ref, cur


def _encode_step(model, ref, cur, coder):
    _, frame = inter_step(model, cur, [intra_frame(model, ref, 0)], NEAR, coder)
    return frame.flow


class TestMotionCoding:
    """The motion half of the inter step: search, motion AE, mv latents."""

    def test_round_trip_bit_exact(self):
        model = _model()
        model.prepare_for_coding()
        ref, cur = _moved_frames(3)
        coder = Encode()
        v_hat_enc = _encode_step(model, ref, cur, coder)
        _, decoded = inter_step(model, None, [intra_frame(model, ref, 0)], NEAR, Decode(coder.payload()))
        assert v_hat_enc.data.tobytes() == decoded.flow.data.tobytes()

    def test_payload_deterministic(self):
        model = _model()
        model.prepare_for_coding()
        ref, cur = _moved_frames(4)
        c1, c2 = Encode(), Encode()
        _encode_step(model, ref, cur, c1)
        _encode_step(model, ref, cur, c2)
        assert c1.payload() == c2.payload()

    def test_zero_field_deterministic_minimal(self, monkeypatch):
        model = _model()
        model.prepare_for_coding()
        ref, _ = _moved_frames(5)
        real, flows = codec.estimate_motion, []
        monkeypatch.setattr(codec, "estimate_motion", lambda *a, **kw: flows.append(real(*a, **kw)) or flows[-1])
        c1, c2 = Encode(), Encode()
        v_hat = _encode_step(model, ref, ref.copy(), c1)
        _encode_step(model, ref, ref.copy(), c2)
        assert len(flows) == 2 and not flows[0].any() and not flows[1].any()
        assert c1.payload() == c2.payload() and len(c1.payload()) >= 6
        assert np.all(np.isfinite(v_hat.data))

    def test_exact_sad_tie_takes_smaller_displacement(self, monkeypatch):
        """In synth seed 242, frame 2 against frame 1, the block at rows 16-23,
        cols 0-7 matches (dy, dx) = (0, 0) and (-1, 0) at the same integer
        SAD. A search summing k/255 floats picked (-1, 0) by rounding; the
        documented rule picks the smaller displacement."""
        frames = generate_sequence(32, 32, 3, seed=242)
        ref, cur = frames[1].astype(np.int64), frames[2].astype(np.int64)
        block = cur[:, 16:24, 0:8]
        assert np.abs(block - ref[:, 16:24, 0:8]).sum() == np.abs(block - ref[:, 15:23, 0:8]).sum()
        model = _model()
        model.prepare_for_coding()
        real, flows = codec.estimate_motion, []
        monkeypatch.setattr(codec, "estimate_motion", lambda *a, **kw: flows.append(real(*a, **kw)) or flows[-1])
        encode_frame(frames[2], [intra_frame(model, frames[1], 0)], model, NEAR)
        assert len(flows) == 1
        np.testing.assert_array_equal(flows[0][:, 16:24, 0:8], 0.0)

    def test_rate_within_bound_of_estimate(self):
        """The one payload costs the four latents' ideal bits plus one flush."""
        model = _model()
        model.prepare_for_coding()
        ref, cur = _moved_frames(6)
        coder = _Recorder(Encode())
        _encode_step(model, ref, cur, coder)
        assert len(coder.outputs) == 4
        ideal = 0.0
        for which, (z_sym, _, _), (y_hat, mean, scale) in zip(("mv", "ctx"), coder.outputs[0::2], coder.outputs[1::2]):
            loc, pscale = model.prior_params(which)
            ideal += estimate_bits(
                z_sym.ravel(),
                LogisticModel(np.broadcast_to(loc.data, z_sym.shape).ravel(), np.broadcast_to(pscale.data, z_sym.shape).ravel()),
            )
            y_sym = np.rint(y_hat - mean)
            assert np.any(y_sym != 0)
            ideal += estimate_bits(y_sym.ravel(), GaussianModel(np.zeros(y_sym.size), scale.ravel()))
        assert 8 * len(coder.inner.payload()) <= ideal + 64


def _sequence(seed=0, n=6, h=32, w=32):
    return generate_sequence(width=w, height=h, n_frames=n, seed=seed)


class TestEntropyTables:
    """Latents are coded against tables built once, not one per symbol."""

    def test_p_frame_builds_tables_not_rows_per_symbol(self, monkeypatch):
        model = _model()
        model.prepare_for_coding()
        rows = []

        def counting(real):
            def build(*args):
                tables = real(*args)
                rows.append(len(tables))
                return tables

            return build

        for module in (entropy, codec):
            for name in ("build_gaussian_cdf_rows", "build_logistic_cdf_rows"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(getattr(module, name)))
        seq = _sequence(seed=12, n=2)
        coder = _Recorder(Encode())
        inter_step(model, seq[1], [intra_frame(model, seq[0], 0)], NEAR, coder)
        n_symbols = sum(out.size for out, _, _ in coder.outputs)
        assert n_symbols > 1000
        assert sum(rows) <= 64 + model.config.mv_hyper + model.config.ctx_hyper

    def test_round_trip_with_scales_on_table_entries(self, monkeypatch):
        model = _model()
        model.prepare_for_coding()
        for which in ("mv", "ctx"):
            real = getattr(model, f"{which}_hyper_synthesize")

            def on_entries(*args, real=real):
                mean, scale = real(*args)
                entries = GAUSSIAN_SCALES[np.arange(scale.data.size) % 64].reshape(scale.shape)
                return mean, Tensor(entries)

            monkeypatch.setattr(model, f"{which}_hyper_synthesize", on_entries)
        seq = _sequence(seed=13, n=3)
        data, _, recons = encode_sequence(seq, model, NEAR)
        decoded, _ = decode_sequence(data, model)
        assert decoded.tobytes() == recons.tobytes()

    def test_version_1_stream_rejected(self):
        model = _model()
        data, _, _ = encode_sequence(_sequence(seed=14, n=2), model, NEAR)
        with pytest.raises(CorruptStreamError, match="version 1"):
            decode_sequence(_patched(data, 4, bytes([1])), model)

    def test_version_2_stream_rejected(self):
        """Version 2 gave each latent its own length-prefixed payload."""
        model = _model()
        data, _, _ = encode_sequence(_sequence(seed=14, n=2), model, NEAR)
        with pytest.raises(CorruptStreamError, match="version 2"):
            decode_sequence(_patched(data, 4, bytes([2])), model)


class TestFrameRoundTrip:
    def test_decode_matches_encoder_reconstruction_bit_exactly(self):
        model = _model()
        model.prepare_for_coding()
        seq = _sequence(seed=10)
        dpb_enc = deque(maxlen=4)
        dpb_dec = deque(maxlen=4)
        first_enc = intra_frame(model, seq[0], 0)
        first_dec = intra_frame(model, seq[0], 0)
        dpb_enc.append(first_enc)
        dpb_dec.append(first_dec)
        for i in range(1, 5):
            payload, recon = encode_frame(seq[i], dpb_enc, model, NEAR)
            decoded = decode_frame(payload, dpb_dec, model, NEAR)
            assert recon.pixels.tobytes() == decoded.pixels.tobytes()
            assert recon.feature.data.tobytes() == decoded.feature.data.tobytes()
            assert recon.flow.data.tobytes() == decoded.flow.data.tobytes()
            dpb_enc.append(recon)
            dpb_dec.append(decoded)

    def test_encode_deterministic(self):
        model = _model()
        model.prepare_for_coding()
        seq = _sequence(seed=11)
        outs = []
        for _ in range(2):
            dpb = deque(maxlen=4)
            dpb.append(intra_frame(model, seq[0], 0))
            payload, recon = encode_frame(seq[1], dpb, model, NEAR)
            outs.append((payload, recon.pixels.tobytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_index_follows_the_newest_reference(self):
        model = _model()
        model.prepare_for_coding()
        seq = _sequence(seed=15, n=3)
        payload, recon = encode_frame(seq[1], [intra_frame(model, seq[0], 7)], model, NEAR)
        decoded = decode_frame(payload, [intra_frame(model, seq[0], 7)], model, NEAR)
        assert recon.index == decoded.index == 8

    def test_index_gap_rejected(self):
        model = _model()
        model.prepare_for_coding()
        seq = _sequence(seed=15, n=3)
        first = intra_frame(model, seq[0], 0)
        _, second = encode_frame(seq[1], [first], model, NEAR)
        with pytest.raises(UsageError, match="consecutive"):
            encode_frame(seq[2], [first, replace(second, index=2)], model, NEAR)

    def test_empty_dpb_rejected(self):
        model = _model()
        with pytest.raises(UsageError):
            encode_frame(_sequence()[1], deque(maxlen=4), model, NEAR)
        with pytest.raises(UsageError):
            decode_frame(b"", deque(maxlen=4), model, NEAR)

    def test_indivisible_frame_rejected(self):
        model = _model()
        dpb = deque(maxlen=4)
        bad = np.zeros((3, 30, 32), dtype=np.uint8)
        with pytest.raises(UsageError):
            encode_frame(bad, dpb, model, NEAR)

    @pytest.mark.parametrize("policy", ["near", "further", None])
    def test_policy_that_is_not_an_enum_rejected(self, policy):
        # without the check a string silently takes FURTHER's padding
        model = _model()
        seq = _sequence(seed=11)
        dpb = deque([intra_frame(model, seq[0], 0)], maxlen=4)
        with pytest.raises(UsageError, match="DuplicationPolicy"):
            encode_frame(seq[1], dpb, model, policy)


class TestSequenceRoundTrip:
    def test_single_frame_lossless_intra(self):
        model = _model()
        seq = _sequence(n=1)
        data, stats, recons = encode_sequence(seq, model, NEAR, lambda_index=1)
        assert stats.frame_types == ["I"]
        np.testing.assert_array_equal(recons[0], seq[0])
        decoded, header = decode_sequence(data, model)
        np.testing.assert_array_equal(decoded[0], seq[0])
        assert header.lambda_index == 1

    def test_five_frames_chunk_types_and_drift_free(self):
        model = _model()
        seq = _sequence(seed=12, n=5)
        data, stats, recons = encode_sequence(seq, model, NEAR)
        assert stats.frame_types == ["I", "P", "P", "P", "P"]
        decoded, _ = decode_sequence(data, model)
        np.testing.assert_array_equal(decoded, recons)

    def test_intra_period_respected(self):
        model = _model()
        seq = generate_sequence(n_frames=33, seed=13)
        data, stats, recons = encode_sequence(seq, model, NEAR, intra_period=32)
        assert stats.frame_types[0] == "I"
        assert stats.frame_types[32] == "I"
        assert all(t == "P" for t in stats.frame_types[1:32])
        decoded, _ = decode_sequence(data, model)
        np.testing.assert_array_equal(decoded, recons)

    def test_further_policy_round_trip(self):
        model = _model()
        seq = _sequence(seed=14, n=5)
        data, stats, recons = encode_sequence(seq, model, FURTHER)
        decoded, header = decode_sequence(data, model, expected_policy=FURTHER)
        np.testing.assert_array_equal(decoded, recons)
        assert header.policy is FURTHER

    def test_rate_accounting_identity(self):
        model = _model()
        seq = _sequence(seed=15, n=5)
        data, stats, _ = encode_sequence(seq, model, NEAR)
        assert stats.total_bits == 8 * len(data)
        header_bits = stats.total_bits - sum(stats.frame_bits)
        assert header_bits == 8 * 23  # fixed header size
        assert abs(stats.bpp - stats.total_bits / (5 * 32 * 32)) < 1e-12

    def test_empty_sequence_rejected(self):
        # the header-only stream it made was refused by decode_sequence
        with pytest.raises(UsageError, match="at least one frame"):
            encode_sequence(np.zeros((0, 3, 32, 32), dtype=np.uint8), _model(), NEAR)

    def test_intra_period_beyond_header_field_rejected(self):
        with pytest.raises(UsageError, match="intra period"):
            encode_sequence(_sequence(n=1), _model(), NEAR, intra_period=70000)

    def test_frame_wider_than_header_field_rejected(self):
        with pytest.raises(UsageError, match="frame size"):
            encode_sequence(np.zeros((1, 3, 4, 65540), dtype=np.uint8), _model(), NEAR)

    @pytest.mark.parametrize(
        "kwargs, hw",
        [
            ({"intra_period": 0}, (32, 32)),
            ({"lambda_index": 4}, (32, 32)),
            ({}, (32, 30)),
            ({}, (4, 65540)),
            ({"policy": "near"}, (32, 32)),
        ],
        ids=["intra_period_0", "lambda_index_4", "width_30", "width_65540", "policy_str"],
    )
    def test_refused_encode_leaves_weights_unsnapped(self, kwargs, hw):
        """The header refuses its fields before the weights are snapped through float32."""
        model = _model()
        before = [t.data.copy() for t in model.store.tensors()]
        assert any(not np.array_equal(b, b.astype(np.float32)) for b in before)
        with pytest.raises(UsageError):
            encode_sequence(np.zeros((1, 3, *hw), dtype=np.uint8), model, **{"policy": NEAR, **kwargs})
        assert all(np.array_equal(b, t.data) for b, t in zip(before, model.store.tensors()))

    def test_refused_decode_leaves_weights_unsnapped(self):
        """The weights hash is compared before the caller's weights are snapped through float32."""
        data, _, _ = encode_sequence(_sequence(seed=16, n=2), CodecModel(ModelConfig.toy(), seed=0), NEAR)
        other = CodecModel(ModelConfig.toy(), seed=1)
        before = [t.data.tobytes() for t in other.store.tensors()]
        assert any(not np.array_equal(t.data, t.data.astype(np.float32)) for t in other.store.tensors())
        with pytest.raises(UsageError, match="weights hash mismatch"):
            decode_sequence(data, other)
        assert before == [t.data.tobytes() for t in other.store.tensors()]

    def test_weights_hash_guard(self):
        model = _model()
        seq = _sequence(seed=16, n=3)
        data, _, _ = encode_sequence(seq, model, NEAR)
        other = _model(seed=99)
        with pytest.raises(UsageError):
            decode_sequence(data, other)

    def test_policy_mismatch_refused(self):
        model = _model()
        seq = _sequence(seed=17, n=3)
        data, _, _ = encode_sequence(seq, model, NEAR)
        with pytest.raises(UsageError):
            decode_sequence(data, model, expected_policy=FURTHER)

    @pytest.mark.parametrize("expected", ["near", "further"])
    def test_policy_given_as_string_refused(self, expected):
        data, _, _ = encode_sequence(_sequence(seed=17, n=2), _model(), NEAR)
        with pytest.raises(UsageError, match="refusing requested"):
            decode_sequence(data, _model(), expected_policy=expected)

    def test_fusion_mode_mismatch_refused(self):
        cfg_b = TINY
        model_b = CodecModel(cfg_b, seed=0)
        seq = _sequence(seed=18, n=3)
        data, _, _ = encode_sequence(seq, model_b, NEAR)
        cfg_t = replace(TINY, fusion=FusionMode.TOGETHER)
        model_t = CodecModel(cfg_t, seed=0)
        # weights hash differs too; fake it by patching the header first byte?
        with pytest.raises(UsageError):
            decode_sequence(data, model_t)

    def test_truncated_stream_detected(self):
        model = _model()
        seq = _sequence(seed=19, n=3)
        data, _, _ = encode_sequence(seq, model, NEAR)
        with pytest.raises(CorruptStreamError):
            decode_sequence(data[: len(data) - 7], model)

    def test_bytes_after_payload_end_detected(self):
        """The decoder must finish exactly on the payload's last byte, so a
        byte appended under a recomputed length and CRC is corruption."""
        model = _model()
        data, _, _ = encode_sequence(_sequence(seed=19, n=2), model, NEAR)
        start = 23 + 5 + 3 * 32 * 32  # header + intra record
        payload = data[start + 9 :]
        body = (len(payload) + 1).to_bytes(4, "little") + payload + b"\x00"
        bad = data[: start + 1] + zlib.crc32(body).to_bytes(4, "little") + body
        with pytest.raises(CorruptStreamError, match="1 bytes past its last symbol"):
            decode_sequence(bad, model)

    def test_payload_leading_byte_checked(self):
        """Payload byte 0 is the encoder's carry sentinel, always 0; any
        other value under a recomputed CRC is corruption."""
        model = _model()
        data, _, _ = encode_sequence(_sequence(seed=19, n=2), model, NEAR)
        start = 23 + 5 + 3 * 32 * 32  # header + intra record
        bad = bytearray(data)
        bad[start + 9] = 0xA5
        bad[start + 1 : start + 5] = zlib.crc32(bad[start + 5 :]).to_bytes(4, "little")
        with pytest.raises(CorruptStreamError, match="starts with byte 165"):
            decode_sequence(bytes(bad), model)

    @pytest.mark.parametrize(
        "period, drop_intra",
        [(1, False), (2, False), (3, False), (32, True)],
        ids=["period_1", "period_2", "period_3", "inter_record_first"],
    )
    def test_intra_schedule_enforced(self, period, drop_intra):
        """Record i must be intra exactly when i % intra_period == 0, so an
        inter record never meets an empty decoded buffer."""
        model = _model()
        data, _, _ = encode_sequence(_sequence(seed=19, n=5), model, NEAR)
        if drop_intra:
            bad = data[:23] + data[23 + 5 + 3 * 32 * 32 :]
        else:
            bad = _patched(data, 12, period.to_bytes(2, "little"))
        with pytest.raises(CorruptStreamError, match=f"breaks the intra period {period}"):
            decode_sequence(bad, model)

    def test_flipped_payload_bytes_detected_never_crash(self):
        model = _model()
        seq = _sequence(seed=20, n=4)
        data, stats, _ = encode_sequence(seq, model, NEAR)
        header_and_intra = 23 + 5 + 3 * 32 * 32  # header + intra record
        rng = np.random.default_rng(0)
        for _ in range(24):
            pos = int(rng.integers(header_and_intra, len(data)))
            bad = bytearray(data)
            bad[pos] ^= 1 << int(rng.integers(0, 8))
            with pytest.raises(BnvcError):
                decode_sequence(bytes(bad), model)

    def test_intra_corruption_detected(self):
        model = _model()
        seq = _sequence(seed=21, n=2)
        data, _, _ = encode_sequence(seq, model, NEAR)
        bad = bytearray(data)
        bad[23 + 5 + 100] ^= 0x10  # inside the intra raw block
        with pytest.raises(BnvcError):
            decode_sequence(bytes(bad), model)


class TestDecodeFuzz:
    """Seeded corruption of a toy stream: the decoder raises a package error
    or returns the encoder's frames. Rewrites that leave the CRC valid are
    caught by the decoder landing off the payload's end, which is likely but
    not certain: corrupted symbols can consume exactly the payload's bytes
    and decode to wrong frames. This seed's trials do not; a decoded-picture
    hash would close the gap."""

    def _inter_records(self, data):
        """(start, end) of each inter record, start at its type byte."""
        reader = BitstreamReader(data)
        spans = []
        while not reader.at_end():
            start = reader.pos
            ftype, _ = reader.next_record()
            if ftype == FRAME_TYPE_INTER:
                spans.append((start, reader.pos))
        return spans

    def _outcome(self, data, model, recons):
        """The error's name, or "decoded" when the frames are a prefix of `recons`."""
        try:
            decoded, _ = decode_sequence(data, model)
        except BnvcError as err:
            return type(err).__name__
        assert decoded.tobytes() == recons[: len(decoded)].tobytes(), "decoded to wrong frames with no error"
        return "decoded"

    def test_only_package_errors_escape(self):
        model = _model()
        data, _, recons = encode_sequence(_sequence(seed=24, n=3), model, NEAR)
        spans = self._inter_records(data)
        assert len(spans) == 2
        rng = np.random.default_rng(2026)
        outcomes = []
        for _ in range(70):
            start, end = spans[int(rng.integers(0, len(spans)))]
            bad = bytearray(data)
            for pos in rng.choice(np.arange(start + 5, end), size=int(rng.integers(1, 5)), replace=False):
                bad[pos] = int(rng.integers(0, 256))
            bad[start + 1 : start + 5] = zlib.crc32(bad[start + 5 : end]).to_bytes(4, "little")
            outcomes.append(self._outcome(bytes(bad), model, recons))
        for cut in rng.integers(0, len(data), size=30):
            outcomes.append(self._outcome(data[:cut], model, recons))
        assert "CorruptStreamError" in outcomes

    def test_header_edits(self):
        """Each of the 23 header bytes set to 0, 1, 0xFF and its own value ^ 1
        (87 edits that change a byte) raises a package error or decodes to the
        encoder's frames."""
        model = _model()
        data, _, recons = encode_sequence(_sequence(seed=19, n=5), model, NEAR)
        outcomes = Counter()
        for offset in range(23):
            for value in (0, 1, 0xFF, data[offset] ^ 1):
                if value != data[offset]:
                    outcomes[self._outcome(_patched(data, offset, bytes([value])), model, recons)] += 1
        assert outcomes == {"CorruptStreamError": 42, "UsageError": 37, "decoded": 8}


def _patched(data, offset, value):
    bad = bytearray(data)
    bad[offset : offset + len(value)] = value
    return bytes(bad)


class TestHeaderFields:
    """Invalid header bytes are stream corruption; a valid header naming
    another model is a caller mistake. Offsets follow bitstream's layout:
    width u16 at 5, n_ref u8 at 9, policy u8 at 10, fusion u8 at 11,
    intra_period u16 at 12, lambda_index u8 at 14."""

    @pytest.fixture(scope="class")
    def coded(self):
        model = _model()
        data, _, _ = encode_sequence(_sequence(seed=23, n=2), model, NEAR)
        return model, data

    def test_invalid_policy_byte_is_corrupt(self, coded):
        model, data = coded
        with pytest.raises(CorruptStreamError, match="policy byte 74"):
            decode_sequence(_patched(data, 10, bytes([74])), model)

    @pytest.mark.parametrize("width", [30, 0])
    def test_invalid_width_is_corrupt(self, coded, width):
        model, data = coded
        with pytest.raises(CorruptStreamError, match="positive multiple of 4"):
            decode_sequence(_patched(data, 5, width.to_bytes(2, "little")), model)

    def test_invalid_fusion_byte_is_corrupt(self, coded):
        model, data = coded
        with pytest.raises(CorruptStreamError, match="fusion mode byte 9"):
            decode_sequence(_patched(data, 11, bytes([9])), model)

    @pytest.mark.parametrize(
        "offset, value",
        [(14, bytes([200])), (12, (0).to_bytes(2, "little")), (9, bytes([0]))],
        ids=["lambda_index_200", "intra_period_0", "n_ref_0"],
    )
    def test_field_no_encoder_writes_is_corrupt(self, coded, offset, value):
        model, data = coded
        with pytest.raises(CorruptStreamError, match="invalid stream header"):
            decode_sequence(_patched(data, offset, value), model)

    def test_valid_other_fusion_mode_is_usage_error(self, coded):
        model, data = coded
        with pytest.raises(UsageError, match="together fusion"):
            decode_sequence(_patched(data, 11, bytes([1])), model)  # 1: together


class TestSaveLoadRoundTrip:
    def test_train_free_save_load_encode_decode(self, tmp_path):
        model = _model(seed=5)
        path = tmp_path / "weights.json"
        model.save(path)
        loaded = CodecModel.load(path)
        assert loaded.store.weights_hash() == model.store.weights_hash()
        seq = _sequence(seed=22, n=4)
        data, _, recons = encode_sequence(seq, model, NEAR)
        decoded, _ = decode_sequence(data, loaded)
        np.testing.assert_array_equal(decoded, recons)

    @pytest.mark.parametrize(
        "break_files",
        [
            lambda manifest, bin_path: bin_path.unlink(),
            lambda manifest, bin_path: manifest.pop("model"),
            lambda manifest, bin_path: manifest["model"].update(fusion=3),
            lambda manifest, bin_path: manifest.update(params="x"),
            lambda manifest, bin_path: manifest["model"].update(width=6),
            lambda manifest, bin_path: manifest.update(model=OLD_TOY_MODEL_SECTION),
            # a breaker that returns bytes replaces the manifest file with them
            lambda manifest, bin_path: b"\xff\xfe" + json.dumps(manifest).encode(),
        ],
        ids=[
            "missing_bin",
            "no_model_entry",
            "fusion_not_a_name",
            "params_not_a_list",
            "width_6",
            "old_7_keys",
            "not_utf8",
        ],
    )
    def test_malformed_weights_files_are_usage_errors(self, tmp_path, break_files):
        path = tmp_path / "w.json"
        _model().save(path)
        manifest = json.loads(path.read_text())
        broken = break_files(manifest, tmp_path / "w.bin")
        path.write_bytes(broken if isinstance(broken, bytes) else json.dumps(manifest).encode())
        with pytest.raises(UsageError):
            CodecModel.load(path)

    def test_manifest_carries_config(self, tmp_path):
        cfg = replace(TINY, fusion=FusionMode.INDEPENDENT, n_ref=2)
        model = CodecModel(cfg, seed=1)
        path = tmp_path / "w.json"
        model.save(path)
        loaded = CodecModel.load(path)
        assert loaded.config.fusion is FusionMode.INDEPENDENT
        assert loaded.config.n_ref == 2


class TestStepMemory:
    # measured 47.2 MB (64-bit Linux, numpy 2.4), so 2.8 MB of margin; it read
    # 85.6 MB while every conv input was a concatenated copy, the step held
    # each fused tensor until fusion returned, and the shift form took all
    # k*k taps in one GEMM at any size. The bound assumes numpy 2: numpy
    # 1.x, which pyproject allows, was not measured, and its temporaries
    # may differ
    PEAK_BOUND_MB = 50.0

    def test_traced_peak_of_a_128_stream(self, monkeypatch):
        """Traced allocations of encoding and decoding a 5-frame 128x128 mosaic
        with the default butterfly model. Their sizes do not hang on timing, so
        the peak repeats; it is set by the butterfly grid's 56 -> 16 convs."""
        monkeypatch.syspath_prepend(str(ROOT))
        from codecbench.workloads import mosaic_sequence

        frames = mosaic_sequence(128, 32, 5, seed=0)
        model = CodecModel()
        tracemalloc.start()
        try:
            data, _, recons = encode_sequence(frames, model, NEAR)
            decoded, _ = decode_sequence(data, model)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(decoded, recons)
        assert peak_mb <= self.PEAK_BOUND_MB, peak_mb
