"""Tests for the parameter store, its float32 byte form as weights files
keep it, and the FNV-1a weights hash, which always names the parameters'
current float32 values. The per-byte FNV-1a loop is the oracle for the
chunked prefix-scan hash."""

import json

import numpy as np
import pytest

import bnvc.network as network
from bnvc.codec import decode_sequence, encode_sequence
from bnvc.errors import UsageError
from bnvc.fusion import FusionMode
from bnvc.model import CodecModel, ModelConfig
from bnvc.network import Conv, ParamStore, ResBlock, fnv1a64
from bnvc.synth import generate_sequence
from bnvc.tensor import Tensor
from bnvc.training import Adam


def fnv1a64_loop(data: bytes) -> int:
    """FNV-1a 64 as its definition states it, one byte at a time."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & ((1 << 64) - 1)
    return h


CHUNK = network._FNV_CHUNK
FILLS = {
    "all_00": lambda n: bytes(n),
    "all_ff": lambda n: b"\xff" * n,
    "random": lambda n: np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes(),
}
BENCHMARK_MODELS = {
    "default_butterfly": ModelConfig(),
    "default_together": ModelConfig(fusion=FusionMode.TOGETHER),
    "toy_butterfly": ModelConfig.toy(),
}


class TestFnv1a64:
    @pytest.mark.parametrize("fill", FILLS.values(), ids=FILLS.keys())
    @pytest.mark.parametrize("n", [0, 1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_matches_the_per_byte_loop(self, fill, n):
        data = fill(n)
        assert fnv1a64(data) == fnv1a64_loop(data)

    @pytest.mark.parametrize("config", BENCHMARK_MODELS.values(), ids=BENCHMARK_MODELS.keys())
    def test_matches_the_per_byte_loop_on_model_weights(self, config):
        data = CodecModel(config, seed=0).store.to_f32_bytes()
        assert fnv1a64(data) == fnv1a64_loop(data)

    def test_reference_vectors(self):
        # standard FNV-1a 64 test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_sensitive_to_any_byte(self):
        data = bytes(range(64))
        base = fnv1a64(data)
        for i in (0, 13, 63):
            flipped = bytearray(data)
            flipped[i] ^= 1
            assert fnv1a64(bytes(flipped)) != base


class TestParamStore:
    def test_ordered_names_and_duplicate_rejection(self):
        store = ParamStore()
        store.add("b.w", np.zeros(3))
        store.add("a.w", np.ones((2, 2)))
        assert store.names() == ["b.w", "a.w"]  # insertion order, not sorted
        with pytest.raises(UsageError):
            store.add("b.w", np.zeros(1))

    def test_snap_is_idempotent_and_changes_hash_only_once(self):
        store = ParamStore()
        rng = np.random.default_rng(0)
        store.add("p", rng.normal(size=100))
        h1 = store.weights_hash()
        store.snap_to_f32()
        assert store.weights_hash() == h1  # the float32 serialization is unchanged
        snapped = store["p"].data.copy()
        store.snap_to_f32()
        assert store.weights_hash() == h1
        np.testing.assert_array_equal(store["p"].data, snapped)

    def test_hash_recomputed_only_after_weights_change(self, monkeypatch, tmp_path):
        """FNV reruns exactly when the float32 serialization changes."""
        real, calls = network.fnv1a64, []
        monkeypatch.setattr(network, "fnv1a64", lambda data: calls.append(1) or real(data))
        model = CodecModel(ModelConfig.toy(), seed=0)
        seq = generate_sequence(width=16, height=16, n_frames=1, seed=0)
        first, _, _ = encode_sequence(seq, model)
        second, _, _ = encode_sequence(seq, model)
        assert len(calls) == 1 and second == first

        params = model.store.tensors()
        for p in params:
            p.grad = np.ones_like(p.data)
        Adam(params).step()
        encode_sequence(seq, model)
        assert len(calls) == 2

        model.store.load_f32_bytes(model.store.to_f32_bytes())  # the bytes just hashed
        encode_sequence(seq, model)
        assert len(calls) == 2

        model.store.load_f32_bytes(CodecModel(ModelConfig.toy(), seed=1).store.to_f32_bytes())
        encode_sequence(seq, model)
        assert len(calls) == 3
        assert model.store.weights_hash() == real(model.store.to_f32_bytes())

        # loading a file hashes its bytes once, and the first encode reuses that hash
        model.save(tmp_path / "w.json")
        loaded = CodecModel.load(tmp_path / "w.json")
        assert len(calls) == 4
        assert encode_sequence(seq, loaded)[0] == encode_sequence(seq, model)[0]
        assert len(calls) == 4

    def test_in_place_edit_changes_stream_hash(self):
        """An edit that snapping cannot see still renames the weights a stream was coded with."""
        model = CodecModel(ModelConfig.toy(), seed=0)
        seq = generate_sequence(width=16, height=16, n_frames=3, seed=0)
        encode_sequence(seq, model)
        model.store["gen.conv_out.b"].data += 0.25  # float32-exact: the biases start at 0.5
        data, _, recons = encode_sequence(seq, model)
        decoded, _ = decode_sequence(data, model)
        np.testing.assert_array_equal(decoded, recons)
        with pytest.raises(UsageError, match="weights hash mismatch"):
            decode_sequence(data, CodecModel(ModelConfig.toy(), seed=0))

    def test_seed0_toy_weights_hash_pinned(self):
        """Catches a change to initialisation or serialisation order."""
        assert CodecModel(ModelConfig.toy(), seed=0).prepare_for_coding() == 0x20354C69C2CB8FC9

    def test_seed0_default_weights_hash_pinned(self):
        """The default widths (width 16) build the same weights as before the one-width config."""
        assert CodecModel(ModelConfig(), seed=0).prepare_for_coding() == 0xC9291BA738936D11

    def test_seed0_together_weights_hash_pinned(self):
        """The clips64_together benchmark model: TOGETHER fusion at width 16."""
        assert CodecModel(ModelConfig(fusion=FusionMode.TOGETHER), seed=0).prepare_for_coding() == 0x7C29911C0D7B35BF

    def test_save_load_round_trip(self, tmp_path):
        """The file holds the store rounded through float32; saving leaves the store as it was."""
        model = CodecModel(ModelConfig.toy(), seed=1)
        store = model.store
        before = [t.data.copy() for t in store.tensors()]
        model.save(tmp_path / "w.json")
        assert [t.data.tobytes() for t in store.tensors()] == [b.tobytes() for b in before]
        manifest = json.loads((tmp_path / "w.json").read_text())
        assert manifest["model"] == {"n_ref": 4, "fusion": "butterfly", "width": 8}
        assert sorted(manifest) == ["format", "hash_fnv1a64", "model"]

        other = CodecModel.load(tmp_path / "w.json").store
        rounded = [b.astype(np.float32).astype(np.float64) for b in before]
        assert [t.data.tobytes() for t in other.tensors()] == [r.tobytes() for r in rounded]
        assert not np.array_equal(other["gen.conv_out.w"].data, store["gen.conv_out.w"].data)
        assert other.weights_hash() == store.weights_hash()
        assert manifest["hash_fnv1a64"] == f"{store.weights_hash():016x}"

    def test_load_rejects_wrong_layout(self, tmp_path):
        """A binary of another layout has another size; its manifest's hash cannot save it."""
        CodecModel(ModelConfig.toy(n_ref=2), seed=0).save(tmp_path / "two.json")
        CodecModel(ModelConfig.toy(), seed=0).save(tmp_path / "w.json")
        (tmp_path / "w.bin").write_bytes((tmp_path / "two.bin").read_bytes())
        with pytest.raises(UsageError):
            CodecModel.load(tmp_path / "w.json")
        (tmp_path / "w.bin").write_bytes(bytes(13))  # not a whole number of float32s
        with pytest.raises(UsageError, match="13 bytes"):
            CodecModel.load(tmp_path / "w.json")

    def test_refused_load_leaves_weights_and_hash(self):
        model = CodecModel(ModelConfig.toy(), seed=0)
        before = model.store.to_f32_bytes()
        hash_before = model.prepare_for_coding()
        other = CodecModel(ModelConfig.toy(), seed=1).store.to_f32_bytes()
        # one value short, one value over, not whole float32s, not bytes
        for data in (other[:-4], other + bytes(4), other[:13], bytearray(other), other.hex()):
            with pytest.raises(UsageError):
                model.store.load_f32_bytes(data)
        assert model.store.to_f32_bytes() == before
        assert model.prepare_for_coding() == hash_before == fnv1a64(before)

    def test_manifest_that_is_not_an_object_refused(self, tmp_path):
        CodecModel(ModelConfig.toy(), seed=0).save(tmp_path / "w.json")
        (tmp_path / "w.json").write_text("[1]")
        with pytest.raises(UsageError, match="not a weights manifest"):
            CodecModel.load(tmp_path / "w.json")

    def test_load_writes_in_place(self):
        store = ParamStore()
        store.add("p", np.arange(4.0))
        other = ParamStore()
        t = other.add("p", np.zeros(4))
        other.load_f32_bytes(store.to_f32_bytes())
        assert t is other["p"]
        np.testing.assert_array_equal(t.data, np.arange(4.0))


class TestLayers:
    def test_conv_layer_shapes_and_determinism(self):
        s1, s2 = ParamStore(), ParamStore()
        c1 = Conv(s1, "c", 3, 5, rng=np.random.default_rng(7))
        c2 = Conv(s2, "c", 3, 5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(c1.w.data, c2.w.data)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8, 8)))
        assert c1(x).shape == (5, 8, 8)

    def test_resblock_preserves_shape_and_is_residual(self):
        store = ParamStore()
        block = ResBlock(store, "r", 4, np.random.default_rng(3))
        for t in store.tensors():
            t.data[...] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(4, 6, 6)))
        out = block(x)
        np.testing.assert_array_equal(out.data, x.data)  # zero weights leave the skip path
