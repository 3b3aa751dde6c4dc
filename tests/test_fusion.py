"""Tests for the multi-reference fusion modes.

Covers the shape contract shared by all modes, the structural
independence of the per-frame downsampling, gradient paths from every
reference into the fused context in every mode, and gradient
correctness of the full butterfly against finite differences.
"""

import numpy as np
import pytest

from bnvc.bitstream import StreamHeader
from bnvc.errors import ShapeError, UsageError
from bnvc.fusion import ContextPyramid, FusionMode, MultiRefFusion
from bnvc.model import ModelConfig
from bnvc.network import ParamStore
from bnvc.policies import DuplicationPolicy
from bnvc.tensor import Tensor, sum_all


def _fusion(mode, n_ref=4, width=16, seed=0):
    """Context widths (width, 3/2 width, 2 width): (16, 24, 32) by default."""
    store = ParamStore()
    fusion = MultiRefFusion(store, "fuse", ModelConfig(n_ref, mode, width), np.random.default_rng(seed))
    return fusion, store


def _warped(n_ref=4, c=16, h=32, w=32, seed=1):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(c, h, w))) for _ in range(n_ref)]


class TestDownsampleStage:
    def test_zero_input_zero_weights_gives_zero_pyramid(self):
        fusion, store = _fusion(FusionMode.BUTTERFLY)
        for t in store.tensors():
            t.data[...] = 0.0
        pyr = fusion.down[0](Tensor(np.zeros((16, 32, 32))))
        assert pyr.f0.shape == (16, 32, 32)
        assert pyr.f1.shape == (24, 16, 16)
        assert pyr.f2.shape == (32, 8, 8)
        for level in (pyr.f0, pyr.f1, pyr.f2):
            np.testing.assert_array_equal(level.data, 0.0)

    def test_shape_contract_default_widths(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        pyr = fusion.down[2](Tensor(np.random.default_rng(0).normal(size=(16, 32, 32))))
        assert pyr.shapes == ((16, 32, 32), (24, 16, 16), (32, 8, 8))

    def test_independence_across_frames(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        warped = _warped()
        base = [fusion.down[j](warped[j]) for j in range(4)]
        perturbed_input = Tensor(warped[1].data + 0.5)
        after = [
            fusion.down[j](perturbed_input if j == 1 else warped[j]) for j in range(4)
        ]
        for j in (0, 2, 3):
            for a, b in zip(base[j].shapes, after[j].shapes):
                assert a == b
            assert base[j].f0.data.tobytes() == after[j].f0.data.tobytes()
            assert base[j].f2.data.tobytes() == after[j].f2.data.tobytes()
        assert base[1].f0.data.tobytes() != after[1].f0.data.tobytes()

    def test_indivisible_size_rejected(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        with pytest.raises(UsageError):
            fusion.down[0](Tensor(np.zeros((16, 30, 32))))


class TestGridFuse:
    def test_single_column_degenerates_to_chain(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY, n_ref=1)
        ctx = fusion(_warped(n_ref=1))
        assert ctx.c0.shape == (16, 32, 32)
        assert ctx.c1.shape == (24, 16, 16)
        assert ctx.c2.shape == (32, 8, 8)

    def test_identical_inputs_give_deterministic_output(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        one = _warped(n_ref=1, seed=9)[0]
        warped = [Tensor(one.data.copy()) for _ in range(4)]
        a = fusion(warped)
        b = fusion([Tensor(one.data.copy()) for _ in range(4)])
        assert a.c0.data.tobytes() == b.c0.data.tobytes()
        assert a.c1.data.tobytes() == b.c1.data.tobytes()
        assert a.c2.data.tobytes() == b.c2.data.tobytes()

    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_every_input_column_reaches_output(self, mode):
        # gradient of sum(c0) with respect to each frame's full-res level
        fusion, _ = _fusion(mode, width=8)
        rng = np.random.default_rng(3)
        warped = [Tensor(rng.normal(size=(8, 16, 16)), requires_grad=True) for _ in range(4)]
        ctx = fusion(list(warped))
        sum_all(ctx.c0).backward()
        for j, t in enumerate(warped):
            assert t.grad is not None
            norm = float(np.sqrt(np.sum(t.grad**2)))
            assert norm > 1e-8, f"no gradient path from reference {j}"

    def test_shape_mismatch_rejected(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        warped = _warped()
        warped[2] = Tensor(np.zeros((16, 16, 16)))
        with pytest.raises((ShapeError, UsageError)):
            fusion(warped)


class TestFusionModes:
    def test_together_first_conv_consumes_all_channel_parts(self):
        fusion, store = _fusion(FusionMode.TOGETHER)
        assert store["fuse.merge_in.w"].data.shape == (16, 64, 3, 3)
        ctx = fusion(_warped())
        assert ctx.c0.shape == (16, 32, 32)

    def test_butterfly_equals_composition(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        warped = _warped(seed=5)
        whole = fusion(list(warped))
        pyramids = [fusion.down[j](warped[j]) for j in range(4)]
        composed = fusion.grid(pyramids)
        assert whole.c0.data.tobytes() == composed.c0.data.tobytes()
        assert whole.c1.data.tobytes() == composed.c1.data.tobytes()
        assert whole.c2.data.tobytes() == composed.c2.data.tobytes()

    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_all_modes_share_shape_contract(self, mode):
        fusion, _ = _fusion(mode, seed=4)
        ctx = fusion(_warped(seed=6))
        assert isinstance(ctx, ContextPyramid)
        assert ctx.c0.shape == (16, 32, 32)
        assert ctx.c1.shape == (24, 16, 16)
        assert ctx.c2.shape == (32, 8, 8)
        for level in (ctx.c0, ctx.c1, ctx.c2):
            assert np.all(np.isfinite(level.data))

    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_determinism(self, mode):
        fusion, _ = _fusion(mode, seed=8)
        warped = _warped(seed=11)
        a = fusion(list(warped)).c0.data.tobytes()
        b = fusion(list(warped)).c0.data.tobytes()
        assert a == b

    def test_wrong_reference_count_rejected(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY, n_ref=4)
        with pytest.raises(UsageError):
            fusion(_warped(n_ref=3))

    def test_mode_wire_round_trip(self):
        """Every fusion mode and policy survives the stream header's bytes."""
        for mode in FusionMode:
            for policy in DuplicationPolicy:
                header = StreamHeader(32, 32, 4, policy, mode, 32, 2, 0x0123456789ABCDEF)
                assert StreamHeader.unpack(header.pack()) == header


class TestOcclusionSensitivity:
    """A local patch added to one reference stays out of the others' pyramids."""

    def test_probe_leaves_other_pyramids_bit_identical(self):
        fusion, _ = _fusion(FusionMode.BUTTERFLY)
        warped = _warped(seed=13)
        base = [fusion.down[j](warped[j]) for j in range(4)]
        probed = Tensor(warped[1].data.copy())
        probed.data[0, 15:17, 15:17] += 1.0
        after = [
            fusion.down[j](probed if j == 1 else warped[j]) for j in range(4)
        ]
        for j in (0, 2, 3):
            assert base[j].f0.data.tobytes() == after[j].f0.data.tobytes()
            assert base[j].f1.data.tobytes() == after[j].f1.data.tobytes()
            assert base[j].f2.data.tobytes() == after[j].f2.data.tobytes()


class TestButterflyGradients:
    def test_butterfly_weight_gradients(self):
        # check a sample of weight gradients by promoting the live store
        # tensors and differencing the loss directly
        store = ParamStore()
        fusion = MultiRefFusion(store, "fuse", ModelConfig(n_ref=2, width=4), np.random.default_rng(3))
        rng = np.random.default_rng(4)
        warped = [Tensor(rng.normal(size=(4, 8, 8))) for _ in range(2)]
        names = ["fuse.grid.s0.f1.fuse.w", "fuse.down0.res0.conv1.w", "fuse.grid.s2.f0.refine.conv2.w"]
        for name in names:
            store[name].requires_grad = True
        ctx = fusion(list(warped))
        loss = sum_all(ctx.c0)
        loss.backward()
        analytic = {name: store[name].grad.copy() for name in names}
        for name in names:
            store[name].requires_grad = False
        eps = 1e-5
        for name in names:
            w = store[name]
            flat = w.data.reshape(-1)
            idx = 7 % flat.size
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float(sum_all(fusion(list(warped)).c0).data)
            flat[idx] = orig - eps
            lo = float(sum_all(fusion(list(warped)).c0).data)
            flat[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            assert rel < 1e-4, f"{name}: analytic {a} vs numeric {numeric}"
