"""Tests for block matching and flow composition.

The block-matching oracle is a straight per-block, per-candidate Python
loop over exact integer SADs, with the same candidate order and tie
rules; the composition oracle samples and adds pointwise.
"""

import numpy as np
import pytest

from bnvc.errors import ShapeError, UsageError
from bnvc.motion import compose_flows, estimate_motion
from bnvc.tensor import Tensor


def _pixels(rng, shape):
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def _block_match_oracle(cur, ref, block, r):
    cur, ref = cur.astype(np.int64), ref.astype(np.int64)
    c, h, w = cur.shape
    nby, nbx = h // block, w // block
    out = np.zeros((nby, nbx, 2))
    for by in range(nby):
        for bx in range(nbx):
            y0, x0 = by * block, bx * block
            best = None  # (sad, mag), dy, dx
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    ry, rx = y0 + dy, x0 + dx
                    if ry < 0 or rx < 0 or ry + block > h or rx + block > w:
                        continue
                    sad = int(
                        np.abs(
                            cur[:, y0 : y0 + block, x0 : x0 + block]
                            - ref[:, ry : ry + block, rx : rx + block]
                        ).sum()
                    )
                    key = (sad, dy * dy + dx * dx)
                    if best is None or key < best[0]:  # strict: the earlier raster candidate keeps a full tie
                        best = (key, dy, dx)
            out[by, bx] = (best[2], best[1])  # dx, dy
    return out


def _oracle_inputs():
    """(cur, ref, block) triples for the oracle test."""
    for seed in range(6):
        rng = np.random.default_rng(seed + 50)
        yield _pixels(rng, (1, 16, 24)), _pixels(rng, (1, 16, 24)), 8
    for seed in range(3):  # block 4: shifted content under one noisy block row
        rng = np.random.default_rng(seed + 70)
        ref = _pixels(rng, (3, 16, 20))
        cur = np.roll(ref, (seed - 1, 2 - seed), axis=(1, 2))
        cur[:, :4] = _pixels(rng, (3, 4, 20))
        yield cur, ref, 4
    for block in (4, 8):
        # zero corner blocks against a reference with no zeros: windows that
        # leave the frame would match them best if they were not excluded
        ref = np.random.default_rng(block).integers(1, 256, size=(3, 16, 24), dtype=np.uint8)
        cur = ref.copy()
        cur[:, :block, :block] = 0
        cur[:, -block:, -block:] = 0
        yield cur, ref, block


def _block_flows(flow, block):
    return np.stack([flow[0, ::block, ::block], flow[1, ::block, ::block]], axis=-1)


def _compose_oracle(outer, inner):
    _, h, w = outer.shape
    out = np.zeros_like(outer)
    for i in range(h):
        for j in range(w):
            sx = min(max(j + outer[0, i, j], 0.0), w - 1.0)
            sy = min(max(i + outer[1, i, j], 0.0), h - 1.0)
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = sx - x0, sy - y0
            for ch in range(2):
                sample = (
                    inner[ch, y0, x0] * (1 - fy) * (1 - fx)
                    + inner[ch, y0, x1] * (1 - fy) * fx
                    + inner[ch, y1, x0] * fy * (1 - fx)
                    + inner[ch, y1, x1] * fy * fx
                )
                out[ch, i, j] = outer[ch, i, j] + sample
    return out


class TestEstimateMotion:
    def test_identical_frames_zero_field(self):
        frame = _pixels(np.random.default_rng(0), (3, 32, 32))
        flow = estimate_motion(frame, frame)
        np.testing.assert_array_equal(flow, np.zeros((2, 32, 32)))
        assert flow.dtype == np.float64

    def test_rightward_content_motion(self):
        # content moves right by 2 px between reference and current, so
        # the backward flow points left: (-2, 0)
        ref = _pixels(np.random.default_rng(1), (3, 32, 32))
        cur = np.roll(ref, 2, axis=2)
        flow = estimate_motion(cur, ref)
        interior = flow[:, :, 8:24]
        np.testing.assert_array_equal(interior[0], -2.0)
        np.testing.assert_array_equal(interior[1], 0.0)

    def test_vertical_motion(self):
        ref = _pixels(np.random.default_rng(2), (1, 24, 24))
        cur = np.roll(ref, -3, axis=1)  # content moves up; backward flow points down
        flow = estimate_motion(cur, ref)
        np.testing.assert_array_equal(flow[1][8:16], 3.0)

    def test_noise_pair_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        cur, ref = _pixels(rng, (2, 16, 16)), _pixels(rng, (2, 16, 16))
        flow = estimate_motion(cur, ref, block=8)
        oracle = _block_match_oracle(cur, ref, 8, 4)
        for by in range(2):
            for bx in range(2):
                assert flow[0, by * 8, bx * 8] == oracle[by, bx, 0]
                assert flow[1, by * 8, bx * 8] == oracle[by, bx, 1]

    def test_oracle_agreement_multiple_seeds(self):
        for cur, ref, block in _oracle_inputs():
            flow = estimate_motion(cur, ref, block=block)
            np.testing.assert_array_equal(_block_flows(flow, block), _block_match_oracle(cur, ref, block, 4))

    def test_exact_ties_take_smaller_then_earlier_displacement(self):
        # columns alternate two values and rows repeat, so every odd dx and
        # every dy matches exactly: dy = 0 wins, then dx = -1 (earlier in
        # raster order) where it stays in the frame, else dx = +1
        ref = np.zeros((3, 16, 32), dtype=np.uint8)
        ref[:, :, 1::2] = 200
        cur = np.roll(ref, -1, axis=2)
        flow = estimate_motion(cur, ref)
        np.testing.assert_array_equal(flow[1], 0.0)
        np.testing.assert_array_equal(flow[0][:, :8], 1.0)
        np.testing.assert_array_equal(flow[0][:, 8:], -1.0)

    def test_field_is_blockwise_constant(self):
        rng = np.random.default_rng(9)
        flow = estimate_motion(_pixels(rng, (1, 32, 32)), _pixels(rng, (1, 32, 32)))
        for ch in range(2):
            blocks = flow[ch].reshape(4, 8, 4, 8)
            assert np.all(blocks == blocks[:, :1, :, :1])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            estimate_motion(np.zeros((1, 32, 32), np.uint8), np.zeros((1, 32, 24), np.uint8))
        with pytest.raises(UsageError):
            estimate_motion(np.zeros((1, 30, 32), np.uint8), np.zeros((1, 30, 32), np.uint8))

    def test_float_frames_rejected(self):
        frame = np.zeros((3, 16, 16), np.uint8)
        with pytest.raises(UsageError):
            estimate_motion(frame / 255.0, frame / 255.0)
        with pytest.raises(UsageError):
            estimate_motion(frame, frame.astype(np.float32))


class TestComposeFlows:
    def test_zero_is_identity_element(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(2, 8, 8))
        zero = np.zeros((2, 8, 8))
        np.testing.assert_array_equal(compose_flows(zero, f).data, f)
        np.testing.assert_array_equal(compose_flows(f, zero).data, f)

    def test_constant_fields_add(self):
        a = np.zeros((2, 8, 8))
        a[0], a[1] = 1.5, -0.75
        b = np.zeros((2, 8, 8))
        b[0], b[1] = -0.5, 1.25
        out = compose_flows(a, b).data
        np.testing.assert_allclose(out[0], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.5, rtol=0, atol=1e-12)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            r = np.random.default_rng(seed + 10)
            outer = r.normal(scale=1.5, size=(2, 10, 12))
            inner = r.normal(scale=1.5, size=(2, 10, 12))
            got = compose_flows(outer, inner).data
            want = _compose_oracle(outer, inner)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_differentiable_through_composition(self):
        rng = np.random.default_rng(6)
        outer = Tensor(rng.uniform(0.2, 0.45, size=(2, 6, 6)), requires_grad=True)
        inner = Tensor(rng.normal(size=(2, 6, 6)), requires_grad=True)
        from bnvc.tensor import sum_all

        sum_all(compose_flows(outer, inner)).backward()
        assert outer.grad is not None and np.all(np.isfinite(outer.grad))
        assert inner.grad is not None and np.all(np.isfinite(inner.grad))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compose_flows(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)))
        with pytest.raises(ShapeError):
            compose_flows(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))
