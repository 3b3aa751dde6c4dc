"""Tests for the autodiff tensor engine.

Oracles are deliberately naive: nested-loop convolution, per-sample
bilinear interpolation, integer index shifts. The engine must agree
with them to 1e-12, and every analytic gradient must agree with central
finite differences.
"""

import math

import numpy as np
import pytest

import bnvc.tensor as tensor_mod
from bnvc.errors import ShapeError, UsageError
from bnvc.gradsuite import op_checks
from bnvc.tensor import (
    GradCheckReport,
    Tensor,
    _node,
    backward,
    bilinear_resize,
    clamp,
    conv2d,
    exp,
    grad_check,
    leaky_relu,
    log,
    mean_all,
    sigmoid,
    std_normal_cdf,
    sum_all,
    warp_bilinear,
)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def _conv2d_loops(x, w, b, stride):
    c_out, c_in, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_h = (x.shape[1] + 2 * pad - k) // stride + 1
    out_w = (x.shape[2] + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, out_h, out_w))
    for co in range(c_out):
        for oy in range(out_h):
            for ox in range(out_w):
                acc = b[co]
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            acc += xp[ci, oy * stride + ky, ox * stride + kx] * w[co, ci, ky, kx]
                out[co, oy, ox] = acc
    return out


def _conv2d_loops_grads(x, w, g, stride):
    """Input and weight gradients of sum(_conv2d_loops(x, w, b, stride) * g):
    each output position scatters g back through its window."""
    c_out, c_in, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for co in range(c_out):
        for oy in range(g.shape[1]):
            for ox in range(g.shape[2]):
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            iy, ix = oy * stride + ky, ox * stride + kx
                            gxp[ci, iy, ix] += g[co, oy, ox] * w[co, ci, ky, kx]
                            gw[co, ci, ky, kx] += g[co, oy, ox] * xp[ci, iy, ix]
    return gxp[:, pad : pad + x.shape[1], pad : pad + x.shape[2]], gw


def _conv_weight_grad_per_tap(g, x, k):
    """Stride-1 weight gradient as one GEMM per kernel tap over the flat
    padded input: each element is the dot product of the output gradient
    with the input shifted by that tap."""
    c_out, out_h, out_w = g.shape
    xf, wp = tensor_mod._flat_padded([x], k // 2)
    n = out_h * wp
    g_pad = np.zeros((c_out, out_h, wp))
    g_pad[:, :, :out_w] = g
    g_pad = g_pad.reshape(c_out, n)
    g_w = np.empty((c_out, x.shape[0], k * k))
    for t, off in enumerate(tensor_mod._tap_offsets(k, wp)):
        g_w[:, :, t] = g_pad @ xf[:, off : off + n].T
    return g_w.reshape(c_out, x.shape[0], k, k)


def _resize_loops(x, out_h, out_w):
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                out[ch, i, j] = (
                    x[ch, y0, x0] * (1 - fy) * (1 - fx)
                    + x[ch, y0, x1] * (1 - fy) * fx
                    + x[ch, y1, x0] * fy * (1 - fx)
                    + x[ch, y1, x1] * fy * fx
                )
    return out


def _t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = conv2d(_t(x), _t(np.ones((1, 1, 1, 1))), _t(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_kernel_and_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6, 5))
        out = conv2d(_t(x), _t(np.zeros((4, 3, 3, 3))), _t(np.zeros(4)), stride=1)
        assert out.data.shape == (4, 6, 5)
        np.testing.assert_array_equal(out.data, np.zeros((4, 6, 5)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = conv2d(_t(x), _t(w), _t(b), stride=2).data
        want = _conv2d_loops(x, w, b, stride=2)
        assert got.shape == (3, 3, 3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_loop_oracle_all_geometries(self, stride):
        rng = np.random.default_rng(stride * 10 + 1)
        # C_out <= C_in and C_out > C_in select different forms at stride 1
        shapes = [(2, 2, 3)] + [(c_in, c_out, k) for c_in, c_out in [(3, 2), (3, 3), (2, 3)] for k in (1, 3)]
        for c_in, c_out, k in shapes:
            msg = f"{c_in}->{c_out} k={k}"
            x = _t(rng.normal(size=(c_in, 7, 6)), grad=True)
            w = _t(rng.normal(size=(c_out, c_in, k, k)), grad=True)
            b = _t(rng.normal(size=c_out), grad=True)
            y = conv2d(x, w, b, stride=stride)
            want = _conv2d_loops(x.data, w.data, b.data, stride)
            np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-12, err_msg=msg)
            # the gradients of sum(y * g) are the loops' adjoints applied to g
            g = rng.normal(size=want.shape)
            sum_all(y * g).backward()
            want_gx, want_gw = _conv2d_loops_grads(x.data, w.data, g, stride)
            np.testing.assert_allclose(x.grad, want_gx, rtol=0, atol=1e-12, err_msg=msg)
            np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-12, err_msg=msg)
            np.testing.assert_allclose(b.grad, g.sum(axis=(1, 2)), rtol=0, atol=1e-12, err_msg=msg)

    def test_stride1_forms_make_no_im2col_copy(self, monkeypatch):
        calls = []
        real = tensor_mod._im2col
        monkeypatch.setattr(tensor_mod, "_im2col", lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(11)

        def run(c_in, c_out, stride=1):
            """_im2col calls made by (forward, backward) of one conv; backward
            takes both the input and the weight gradient."""
            x = _t(rng.normal(size=(c_in, 8, 8)), grad=True)
            w = _t(rng.normal(size=(c_out, c_in, 3, 3)), grad=True)
            y = conv2d(x, w, _t(np.zeros(c_out), grad=True), stride=stride)
            n_fwd = len(calls)
            sum_all(y).backward()
            n_all = len(calls)
            calls.clear()
            return n_fwd, n_all - n_fwd

        # shift form (C_in > C_out) and kernel-row form (C_in <= C_out), in
        # the forward pass and in both gradients
        for c_in, c_out in [(4, 2), (4, 4), (2, 4), (3, 16)]:
            assert run(c_in, c_out) == (0, 0), (c_in, c_out)
        assert run(4, 2, stride=2)[0] == 1  # the spy sees the im2col form

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c_in,c_out", [(3, 8), (5, 5), (16, 4)])
    def test_weight_grad_matches_per_tap_gemms(self, c_in, c_out, k):
        rng = np.random.default_rng(100 * c_in + 10 * c_out + k)
        x = rng.normal(size=(c_in, 13, 11))
        g = rng.normal(size=(c_out, 13, 11))
        got = tensor_mod._conv_weight_grad(g, [x], k, 1)
        assert got.flags.c_contiguous
        # same dot products, but the BLAS kernel it picks depends on the GEMM's
        # shape, so the summation order inside each one may differ
        np.testing.assert_allclose(got, _conv_weight_grad_per_tap(g, x, k), rtol=0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 6))
        y = rng.normal(size=(2, 6, 6))
        w = _t(rng.normal(size=(3, 2, 3, 3)))
        zero_b = _t(np.zeros(3))
        a, b = 1.7, -0.4
        lhs = conv2d(_t(a * x + b * y), w, zero_b).data
        rhs = a * conv2d(_t(x), w, zero_b).data + b * conv2d(_t(y), w, zero_b).data
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        x = _t(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError):
            conv2d(x, _t(np.zeros((1, 3, 3, 3))), _t(np.zeros(1)))  # wrong C_in
        with pytest.raises(ShapeError):
            conv2d(x, _t(np.zeros((1, 2, 2, 2))), _t(np.zeros(1)))  # even kernel
        with pytest.raises(ShapeError):
            conv2d(x, _t(np.zeros((1, 2, 3, 3))), _t(np.zeros(2)))  # bad bias



def _shift_form_all_taps(x, wd):
    """The stride-1 shift form as one GEMM over all k*k taps, whatever the
    size of that (k*k*C_out, L) temporary; taps summed in row-major order."""
    c_out, c_in, k, _ = wd.shape
    _, h, w = x.shape
    xf, wp = tensor_mod._flat_padded([x], k // 2)
    n = h * wp
    taps = (wd.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in) @ xf).reshape(k * k, c_out, -1)
    acc = taps[0, :, :n].copy()
    for t, off in enumerate(tensor_mod._tap_offsets(k, wp)[1:], 1):
        acc += taps[t, :, off : off + n]
    return acc.reshape(c_out, h, wp)[:, :, :w]


class TestConvParts:
    """conv2d over a list of channel parts is conv2d over their
    np.concatenate, bit for bit, in every form and in every gradient."""

    @pytest.mark.parametrize(
        "sizes,c_out,hw,stride",
        [
            ((4, 3), 16, (9, 7), 1),  # kernel-row: C_in 7 <= C_out 16
            ((16, 24, 16), 16, (20, 18), 1),  # shift, all taps in one GEMM
            ((16, 24, 16), 16, (128, 128), 1),  # shift, GEMM over column chunks
            ((4, 3, 2), 5, (9, 8), 2),  # im2col
        ],
        ids=["kernel_row", "shift_below_cap", "shift_above_cap", "im2col"],
    )
    def test_parts_equal_concatenated_input(self, sizes, c_out, hw, stride):
        rng = np.random.default_rng(sum(sizes) + c_out + stride)
        parts = [_t(rng.normal(size=(c, *hw)), grad=True) for c in sizes]
        if len(sizes) == 3:  # the last part is the grid's zero-stride all-zero predecessor
            parts[-1] = Tensor(np.broadcast_to(0.0, (sizes[-1], *hw)))
        whole = _t(np.concatenate([p.data for p in parts]), grad=True)
        c_in, k = whole.shape[0], 3
        if stride == 1 and c_in > c_out:
            above = 8 * k * k * c_out * (hw[0] + 3) * (hw[1] + 2) > tensor_mod._SHIFT_TAPS_MAX_BYTES
            assert above == (hw == (128, 128))
        wv, bv = rng.normal(size=(c_out, c_in, k, k)), rng.normal(size=c_out)
        w1, w2 = _t(wv, grad=True), _t(wv.copy(), grad=True)
        b1, b2 = _t(bv, grad=True), _t(bv.copy(), grad=True)
        y_parts = conv2d(parts, w1, b1, stride)
        y_whole = conv2d(whole, w2, b2, stride)
        assert y_parts.data.tobytes() == y_whole.data.tobytes()
        g = rng.normal(size=y_whole.shape)
        sum_all(y_parts * g).backward()
        sum_all(y_whole * g).backward()
        start = 0
        for p in parts:
            c = p.shape[0]
            if p.requires_grad:
                assert p.grad.tobytes() == whole.grad[start : start + c].tobytes()
            else:
                assert p.grad is None
            start += c
        assert w1.grad.tobytes() == w2.grad.tobytes()
        assert b1.grad.tobytes() == b2.grad.tobytes()

    def test_single_part_list_equals_tensor(self):
        rng = np.random.default_rng(3)
        x = _t(rng.normal(size=(3, 6, 5)))
        w, b = _t(rng.normal(size=(2, 3, 3, 3))), _t(rng.normal(size=2))
        assert conv2d([x], w, b).data.tobytes() == conv2d(x, w, b).data.tobytes()

    def test_part_shape_errors(self):
        w, b = _t(np.zeros((1, 3, 3, 3))), _t(np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d([], w, b)
        with pytest.raises(ShapeError):
            conv2d([_t(np.zeros((2, 4, 4))), _t(np.zeros((1, 4, 5)))], w, b)  # sizes differ
        with pytest.raises(ShapeError):
            conv2d([_t(np.zeros((2, 4, 4))), _t(np.zeros((2, 4, 4)))], w, b)  # 4 channels, not 3

    @pytest.mark.parametrize(
        "c_in,c_out,h,w,above",
        [(56, 16, 128, 128, True), (64, 16, 64, 64, False), (2, 1, 4000, 29, True)],
    )
    def test_shift_form_equals_all_taps_gemm(self, c_in, c_out, h, w, above):
        """56 -> 16 at 128x128 (19.6 MB of taps) runs its GEMM over column chunks;
        64 -> 16 at 64x64 (5.1 MB) stays under the cap and runs one GEMM;
        2 -> 1 at 4000x29 (8.9 MB) has padded rows 31 columns wide, so its
        chunk boundary falls mid-row."""
        rng = np.random.default_rng(c_in + h)
        x = rng.normal(size=(c_in, h, w))
        wd = rng.normal(size=(c_out, c_in, 3, 3))
        taps_bytes = 8 * 9 * c_out * (h + 3) * (w + 2)
        assert (taps_bytes > tensor_mod._SHIFT_TAPS_MAX_BYTES) == above
        assert np.array_equal(tensor_mod._correlate([x], wd, 1), _shift_form_all_taps(x, wd))


def _conv_leaves(rng, sizes, c_out, k, stride):
    """Two identical sets of conv2d leaves, each (parts, weight, bias), and
    the output shape, for comparing a fused node with its unfused ops."""
    h, w = 9, 7
    parts = [rng.normal(size=(c, h, w)) for c in sizes]
    wv = rng.normal(size=(c_out, sum(sizes), k, k))
    bv = rng.normal(size=c_out)
    sets = [([_t(p, grad=True) for p in parts], _t(wv, grad=True), _t(bv, grad=True)) for _ in range(2)]
    out_shape = (c_out, tensor_mod.conv_out_extent(h, stride), tensor_mod.conv_out_extent(w, stride))
    return sets, out_shape


def _grad_bytes(y, g, leaves):
    """The bytes of each leaf's gradient of sum(y * g)."""
    with np.errstate(invalid="ignore"):  # the loss may sum inf and -inf terms
        sum_all(y * _t(g)).backward()
    return [leaf.grad.tobytes() for leaf in leaves]


def _rule_arrays(y):
    """The arrays y's rule holds beyond its parents' data."""
    held = []
    for cell in y._backward_fn.__closure__:
        value = cell.cell_contents
        held.extend(v for v in (value if isinstance(value, list) else [value]) if isinstance(v, np.ndarray))
    parent_data = {id(p.data) for p in y._parents}
    return [a for a in held if id(a) not in parent_data]


EPILOGUE_FORMS = pytest.mark.parametrize(
    "sizes,c_out,k,stride",
    [((2, 1), 5, 3, 1), ((4, 2), 3, 3, 1), ((3,), 4, 3, 2), ((5,), 2, 1, 1)],
    ids=["kernel_row", "shift", "im2col", "1x1"],
)


class TestConvEpilogues:
    """conv2d's leaky and residual epilogues give the unfused ops' bits, in
    the value and in every gradient, in every form."""

    @EPILOGUE_FORMS
    def test_leaky_equals_unfused(self, sizes, c_out, k, stride):
        rng = np.random.default_rng(sum(sizes) + 10 * c_out + k + stride)
        ((parts, w1, b1), (whole, w2, b2)), shape = _conv_leaves(rng, sizes, c_out, k, stride)
        fused = conv2d(parts, w1, b1, stride, leaky=True)
        unfused = leaky_relu(conv2d(whole, w2, b2, stride))
        assert fused.data.tobytes() == unfused.data.tobytes()
        g = rng.normal(size=shape)
        assert _grad_bytes(fused, g, [*parts, w1, b1]) == _grad_bytes(unfused, g, [*whole, w2, b2])

    @EPILOGUE_FORMS
    def test_residual_equals_unfused(self, sizes, c_out, k, stride):
        rng = np.random.default_rng(sum(sizes) + 10 * c_out + k + stride + 1)
        ((parts, w1, b1), (whole, w2, b2)), shape = _conv_leaves(rng, sizes, c_out, k, stride)
        skip = rng.normal(size=shape)
        r1, r2 = _t(skip, grad=True), _t(skip, grad=True)
        fused = conv2d(parts, w1, b1, stride, residual=r1)
        unfused = r2 + conv2d(whole, w2, b2, stride)
        assert fused.data.tobytes() == unfused.data.tobytes()
        g = rng.normal(size=shape)
        assert _grad_bytes(fused, g, [*parts, w1, b1, r1]) == _grad_bytes(unfused, g, [*whole, w2, b2, r2])

    def test_resblock_gradients_equal_unfused(self):
        """x feeds both the first conv and the residual, so its gradient sums
        two terms in the order the unfused add and convs give them."""
        rng = np.random.default_rng(31)
        xv, w1v, w2v = rng.normal(size=(4, 8, 8)), rng.normal(size=(4, 4, 3, 3)), rng.normal(size=(4, 4, 3, 3))
        b1v, b2v = rng.normal(size=4), rng.normal(size=4)
        a, b = [[_t(v, grad=True) for v in (xv, w1v, b1v, w2v, b2v)] for _ in range(2)]
        fused = conv2d(conv2d(a[0], a[1], a[2], leaky=True), a[3], a[4], residual=a[0])
        unfused = b[0] + conv2d(leaky_relu(conv2d(b[0], b[1], b[2])), b[3], b[4])
        assert fused.data.tobytes() == unfused.data.tobytes()
        g = rng.normal(size=(4, 8, 8))
        assert _grad_bytes(fused, g, a) == _grad_bytes(unfused, g, b)

    def test_leaky_on_special_pre_activations(self, monkeypatch):
        """Pre-activations of +-0.0, -inf, NaN and -5e-324, whose 0.1x rounds
        to -0.0: there the output -0.0 is >= 0 where its input is not, so
        the rule must keep the input's mask, not read the output's sign.
        No BLAS GEMM returns -0.0, so the forward correlation is replaced by
        the wanted pre-activation; the -0.0 bias adds nothing to it."""
        pre = np.array([0.0, -0.0, -np.inf, np.nan, -5e-324, 1.5, -2.0, np.inf]).reshape(1, 2, 4)
        assert 0.1 * pre[0, 1, 0] == 0.0 and np.signbit(0.1 * pre[0, 1, 0])
        rng = np.random.default_rng(32)
        xv, wv = rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 1, 3, 3))
        real = tensor_mod._correlate
        forward_weights = []

        def correlate(parts, wd, stride):
            # the forward pass correlates with the weight itself, the input
            # gradient with its flipped copy
            return pre.copy() if any(wd is w for w in forward_weights) else real(parts, wd, stride)

        monkeypatch.setattr(tensor_mod, "_correlate", correlate)
        a, b = [[_t(xv, grad=True), _t(wv, grad=True), _t([-0.0], grad=True)] for _ in range(2)]
        forward_weights += [a[1].data, b[1].data]
        fused = conv2d(a[0], a[1], a[2], leaky=True)
        unfused = leaky_relu(conv2d(b[0], b[1], b[2]))
        assert fused.data.tobytes() == unfused.data.tobytes() == np.maximum(pre, 0.1 * pre).tobytes()
        assert fused.data[0, 1, 0] >= 0.0 and not pre[0, 1, 0] >= 0.0
        g = rng.normal(size=pre.shape)
        assert _grad_bytes(fused, g, a) == _grad_bytes(unfused, g, b)
        assert a[2].grad.tobytes() == np.where(pre >= 0.0, g, 0.1 * g).sum(keepdims=True)[0, 0].tobytes()

    def test_rules_keep_only_a_bool_mask(self):
        rng = np.random.default_rng(33)
        x = _t(rng.normal(size=(3, 6, 6)), grad=True)
        w, b = _t(rng.normal(size=(3, 3, 3, 3)), grad=True), _t(rng.normal(size=3), grad=True)
        leaky = conv2d(x, w, b, leaky=True)
        assert [(a.dtype, a.shape) for a in _rule_arrays(leaky)] == [(np.bool_, leaky.shape)]
        assert _rule_arrays(conv2d(x, w, b, residual=x)) == []
        assert _rule_arrays(warp_bilinear(x, _t(rng.normal(size=(2, 6, 6)), grad=True))) == []

    def test_residual_shape_checked(self):
        x, w, b = _t(np.zeros((2, 6, 6))), _t(np.zeros((3, 2, 3, 3))), _t(np.zeros(3))
        with pytest.raises(ShapeError):
            conv2d(x, w, b, residual=x)  # 2 channels, not 3
        with pytest.raises(ShapeError):
            conv2d(x, w, b, stride=2, residual=_t(np.zeros((3, 6, 6))))  # the input's size, not the output's


class TestBilinearResize:
    def test_identity_size(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 7))
        out = bilinear_resize(_t(x), 5, 7).data
        np.testing.assert_array_equal(out, x)

    def test_constant_preserved(self):
        x = np.full((2, 4, 4), 0.731)
        for oh, ow in [(8, 8), (3, 5), (1, 1), (9, 2)]:
            out = bilinear_resize(_t(x), oh, ow).data
            np.testing.assert_allclose(out, 0.731, rtol=0, atol=1e-12)

    def test_2x2_to_4x4_matches_oracle(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        got = bilinear_resize(_t(x), 4, 4).data
        want = _resize_loops(x, 4, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("oh,ow", [(7, 3), (2, 9), (16, 16), (5, 5)])
    def test_random_matches_oracle(self, oh, ow):
        rng = np.random.default_rng(oh * 100 + ow)
        x = rng.normal(size=(2, 5, 6))
        got = bilinear_resize(_t(x), oh, ow).data
        want = _resize_loops(x, oh, ow)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_invalid_target_rejected(self):
        with pytest.raises(UsageError):
            bilinear_resize(_t(np.zeros((1, 4, 4))), 0, 4)

    def test_matrix_cache_bounded_and_read_only(self):
        x = np.random.default_rng(5).normal(size=(2, 5, 6))
        first = bilinear_resize(_t(x), 7, 3).data
        for size in range(1, 80):
            bilinear_resize(_t(x), size, size)
        assert tensor_mod._resize_matrix.cache_info().currsize <= 64
        np.testing.assert_array_equal(bilinear_resize(_t(x), 7, 3).data, first)
        np.testing.assert_allclose(first, _resize_loops(x, 7, 3), rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            tensor_mod._resize_matrix(5, 7)[0, 0] = 1.0


class TestWarpBilinear:
    def test_zero_flow_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6, 8))
        out = warp_bilinear(_t(x), _t(np.zeros((2, 6, 8)))).data
        np.testing.assert_array_equal(out, x)

    def test_integer_shift_with_clamped_border(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        flow = np.zeros((2, 3, 4))
        flow[0] = 1.0  # sample one column to the right
        got = warp_bilinear(_t(x), _t(flow)).data
        want = np.concatenate([x[:, :, 1:], x[:, :, -1:]], axis=2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_half_pixel_midpoints(self):
        x = np.array([[[0.0, 1.0, 2.0, 3.0]]])
        flow = np.zeros((2, 1, 4))
        flow[0] = 0.5
        got = warp_bilinear(_t(x), _t(flow)).data[0, 0]
        np.testing.assert_allclose(got[:3], [0.5, 1.5, 2.5], rtol=0, atol=1e-12)
        assert got[3] == 3.0  # clamped

    def test_output_contiguous_and_equal_to_indexed_gather(self):
        rng = np.random.default_rng(8)
        c, h, w = 4, 9, 7
        x = rng.normal(size=(c, h, w))
        flow = rng.normal(scale=3.0, size=(2, h, w))
        out = warp_bilinear(_t(x), _t(flow)).data
        gy, gx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
        sx = np.clip(gx + flow[0], 0.0, w - 1.0)
        sy = np.clip(gy + flow[1], 0.0, h - 1.0)
        x0, y0 = sx.astype(np.int64), sy.astype(np.int64)
        x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
        fx, fy = sx - x0, sy - y0
        want = (
            x[:, y0, x0] * ((1.0 - fy) * (1.0 - fx))
            + x[:, y0, x1] * ((1.0 - fy) * fx)
            + x[:, y1, x0] * (fy * (1.0 - fx))
            + x[:, y1, x1] * (fy * fx)
        )
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, want)

    def test_image_gradient_equals_add_at_oracle(self):
        """Every pixel sums the same terms in the same order as one np.add.at per
        corner, so the gradient is bit-equal, signed zeros included; a large flow
        clamps many samples onto the border, so indices collide heavily."""
        rng = np.random.default_rng(9)
        c, h, w = 3, 7, 9
        x = rng.normal(size=(c, h, w))
        flow = rng.normal(scale=6.0, size=(2, h, w))
        g = rng.normal(size=(c, h, w))
        g[1] = -0.0
        xt = _t(x, grad=True)
        backward(sum_all(warp_bilinear(xt, _t(flow)) * _t(g)))

        gy, gx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
        sx = np.clip(gx + flow[0], 0.0, w - 1.0)
        sy = np.clip(gy + flow[1], 0.0, h - 1.0)
        x0, y0 = sx.astype(np.int64), sy.astype(np.int64)
        x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
        fx, fy = sx - x0, sy - y0
        want = np.zeros((c, h * w))
        corners = (
            ((1.0 - fy) * (1.0 - fx), y0 * w + x0),
            ((1.0 - fy) * fx, y0 * w + x1),
            (fy * (1.0 - fx), y1 * w + x0),
            (fy * fx, y1 * w + x1),
        )
        for weight, idx in corners:
            np.add.at(want, (np.arange(c)[:, None], idx.ravel()[None, :]), g.reshape(c, -1) * weight.ravel()[None, :])
        assert np.array_equal(xt.grad.reshape(c, -1).view(np.int64), want.view(np.int64))

    def test_rule_equals_retained_gather_formula(self):
        """The rule recomputes its corners, weights and gathers; both
        gradients equal the formula over the forward pass's own arrays. A
        large flow clamps many samples, and some land exactly on the border,
        where the flow gradient is zero."""
        rng = np.random.default_rng(10)
        c, h, w = 3, 7, 9
        x = rng.normal(size=(c, h, w))
        flow = rng.normal(scale=6.0, size=(2, h, w))
        flow[0, 0, :3] = -np.arange(3.0)  # column 0 exactly
        flow[1, 2, 4] = h - 1.0 - 2.0  # row h - 1 exactly
        g = rng.normal(size=(c, h, w))
        g[0, 1] = -0.0
        xt, ft = _t(x, grad=True), _t(flow, grad=True)
        backward(sum_all(warp_bilinear(xt, ft) * _t(g)))

        gy, gx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
        sx, sy = gx + flow[0], gy + flow[1]
        sxc, syc = np.clip(sx, 0.0, w - 1.0), np.clip(sy, 0.0, h - 1.0)
        x0, y0 = sxc.astype(np.int64), syc.astype(np.int64)
        x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
        fx, fy = sxc - x0, syc - y0
        xf = x.reshape(c, -1)
        i00, i01, i10, i11 = y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1
        v00, v01, v10, v11 = (xf.take(i, axis=1) for i in (i00, i01, i10, i11))
        weights = ((1.0 - fy) * (1.0 - fx), (1.0 - fy) * fx, fy * (1.0 - fx), fy * fx)
        hw = h * w
        flat = np.stack([i00, i01, i10, i11]).reshape(4, 1, hw) + (np.arange(c) * hw)[:, None]
        vals = g.reshape(c, hw) * np.stack(weights).reshape(4, 1, hw)
        want_gx = np.bincount(flat.ravel(), weights=vals.ravel(), minlength=c * hw).reshape(c, h, w)
        d_dx = ((v01 - v00) * (1.0 - fy) + (v11 - v10) * fy) * g
        d_dy = ((v10 - v00) * (1.0 - fx) + (v11 - v01) * fx) * g
        inside_x = (sx > 0.0) & (sx < w - 1.0)
        inside_y = (sy > 0.0) & (sy < h - 1.0)
        want_gf = np.stack([np.where(inside_x, d_dx.sum(axis=0), 0.0), np.where(inside_y, d_dy.sum(axis=0), 0.0)])
        assert sx[0, 0] == 0.0 and sy[2, 4] == h - 1.0 and not inside_x.all() and not inside_y.all()
        assert np.array_equal(xt.grad.view(np.int64), want_gx.view(np.int64))
        assert np.array_equal(ft.grad.view(np.int64), want_gf.view(np.int64))

    def test_flow_shape_validated(self):
        with pytest.raises(ShapeError):
            warp_bilinear(_t(np.zeros((1, 4, 4))), _t(np.zeros((2, 4, 5))))

    def test_grid_cache_bounded_and_read_only(self):
        x = np.random.default_rng(6).normal(size=(1, 3, 4))
        flow = np.full((2, 3, 4), 0.25)
        first = warp_bilinear(_t(x), _t(flow)).data
        for size in range(1, 80):
            warp_bilinear(_t(np.zeros((1, size, 2))), _t(np.zeros((2, size, 2))))
        assert tensor_mod._pixel_grid.cache_info().currsize <= 64
        np.testing.assert_array_equal(warp_bilinear(_t(x), _t(flow)).data, first)
        gy, gx = tensor_mod._pixel_grid(3, 4)
        with pytest.raises(ValueError):
            gx[0, 0] = 1.0



class TestLeakyRelu:
    def test_equals_masked_select_bit_for_bit(self):
        """max(x, 0.1 x) is where(x >= 0, x, 0.1 x) on every value, signed
        zeros, infinities, NaNs and subnormals included."""
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-320, -1e-320]
        x = np.concatenate([special, rng.normal(size=1000), rng.normal(size=1000) * 1e-310])
        xt = _t(x, grad=True)
        y = leaky_relu(xt)
        want = np.where(x >= 0.0, x, 0.1 * x)
        assert y.data.tobytes() == want.tobytes()
        g = rng.normal(size=x.shape)
        with np.errstate(invalid="ignore"):  # the loss sums inf and -inf terms
            sum_all(y * g).backward()
        assert xt.grad.tobytes() == np.where(x >= 0.0, g, 0.1 * g).tobytes()


class TestBackward:
    def test_identity_conv_sum_gradient_is_ones(self):
        x = _t(np.arange(16, dtype=np.float64).reshape(1, 4, 4), grad=True)
        y = sum_all(conv2d(x, _t(np.ones((1, 1, 1, 1))), _t(np.zeros(1))))
        y.backward()
        np.testing.assert_array_equal(x.grad, np.ones((1, 4, 4)))

    def test_zero_flow_warp_sum_gradient_is_ones(self):
        x = _t(np.random.default_rng(3).normal(size=(2, 5, 5)), grad=True)
        y = sum_all(warp_bilinear(x, _t(np.zeros((2, 5, 5)))))
        y.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 5, 5)), rtol=0, atol=1e-12)

    def test_fanout_gradients_sum(self):
        x = _t(np.array([1.0, 2.0]), grad=True)
        y = sum_all(x * x)  # d/dx (x^2) = 2x via the product rule over fan-out
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=0, atol=1e-14)

    def test_unrecorded_tensor_rejected(self):
        with pytest.raises(UsageError):
            backward(Tensor(np.zeros(3)))

    def test_leaves_without_requires_grad_record_nothing(self):
        rng = np.random.default_rng(2)
        x, w, b = _t(rng.normal(size=(2, 6, 6))), _t(rng.normal(size=(3, 2, 3, 3))), _t(rng.normal(size=3))
        y = sum_all(leaky_relu(conv2d(x, w, b, 1)) * 3.0)
        assert not y.requires_grad and y._parents == () and y._backward_fn is None
        with pytest.raises(UsageError):
            backward(y)

    def test_broadcast_bias_gradient(self):
        x = _t(np.ones((3, 2, 2)), grad=True)
        b = _t(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1), grad=True)
        y = sum_all(x + b)
        y.backward()
        np.testing.assert_array_equal(b.grad, np.full((3, 1, 1), 4.0))

    def test_backward_consumes_interior_nodes(self):
        rng = np.random.default_rng(9)
        x = _t(rng.normal(size=(2, 6, 6)), grad=True)
        w = _t(rng.normal(size=(3, 2, 3, 3)), grad=True)
        b = _t(rng.normal(size=3), grad=True)
        flow = _t(rng.normal(size=(2, 6, 6)) * 0.5, grad=True)
        h1 = conv2d(x, w, b)
        h2 = leaky_relu(h1)
        h3 = warp_bilinear(h2, flow)
        y = sum_all(h3)
        y.backward()
        for leaf in (x, w, b, flow):
            assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape
        for node in (h1, h2, h3, y):
            assert node.grad is None and node._parents == ()
            with pytest.raises(UsageError):
                node._backward_fn(np.ones_like(node.data))

    def test_second_backward_raises(self):
        # without the release the interior gradients are propagated again
        # and x.grad reads [8, 16], not two accumulations' [4, 8]
        x = _t(np.array([1.0, 2.0]), grad=True)
        y = sum_all(x * x)
        y.backward()
        with pytest.raises(UsageError):
            y.backward()

    def test_backward_through_shared_consumed_node_raises(self):
        # without the release the second loss re-propagates a's first
        # gradient and x.grad reads [10, 20], not the true sum [8, 16]
        x = _t(np.array([1.0, 2.0]), grad=True)
        a = x * x
        first, second = sum_all(a), sum_all(a * 3.0)
        first.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(UsageError):
            second.backward()


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        flow = rng.normal(size=(2, 12, 12)) * 0.7

        def run():
            h = conv2d(_t(x), _t(w), _t(b), stride=1)
            h = leaky_relu(h)
            h = warp_bilinear(h, _t(flow[:, :12, :12]))
            h = bilinear_resize(h, 6, 6)
            return h.data.tobytes()

        assert run() == run()

    def test_backward_bit_identical(self):
        rng = np.random.default_rng(8)
        xv = rng.normal(size=(2, 8, 8))
        wv = rng.normal(size=(2, 2, 3, 3))

        def run():
            x = _t(xv, grad=True)
            w = _t(wv, grad=True)
            y = mean_all(leaky_relu(conv2d(x, w, _t(np.zeros(2)))))
            y.backward()
            return x.grad.tobytes() + w.grad.tobytes()

        assert run() == run()


class TestGradCheck:
    def test_every_op_passes_over_20_seeds(self):
        for seed in range(20):
            failed = [str(r) for r in op_checks(seed) if not r.passed]
            assert not failed, f"seed={seed}: {failed}"

    def test_linear_op_near_zero_error(self):
        report = grad_check(lambda t: sum_all(t * 3.0), [np.arange(6.0)])
        assert report.passed
        assert report.max_rel_err < 1e-7

    def test_composite_pipeline(self):
        rng = np.random.default_rng(123)
        x = rng.normal(size=(2, 8, 8))
        w = rng.normal(size=(2, 2, 3, 3)) * 0.4
        b = rng.normal(size=2) * 0.1
        flow = rng.choice([-1.0, 1.0], size=(2, 8, 8)) * rng.uniform(0.2, 0.45, size=(2, 8, 8))

        def fn(tx, tw, tb, tf):
            h = leaky_relu(conv2d(tx, tw, tb, stride=1))
            h = warp_bilinear(h, tf)
            h = bilinear_resize(h, 4, 4)
            return mean_all(h * h)

        report = grad_check(fn, [x, w, b, flow], eps=1e-5, tol=1e-4)
        assert report.passed, str(report)

    def test_corrupted_rule_detected(self):
        def flipped_double(t):
            return _node(t.data * 2.0, (t,), lambda g: (-2.0 * g,))

        report = grad_check(lambda t: sum_all(flipped_double(t)), [np.arange(1.0, 5.0)])
        assert not report.passed
        assert abs(report.max_rel_err - 2.0) < 1e-6

    def test_non_finite_reported_not_raised(self):
        report = grad_check(lambda t: sum_all(log(t)), [np.array([-1.0, 2.0])])
        assert isinstance(report, GradCheckReport)
        assert not report.passed
        assert report.note != ""

    def test_sampled_coordinates(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 10, 10))
        report = grad_check(lambda t: mean_all(sigmoid(t)), [x], max_coords=25)
        assert report.passed
        assert report.n_coords == 25
