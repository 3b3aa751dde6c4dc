"""Small deterministic tensor engine with reverse-mode gradients.

Design constraints, in order of priority:

* Determinism. Repeated forward passes over identical inputs are
  bit-identical: every op reduces with a fixed summation order and no
  value-dependent branching, so an encoder and decoder evaluating the
  same network on the same machine agree exactly. Every convolution
  is same-padded (zero padding k // 2, output ceil(H / stride)) and
  takes one of three forms, chosen by stride and channel counts alone:
  stride 1 with C_in <= C_out runs one GEMM per kernel row over the
  input stacked at its k horizontal shifts; stride 1 with C_in > C_out
  sums k*k shifted-slice GEMM taps in a fixed order, taken from one
  GEMM, run over column chunks of the input where its temporary would
  pass 8 MiB; larger strides multiply by an im2col matrix.
* Correctness. Every differentiable op carries an analytic gradient
  that is validated against central finite differences (grad_check).
* Just enough surface. Only the operations the codec networks need
  exist: elementwise arithmetic, leaky ReLU, sigmoid, the standard
  normal CDF, clamp, same-padded 2-D convolution, bilinear resize,
  bilinear warp, and full reductions. A convolution takes its input as
  one tensor or as a list of channel parts, which it writes straight
  into its padded buffer, so a network that fuses several feature maps
  never copies their concatenation. sigmoid and the normal CDF are
  `special.expit` and `special.ndtr`: bit-equal to scipy.special's,
  they take libm's `exp`, not `np.exp`, whose kernel numpy picks by CPU
  feature, so their values do not hang on the host.

Everything is float64, channels-first (C, H, W), row-major. No op writes
into its inputs; `Adam.step`, `load_f32_bytes` and `snap_to_f32` write
parameters in place, and `weights_hash` reads their current values.
`requires_grad` is the only switch for recording: an op records its
node iff one of its inputs requires grad, and there is no global mode,
so coding with parameters that do not require grad records nothing.
backward() consumes the graph it runs over: interior nodes drop their
gradients, rules and parents as it goes, and only leaves keep .grad.
Graphs must not be shared across concurrent executions; independent
graphs may run in parallel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError, UsageError, check_int
from .special import expit, ndtr

__all__ = [
    "Tensor",
    "backward",
    "conv2d",
    "conv_out_extent",
    "bilinear_resize",
    "warp_bilinear",
    "leaky_relu",
    "sigmoid",
    "std_normal_cdf",
    "exp",
    "log",
    "clamp",
    "sum_all",
    "mean_all",
    "GradCheckReport",
    "grad_check",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """N-dimensional float64 array with an optional gradient slot.

    A tensor produced by an op remembers its parents and a backward
    rule; calling backward() on a scalar result accumulates gradients
    into every reachable leaf (requires_grad set, no rule), summing over
    fan-out in a fixed reverse-topological order. The call consumes the
    graph: only leaves keep .grad, and a second backward() through any
    of its interior nodes raises UsageError.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], tuple]] = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __sub__(self, other):
        return _add(self, _neg(_as_tensor(other)))

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return _div(self, _as_tensor(other))

    def backward(self) -> None:
        backward(self)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _consumed(_grad):
    raise UsageError("backward() through a graph that an earlier backward() consumed")


def backward(output: Tensor) -> None:
    """Reverse-mode accumulation from `output`, seeded with ones, into
    every reachable leaf.

    Gradients sum over fan-out; traversal order is a deterministic
    post-order over the recorded parents, so accumulation order never
    varies between runs.

    The pass consumes the graph: as it reaches each interior node, the
    node drops its gradient, its rule (with the arrays the rule saved)
    and its parents, so memory is freed as the pass goes. Only leaves
    (tensors with requires_grad and no rule) keep their accumulated
    .grad. A consumed node's rule raises UsageError, so a second
    backward through any part of the graph fails instead of propagating
    stale gradients.
    """
    if not output.requires_grad:
        raise UsageError("backward() on a tensor with no recorded computation")
    seed = np.ones_like(output.data)

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    output.grad = seed if output.grad is None else output.grad + seed
    while topo:
        node = topo.pop()
        if node._backward_fn is None:
            continue
        rule, parents, g = node._backward_fn, node._parents, node.grad
        node._backward_fn, node._parents, node.grad = _consumed, (), None
        if g is None:
            continue
        for parent, grad in zip(parents, rule(g)):
            if grad is None or not parent.requires_grad:
                continue
            parent.grad = grad if parent.grad is None else parent.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------

def _add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(data, (a, b), back)


def _neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def _mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _node(data, (a, b), back)


def _div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def back(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _node(data, (a, b), back)


_LEAKY_SLOPE = 0.1


def leaky_relu(x: Tensor) -> Tensor:
    # max(x, 0.1 x) is x where x >= 0 and 0.1 x elsewhere, signed zeros,
    # infinities and NaNs included; it needs no mask in the forward pass
    data = np.maximum(x.data, _LEAKY_SLOPE * x.data)

    def back(g):
        return (np.where(x.data >= 0.0, g, _LEAKY_SLOPE * g),)

    return _node(data, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    s = expit(x.data)

    def back(g):
        return (g * s * (1.0 - s),)

    return _node(s, (x,), back)


def std_normal_cdf(x: Tensor) -> Tensor:
    """Phi(x), the standard normal CDF; gradient is the normal PDF."""
    data = ndtr(x.data)

    def back(g):
        return (g * _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data),)

    return _node(data, (x,), back)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def back(g):
        return (g * data,)

    return _node(data, (x,), back)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def back(g):
        return (g / x.data,)

    return _node(data, (x,), back)


def clamp(x: Tensor, lo: Optional[float] = None, hi: Optional[float] = None) -> Tensor:
    """Clip to [lo, hi]; gradient passes through the closed interval."""
    data = np.clip(x.data, lo, hi)
    mask = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        mask &= x.data >= lo
    if hi is not None:
        mask &= x.data <= hi

    def back(g):
        return (np.where(mask, g, 0.0),)

    return _node(data, (x,), back)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())

    def back(g):
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _node(data, (x,), back)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.asarray(x.data.sum() / n)

    def back(g):
        return (np.broadcast_to(g / n, x.data.shape).copy(),)

    return _node(data, (x,), back)


# -- convolution ----------------------------------------------------------

#: Largest tap temporary, in bytes, that the shift form makes in one GEMM;
#: above it the form runs its GEMM over column chunks of the input.
_SHIFT_TAPS_MAX_BYTES = 8 << 20


def conv_out_extent(extent: int, stride: int) -> int:
    """Output extent of a same-padded convolution: ceil(extent / stride)."""
    return (extent - 1) // stride + 1


def _flat_padded(parts: Sequence[np.ndarray], pad: int) -> tuple[np.ndarray, int]:
    """The (C_i, H, W) channel parts, stacked, zero-padded by `pad` plus
    one spare bottom row, flattened to (C, (Hp + 1) * Wp), and the padded
    width Wp. Each part is written straight into the buffer, so the parts
    are never concatenated. The spare row keeps the last tap's slice in
    bounds."""
    _, h, w = parts[0].shape
    wp = w + 2 * pad
    xp = np.zeros((sum(p.shape[0] for p in parts), h + 2 * pad + 1, wp))
    c = 0
    for p in parts:
        xp[c : c + p.shape[0], pad : pad + h, pad : pad + w] = p
        c += p.shape[0]
    return xp.reshape(c, -1), wp


def _im2col(parts: Sequence[np.ndarray], k: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    xf, wp = _flat_padded(parts, k // 2)
    c = xf.shape[0]
    xp = xf.reshape(c, -1, wp)[:, :-1]
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, out_h * out_w)


def _tap_offsets(k: int, wp: int) -> list[int]:
    """Flat offset of each kernel tap (dy, dx), row-major, into a plane of width wp."""
    return [dy * wp + dx for dy in range(k) for dx in range(k)]


def _row_shifts(xf: np.ndarray, k: int) -> np.ndarray:
    """The flat padded input xf (C, L) at its k horizontal shifts,
    (k * C, L - k + 1), dx-major: row dx * C + c is xf[c, dx : dx + L - k + 1]."""
    if k == 1:
        return xf
    c, length = xf.shape
    m = length - k + 1
    x3 = np.empty((k, c, m))
    for dx in range(k):
        x3[dx] = xf[:, dx : dx + m]
    return x3.reshape(k * c, m)


def _correlate(parts: Sequence[np.ndarray], wd: np.ndarray, stride: int) -> np.ndarray:
    """Bias-free, same-padded cross-correlation of the (C_i, H, W)
    channel parts, which stack to (C_in, H, W), with wd (C_out, C_in, k,
    k): zero padding k // 2 on every side, output ceil(H / stride) x
    ceil(W / stride).

    Three forms, chosen by stride and channel counts; each works on the
    flattened padded input at stride 1 and crops the Wp - W_out
    wrap-around columns of every output row:

    * kernel-row (stride 1, C_in <= C_out): the input stacked at its k
      horizontal shifts (_row_shifts), then one GEMM per kernel row dy
      with the (C_out, k*C_in) dx-major slice of the kernel, over the
      stack offset by dy*Wp; the rows are summed in dy order, and the
      dx and C_in sums happen inside each GEMM. Its temporary is k times
      the input.
    * shift (stride 1, C_in > C_out): a GEMM of the tap-stacked kernel
      (k*k*C_out, C_in) over the input, then the k*k taps summed in
      row-major order, each a contiguous slice offset by dy*Wp + dx.
      Where the (k*k*C_out, L) tap temporary would pass
      _SHIFT_TAPS_MAX_BYTES, the GEMM runs over even column chunks of
      the input instead, each with the (k-1)*(Wp+1) columns its taps
      read past it, and sums the taps of each chunk's output columns.
      The chunks keep the single GEMM's rows and inner dimension, start
      on a multiple of 64 columns, and the last one ends where the input
      ends; they gave the single GEMM's bits on every OpenBLAS x86 kernel
      tried at one and two threads, except Nehalem's and Core2's at two,
      whose single GEMM also changes bits with the thread count. A split
      by kernel row instead changed last bits on the Haswell kernels for
      C_out 2, 3 and 7. For these wider inputs the
      kernel-row form measured slower (40 -> 16 and 56 -> 16 channels at
      128x128), and faster for every C_in <= C_out shape tried (8 to 32
      channels, 16x16 to 128x128).
    * im2col (stride > 1): one GEMM over the strided window matrix.
    """
    c_out, c_in, k, _ = wd.shape
    _, h, w = parts[0].shape
    out_h = conv_out_extent(h, stride)
    out_w = conv_out_extent(w, stride)
    if stride != 1:
        cols = _im2col(parts, k, stride, out_h, out_w)
        return (wd.reshape(c_out, -1) @ cols).reshape(c_out, out_h, out_w)
    xf, wp = _flat_padded(parts, k // 2)
    n = out_h * wp
    if c_in <= c_out:
        x3 = _row_shifts(xf, k)
        w_rows = wd.transpose(2, 0, 3, 1).reshape(k, c_out, k * c_in)
        acc = w_rows[0] @ x3[:, :n]
        for dy in range(1, k):
            acc += w_rows[dy] @ x3[:, dy * wp : dy * wp + n]
        return acc.reshape(c_out, out_h, wp)[:, :, :out_w]
    w_taps = wd.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in)
    offsets = _tap_offsets(k, wp)
    length = xf.shape[1]
    align = 64
    reach = -(-offsets[-1] // align) * align  # columns past a chunk its taps read
    fit = _SHIFT_TAPS_MAX_BYTES // (8 * k * k * c_out) - reach
    chunks = -(-n // max(fit // align * align, align))
    step = -(-n // (chunks * align)) * align  # even chunks: none left tiny
    acc = np.empty((c_out, n))
    for a in range(0, n, step):
        b = min(a + step, n)
        end = length if b == n else b + reach
        taps = (w_taps @ xf[:, a:end]).reshape(k * k, c_out, -1)
        out = acc[:, a:b]
        out[...] = taps[0, :, : b - a]
        for t in range(1, k * k):
            out += taps[t, :, offsets[t] : offsets[t] + b - a]
        del taps  # before the next chunk's GEMM allocates its own
    return acc.reshape(c_out, out_h, wp)[:, :, :out_w]


def conv2d(x: Tensor | Sequence[Tensor], weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Same-padded 2-D convolution (cross-correlation).

    x: (C, H, W), or a sequence of channel parts (C_i, H, W) that stack
    to it; weight: (C_out, C, k, k) with odd k; bias: (C_out,). The
    parts go straight into the padded buffer, so the result is the
    convolution of their concatenation, bit for bit, without a copy of
    it; each part receives its slice of the input gradient. Every
    convolution zero-pads by k // 2, so the output is ceil(H / stride)
    x ceil(W / stride) (conv_out_extent).
    """
    parts = [x] if isinstance(x, Tensor) else list(x)
    xds = [p.data for p in parts]
    wd, bd = weight.data, bias.data
    if not xds:
        raise ShapeError("conv2d needs at least one input part")
    bounds = [0]  # each part's first channel, then the channel count
    for xd in xds:
        if xd.ndim != 3 or xd.shape[1:] != xds[0].shape[1:]:
            raise ShapeError(f"conv2d input must be (C, H, W) parts of one size, got {[p.shape for p in xds]}")
        bounds.append(bounds[-1] + xd.shape[0])
    if wd.ndim != 4:
        raise ShapeError(f"conv2d weight must be (C_out, C_in, k, k), got {wd.shape}")
    c_out, c_in, k, k2 = wd.shape
    if k != k2 or k % 2 != 1:
        raise ShapeError(f"conv2d kernel must be square with odd extent, got {k}x{k2}")
    if c_in != bounds[-1]:
        raise ShapeError(f"conv2d weight expects {c_in} input channels, input has {bounds[-1]}")
    if bd.shape != (c_out,):
        raise ShapeError(f"conv2d bias must be ({c_out},), got {bd.shape}")
    check_int("stride", stride, 1)
    _, h, w = xds[0].shape

    out = _correlate(xds, wd, stride) + bd[:, None, None]

    def back(g):
        # a parent without requires_grad would drop its gradient unread
        g_parts = [None] * len(parts)
        if any(p.requires_grad for p in parts):
            g_x = _conv_input_grad(g, wd, stride, h, w)
            g_parts = [g_x[a:b] for a, b in zip(bounds, bounds[1:])]
        g_w = _conv_weight_grad(g, xds, k, stride) if weight.requires_grad else None
        return (*g_parts, g_w, g.reshape(c_out, -1).sum(axis=1))

    return _node(out, (*parts, weight, bias), back)


def _conv_weight_grad(g: np.ndarray, parts: Sequence[np.ndarray], k: int, stride: int) -> np.ndarray:
    """Weight gradient of conv2d, (C_out, C_in, k, k), C-contiguous, for
    the input given as its (C_i, H, W) channel parts.

    Stride 1 takes one GEMM per kernel row dy: the output gradient,
    widened to Wp with its wrap-around columns zeroed, against the
    kernel-row form's shifted input stack offset by dy*Wp, so one GEMM
    gives the k taps (dy, 0..k-1). Larger strides correlate with the
    im2col matrix.
    """
    c_out, out_h, out_w = g.shape
    if stride != 1:
        cols = _im2col(parts, k, stride, out_h, out_w)
        return (g.reshape(c_out, -1) @ cols.T).reshape(c_out, -1, k, k)
    xf, wp = _flat_padded(parts, k // 2)
    c_in = xf.shape[0]
    x3 = _row_shifts(xf, k)
    n = out_h * wp
    g_pad = np.zeros((c_out, out_h, wp))
    g_pad[:, :, :out_w] = g
    g_pad = g_pad.reshape(c_out, n)
    g_rows = np.empty((k, c_out, k * c_in))
    for dy in range(k):
        g_rows[dy] = g_pad @ x3[:, dy * wp : dy * wp + n].T
    # (dy, C_out, dx, C_in) -> (C_out, C_in, dy, dx), copied: the optimizer's
    # global-norm sum reads gradients in memory order, and a transposed
    # view would change its summation order
    return np.ascontiguousarray(g_rows.reshape(k, c_out, k, c_in).transpose(1, 3, 0, 2))


def _conv_input_grad(g: np.ndarray, wd: np.ndarray, stride: int, h: int, w: int) -> np.ndarray:
    """Input gradient of conv2d, (C_in, h, w): the output gradient,
    zero-dilated onto the input's h x w grid when strided, correlated
    with the flipped, transposed kernel at stride 1. Same padding puts
    that correlation exactly on the input's grid, and it takes whichever
    correlation form its own channel counts select."""
    if stride > 1:
        gd = np.zeros((g.shape[0], h, w))
        gd[:, ::stride, ::stride] = g
    else:
        gd = g
    wflip = np.ascontiguousarray(wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _correlate([gd], wflip, 1)


# -- bilinear resize -------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """(dst, src) interpolation matrix, read-only; sample centers at (i+0.5)*scale-0.5."""
    mat = np.zeros((dst, src), dtype=np.float64)
    scale = src / dst
    pos = np.clip((np.arange(dst, dtype=np.float64) + 0.5) * scale - 0.5, 0.0, src - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, src - 1)
    frac = pos - i0
    rows = np.arange(dst)
    np.add.at(mat, (rows, i0), 1.0 - frac)
    np.add.at(mat, (rows, i1), frac)
    mat.flags.writeable = False
    return mat


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resample of a (C, H, W) tensor to (C, out_h, out_w).

    Align-corners-false convention with clamped borders. Separable, so
    it is evaluated as two small matrix products; resizing to the same
    size applies identity matrices.
    """
    xd = x.data
    if xd.ndim != 3:
        raise ShapeError(f"bilinear_resize input must be (C, H, W), got {xd.shape}")
    check_int("out_h", out_h, 1)
    check_int("out_w", out_w, 1)
    _, h, w = xd.shape
    ry = _resize_matrix(h, out_h)
    rx = _resize_matrix(w, out_w)
    tmp = np.tensordot(ry, xd, axes=([1], [1]))  # (out_h, C, W)
    out = np.tensordot(tmp, rx, axes=([2], [1])).transpose(1, 0, 2)  # (C, out_h, out_w)

    def back(g):
        t = np.tensordot(ry.T, g, axes=([1], [1]))  # (H, C, out_w)
        gx = np.tensordot(t, rx, axes=([2], [0])).transpose(1, 0, 2)
        return (np.ascontiguousarray(gx),)

    return _node(np.ascontiguousarray(out), (x,), back)


# -- bilinear warp ----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (row, column) coordinate grids of an h x w image."""
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    gy.flags.writeable = False
    gx.flags.writeable = False
    return gy, gx


def warp_bilinear(x: Tensor, flow: Tensor) -> Tensor:
    """Backward warp: out(p) = x(p + flow(p)) with bilinear sampling.

    flow is (2, H, W): channel 0 is the horizontal displacement in
    pixels, channel 1 the vertical one. Samples outside the image clamp
    to the border. Differentiable in both the image and the flow; the
    flow gradient is zero where clamping is active.
    """
    xd, fd = x.data, flow.data
    if xd.ndim != 3:
        raise ShapeError(f"warp input must be (C, H, W), got {xd.shape}")
    if fd.shape != (2,) + xd.shape[1:]:
        raise ShapeError(f"flow must be (2, {xd.shape[1]}, {xd.shape[2]}), got {fd.shape}")
    c, h, w = xd.shape
    gy, gx = _pixel_grid(h, w)
    sx = gx + fd[0]
    sy = gy + fd[1]
    sxc = np.clip(sx, 0.0, w - 1.0)
    syc = np.clip(sy, 0.0, h - 1.0)
    x0 = sxc.astype(np.int64)
    y0 = syc.astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sxc - x0
    fy = syc - y0

    # corner gathers through the flat view come out C-contiguous, where
    # xd[:, y, x] is channel-last
    xf = xd.reshape(c, -1)
    i00, i01, i10, i11 = y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1
    v00 = xf.take(i00, axis=1)
    v01 = xf.take(i01, axis=1)
    v10 = xf.take(i10, axis=1)
    v11 = xf.take(i11, axis=1)
    w00 = (1.0 - fy) * (1.0 - fx)
    w01 = (1.0 - fy) * fx
    w10 = fy * (1.0 - fx)
    w11 = fy * fx
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11

    inside_x = (sx > 0.0) & (sx < w - 1.0)
    inside_y = (sy > 0.0) & (sy < h - 1.0)

    def back(g):
        # one bincount over the corner-major flat indices ch*H*W + idx adds in
        # input order, so each pixel sums the same terms in the same order as
        # four np.add.at calls, one per corner
        hw = h * w
        gflat = g.reshape(c, hw)
        flat = np.stack([i00, i01, i10, i11]).reshape(4, 1, hw) + (np.arange(c) * hw)[:, None]
        vals = gflat * np.stack([w00, w01, w10, w11]).reshape(4, 1, hw)
        gx_img = np.bincount(flat.ravel(), weights=vals.ravel(), minlength=c * hw)
        d_dx = ((v01 - v00) * (1.0 - fy) + (v11 - v10) * fy) * g
        d_dy = ((v10 - v00) * (1.0 - fx) + (v11 - v01) * fx) * g
        gflow = np.stack(
            [
                np.where(inside_x, d_dx.sum(axis=0), 0.0),
                np.where(inside_y, d_dy.sum(axis=0), 0.0),
            ]
        )
        return gx_img.reshape(xd.shape), gflow

    return _node(out, (x, flow), back)


# -- gradient checking -------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_rel_err: float
    passed: bool
    n_coords: int
    note: str = ""
    name: str = "grad_check"

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return f"{status}  {self.name:<28} max_rel_err={self.max_rel_err:.3e} over {self.n_coords} coords{extra}"


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare fn's analytic gradients against central finite differences.

    fn maps Tensors to a scalar Tensor. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-8); the check passes iff the maximum over
    all checked coordinates is <= tol. With max_coords set, a seeded
    random subset of coordinates per input is checked (for large
    parameter vectors). Non-finite values anywhere are reported as a
    failure, never raised.
    """
    tensors = [Tensor(np.array(v, dtype=np.float64), requires_grad=True) for v in inputs]
    plain = [Tensor(t.data) for t in tensors]  # the same arrays, recording nothing

    def _evaluate() -> float:
        with np.errstate(all="ignore"):
            out = fn(*plain)
        return float(out.data)

    try:
        with np.errstate(all="ignore"):
            out = fn(*tensors)
            if out.data.shape != ():
                raise UsageError(f"grad_check closure must return a scalar, got shape {out.data.shape}")
            if not np.isfinite(out.data):
                return GradCheckReport(math.inf, False, 0, "non-finite forward value")
            out.backward()
    except (FloatingPointError, OverflowError) as err:
        return GradCheckReport(math.inf, False, 0, f"forward/backward raised {err!r}")

    analytic = []
    for t in tensors:
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            return GradCheckReport(math.inf, False, 0, "non-finite analytic gradient")
        analytic.append(g)

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    checked = 0
    for t, grad in zip(tensors, analytic):
        size = t.data.size
        if max_coords is not None and size > max_coords:
            coords = rng.choice(size, size=max_coords, replace=False)
            coords = np.sort(coords)
        else:
            coords = np.arange(size)
        flat = t.data.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            f_hi = _evaluate()
            flat[idx] = orig - eps
            f_lo = _evaluate()
            flat[idx] = orig
            if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
                return GradCheckReport(math.inf, False, checked, "non-finite value during finite differences")
            numeric = (f_hi - f_lo) / (2.0 * eps)
            a = float(grad.reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
            checked += 1
    return GradCheckReport(max_rel, max_rel <= tol, checked)
