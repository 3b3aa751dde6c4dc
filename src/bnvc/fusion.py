"""Multi-reference feature fusion.

Three interchangeable fusion modes turn n warped reference feature maps
into one three-scale context pyramid:

* BUTTERFLY: each reference is downsampled through its own pyramid
  stage (no cross-frame sharing, so nothing one frame carries can be
  averaged away by another), then a lattice of nodes over (frame,
  scale) fuses them during upsampling. The lattice runs coarsest scale
  first; within a scale row the horizontal propagation direction
  alternates (oldest-to-newest, then newest-to-oldest, then
  oldest-to-newest), and each node applies one conv plus a residual
  block to the channel stack of its own pyramid level, the upsampled
  output of the node below it, and its horizontal predecessor. The row
  readout is the last node visited in that row.
* TOGETHER: all references are stacked on the channel axis first and
  go through a single shared down/up U-path.
* INDEPENDENT: every reference gets its own down AND up path; the
  per-frame results are stacked on the channel axis only at the end
  and merged by a 1x1 conv per scale.

All modes produce the same output shape contract, so they are drop-in
ablation variants of each other. `MultiRefFusion(store, name, config, rng)`
takes the mode, n_ref and widths from an already checked `ModelConfig`.

Every fusion input is a list of channel parts that `conv2d` reads in
place, never a concatenated copy. `MultiRefFusion` and `GridFuse`
consume the lists they are given, as `backward` consumes its graph, so
each warped feature, pyramid level and node output is freed once read
when coding (a recorded graph keeps what its gradients need).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError, UsageError
from .network import Conv, ParamStore, ResBlock
from .tensor import Tensor, bilinear_resize

if TYPE_CHECKING:
    from .model import ModelConfig

__all__ = [
    "FusionMode",
    "FeaturePyramid",
    "ContextPyramid",
    "DownsampleStage",
    "GridFuse",
    "MultiRefFusion",
]


class FusionMode(enum.Enum):
    BUTTERFLY = "butterfly"
    TOGETHER = "together"
    INDEPENDENT = "independent"


@dataclass
class FeaturePyramid:
    """Per-reference features at full, half, and quarter resolution."""

    f0: Tensor
    f1: Tensor
    f2: Tensor

    def __post_init__(self):
        c0, h, w = self.f0.shape
        if self.f1.shape[1:] != (h // 2, w // 2) or self.f2.shape[1:] != (h // 4, w // 4):
            raise ShapeError(
                f"pyramid levels must halve: {self.f0.shape}, {self.f1.shape}, {self.f2.shape}"
            )

    @property
    def shapes(self) -> tuple:
        return (self.f0.shape, self.f1.shape, self.f2.shape)


@dataclass
class ContextPyramid:
    """Fused temporal context at full, half, and quarter resolution."""

    c0: Tensor
    c1: Tensor
    c2: Tensor


class DownsampleStage:
    """One reference's independent three-scale pyramid extractor."""

    def __init__(self, store: ParamStore, name: str, channels: tuple[int, int, int], rng):
        c0, c1, c2 = channels
        self.res0 = ResBlock(store, f"{name}.res0", c0, rng)
        self.down1 = Conv(store, f"{name}.down1", c0, c1, stride=2, rng=rng)
        self.res1 = ResBlock(store, f"{name}.res1", c1, rng)
        self.down2 = Conv(store, f"{name}.down2", c1, c2, stride=2, rng=rng)
        self.res2 = ResBlock(store, f"{name}.res2", c2, rng)

    def __call__(self, x: Tensor) -> FeaturePyramid:
        f0 = self.res0(x)
        f1 = self.res1(self.down1(f0, leaky=True))
        f2 = self.res2(self.down2(f1, leaky=True))
        return FeaturePyramid(f0, f1, f2)


class _GridNode:
    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int, rng):
        self.fuse = Conv(store, f"{name}.fuse", c_in, c_out, rng=rng)
        self.refine = ResBlock(store, f"{name}.refine", c_out, rng)

    def __call__(self, parts: list[Tensor]) -> Tensor:
        return self.refine(self.fuse(parts, leaky=True))


class GridFuse:
    """The (frame, scale) lattice of the BUTTERFLY stage; MultiRefFusion checks its inputs.

    A call consumes its list of pyramids: it empties the list, drops each
    pyramid level once its node has run and each row's outputs once the
    row above has read them. A row's first node reads an all-zero
    predecessor, a zero-stride view that holds no buffer.
    """

    #: row visit order; row 2 is coarsest. True = oldest-to-newest.
    _ROW_LEFT_TO_RIGHT = {2: True, 1: False, 0: True}

    def __init__(self, store: ParamStore, name: str, n_ref: int, channels: tuple[int, int, int], rng):
        self.n_ref = n_ref
        self.channels = channels
        c0, c1, c2 = channels
        in_ch = {2: c2 + c2, 1: c1 + c2 + c1, 0: c0 + c1 + c0}
        out_ch = {2: c2, 1: c1, 0: c0}
        self.nodes = {}
        for s in (2, 1, 0):
            for j in range(n_ref):
                self.nodes[(j, s)] = _GridNode(store, f"{name}.s{s}.f{j}", in_ch[s], out_ch[s], rng)

    def __call__(self, pyramids: list[FeaturePyramid]) -> ContextPyramid:
        levels = {0: [p.f0 for p in pyramids], 1: [p.f1 for p in pyramids], 2: [p.f2 for p in pyramids]}
        pyramids.clear()
        below: list[Tensor] = []  # the row below's outputs, by frame
        readout: dict[int, Tensor] = {}
        for s in (2, 1, 0):
            here = levels.pop(s)
            h_s, w_s = here[0].shape[1:]
            order = range(self.n_ref) if self._ROW_LEFT_TO_RIGHT[s] else range(self.n_ref - 1, -1, -1)
            row = [None] * self.n_ref  # this row's outputs, by frame
            prev = Tensor(np.broadcast_to(0.0, (self.channels[s], h_s, w_s)))
            for j in order:
                parts = [here[j]]
                here[j] = None
                if s < 2:
                    parts.append(bilinear_resize(below[j], h_s, w_s))
                parts.append(prev)
                prev = row[j] = self.nodes[(j, s)](parts)
            below = row
            readout[s] = prev  # last node visited in this row
        return ContextPyramid(readout[0], readout[1], readout[2])


class _SharedUPath:
    """Refinement side of the TOGETHER mode's single U-path."""

    def __init__(self, store: ParamStore, name: str, channels, rng):
        c0, c1, c2 = channels
        self.up2 = _GridNode(store, f"{name}.up2", c2, c2, rng)
        self.up1 = _GridNode(store, f"{name}.up1", c1 + c2, c1, rng)
        self.up0 = _GridNode(store, f"{name}.up0", c0 + c1, c0, rng)

    def __call__(self, pyr: FeaturePyramid) -> ContextPyramid:
        c2 = self.up2([pyr.f2])
        h1, w1 = pyr.f1.shape[1:]
        c1 = self.up1([pyr.f1, bilinear_resize(c2, h1, w1)])
        h0, w0 = pyr.f0.shape[1:]
        c0 = self.up0([pyr.f0, bilinear_resize(c1, h0, w0)])
        return ContextPyramid(c0, c1, c2)


class MultiRefFusion:
    """Fusion front-end with the mode baked in at construction.

    A call consumes the list of warped features it is given: once the
    down-stages (or TOGETHER's `merge_in`) have read them, the list is
    empty, so the caller holds no feature the fusion has done with.
    """

    def __init__(self, store: ParamStore, name: str, config: ModelConfig, rng):
        n_ref, mode, channels = config.n_ref, config.fusion, config.ctx_channels
        self.n_ref, self.mode = n_ref, mode
        if mode is FusionMode.BUTTERFLY:
            self.down = [DownsampleStage(store, f"{name}.down{j}", channels, rng) for j in range(n_ref)]
            self.grid = GridFuse(store, f"{name}.grid", n_ref, channels, rng)
        elif mode is FusionMode.TOGETHER:
            self.merge_in = Conv(store, f"{name}.merge_in", n_ref * channels[0], channels[0], rng=rng)
            self.down_shared = DownsampleStage(store, f"{name}.down", channels, rng)
            self.up_shared = _SharedUPath(store, f"{name}.up", channels, rng)
        else:  # INDEPENDENT
            self.down = [DownsampleStage(store, f"{name}.down{j}", channels, rng) for j in range(n_ref)]
            self.up = [_SharedUPath(store, f"{name}.up{j}", channels, rng) for j in range(n_ref)]
            self.merge = {
                s: Conv(store, f"{name}.merge{s}", n_ref * channels[s], channels[s], k=1, rng=rng)
                for s in (0, 1, 2)
            }

    def __call__(self, warped: list[Tensor]) -> ContextPyramid:
        if len(warped) != self.n_ref:
            raise UsageError(f"fusion built for {self.n_ref} references, got {len(warped)}")
        shapes = [t.shape for t in warped]  # no loop variable left holding a feature
        if shapes.count(shapes[0]) != len(shapes):
            raise ShapeError(f"warped feature shape mismatch: {shapes}")
        if self.mode is FusionMode.BUTTERFLY:
            return self.grid([down(warped.pop(0)) for down in self.down])
        if self.mode is FusionMode.TOGETHER:
            merged = self.merge_in(warped, leaky=True)
            warped.clear()
            return self.up_shared(self.down_shared(merged))
        ctxs = [up(down(warped.pop(0))) for down, up in zip(self.down, self.up)]
        return ContextPyramid(
            self.merge[0]([c.c0 for c in ctxs]),
            self.merge[1]([c.c1 for c in ctxs]),
            self.merge[2]([c.c2 for c in ctxs]),
        )
