"""Coding sessions: reference handling and the one inter-frame step
shared by training, encoding and decoding.

`inter_step` runs block-matching motion against the newest reference,
the motion autoencoder, one cumulative flow and one feature warp per
decoded reference, duplication of the warped features up to the fusion
width by the policy, fusion into the context pyramid, the contextual
autoencoder conditioned on it, and the frame generator, which emits
the reconstruction plus the feature stored for future references. At
its four latent points (mv-hyper, mv-main, ctx-hyper, ctx-main, in
that order) a bottleneck decides what happens: `Noise` adds uniform
noise and sums the differentiable rate (training), `Encode` rounds the
symbols and range-codes all four latents into one payload, `Decode`
reads them back from it in the same order. The encoder thus
reconstructs through exactly the float operations the decoder runs, so
both sides hold bit-identical pixels, features and flows at every time
step (drift-free by construction, asserted by tests).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bitstream import (
    FRAME_TYPE_INTRA,
    BitstreamReader,
    BitstreamWriter,
    StreamHeader,
)
from .entropy import DecoderState, TableSet, build_logistic_cdf_rows, gaussian_tables, range_decode, range_encode
from .errors import CorruptStreamError, UsageError, check_frames, check_int, check_type
from .metrics import psnr
from .model import CodecModel
from .motion import compose_flows, estimate_motion
from .policies import DuplicationPolicy, pad_references
from .tensor import Tensor, warp_bilinear

__all__ = [
    "Frame",
    "reference_flows",
    "intra_frame",
    "pixels_to_tensor",
    "to_uint8",
    "Noise",
    "Encode",
    "Decode",
    "inter_step",
    "encode_frame",
    "decode_frame",
    "encode_sequence",
    "decode_sequence",
    "EncodeStats",
]

@dataclass
class Frame:
    """One decoded picture: 8-bit pixels, stored feature, and decoded
    flow (None for an intra frame)."""

    pixels: np.ndarray
    index: int
    feature: Tensor
    flow: Optional[Tensor] = None

    def __post_init__(self):
        self.pixels = check_frames("frame pixels", self.pixels, 3)
        check_int("frame index", self.index, 0)

    @property
    def hw(self) -> tuple[int, int]:
        return self.pixels.shape[1], self.pixels.shape[2]


def reference_flows(frames: Sequence[Frame], newest_flow: Tensor) -> list[Tensor]:
    """Cumulative current-to-reference flows, oldest to newest.

    The newest frame uses the just-decoded flow directly; each older
    frame chains one more stored flow through composition. The frames
    must have consecutive indices.
    """
    flows = [newest_flow]
    for older, newer in reversed(list(zip(frames, frames[1:]))):
        if older.index != newer.index - 1:
            raise UsageError(f"reference indices must be consecutive, got {older.index} before {newer.index}")
        flows.append(compose_flows(flows[-1], newer.flow))
    return flows[::-1]


def intra_frame(model: CodecModel, pixels: np.ndarray, index: int) -> Frame:
    """Losslessly stored frame; its feature comes from the extractor."""
    pixels = check_frames("frame pixels", np.ascontiguousarray(pixels), 3)
    return Frame(pixels, index, model.extract_feature(pixels_to_tensor(pixels)))


def pixels_to_tensor(pixels: np.ndarray) -> Tensor:
    """uint8 pixels as floats in [0, 1]: the one pixel scale of the codec."""
    return Tensor(pixels.astype(np.float64) / 255.0)


def to_uint8(values: np.ndarray) -> np.ndarray:
    """Round [0, 1] floats to the stored uint8 reconstruction."""
    return np.clip(np.rint(values * 255.0), 0.0, 255.0).astype(np.uint8)


# -- bottlenecks: what happens at each latent point of the step ----------------

class Noise:
    """Training: additive U(-1/2, 1/2) noise; `bits` sums the rate terms."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.bits = Tensor(0.0)

    def hyper(self, model: CodecModel, which: str, z: Tensor, shape) -> Tensor:
        z_hat = z + Tensor(self.rng.uniform(-0.5, 0.5, size=z.shape))
        self.bits = self.bits + model.factorized_rate_bits(z_hat, which)
        return z_hat

    def main(self, model: CodecModel, y: Tensor, mean: Tensor, scale: Tensor) -> Tensor:
        y_hat = y + Tensor(self.rng.uniform(-0.5, 0.5, size=y.shape))
        self.bits = self.bits + model.gaussian_rate_bits(y_hat, mean, scale)
        return y_hat


def _prior_tables(model: CodecModel, which: str, shape) -> TableSet:
    """The factorized prior's tables: one per channel, indexed by each symbol's channel."""
    loc, scale = model.prior_params(which)
    per_channel = build_logistic_cdf_rows(loc.data.ravel(), scale.data.ravel())
    return TableSet(per_channel, np.repeat(np.arange(shape[0]), shape[1] * shape[2]))


class Encode:
    """Coding: round each latent into its tables' supports; `payload` range-codes them all."""

    def __init__(self) -> None:
        self.symbols: list[np.ndarray] = []
        self.tables: list = []  # every latent's tables, joined
        self.index: list[np.ndarray] = []  # each latent's table indices into the joined list

    def _code(self, values: np.ndarray, tables: TableSet) -> np.ndarray:
        sym = np.clip(np.rint(values.ravel()), *tables.symbol_bounds()).astype(np.int64)
        self.symbols.append(sym)
        self.index.append(tables.index + len(self.tables))
        self.tables += tables.tables
        return sym.astype(np.float64)

    def hyper(self, model: CodecModel, which: str, z: Tensor, shape) -> Tensor:
        return Tensor(self._code(z.data, _prior_tables(model, which, shape)).reshape(shape))

    def main(self, model: CodecModel, y: Tensor, mean: Tensor, scale: Tensor) -> Tensor:
        sym = self._code(y.data - mean.data, gaussian_tables(scale.data))
        return Tensor(sym.reshape(mean.shape) + mean.data)

    def payload(self) -> bytes:
        """Every latent so far, in order, in one range-coder stream."""
        return range_encode(np.concatenate(self.symbols), TableSet(self.tables, np.concatenate(self.index)))


class Decode:
    """Decoding: read each latent's symbols back from the frame's payload, in order."""

    def __init__(self, payload: bytes):
        self.payload, self.state = payload, DecoderState()

    def _read(self, tables: TableSet) -> np.ndarray:
        return np.asarray(range_decode(self.payload, tables, self.state), dtype=np.float64)

    def hyper(self, model: CodecModel, which: str, z: None, shape) -> Tensor:
        return Tensor(self._read(_prior_tables(model, which, shape)).reshape(shape))

    def main(self, model: CodecModel, y: None, mean: Tensor, scale: Tensor) -> Tensor:
        return Tensor(self._read(gaussian_tables(scale.data)).reshape(mean.shape) + mean.data)


# -- the inter-frame step -------------------------------------------------------

def inter_step(
    model: CodecModel, x: Optional[np.ndarray], refs: Sequence[Frame], policy: DuplicationPolicy, bottleneck
) -> tuple[Tensor, Frame]:
    """Code one inter frame against `refs`, the decoded frames (oldest to
    newest, at most `n_ref`). Each is warped once; `policy` pads the
    warped features to the fusion's `n_ref` inputs.

    `x` holds the frame's uint8 pixels, or None when decoding: then
    neither motion search nor the analysis transforms run, and the
    bottleneck supplies every latent. Motion search compares the uint8
    `x` with the newest reference's stored pixels. Returns (x_hat,
    frame): the float reconstruction, and the decoded frame that follows
    `refs[-1]`, holding the feature stored for later references and the
    decoded flow to the newest reference.
    """
    if not refs:
        raise UsageError("an inter frame needs at least one decoded reference")
    h, w = refs[-1].hw
    lhw, zhw = model.latent_hw(h, w), model.hyper_hw(h, w)
    x_t = y_v = z_v = y = z = None
    if x is not None:
        if x.shape[1:] != (h, w):
            raise UsageError(f"frame size {x.shape[1]}x{x.shape[2]} does not match references {h}x{w}")
        x_t = pixels_to_tensor(x)
        block = 8 if (h % 8 == 0 and w % 8 == 0) else 4
        flow = estimate_motion(x, refs[-1].pixels, block=block)
        y_v = model.mv_analyze(Tensor(flow))
        z_v = model.mv_hyper_analyze(y_v)
    z_v_hat = bottleneck.hyper(model, "mv", z_v, (model.config.mv_hyper, *zhw))
    mean, scale = model.mv_hyper_synthesize(z_v_hat, lhw)
    v_hat = model.mv_synthesize(bottleneck.main(model, y_v, mean, scale), (h, w))

    # one warp per decoded reference, held only by the padded list, which the fusion empties
    flows = reference_flows(refs, v_hat)
    warped = pad_references([warp_bilinear(r.feature, f) for r, f in zip(refs, flows)], model.config.n_ref, policy)
    ctx = model.fusion(warped)

    if x_t is not None:
        y = model.ctx_analyze(x_t, ctx)
        z = model.ctx_hyper_analyze(y)
    z_hat = bottleneck.hyper(model, "ctx", z, (model.config.ctx_hyper, *zhw))
    mean, scale = model.ctx_hyper_synthesize(z_hat, ctx, lhw)
    f_hat = model.ctx_synthesize(bottleneck.main(model, y, mean, scale), ctx, (h, w))
    x_hat, feature = model.generate_frame(f_hat, ctx.c0)
    return x_hat, Frame(to_uint8(x_hat.data), refs[-1].index + 1, feature, v_hat)


def encode_frame(
    pixels: np.ndarray,
    dpb: Sequence[Frame],
    model: CodecModel,
    policy: DuplicationPolicy,
) -> tuple[bytes, Frame]:
    """Code the inter frame that follows the decoded frames `dpb`; returns (payload, recon)."""
    coder = Encode()
    _, frame = inter_step(model, pixels, list(dpb), policy, coder)
    return coder.payload(), frame


def decode_frame(
    payload: bytes,
    dpb: Sequence[Frame],
    model: CodecModel,
    policy: DuplicationPolicy,
) -> Frame:
    """Mirror of encode_frame; requires the encoder's decoded frames, and
    a payload that ends exactly where its last symbol does."""
    coder = Decode(payload)
    _, frame = inter_step(model, None, list(dpb), policy, coder)
    if coder.state.pos != len(payload):
        raise CorruptStreamError(f"inter payload holds {len(payload) - coder.state.pos} bytes past its last symbol")
    return frame


# -- sequence coding ------------------------------------------------------------------

@dataclass
class EncodeStats:
    """Rate/quality accounting for one encoded sequence."""

    width: int
    height: int
    n_frames: int
    total_bits: int
    frame_bits: list[int] = field(default_factory=list)
    frame_psnr: list[float] = field(default_factory=list)
    frame_types: list[str] = field(default_factory=list)

    @property
    def bpp(self) -> float:
        return self.total_bits / (self.n_frames * self.width * self.height)

    @property
    def mean_p_frame_psnr(self) -> float:
        vals = [p for p, t in zip(self.frame_psnr, self.frame_types) if t == "P"]
        return float(np.mean(vals)) if vals else math.inf


def encode_sequence(
    frames: np.ndarray,
    model: CodecModel,
    policy: DuplicationPolicy = DuplicationPolicy.NEAR,
    lambda_index: int = 2,
    intra_period: int = 32,
) -> tuple[bytes, EncodeStats, np.ndarray]:
    """Encode uint8 frames (N, 3, H, W); returns (stream, stats, recons)."""
    frames = check_frames("sequence", frames, 4)
    check_type("model", model, CodecModel)
    n, _, h, w = frames.shape
    # the header refuses a field no decoder accepts before the weights are snapped
    header = StreamHeader(
        width=w,
        height=h,
        n_ref=model.config.n_ref,
        policy=policy,
        fusion=model.config.fusion,
        intra_period=intra_period,
        lambda_index=lambda_index,
        weights_hash=0,
    )
    writer = BitstreamWriter(replace(header, weights_hash=model.prepare_for_coding()))
    dpb = deque(maxlen=model.config.n_ref)
    recons = np.empty_like(frames)
    types: list[str] = []
    psnrs: list[float] = []
    for i in range(n):
        if header.intra_at(i):
            writer.add_intra(frames[i].tobytes())
            dpb.clear()
            frame = intra_frame(model, frames[i], i)
            types.append("I")
        else:
            payload, frame = encode_frame(frames[i], dpb, model, policy)
            writer.add_inter(payload)
            types.append("P")
        dpb.append(frame)
        recons[i] = frame.pixels
        psnrs.append(psnr(frames[i], frame.pixels))
    data = writer.getvalue()
    stats = EncodeStats(
        width=w,
        height=h,
        n_frames=n,
        total_bits=8 * len(data),
        frame_bits=list(writer.frame_bits),
        frame_psnr=psnrs,
        frame_types=types,
    )
    return data, stats, recons


def decode_sequence(
    data: bytes,
    model: CodecModel,
    expected_policy: Optional[DuplicationPolicy] = None,
) -> tuple[np.ndarray, StreamHeader]:
    """Decode a bitstream; refuses mismatched weights/config/policy."""
    check_type("model", model, CodecModel)
    reader = BitstreamReader(data)
    header = reader.header
    h, w, policy = header.height, header.width, header.policy
    # the hash is of the float32 serialization, the same before and after the
    # snap, so a refused stream leaves the caller's weights as they were
    weights_hash = model.store.weights_hash()
    if header.weights_hash != weights_hash:
        raise UsageError(
            f"weights hash mismatch: stream was coded with {header.weights_hash:016x}, "
            f"model is {weights_hash:016x}"
        )
    if (header.fusion, header.n_ref) != (model.config.fusion, model.config.n_ref):
        raise UsageError(
            f"stream was coded with {header.fusion.value} fusion and {header.n_ref} references, "
            f"model uses {model.config.fusion.value} and {model.config.n_ref}"
        )
    if expected_policy is not None and expected_policy is not policy:
        raise UsageError(
            f"stream header says policy {policy!r}, refusing requested {expected_policy!r}"
        )
    model.store.snap_to_f32()
    dpb = deque(maxlen=model.config.n_ref)
    out: list[np.ndarray] = []
    index = 0
    while not reader.at_end():
        ftype, record = reader.next_record()
        if (ftype == FRAME_TYPE_INTRA) != header.intra_at(index):
            raise CorruptStreamError(f"frame {index}'s record type breaks the intra period {header.intra_period}")
        if ftype == FRAME_TYPE_INTRA:
            pixels = np.frombuffer(record, dtype=np.uint8).reshape(3, h, w).copy()
            dpb.clear()
            frame = intra_frame(model, pixels, index)
        else:  # FRAME_TYPE_INTER; the reader rejects any other type
            frame = decode_frame(record, dpb, model, policy)
        dpb.append(frame)
        out.append(frame.pixels)
        index += 1
    if not out:
        raise CorruptStreamError("stream holds no frame records")
    return np.stack(out), header
