"""The benchmark's workloads, driven through the public bnvc API only.

Each workload turns a seed into inputs, builds its model, and runs a
fixed unit of work (the same work on every repeat) while recording wall
times and checking every output:

* every decoded sequence must equal the encoder's reconstruction byte
  for byte, and decode_sequence must accept the stream it was given;
* every training loss must be finite;
* a repeated unit must reproduce the first unit's stream bytes and
  losses exactly.

A call that raises or fails a check counts as one failed operation; the
run goes on with the next call.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import bnvc.codec as codec
import bnvc.training as training
from bnvc.fusion import FusionMode
from bnvc.model import LAMBDA_VALUES, CodecModel, ModelConfig
from bnvc.policies import DuplicationPolicy
from bnvc.synth import generate_sequence

LAMBDA_INDEX = 2  # encode_sequence's and TrainingConfig's default
RD_LAMBDA = LAMBDA_VALUES[LAMBDA_INDEX]
HELD_OUT_SEED = 1_000_000  # train32_toy's fixed test set, independent of --seed


@dataclass
class Tally:
    """Operations attempted and failed, with a line per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"FAILED {what}: {detail}")


@dataclass
class Measure:
    """Wall times and quality figures gathered over a run's units."""

    encode_s: float = 0.0
    decode_s: float = 0.0
    frames_coded: int = 0  # each encoded once and decoded once
    step_ms: list[float] = field(default_factory=list)
    # quality of the first unit; later units must reproduce it exactly
    p_bits: int = 0
    p_pixels: int = 0
    p_psnr: list[float] = field(default_factory=list)
    p_rd: list[float] = field(default_factory=list)
    fingerprint: list = field(default_factory=list)
    reference: list | None = None

    def end_unit(self, tally: Tally) -> None:
        """Freeze the first unit's outputs; compare every later unit to them."""
        if self.reference is None:
            self.reference = self.fingerprint
        elif self.fingerprint != self.reference:
            tally.fail("repeat", "a repeated unit did not reproduce the first unit's outputs exactly")
        self.fingerprint = []

    def quality_frozen(self) -> bool:
        return self.reference is not None


def _call(tally: Tally, what: str, fn, *args, **kwargs):
    """Run one operation; a raise counts as a failure and returns None."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # any raise is a failed operation, the run goes on
        tally.fail(what, f"{type(err).__name__}: {err}")
        traceback.print_exc(file=sys.stderr)
        return None


def code_clip(
    model: CodecModel, frames: np.ndarray, policy: DuplicationPolicy, m: Measure, tally: Tally, step: bool = True
) -> None:
    """Encode then decode one clip, timing each call and checking the output.

    With `step`, the clip's encode-plus-decode time per frame is a step_ms sample.
    """
    n, _, h, w = frames.shape
    t0 = time.perf_counter()
    enc = _call(tally, "encode_sequence", codec.encode_sequence, frames, model, policy)
    t1 = time.perf_counter()
    if enc is None:
        tally.fail("decode_sequence", "not run: encode failed")
        return
    tally.ok()
    data, stats, recons = enc
    dec = _call(tally, "decode_sequence", codec.decode_sequence, data, model, expected_policy=policy)
    t2 = time.perf_counter()
    if dec is None:
        return
    decoded, header = dec
    if (header.width, header.height) != (w, h) or decoded.shape != recons.shape:
        tally.fail("decode_sequence", f"stream header or frame count wrong: {header}, {decoded.shape}")
        return
    if not np.array_equal(decoded, recons):
        frames_off = int(np.sum(np.any(decoded != recons, axis=(1, 2, 3))))
        tally.fail("decode_sequence", f"{frames_off} of {n} decoded frames differ from the encoder's recons")
        return
    tally.ok()
    m.encode_s += t1 - t0
    m.decode_s += t2 - t1
    m.frames_coded += n
    if step:
        m.step_ms.append(1e3 * (t2 - t0) / n)
    m.fingerprint.append(data)
    if m.quality_frozen():
        return
    for i, kind in enumerate(stats.frame_types):
        if kind != "P":
            continue
        err = (frames[i].astype(np.float64) - recons[i].astype(np.float64)) / 255.0
        mse = float(np.mean(err * err))
        bits = stats.frame_bits[i]
        m.p_bits += bits
        m.p_pixels += h * w
        m.p_psnr.append(10.0 * math.log10(1.0 / mse) if mse > 0 else 99.0)
        m.p_rd.append(RD_LAMBDA * mse + bits / (h * w))


def duplicated_share(n_frames: int, n_ref: int, intra_period: int = 32) -> float:
    """Share of P-frames whose reference list needs duplicated entries.

    The k-th P-frame after an I-frame has k decoded frames to reference,
    so it duplicates while k < n_ref.
    """
    p = [i % intra_period for i in range(n_frames) if i % intra_period]
    return sum(k < n_ref for k in p) / len(p) if p else 0.0


def mosaic_sequence(size: int, tile: int, n_frames: int, seed: int, occlusion: bool = False) -> np.ndarray:
    """A size x size sequence tiled from independent synth sequences.

    Tiling averages the per-sequence background and object draws, so the
    quality figures vary less from one seed to the next.
    """
    per_side = size // tile
    out = np.empty((n_frames, 3, size, size), dtype=np.uint8)
    for i in range(per_side * per_side):
        y, x = divmod(i, per_side)
        out[:, :, y * tile : (y + 1) * tile, x * tile : (x + 1) * tile] = generate_sequence(
            tile, tile, n_frames, seed=seed * 1000 + i, occlusion=occlusion
        )
    return out


class _StepClock(list):
    """Training dataset that stamps the clock each time a window is drawn.

    train_toy draws exactly one window at the start of every step, so
    consecutive stamps bound the steps.
    """

    def __init__(self, sequences) -> None:
        super().__init__(sequences)
        self.stamps: list[float] = []

    def __getitem__(self, index):
        self.stamps.append(time.perf_counter())
        return super().__getitem__(index)


# -- workloads --------------------------------------------------------------------


class Workload:
    """Each workload has: inputs(seed), build(), warm_up(model),
    unit(model, inputs, m, tally) and duplicated_p_share()."""

    name = ""

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny


class Long128Butterfly(Workload):
    name = "long128_butterfly"

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.size, self.tile, self.n_frames = (32, 16, 3) if tiny else (128, 16, 13)

    def config(self) -> ModelConfig:
        return ModelConfig.toy() if self.tiny else ModelConfig()

    def inputs(self, seed: int):
        return mosaic_sequence(self.size, self.tile, self.n_frames, seed)

    def build(self) -> CodecModel:
        return CodecModel(self.config(), seed=0)

    def warm_up(self, model: CodecModel) -> None:
        codec.encode_sequence(mosaic_sequence(self.size, self.tile, 2, seed=0), model)

    def unit(self, model, frames, m: Measure, tally: Tally) -> None:
        code_clip(model, frames, DuplicationPolicy.NEAR, m, tally)

    def duplicated_p_share(self) -> float:
        return duplicated_share(self.n_frames, self.config().n_ref)


class Clips64Together(Workload):
    name = "clips64_together"

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.size, self.tile, self.n_clips = (32, 16, 2) if tiny else (64, 32, 12)

    def config(self) -> ModelConfig:
        return replace(ModelConfig.toy() if self.tiny else ModelConfig(), fusion=FusionMode.TOGETHER)

    def inputs(self, seed: int):
        # odd clips: occlusion content and the FURTHER policy; even: plain and NEAR
        return [
            (
                mosaic_sequence(self.size, self.tile, 3, seed * 100 + i, occlusion=bool(i % 2)),
                DuplicationPolicy.FURTHER if i % 2 else DuplicationPolicy.NEAR,
            )
            for i in range(self.n_clips)
        ]

    def build(self) -> CodecModel:
        return CodecModel(self.config(), seed=0)

    def warm_up(self, model: CodecModel) -> None:
        codec.encode_sequence(mosaic_sequence(self.size, self.tile, 2, seed=0), model)

    def unit(self, model, clips, m: Measure, tally: Tally) -> None:
        for frames, policy in clips:
            code_clip(model, frames, policy, m, tally)

    def duplicated_p_share(self) -> float:
        return duplicated_share(3, self.config().n_ref)


class Train32Toy(Workload):
    """Toy training from the seed-0 weights, then coding held-out clips with
    the trained weights, as a trainer checks a run."""

    name = "train32_toy"
    rollout = 4

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.steps, self.n_sequences, self.n_held_out = (3, 2, 1) if tiny else (40, 6, 12)

    def inputs(self, seed: int):
        """The seed draws the training data; the held-out clips are a fixed test set."""
        dataset = [mosaic_sequence(32, 16, 12, seed * 100 + i) for i in range(self.n_sequences)]
        held_out = [mosaic_sequence(32, 16, self.rollout + 1, HELD_OUT_SEED + i) for i in range(self.n_held_out)]
        return dataset, held_out

    def build(self) -> CodecModel:
        return CodecModel(ModelConfig.toy(), seed=0)

    def train_config(self, steps: int) -> training.TrainingConfig:
        return training.TrainingConfig(lambda_index=LAMBDA_INDEX, steps=steps, seed=0, rollout=self.rollout)

    def warm_up(self, model: CodecModel) -> None:
        training.train_toy(model, [mosaic_sequence(32, 16, self.rollout + 1, seed=0)], self.train_config(1))

    def unit(self, _model, inputs, m: Measure, tally: Tally) -> None:
        dataset, held_out = inputs
        model = self.build()  # every unit trains the same weights from scratch
        clock = _StepClock(dataset)
        t0 = time.perf_counter()
        log = _call(tally, "train_toy", training.train_toy, model, clock, self.train_config(self.steps))
        t1 = time.perf_counter()
        if log is None:
            return
        losses = [e["loss"] for e in log.entries]
        if len(losses) != self.steps or not all(math.isfinite(v) for v in losses):
            tally.fail("train_toy", f"expected {self.steps} finite losses, got {losses}")
            return
        tally.ok()
        stamps = clock.stamps + [t1]
        if len(stamps) == self.steps + 1:
            m.step_ms.extend(1e3 * (b - a) for a, b in zip(stamps, stamps[1:]))
        else:
            tally.notes.append("train_toy did not draw one window per step; step_ms is the unit mean")
            m.step_ms.extend([1e3 * (t1 - t0) / self.steps] * self.steps)
        m.fingerprint.append(losses)
        for frames in held_out:
            code_clip(model, frames, DuplicationPolicy.NEAR, m, tally, step=False)

    def duplicated_p_share(self) -> float:
        return duplicated_share(self.rollout + 1, ModelConfig.toy().n_ref)


WORKLOADS = {w.name: w for w in (Long128Butterfly, Clips64Together, Train32Toy)}


def quality(m: Measure) -> dict[str, float]:
    """p_bpp, p_psnr_db and rd_loss of the first unit (0 if nothing was coded)."""
    return {
        "p_bpp": m.p_bits / m.p_pixels if m.p_pixels else 0.0,
        "p_psnr_db": statistics.fmean(m.p_psnr) if m.p_psnr else 0.0,
        "rd_loss": statistics.fmean(m.p_rd) if m.p_rd else 0.0,
    }
