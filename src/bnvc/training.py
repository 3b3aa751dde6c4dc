"""Toy end-to-end trainer.

Each step samples a window of one intra frame plus a short rollout of
inter frames, runs each inter frame through the codec's `inter_step`
with the `Noise` bottleneck (quantization relaxed to additive uniform
noise), and minimizes sum_t(lambda * MSE_t + bits_t / pixels) by Adam.
The rollout buffer holds codec `Frame`s, made as when coding by
`intra_frame` and `inter_step`: uint8 pixels for motion search plus live
feature and flow tensors, so gradients flow through the intra frame's
extracted feature, stored features and composed flows across the whole
window (motion search itself is integer block matching and enters as a
constant).
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codec import Noise, encode_sequence, inter_step, intra_frame, pixels_to_tensor
from .errors import BnvcError, UsageError, check_frames, check_int, check_type
from .model import LAMBDA_VALUES, CodecModel
from .policies import DuplicationPolicy
from .tensor import Tensor, mean_all

__all__ = [
    "TrainingConfig",
    "TrainingLog",
    "TrainingDiverged",
    "Adam",
    "train_toy",
    "evaluate_coding",
    "per_frame_distortion",
]


class TrainingDiverged(BnvcError, RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite training loss at step {step} (value {value})")
        self.step = step


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_CLIP_NORM = 10.0  # global gradient-norm bound of every training step


class Adam:
    """Standard Adam with optional global-norm gradient clipping."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def clip_global_norm(self, max_norm: float) -> float:
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(p.grad * p.grad))
        norm = math.sqrt(total)
        if norm > max_norm > 0.0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1**self.t
        b2c = 1.0 - _BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + _ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass(frozen=True)
class TrainingConfig:
    lambda_index: int = 2
    steps: int = 2000
    seed: int = 0
    policy: DuplicationPolicy = DuplicationPolicy.NEAR
    rollout: int = 4
    lr: float = 1e-3

    def __post_init__(self):
        check_int("lambda index", self.lambda_index, 0, len(LAMBDA_VALUES) - 1)
        check_int("steps", self.steps, 0)
        check_int("seed", self.seed, 0)
        check_int("rollout", self.rollout, 1)
        check_type("policy", self.policy, DuplicationPolicy)
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real) or not 0.0 < self.lr < math.inf:
            raise UsageError(f"lr must be a finite real above 0, got {self.lr!r}")

    @property
    def lam(self) -> float:
        return LAMBDA_VALUES[self.lambda_index]


@dataclass
class TrainingLog:
    entries: list[dict] = field(default_factory=list)

    def add(self, step: int, loss: float, bpp: float, mse: float) -> None:
        self.entries.append({"step": step, "loss": loss, "bpp": bpp, "mse": mse})


def rollout_loss(
    model: CodecModel,
    window: np.ndarray,
    rng: np.random.Generator,
    lam: float,
    policy: DuplicationPolicy,
) -> tuple[Tensor, float, float]:
    """Training loss over one window: frame 0 intra, the rest inter.

    Returns (loss tensor, mean inter-frame bpp, mean inter-frame MSE).
    """
    n_frames = window.shape[0]
    h, w = int(window.shape[2]), int(window.shape[3])
    dpb = deque([intra_frame(model, window[0], 0)], maxlen=model.config.n_ref)

    total: Optional[Tensor] = None
    bits_sum = 0.0
    mse_sum = 0.0
    inv_pixels = Tensor(1.0 / (h * w))
    lam_t = Tensor(float(lam))
    for t in range(1, n_frames):
        noise = Noise(rng)
        x_hat, frame = inter_step(model, window[t], list(dpb), policy, noise)
        diff = pixels_to_tensor(window[t]) - x_hat
        dist = mean_all(diff * diff)
        loss_t = lam_t * dist + noise.bits * inv_pixels
        total = loss_t if total is None else total + loss_t
        bits_sum += float(noise.bits.data)
        mse_sum += float(dist.data)
        dpb.append(frame)

    n_inter = n_frames - 1
    return total, bits_sum / (n_inter * h * w), mse_sum / n_inter


def train_toy(model: CodecModel, dataset: Sequence[np.ndarray], config: TrainingConfig) -> TrainingLog:
    """Train in place; fixed seed gives a bit-reproducible log.

    steps=0 returns immediately with the weights untouched. A non-finite
    loss aborts with TrainingDiverged carrying the step index.
    """
    check_type("model", model, CodecModel)
    check_type("config", config, TrainingConfig)
    check_type("training dataset", dataset, Sequence)
    log = TrainingLog()
    if config.steps == 0:
        return log
    if not dataset:
        raise UsageError("training dataset is empty")
    for seq in dataset:
        if len(check_frames("training sequence", seq, 4)) < config.rollout + 1:
            raise UsageError(f"sequences must hold at least rollout+1={config.rollout + 1} frames, got {len(seq)}")
    rng = np.random.default_rng(config.seed)
    params = model.store.tensors()
    model.store.set_requires_grad(True)
    opt = Adam(params, lr=config.lr)
    try:
        for step in range(config.steps):
            seq = dataset[int(rng.integers(len(dataset)))]
            start = int(rng.integers(0, seq.shape[0] - config.rollout))
            window = seq[start : start + config.rollout + 1]
            loss, bpp, mse = rollout_loss(model, window, rng, config.lam, config.policy)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise TrainingDiverged(step, loss_val)
            opt.zero_grad()
            loss.backward()
            opt.clip_global_norm(_CLIP_NORM)
            opt.step()
            log.add(step, loss_val, bpp, mse)
    finally:
        opt.zero_grad()
        model.store.set_requires_grad(False)
    return log


def evaluate_coding(
    model: CodecModel,
    sequences: Sequence[np.ndarray],
    lambda_index: int,
    policy: DuplicationPolicy = DuplicationPolicy.NEAR,
    intra_period: int = 32,
) -> dict:
    """Real (integer, entropy-coded) evaluation on held-out sequences.

    Returns mean bpp, mean inter-frame MSE (in [0,1]^2 units), the
    rate-distortion objective lambda*MSE + bpp, and mean inter PSNR.
    """
    lam = LAMBDA_VALUES[check_int("lambda index", lambda_index, 0, len(LAMBDA_VALUES) - 1)]
    bpps, mses, psnrs = [], [], []
    for seq in sequences:
        data, stats, recons = encode_sequence(seq, model, policy, lambda_index, intra_period)
        p_idx = [i for i, t in enumerate(stats.frame_types) if t == "P"]
        err = (seq[p_idx].astype(np.float64) - recons[p_idx].astype(np.float64)) / 255.0
        mses.append(float(np.mean(err * err)))
        bpps.append(stats.bpp)
        psnrs.append(stats.mean_p_frame_psnr)
    mean_bpp = float(np.mean(bpps))
    mean_mse = float(np.mean(mses))
    return {
        "bpp": mean_bpp,
        "mse": mean_mse,
        "objective": lam * mean_mse + mean_bpp,
        "psnr": float(np.mean(psnrs)),
        "lambda": lam,
    }


def per_frame_distortion(
    model: CodecModel,
    seq: np.ndarray,
    policy: DuplicationPolicy,
    n_inter: int = 3,
) -> list[float]:
    """MSE of the first `n_inter` inter frames after one intra frame."""
    window = seq[: n_inter + 1]
    _, _, recons = encode_sequence(window, model, policy, lambda_index=2, intra_period=n_inter + 1)
    out = []
    for i in range(1, n_inter + 1):
        err = (window[i].astype(np.float64) - recons[i].astype(np.float64)) / 255.0
        out.append(float(np.mean(err * err)))
    return out
