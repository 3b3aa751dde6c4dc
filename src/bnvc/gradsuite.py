"""Gradient verification suite: every tensor op against central finite
differences, the composed fusion front-end, and the full coding
pipeline at toy size. Each check returns a `GradCheckReport` named after
what it checks. The op and fusion checks run at `grad_check`'s default
step and tolerance; the pipeline check has its own, fixed below.
`tests/test_tensor.py` runs the op checks over 20 seeds, and
`tests/test_gradsuite.py` runs the fusion and pipeline checks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .fusion import MultiRefFusion
from .model import CodecModel, ModelConfig
from .network import ParamStore
from .policies import DuplicationPolicy
from .synth import generate_sequence
from .tensor import (
    GradCheckReport,
    Tensor,
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

__all__ = ["op_checks", "butterfly_check", "pipeline_check", "run_suite"]

_PIPELINE_TOL = 1e-3
_PIPELINE_EPS_LADDER = (1e-5, 1e-4, 4e-4)


def _projected(out: Tensor, seed: int) -> Tensor:
    r = np.random.default_rng(seed + 7919).normal(size=out.shape)
    return sum_all(out * Tensor(r))


def op_checks(seed: int = 0) -> list[GradCheckReport]:
    """Per-op finite-difference checks at small sizes.

    Inputs keep a margin from the kinks of leaky_relu/clamp and from
    integer warp positions so the central differences stay two-sided.
    """
    rng = np.random.default_rng(seed)
    x_img = rng.normal(size=(2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3)) * 0.5
    b = rng.normal(size=3) * 0.1
    signs = rng.choice([-1.0, 1.0], size=(2, 6, 6))
    x_off = signs * rng.uniform(0.2, 1.0, size=(2, 6, 6))
    flow = rng.choice([-1.0, 1.0], size=(2, 6, 6)) * rng.uniform(0.2, 0.45, size=(2, 6, 6))
    pos = rng.uniform(0.5, 2.0, size=(2, 4, 4))
    a = rng.normal(size=(3, 4))
    bden = rng.normal(size=(3, 4)) + 3.0
    # drawn last so the cases above keep their inputs: at stride 1,
    # C_out < C_in takes conv2d's shift form forward, where w (C_in 2 <=
    # C_out 3) takes the kernel-row form
    x3 = rng.normal(size=(3, 6, 6))
    w_narrow = rng.normal(size=(2, 3, 3, 3)) * 0.5
    w_1x1 = rng.normal(size=(2, 3, 1, 1)) * 0.5
    b_narrow = rng.normal(size=2) * 0.1
    # drawn after those for the same reason. The leaky epilogue's
    # pre-activations clear its kink by at least 0.05: a positive input and
    # one weight sign per output channel put each one at least 0.2 * 0.5
    # (the centre tap) from zero, and the bias moves it by under 0.05
    x_pos = rng.uniform(0.5, 1.5, size=(2, 6, 6))
    w_signed = np.array([1.0, -1.0, 1.0])[:, None, None, None] * rng.uniform(0.2, 1.0, size=(3, 2, 3, 3))
    b_small = rng.uniform(-0.05, 0.05, size=3)
    skip = rng.normal(size=(2, 6, 6))

    cases = [
        ("add", lambda t1, t2: _projected(t1 + t2, seed), [a, a * 0.3]),
        ("mul", lambda t1, t2: _projected(t1 * t2, seed), [a, a + 2.0]),
        ("div", lambda t1, t2: _projected(t1 / t2, seed), [a, bden]),
        ("leaky_relu", lambda t: _projected(leaky_relu(t), seed), [x_off]),
        ("sigmoid", lambda t: _projected(sigmoid(t), seed), [a]),
        ("std_normal_cdf", lambda t: _projected(std_normal_cdf(t), seed), [a]),
        ("exp", lambda t: _projected(exp(t), seed), [a * 0.5]),
        ("log", lambda t: _projected(log(t), seed), [pos]),
        ("clamp", lambda t: _projected(clamp(t, -0.5, 0.5), seed), [x_off]),
        ("conv2d_stride1", lambda tx, tw, tb: _projected(conv2d(tx, tw, tb, 1), seed), [x_img, w, b]),
        ("conv2d_stride2", lambda tx, tw, tb: _projected(conv2d(tx, tw, tb, 2), seed), [x_img, w, b]),
        ("conv2d_stride1_narrow", lambda tx, tw, tb: _projected(conv2d(tx, tw, tb, 1), seed), [x3, w_narrow, b_narrow]),
        ("conv2d_1x1", lambda tx, tw, tb: _projected(conv2d(tx, tw, tb, 1), seed), [x3, w_1x1, b_narrow]),
        ("bilinear_resize_up", lambda t: _projected(bilinear_resize(t, 9, 11), seed), [x_img]),
        ("bilinear_resize_down", lambda t: _projected(bilinear_resize(t, 3, 4), seed), [x_img]),
        ("warp_bilinear", lambda tx, tf: _projected(warp_bilinear(tx, tf), seed), [x_img, flow]),
        # two channel parts, each with its own slice of the input gradient
        (
            "conv2d_two_parts",
            lambda t1, t2, tw, tb: _projected(conv2d([t1, t2], tw, tb, 1), seed),
            [x_img, x_img[:1] * 0.5, w_narrow, b_narrow],
        ),
        (
            "conv2d_leaky",
            lambda tx, tw, tb: _projected(conv2d(tx, tw, tb, 1, leaky=True), seed),
            [x_pos, w_signed, b_small],
        ),
        (
            "conv2d_residual",
            lambda tx, tw, tb, tr: _projected(conv2d(tx, tw, tb, 1, residual=tr), seed),
            [x3, w_narrow, b_narrow, skip],
        ),
        ("sum_all", lambda t: sum_all(t), [a]),
        ("mean_all", lambda t: mean_all(t), [a]),
    ]
    return [replace(grad_check(fn, inputs, seed=seed), name=name) for name, fn, inputs in cases]


def butterfly_check(seed: int = 0) -> GradCheckReport:
    """Composed fusion forward on a 4-frame, 8-channel, 16x16 instance."""
    store = ParamStore()
    fusion = MultiRefFusion(store, "fuse", ModelConfig(width=8), np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    warped = [rng.normal(size=(8, 16, 16)) * 0.5 for _ in range(4)]
    proj = [np.random.default_rng(seed + 50 + s).normal(size=shape) for s, shape in enumerate([(8, 16, 16), (12, 8, 8), (16, 4, 4)])]

    def fn(*tensors):
        ctx = fusion(list(tensors))
        total = sum_all(ctx.c0 * Tensor(proj[0]))
        total = total + sum_all(ctx.c1 * Tensor(proj[1]))
        return total + sum_all(ctx.c2 * Tensor(proj[2]))

    return replace(grad_check(fn, warped, max_coords=60, seed=seed + 2), name="butterfly_forward")


def pipeline_check(seed: int = 0, per_param: int = 3) -> GradCheckReport:
    """Full coding pipeline loss on a 16x16, 4-channel model.

    Analytic parameter gradients of the training loss, which runs the
    codec's own inter step (with frozen quantization noise and a
    one-frame rollout so block matching stays constant), are compared
    against central finite differences. Biases are drawn away from zero
    (random sign times U(0.05, 0.15)): with zero biases and the window's
    zero block-matched flow, pre-activations would sit exactly on
    leaky_relu's kink, where central differences are one-sided. For every
    parameter tensor the largest-magnitude gradient coordinates are
    checked, so each layer's backward rule is exercised; coordinates
    with near-zero gradients are excluded by construction because their
    relative influence on a loss of magnitude ~10^3 sits below the
    double-precision resolution of any finite-difference step. Each
    coordinate takes its best agreement over a small ladder of step
    sizes; a genuinely wrong gradient fails at every step size.
    """
    from .training import rollout_loss

    model = CodecModel(ModelConfig(width=4), seed=seed)
    bias_rng = np.random.default_rng(seed + 5)
    for name in model.store.names():
        if name.endswith(".b"):
            b = model.store[name].data
            b[...] = bias_rng.choice([-1.0, 1.0], size=b.shape) * bias_rng.uniform(0.05, 0.15, size=b.shape)
    window = generate_sequence(width=16, height=16, n_frames=2, seed=seed + 3)

    def loss_value() -> Tensor:
        rng = np.random.default_rng(seed + 9)  # frozen noise across evaluations
        loss, _, _ = rollout_loss(model, window, rng, lam=1024.0, policy=DuplicationPolicy.NEAR)
        return loss

    params = model.store.tensors()
    model.store.set_requires_grad(True)
    try:
        loss = loss_value()
        if not np.isfinite(loss.data):
            return GradCheckReport(math.inf, False, 0, "non-finite loss", name="full_pipeline")
        loss.backward()
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
        for p in params:
            p.grad = None
    finally:
        model.store.set_requires_grad(False)

    picks: list[tuple[int, int]] = []
    for pi, p in enumerate(params):
        mags = np.abs(grads[pi].reshape(-1))
        order = np.argsort(-mags, kind="stable")[:per_param]
        picks.extend((pi, int(idx)) for idx in order if mags[idx] > 0.0)

    max_rel = 0.0
    for checked, (pi, idx) in enumerate(picks):
        flat = params[pi].data.reshape(-1)
        orig = flat[idx]
        analytic = float(grads[pi].reshape(-1)[idx])
        best = math.inf
        for eps in _PIPELINE_EPS_LADDER:
            flat[idx] = orig + eps
            hi = float(loss_value().data)
            flat[idx] = orig - eps
            lo = float(loss_value().data)
            flat[idx] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                return GradCheckReport(math.inf, False, checked, "non-finite finite-difference value", name="full_pipeline")
            numeric = (hi - lo) / (2.0 * eps)
            best = min(best, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
        max_rel = max(max_rel, best)
    return GradCheckReport(max_rel, max_rel <= _PIPELINE_TOL, len(picks), name="full_pipeline")


def run_suite(seed: int = 0, full: bool = True) -> list[GradCheckReport]:
    results = op_checks(seed)
    results.append(butterfly_check(seed))
    if full:
        results.append(pipeline_check(seed))
    return results
