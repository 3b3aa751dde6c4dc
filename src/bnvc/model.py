"""The codec's networks: motion autoencoder, multi-reference fusion,
contextual autoencoder, hyper-modules, frame generator, and feature
extractor, all hanging off one ordered parameter store.

Latent coding is mean-removed: the hyper path predicts (mu, sigma) per
latent element, the coded symbol is round(y - mu), and reconstruction
adds mu back. Scales are parameterized as exp(clamped log-scale) so
they always live in [SCALE_MIN, SCALE_MAX].

`ModelConfig` is (n_ref, fusion, width): every layer width is a fixed
multiple of c0 = width, and its constructor checks every architecture rule.

A weights file is two files side by side: `<stem>.bin`, the store's
float32 byte form (`network.ParamStore.to_f32_bytes`), and a JSON
manifest with exactly three keys: `format` ("bnvc-weights"), `model`
(the config's `{n_ref, fusion, width}`, which fixes every parameter's
name and shape) and `hash_fnv1a64` (the binary's FNV-1a 64 as 16 hex
digits, the hash that bitstream headers carry). `CodecModel.load`
refuses, with `UsageError`, any other key set, a binary of the wrong
size and a binary whose hash differs from the manifest's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .entropy import MIN_PROB, SCALE_MAX, SCALE_MIN
from .errors import UsageError, check_int, check_type
from .fusion import ContextPyramid, FusionMode, MultiRefFusion
from .network import Conv, ParamStore, ResBlock
from .tensor import (
    Tensor,
    bilinear_resize,
    clamp,
    conv_out_extent,
    exp,
    log,
    std_normal_cdf,
    sigmoid,
    sum_all,
)

__all__ = ["ModelConfig", "CodecModel", "LAMBDA_VALUES"]

LAMBDA_VALUES = (256.0, 512.0, 1024.0, 2048.0)

_FORMAT = "bnvc-weights"
_MANIFEST_KEYS = {"format", "model", "hash_fnv1a64"}

_LOG_SCALE_MIN = float(np.log(SCALE_MIN))
_LOG_SCALE_MAX = float(np.log(SCALE_MAX))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; every layer width derives from `width` = c0.

    The width family is c0 x (context (1, 3/2, 2); motion latent 1;
    motion hyper 1/2; ctx latent 3/2; ctx hyper 3/4). Construction raises
    `UsageError` unless `fusion` is a `FusionMode`, `n_ref` is an int in
    1..255 (the header's u8) and `width` is a positive multiple of 4.
    """

    n_ref: int = 4
    fusion: FusionMode = FusionMode.BUTTERFLY
    width: int = 16

    def __post_init__(self):
        check_type("fusion", self.fusion, FusionMode)
        check_int("n_ref", self.n_ref, 1, 255)
        if check_int("width", self.width, 4) % 4:
            raise UsageError(f"width must be a positive multiple of 4, got {self.width!r}")

    @property
    def ctx_channels(self) -> tuple[int, int, int]:
        return self.width, self.width * 3 // 2, self.width * 2

    @property
    def mv_hyper(self) -> int:
        return self.width // 2

    @property
    def ctx_hyper(self) -> int:
        return self.width * 3 // 4

    @classmethod
    def toy(cls, n_ref: int = 4, fusion: FusionMode = FusionMode.BUTTERFLY) -> "ModelConfig":
        """Small widths for training experiments and fast tests."""
        return cls(n_ref, fusion, width=8)

    def to_manifest(self) -> dict:
        return {"n_ref": self.n_ref, "fusion": self.fusion.value, "width": self.width}

    @classmethod
    def from_manifest(cls, m: dict) -> "ModelConfig":
        """Inverse of `to_manifest`; UsageError unless `m` holds exactly its keys."""
        keys = [f.name for f in fields(cls)]
        if not isinstance(m, dict) or set(m) != set(keys):
            raise UsageError(f"a model section has exactly the keys {keys}, got {str(m)[:80]}")
        try:
            fusion = FusionMode(m["fusion"])
        except ValueError:
            raise UsageError(f"fusion must name a FusionMode, got {m['fusion']!r}") from None
        return cls(m["n_ref"], fusion, m["width"])


class CodecModel:
    """All parameters and forward paths of the codec."""

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = check_type("config", config, ModelConfig)
        self.store = ParamStore()
        rng = np.random.default_rng(check_int("seed", seed, 0))
        c0, c1, c2 = config.ctx_channels
        m, hm, lc, hc = c0, config.mv_hyper, c1, config.ctx_hyper  # motion and ctx latent/hyper widths

        # feature extractor for frames that lack a stored feature
        self.feat1 = Conv(self.store, "feat.conv1", 3, c0, rng=rng)
        self.feat2 = Conv(self.store, "feat.conv2", c0, c0, rng=rng)

        # motion autoencoder: two stride-2 convs down, hyper one further
        self.mv_enc1 = Conv(self.store, "mv_enc.conv1", 2, m, stride=2, rng=rng)
        self.mv_enc2 = Conv(self.store, "mv_enc.conv2", m, m, stride=2, rng=rng)
        self.mv_hyper_enc = Conv(self.store, "mv_hyper.enc", m, hm, stride=2, rng=rng)
        self.mv_hyper_dec = Conv(self.store, "mv_hyper.dec", hm, m, rng=rng)
        self.mv_head_mean = Conv(self.store, "mv_hyper.mean", m, m, rng=rng)
        self.mv_head_scale = Conv(self.store, "mv_hyper.scale", m, m, rng=rng)
        self.mv_dec1 = Conv(self.store, "mv_dec.conv1", m, m, rng=rng)
        self.mv_dec2 = Conv(self.store, "mv_dec.conv2", m, m, rng=rng)
        self.mv_dec3 = Conv(self.store, "mv_dec.conv3", m, 2, rng=rng, init_scale=0.1)
        self.store.add("mv_prior.loc", np.zeros((hm, 1, 1)))
        self.store.add("mv_prior.log_scale", np.zeros((hm, 1, 1)))

        # multi-reference fusion front-end
        self.fusion = MultiRefFusion(self.store, "fusion", config, rng)

        # contextual autoencoder with context injected at each scale
        self.ctx_enc1 = Conv(self.store, "ctx_enc.conv1", 3 + c0, c1, stride=2, rng=rng)
        self.ctx_enc2 = Conv(self.store, "ctx_enc.conv2", c1 + c1, c2, stride=2, rng=rng)
        self.ctx_enc3 = Conv(self.store, "ctx_enc.conv3", c2 + c2, lc, rng=rng)
        self.ctx_hyper_enc = Conv(self.store, "ctx_hyper.enc", lc, hc, stride=2, rng=rng)
        self.ctx_hyper_dec = Conv(self.store, "ctx_hyper.dec", hc + c2, c2, rng=rng)
        self.ctx_head_mean = Conv(self.store, "ctx_hyper.mean", c2, lc, rng=rng)
        self.ctx_head_scale = Conv(self.store, "ctx_hyper.scale", c2, lc, rng=rng)
        self.ctx_dec1 = Conv(self.store, "ctx_dec.conv1", lc + c2, c2, rng=rng)
        self.ctx_dec2 = Conv(self.store, "ctx_dec.conv2", c2 + c1, c1, rng=rng)
        self.ctx_dec3 = Conv(self.store, "ctx_dec.conv3", c1 + c0, c0, rng=rng)
        self.store.add("ctx_prior.loc", np.zeros((hc, 1, 1)))
        self.store.add("ctx_prior.log_scale", np.zeros((hc, 1, 1)))

        # frame generator: two plain residual blocks, then the RGB head;
        # the trunk output doubles as the stored reference feature
        self.gen_in = Conv(self.store, "gen.conv_in", c0 + c0, c0, rng=rng)
        self.gen_res1 = ResBlock(self.store, "gen.res1", c0, rng)
        self.gen_res2 = ResBlock(self.store, "gen.res2", c0, rng)
        self.gen_out = Conv(self.store, "gen.conv_out", c0, 3, rng=rng, init_scale=0.1, bias_fill=0.5)

    # -- shapes ---------------------------------------------------------

    @staticmethod
    def latent_hw(h: int, w: int) -> tuple[int, int]:
        if h <= 0 or w <= 0 or h % 4 or w % 4:
            raise UsageError(f"frame size must be a positive multiple of 4, got {h}x{w}")
        return h // 4, w // 4

    def hyper_hw(self, h: int, w: int) -> tuple[int, int]:
        lh, lw = self.latent_hw(h, w)
        return conv_out_extent(lh, 2), conv_out_extent(lw, 2)

    # -- feature extraction ----------------------------------------------

    def extract_feature(self, x_rgb: Tensor) -> Tensor:
        return self.feat2(self.feat1(x_rgb, leaky=True))

    # -- motion path -----------------------------------------------------

    def mv_analyze(self, flow: Tensor) -> Tensor:
        return self.mv_enc2(self.mv_enc1(flow, leaky=True))

    def mv_hyper_analyze(self, y: Tensor) -> Tensor:
        return self.mv_hyper_enc(y)

    def mv_hyper_synthesize(self, z_hat: Tensor, latent_hw: tuple[int, int]) -> tuple[Tensor, Tensor]:
        h = self.mv_hyper_dec(bilinear_resize(z_hat, *latent_hw), leaky=True)
        return self.mv_head_mean(h), _to_scale(self.mv_head_scale(h))

    def mv_synthesize(self, y_hat: Tensor, frame_hw: tuple[int, int]) -> Tensor:
        h, w = frame_hw
        t = self.mv_dec1(y_hat, leaky=True)
        t = self.mv_dec2(bilinear_resize(t, h // 2, w // 2), leaky=True)
        return self.mv_dec3(bilinear_resize(t, h, w))

    # -- contextual path ---------------------------------------------------

    def ctx_analyze(self, x: Tensor, ctx: ContextPyramid) -> Tensor:
        h = self.ctx_enc1([x, ctx.c0], leaky=True)
        h = self.ctx_enc2([h, ctx.c1], leaky=True)
        return self.ctx_enc3([h, ctx.c2])

    def ctx_hyper_analyze(self, y: Tensor) -> Tensor:
        return self.ctx_hyper_enc(y)

    def ctx_hyper_synthesize(self, z_hat: Tensor, ctx: ContextPyramid, latent_hw: tuple[int, int]) -> tuple[Tensor, Tensor]:
        zi = bilinear_resize(z_hat, *latent_hw)
        h = self.ctx_hyper_dec([zi, ctx.c2], leaky=True)
        return self.ctx_head_mean(h), _to_scale(self.ctx_head_scale(h))

    def ctx_synthesize(self, y_hat: Tensor, ctx: ContextPyramid, frame_hw: tuple[int, int]) -> Tensor:
        h, w = frame_hw
        t = self.ctx_dec1([y_hat, ctx.c2], leaky=True)
        t = self.ctx_dec2([bilinear_resize(t, h // 2, w // 2), ctx.c1], leaky=True)
        return self.ctx_dec3([bilinear_resize(t, h, w), ctx.c0])

    def generate_frame(self, f_hat: Tensor, ctx_c0: Tensor) -> tuple[Tensor, Tensor]:
        trunk = self.gen_in([f_hat, ctx_c0], leaky=True)
        trunk = self.gen_res2(self.gen_res1(trunk))
        return self.gen_out(trunk), trunk

    # -- priors and rate terms ----------------------------------------------

    def prior_params(self, which: str) -> tuple[Tensor, Tensor]:
        """(loc, scale) of the factorized hyper prior, shaped (C, 1, 1)."""
        loc = self.store[f"{which}_prior.loc"]
        return loc, _to_scale(self.store[f"{which}_prior.log_scale"])

    def gaussian_rate_bits(self, values: Tensor, mean: Tensor, scale: Tensor) -> Tensor:
        """Differentiable unit-bin Gaussian code length, in bits."""
        return _bin_bits(values, mean, scale, std_normal_cdf)

    def factorized_rate_bits(self, values: Tensor, which: str) -> Tensor:
        """Differentiable unit-bin code length under the logistic hyper prior, in bits."""
        loc, scale = self.prior_params(which)
        return _bin_bits(values, loc, scale, sigmoid)

    # -- persistence -----------------------------------------------------

    def prepare_for_coding(self) -> int:
        """Snap parameters through float32 and return the weights hash.

        Guarantees the values used for arithmetic coding are exactly the
        values a decoder recovers from the weights file.
        """
        self.store.snap_to_f32()
        return self.store.weights_hash()

    def save(self, manifest_path: str | os.PathLike) -> None:
        """Write the weights file (module docstring) with its manifest at `manifest_path`.
        The binary holds the values rounded to float32; the store keeps its own."""
        path = _manifest_path(manifest_path)
        if path.suffix == ".bin":
            raise UsageError(f"manifest path {path} ends in .bin, the name its binary takes")
        hash_hex = f"{self.store.weights_hash():016x}"
        manifest = {"format": _FORMAT, "model": self.config.to_manifest(), "hash_fnv1a64": hash_hex}
        try:
            path.with_suffix(".bin").write_bytes(self.store.to_f32_bytes())
            path.write_text(json.dumps(manifest, indent=1))
        except OSError as err:
            raise UsageError(f"cannot write weights file {path}: {err}") from None

    @classmethod
    def load(cls, manifest_path: str | os.PathLike) -> "CodecModel":
        """The model a weights file holds; UsageError for a file that
        `save` would not have written (see the module docstring)."""
        path = _manifest_path(manifest_path)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            data = path.with_suffix(".bin").read_bytes()
        except (OSError, ValueError) as err:  # ValueError: bad JSON or bytes that are not UTF-8
            raise UsageError(f"cannot read weights file {path}: {err}") from None
        if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS or manifest["format"] != _FORMAT:
            raise UsageError(f"{path} is not a weights manifest with exactly the keys {sorted(_MANIFEST_KEYS)}")
        model = cls(ModelConfig.from_manifest(manifest["model"]), seed=0)
        model.store.load_f32_bytes(data)
        if f"{model.store.weights_hash():016x}" != manifest["hash_fnv1a64"]:
            raise UsageError(f"weights binary of {path} does not match the manifest's hash")
        return model


def _manifest_path(value) -> Path:
    if not isinstance(value, (str, os.PathLike)):
        raise UsageError(f"manifest path must be a str or path, got {value!r}")
    return Path(value)


def _bin_bits(values: Tensor, loc: Tensor, scale: Tensor, cdf) -> Tensor:
    """Summed -log2 of the unit-bin masses of `values` under the CDF
    `cdf((x - loc) / scale)`, floored at MIN_PROB as `estimate_bits` floors them.

    The bin mass is symmetric about `loc`, so it is taken at
    -|values - loc|: in the lower tail both CDF terms are small and their
    difference keeps its digits, where in the upper tail both would be
    near 1 and cancel.
    """
    d = values - loc
    u = d * Tensor(np.where(d.data > 0.0, -1.0, 1.0))
    mass = cdf((u + 0.5) / scale) - cdf((u - 0.5) / scale)
    return sum_all(log(clamp(mass, lo=MIN_PROB))) * Tensor(-1.0 / np.log(2.0))


def _to_scale(raw: Tensor) -> Tensor:
    return exp(clamp(raw, _LOG_SCALE_MIN, _LOG_SCALE_MAX))
