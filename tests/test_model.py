"""Tests for ModelConfig: the width family derived from one base width,
and the architecture rules its constructor checks."""

from dataclasses import fields

import pytest

from bnvc.errors import UsageError
from bnvc.fusion import FusionMode
from bnvc.model import CodecModel, ModelConfig


class TestModelConfig:
    def test_three_init_fields(self):
        assert [f.name for f in fields(ModelConfig)] == ["n_ref", "fusion", "width"]

    @pytest.mark.parametrize(
        "config, ctx_channels, motion_latent, mv_hyper, context_latent, ctx_hyper",
        [
            (ModelConfig(), (16, 24, 32), 16, 8, 24, 12),
            (ModelConfig.toy(), (8, 12, 16), 8, 4, 12, 6),
            (ModelConfig(width=4), (4, 6, 8), 4, 2, 6, 3),
        ],
        ids=["default", "toy", "width4"],
    )
    def test_widths_derive_from_one_base_width(self, config, ctx_channels, motion_latent, mv_hyper, context_latent, ctx_hyper):
        assert config.ctx_channels == ctx_channels
        assert (config.mv_hyper, config.ctx_hyper) == (mv_hyper, ctx_hyper)
        store = CodecModel(config, seed=0).store
        assert store["mv_enc.conv2.w"].data.shape[0] == motion_latent
        assert store["ctx_enc.conv3.w"].data.shape[0] == context_latent

    def test_fusion_given_by_name_refused(self):
        """A string is not a FusionMode; it must not build some other mode."""
        with pytest.raises(UsageError, match="FusionMode"):
            ModelConfig.toy(fusion="butterfly")

    @pytest.mark.parametrize("n_ref", [0, 256, 2.0])
    def test_n_ref_outside_header_range_refused(self, n_ref):
        with pytest.raises(UsageError, match="n_ref"):
            ModelConfig(n_ref=n_ref)

    @pytest.mark.parametrize("width", [0, 6, -8, 8.0])
    def test_width_not_a_positive_multiple_of_4_refused(self, width):
        with pytest.raises(UsageError, match="width"):
            ModelConfig(width=width)

    def test_manifest_round_trip(self):
        config = ModelConfig(n_ref=2, fusion=FusionMode.TOGETHER, width=12)
        assert config.to_manifest() == {"n_ref": 2, "fusion": "together", "width": 12}
        assert ModelConfig.from_manifest(config.to_manifest()) == config
