"""Tests for ModelConfig: the width family derived from one base width,
and the architecture rules its constructor checks; and for the weights
file that CodecModel saves and loads."""

import json
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


def _flip_one_bit(bin_path):
    data = bytearray(bin_path.read_bytes())
    data[1000] ^= 1
    bin_path.write_bytes(bytes(data))


def _point_at_another_binary(manifest, bin_path):
    """A data_file key naming, by absolute path, the binary of a model saved elsewhere."""
    (bin_path.parent / "elsewhere").mkdir()
    CodecModel(ModelConfig.toy(), seed=1).save(bin_path.parent / "elsewhere" / "w.json")
    manifest["data_file"] = str(bin_path.parent / "elsewhere" / "w.bin")


def _leave_out_the_default_fields(manifest, bin_path):
    """A default-width model's file whose model section gives only the fusion,
    so that the defaults would fill in n_ref and width."""
    CodecModel(ModelConfig(), seed=0).save(bin_path.with_suffix(".json"))
    manifest.update(json.loads(bin_path.with_suffix(".json").read_text()), model={"fusion": "butterfly"})


# each breaks a saved toy file, given its manifest (rewritten afterwards) and its binary's path
REFUSED_FILES = {
    "bin_one_bit_flipped": lambda m, b: _flip_one_bit(b),
    "bin_one_value_short": lambda m, b: b.write_bytes(b.read_bytes()[:-4]),
    "bin_one_value_over": lambda m, b: b.write_bytes(b.read_bytes() + bytes(4)),
    "hash_all_zeros": lambda m, b: m.update(hash_fnv1a64="0" * 16),
    "hash_as_int": lambda m, b: m.update(hash_fnv1a64=int(m["hash_fnv1a64"], 16)),
    "hash_missing": lambda m, b: m.pop("hash_fnv1a64"),
    "format_other": lambda m, b: m.update(format="other-weights"),
    "format_missing": lambda m, b: m.pop("format"),
    "version_99": lambda m, b: m.update(version=99),
    "data_file_elsewhere": _point_at_another_binary,
    "model_fusion_only": _leave_out_the_default_fields,
    "model_extra_key": lambda m, b: m["model"].update(mv_hyper=4),
    "model_not_an_object": lambda m, b: m.update(model=[4, "butterfly", 8]),
}


class TestWeightsFile:
    @pytest.mark.parametrize("break_file", REFUSED_FILES.values(), ids=REFUSED_FILES.keys())
    def test_refused_file_is_usage_error(self, tmp_path, break_file):
        path = tmp_path / "w.json"
        CodecModel(ModelConfig.toy(), seed=0).save(path)
        manifest = json.loads(path.read_text())
        break_file(manifest, tmp_path / "w.bin")
        path.write_text(json.dumps(manifest))
        with pytest.raises(UsageError):
            CodecModel.load(path)

    def test_untouched_file_loads(self, tmp_path):
        """The table above breaks files that load before the breaker runs."""
        path, model = tmp_path / "w.json", CodecModel(ModelConfig.toy(), seed=0)
        model.save(path)
        path.write_text(json.dumps(json.loads(path.read_text())))
        assert CodecModel.load(path).store.weights_hash() == model.store.weights_hash()

    def test_save_refuses_a_manifest_path_ending_in_bin(self, tmp_path):
        """Its binary would take the same name, and the manifest would overwrite it."""
        with pytest.raises(UsageError, match=".bin"):
            CodecModel(ModelConfig.toy(), seed=0).save(tmp_path / "w.bin")
        assert list(tmp_path.iterdir()) == []

    def test_save_into_a_missing_directory_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="cannot write"):
            CodecModel(ModelConfig.toy(), seed=0).save(tmp_path / "missing" / "w.json")
