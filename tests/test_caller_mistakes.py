"""Caller mistakes at the public entry points raise UsageError, never a raw
numpy or Python exception, and never code a stream the caller did not ask
for. Every bytes-like stream still decodes."""

import numpy as np
import pytest

from bnvc.codec import decode_sequence, encode_sequence, intra_frame
from bnvc.errors import UsageError
from bnvc.metrics import RDPoint, bd_rate, psnr, rd_by_position
from bnvc.model import CodecModel, ModelConfig
from bnvc.motion import estimate_motion
from bnvc.policies import DuplicationPolicy
from bnvc.synth import generate_dataset, generate_sequence
from bnvc.tensor import Tensor, bilinear_resize, conv2d
from bnvc.training import TrainingConfig, train_toy

NEAR = DuplicationPolicy.NEAR
X = Tensor(np.zeros((2, 8, 8)))
W, B = Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(3))


@pytest.fixture(scope="module")
def coded():
    model = CodecModel(ModelConfig.toy(), seed=0)
    frames = generate_sequence(32, 32, 3, seed=0)
    data, _, recons = encode_sequence(frames, model, NEAR)
    return model, frames, data, recons


MISTAKES = {
    "encode_lambda_index_str": lambda m, f, d: encode_sequence(f, m, NEAR, lambda_index="2"),
    "encode_lambda_index_float": lambda m, f, d: encode_sequence(f, m, NEAR, lambda_index=2.0),
    "encode_intra_period_float": lambda m, f, d: encode_sequence(f, m, NEAR, intra_period=1.5),
    # True == 1, so it was taken as a period of 1: every frame intra
    "encode_intra_period_bool": lambda m, f, d: encode_sequence(f, m, NEAR, intra_period=True),
    "encode_model_none": lambda m, f, d: encode_sequence(f, None, NEAR),
    "encode_ragged_frames": lambda m, f, d: encode_sequence(
        [np.zeros((3, 32, 32), np.uint8), np.zeros((3, 32, 16), np.uint8)], m, NEAR
    ),
    "decode_model_none": lambda m, f, d: decode_sequence(d, None),
    "decode_stream_none": lambda m, f, d: decode_sequence(None, m),
    "decode_stream_str": lambda m, f, d: decode_sequence("abc", m),
    "training_lambda_index_str": lambda m, f, d: TrainingConfig(lambda_index="1"),
    "training_steps_float": lambda m, f, d: TrainingConfig(steps=1.5),
    "training_rollout_float": lambda m, f, d: TrainingConfig(rollout=2.0),
    "training_seed_negative": lambda m, f, d: TrainingConfig(seed=-1),
    "training_seed_float": lambda m, f, d: TrainingConfig(seed=1.5),
    "training_lr_str": lambda m, f, d: TrainingConfig(lr="x"),
    "training_lr_nan": lambda m, f, d: TrainingConfig(lr=float("nan")),
    "training_lr_bool": lambda m, f, d: TrainingConfig(lr=True),
    "rd_by_position_empty": lambda m, f, d: rd_by_position([]),
    "rd_by_position_none": lambda m, f, d: rd_by_position(None),
    "rd_by_position_frames": lambda m, f, d: rd_by_position([f]),
    "rd_by_position_mixed_n_ref": lambda m, f, d: rd_by_position(
        [encode_sequence(f, m, NEAR)[1], encode_sequence(f, CodecModel(ModelConfig.toy(n_ref=2)), NEAR)[1]]
    ),
    "train_toy_3d_sequence": lambda m, f, d: train_toy(
        CodecModel(ModelConfig.toy()), [np.zeros((6, 32, 32), np.uint8)], TrainingConfig(steps=1)
    ),
    "model_seed_negative": lambda m, f, d: CodecModel(ModelConfig.toy(), seed=-1),
    "model_config_str": lambda m, f, d: CodecModel("toy"),
    "model_config_none": lambda m, f, d: CodecModel(None),
    "model_load_int": lambda m, f, d: CodecModel.load(123),
    "model_save_int": lambda m, f, d: m.save(123),
    "train_toy_dataset_int": lambda m, f, d: train_toy(m, 5, TrainingConfig(steps=1)),
    # a str index was stored, and the next frame's index refs[-1].index + 1 raised TypeError
    "intra_frame_index_str": lambda m, f, d: intra_frame(m, f[0], "0"),
    "train_toy_model_none": lambda m, f, d: train_toy(None, [f], TrainingConfig(steps=1, rollout=1)),
    "train_toy_config_none": lambda m, f, d: train_toy(m, [f], None),
    # without a check here, pad_references refuses it only at the first training step
    "training_policy_str": lambda m, f, d: TrainingConfig(policy="near"),
    "synth_n_frames_negative": lambda m, f, d: generate_sequence(n_frames=-1),
    "synth_n_frames_float": lambda m, f, d: generate_sequence(n_frames=2.5),
    # returned an empty (0, 3, 32, 32) array
    "synth_n_frames_zero": lambda m, f, d: generate_sequence(n_frames=0),
    "synth_seed_negative": lambda m, f, d: generate_sequence(seed=-1),
    "synth_width_float": lambda m, f, d: generate_sequence(width=32.0),
    # 12 is the smallest side whose rectangles fit; 8 raised numpy's "low >= high"
    "synth_sides_8": lambda m, f, d: generate_sequence(width=8, height=8),
    "synth_dataset_count_str": lambda m, f, d: generate_dataset("a"),
    "synth_dataset_count_zero": lambda m, f, d: generate_dataset(0),
    # any truthy value drew the blinker
    "synth_occlusion_str": lambda m, f, d: generate_sequence(n_frames=4, occlusion="no"),
    # these raised ZeroDivisionError, ValueError, TypeError, TypeError, TypeError and TypeError
    "motion_block_zero": lambda m, f, d: estimate_motion(f[0], f[0], block=0),
    "motion_block_negative": lambda m, f, d: estimate_motion(f[0], f[0], block=-8),
    "motion_block_float": lambda m, f, d: estimate_motion(f[0], f[0], block=2.0),
    "resize_float_height": lambda m, f, d: bilinear_resize(X, 2.5, 3),
    "conv2d_stride_float": lambda m, f, d: conv2d(X, W, B, stride=2.0),
    "conv2d_stride_str": lambda m, f, d: conv2d(X, W, B, stride="1"),
    # raised AttributeError: 'int' object has no attribute 'bpp'
    "bd_rate_ints": lambda m, f, d: bd_rate([1, 2, 3, 4], [1, 2, 3, 4]),
    # RDPoint took any value, and bd_rate raised numpy's ValueError on a str field
    "rd_point_bpp_str": lambda m, f, d: RDPoint("a", 1.0),
    "rd_point_psnr_none": lambda m, f, d: RDPoint(1.0, None),
    "bd_rate_bpp_str": lambda m, f, d: bd_rate([RDPoint("a", 1.0)] * 4, [RDPoint(1.0, 1.0)] * 4),
    "bd_rate_psnr_str": lambda m, f, d: bd_rate([RDPoint(1.0, "x")] * 4, [RDPoint(1.0, 1.0)] * 4),
    # these raised numpy's ValueError, ValueError, and returned nan
    "psnr_str": lambda m, f, d: psnr("abc", "abd"),
    "psnr_ragged": lambda m, f, d: psnr([[1, 2], [3]], [[1, 2], [3]]),
    "psnr_none": lambda m, f, d: psnr(None, None),
}


@pytest.mark.parametrize("call", MISTAKES.values(), ids=MISTAKES.keys())
def test_caller_mistake_is_usage_error(coded, call):
    model, frames, data, _ = coded
    with pytest.raises(UsageError):
        call(model, frames, data)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda f: rd_by_position([f]), "ndarray of uint8 (3, 3, 32, 32)"),
        (lambda f: CodecModel([f]), "[array([[["),
    ],
    ids=["array", "list_of_arrays"],
)
def test_refusal_names_the_value_on_one_line(coded, call, shown):
    _, frames, _, _ = coded
    with pytest.raises(UsageError) as err:
        call(frames)
    assert shown in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_bytes_like_streams_decode_to_the_recons(coded, wrap):
    model, _, data, recons = coded
    decoded, _ = decode_sequence(wrap(data), model)
    np.testing.assert_array_equal(decoded, recons)
