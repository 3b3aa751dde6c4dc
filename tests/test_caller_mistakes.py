"""Caller mistakes at the public entry points raise UsageError, never a raw
numpy or Python exception, and never code a stream the caller did not ask
for. Every bytes-like stream still decodes."""

import numpy as np
import pytest

from bnvc.codec import decode_sequence, encode_sequence, intra_frame
from bnvc.errors import UsageError
from bnvc.model import CodecModel, ModelConfig
from bnvc.policies import DuplicationPolicy
from bnvc.synth import generate_sequence
from bnvc.training import TrainingConfig, evaluate_coding, train_toy

NEAR = DuplicationPolicy.NEAR


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
    "evaluate_lambda_index_str": lambda m, f, d: evaluate_coding(m, [f], "2"),
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
}


@pytest.mark.parametrize("call", MISTAKES.values(), ids=MISTAKES.keys())
def test_caller_mistake_is_usage_error(coded, call):
    model, frames, data, _ = coded
    with pytest.raises(UsageError):
        call(model, frames, data)


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_bytes_like_streams_decode_to_the_recons(coded, wrap):
    model, _, data, recons = coded
    decoded, _ = decode_sequence(wrap(data), model)
    np.testing.assert_array_equal(decoded, recons)
