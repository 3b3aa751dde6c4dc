"""Tests for the toy trainer: reproducibility, direction, and guards.

Heavier direction checks (thousands of steps) live in the acceptance
suite; these stay short.
"""

import tracemalloc

import numpy as np
import pytest

import bnvc.codec as codec
import bnvc.training as training
from bnvc.entropy import GaussianModel, LogisticModel, estimate_bits
from bnvc.errors import UsageError
from bnvc.fusion import FusionMode
from bnvc.metrics import RDPoint, psnr, rd_by_position
from bnvc.model import CodecModel, ModelConfig
from bnvc.policies import DuplicationPolicy
from bnvc.synth import generate_dataset
from bnvc.training import (
    Adam,
    TrainingConfig,
    TrainingDiverged,
    rollout_loss,
    train_toy,
)
from bnvc.tensor import Tensor


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(6, seed=11)


def _toy_model(seed=0, **kw):
    return CodecModel(ModelConfig.toy(**kw), seed=seed)


class TestRateTerms:
    def test_gaussian_rate_symmetric_in_the_far_tails(self):
        # 7 and 8 sigma out the bin masses (4e-11 and 3e-14) are above the
        # 2^-60 floor, and an upper-tail difference of two CDF values near 1
        # keeps about five digits at 7 sigma and two at 8.
        model = _toy_model()
        mean, scale = np.array([0.5]), np.array([1.0])
        bits = {}
        for v in (7.5, -6.5, 8.5, -7.5):
            bits[v] = float(model.gaussian_rate_bits(Tensor(np.array([v])), Tensor(mean), Tensor(scale)).data)
            want = estimate_bits([v], GaussianModel(mean, scale))
            assert abs(bits[v] - want) <= 1e-9 * want
        assert bits[7.5] == bits[-6.5]
        assert bits[8.5] == bits[-7.5]

    def test_logistic_rate_symmetric_in_the_far_tails(self):
        # 36 and 40 scales out the logistic bin masses (2.4e-16 and 4.4e-18)
        # are above the 2^-60 floor, but an upper-tail difference of two
        # sigmoids within a few ulps of 1 keeps none of their digits.
        model = _toy_model()
        model.store["mv_prior.loc"].data[...] = 0.5
        loc, scale = model.prior_params("mv")
        bits = {}
        for k in (36, -36, 40, -40):
            v = np.full(loc.shape, 0.5 + k)
            bits[k] = float(model.factorized_rate_bits(Tensor(v), "mv").data)
            want = estimate_bits(v.ravel(), LogisticModel(loc.data.ravel(), scale.data.ravel()))
            assert abs(bits[k] - want) <= 1e-9 * want
        assert bits[36] == bits[-36]
        assert bits[40] == bits[-40]


class TestAdam:
    def test_quadratic_minimization(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            from bnvc.tensor import sum_all

            loss = sum_all(p * p)
            loss.backward()
            opt.step()
        assert np.all(np.abs(p.data) < 0.05)

    def test_clip_global_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        opt = Adam([p])
        norm = opt.clip_global_norm(1.0)
        assert abs(norm - 20.0) < 1e-12
        assert abs(np.sqrt(np.sum(p.grad**2)) - 1.0) < 1e-12


class TestTrainToy:
    def test_zero_steps_leaves_weights_unchanged(self, dataset):
        model = _toy_model(seed=3)
        model.store.snap_to_f32()
        before = model.store.weights_hash()
        log = train_toy(model, dataset, TrainingConfig(steps=0))
        model.store.snap_to_f32()
        assert model.store.weights_hash() == before
        assert log.entries == []

    def test_fixed_seed_reproducible_log(self, dataset):
        logs = []
        for _ in range(2):
            model = _toy_model(seed=4)
            log = train_toy(model, dataset, TrainingConfig(lambda_index=2, steps=6, seed=123))
            logs.append([(e["loss"], e["bpp"], e["mse"]) for e in log.entries])
        assert logs[0] == logs[1]

    def test_loss_direction_short_run(self, dataset):
        model = _toy_model(seed=5)
        log = train_toy(model, dataset, TrainingConfig(lambda_index=2, steps=120, seed=9))
        losses = [e["loss"] for e in log.entries]
        assert np.mean(losses[100:120]) < np.mean(losses[0:20])

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_aborts_with_step_index(self, dataset):
        model = _toy_model(seed=6)
        with pytest.raises(TrainingDiverged) as exc:
            train_toy(model, dataset, TrainingConfig(steps=50, seed=1, lr=1e9))
        assert exc.value.step >= 0

    def test_short_sequences_rejected(self):
        model = _toy_model()
        with pytest.raises(UsageError):
            train_toy(model, [np.zeros((3, 3, 32, 32), np.uint8)], TrainingConfig(steps=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(UsageError):
            train_toy(_toy_model(), [], TrainingConfig(steps=1))


class TestRolloutParity:
    def test_motion_searched_against_stored_uint8_reference(self, dataset, monkeypatch):
        """Training searches motion on the uint8 pixels the codec stores: each
        rollout frame against the newest stored Frame's pixels."""
        searched, stored = [], []
        real_search, real_step = codec.estimate_motion, training.inter_step

        def search(cur, ref, **kw):
            searched.append((np.array(cur), np.array(ref)))
            return real_search(cur, ref, **kw)

        def step(model, x, refs, policy, bottleneck):
            stored.append(np.array(refs[-1].pixels))
            return real_step(model, x, refs, policy, bottleneck)

        monkeypatch.setattr(codec, "estimate_motion", search)
        monkeypatch.setattr(training, "inter_step", step)
        window = dataset[0][:4]
        rollout_loss(_toy_model(seed=2), window, np.random.default_rng(0), 1024.0, DuplicationPolicy.NEAR)
        assert len(searched) == len(stored) == 3
        np.testing.assert_array_equal(stored[0], window[0])
        for t, ((cur, ref), pixels) in enumerate(zip(searched, stored), start=1):
            assert cur.dtype == ref.dtype == np.uint8
            np.testing.assert_array_equal(cur, window[t])
            np.testing.assert_array_equal(ref, pixels)


class TestRolloutGradients:
    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_every_parameter_gets_a_gradient(self, dataset, mode):
        """The intra frame's extracted feature stays in the training graph, so
        one 5-frame rollout reaches every parameter, the extractor's too."""
        model = _toy_model(fusion=mode)
        params, names = model.store.tensors(), model.store.names()
        model.store.set_requires_grad(True)
        try:
            loss, _, _ = rollout_loss(model, dataset[0][:5], np.random.default_rng(0), 1024.0, DuplicationPolicy.NEAR)
            loss.backward()
        finally:
            model.store.set_requires_grad(False)
        zero = [name for name, p in zip(names, params) if p.grad is None or not np.any(p.grad)]
        assert not zero, f"no gradient reaches {zero}"


class TestTrainingMemory:
    def test_peak_stays_near_one_step_graph(self, dataset):
        """backward frees each step's graph, so the next forward pass does
        not hold two graphs at once (2.8x one graph when it did)."""
        config = TrainingConfig(steps=3, seed=0, rollout=4)
        window = dataset[0][: config.rollout + 1]
        model = _toy_model()
        model.store.set_requires_grad(True)
        rollout_loss(model, window, np.random.default_rng(0), config.lam, config.policy)  # fills the grid caches
        tracemalloc.start()
        try:
            graph = rollout_loss(model, window, np.random.default_rng(0), config.lam, config.policy)
            one_graph = tracemalloc.get_traced_memory()[1]
            del graph
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train_toy(_toy_model(), dataset, config)
            train_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert train_peak <= 1.5 * one_graph, (train_peak, one_graph)


    def test_one_rollout_graph_holds_at_most_20_mb(self, dataset):
        """Fused conv epilogues keep a bool mask per leaky ReLU and no
        pre-activation or residual sum, and warps keep no gathers: one
        rollout-4 graph of the toy model held 30.1 MB (MiB) when they did."""
        config = TrainingConfig(rollout=4)
        window = dataset[0][: config.rollout + 1]
        model = _toy_model()
        model.store.set_requires_grad(True)
        rollout_loss(model, window, np.random.default_rng(0), config.lam, config.policy)  # fills the grid caches
        tracemalloc.start()
        try:
            graph = rollout_loss(model, window, np.random.default_rng(0), config.lam, config.policy)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del graph
        assert held <= 20 * 2**20, held


class TestEvaluation:
    def test_all_entry_sums_the_p_frames(self, dataset):
        model = _toy_model(seed=7)
        seq = dataset[0]
        _, stats, recons = codec.encode_sequence(seq, model, lambda_index=1)
        p = [i for i, kind in enumerate(stats.frame_types) if kind == "P"]
        h, w = seq.shape[2:]
        assert stats.n_ref == model.config.n_ref
        assert rd_by_position([stats])["all"] == RDPoint(
            sum(stats.frame_bits[i] for i in p) / (len(p) * h * w),
            float(np.mean([psnr(seq[i], recons[i]) for i in p])),
        )

    def test_short_gop_is_all_padded(self, dataset):
        model = _toy_model(seed=8)
        for policy in DuplicationPolicy:
            _, stats, _ = codec.encode_sequence(dataset[0][:4], model, policy, intra_period=4)
            out = rd_by_position([stats])
            assert "past_intra" not in out
            assert out["padded"].bpp > 0 and np.isfinite(out["padded"].psnr)
