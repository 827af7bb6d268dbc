"""Tests for the training loop: determinism, logging, checkpointing, resume,
evaluation and single-image inference."""

import re

import numpy as np
import pytest

from hcfnet.checkpoint import load_checkpoint, restore_network
from hcfnet.data import SyntheticConfig, generate_dataset, save_dataset
from hcfnet.errors import ConfigError, ContractError, ShapeError
from hcfnet.network import NetworkConfig, build_network
from hcfnet.optim import Adam
from hcfnet.tensor import Tensor, no_grad
from hcfnet.train import (
    TrainConfig,
    evaluate,
    infer_image,
    load_training_samples,
    predict_probs,
    train,
)

TOY_NET = NetworkConfig(stages=2, widths=(8, 8), dropout=0.1, loss_weights=(1.0, 0.5))


def toy_train(**overrides):
    base = dict(
        epochs=2,
        batch_size=2,
        lr=1e-3,
        seed=0,
        synthetic_n=4,
        synthetic_seed=0,
        image_size=16,
    )
    base.update(overrides)
    return TrainConfig(**base)


LOG_LINE = re.compile(r"^epoch=(\d+) loss=(\d+\.\d{6}) iou=(\d+\.\d{6})$")


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": float("inf")},
            {"lr": float("nan")},
            {"lr": -1e-3},
            {"lr": True},
            {"seed": -1},
            {"synthetic_seed": -3},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            toy_train(**kwargs).validate()


class TestTrainLoop:
    def test_smoke_run_finite(self):
        result = train(TOY_NET, toy_train(epochs=1))
        assert len(result.epoch_losses) == 1
        assert np.isfinite(result.epoch_losses[0])

    def test_log_line_format(self):
        result = train(TOY_NET, toy_train())
        assert len(result.log_lines) == 2
        for i, line in enumerate(result.log_lines, start=1):
            match = LOG_LINE.match(line)
            assert match is not None, line
            assert int(match.group(1)) == i

    def test_identical_seed_identical_logs(self):
        a = train(TOY_NET, toy_train())
        b = train(TOY_NET, toy_train())
        assert a.log_lines == b.log_lines

    def test_seed_changes_trajectory(self):
        a = train(TOY_NET, toy_train())
        b = train(TOY_NET, toy_train(seed=1))
        assert a.log_lines != b.log_lines

    def test_loss_decreases_over_epochs(self):
        result = train(TOY_NET, toy_train(epochs=8))
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            toy_train(epochs=0).validate()
        with pytest.raises(ConfigError):
            toy_train(batch_size=0).validate()
        with pytest.raises(ConfigError):
            toy_train(lr=0.0).validate()

    def test_sample_shape_mismatch_rejected(self, tmp_path):
        samples = generate_dataset(SyntheticConfig(height=16, width=16, seed=0), 2)
        samples += generate_dataset(SyntheticConfig(height=32, width=32, seed=1), 1)
        save_dataset(samples, str(tmp_path))
        with pytest.raises(ShapeError):
            train(TOY_NET, toy_train(data_dir=str(tmp_path)))

    def test_indivisible_samples_rejected(self, tmp_path):
        cfg = NetworkConfig(stages=3, widths=(8, 8, 8), loss_weights=(1.0, 0.5, 0.25))
        samples = generate_dataset(SyntheticConfig(height=18, width=18, seed=0), 2)
        save_dataset(samples, str(tmp_path))
        with pytest.raises(ConfigError, match="divisible"):
            train(cfg, toy_train(data_dir=str(tmp_path)))


class TestCheckpointing:
    def test_checkpoint_written_every_epoch(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        seen = []

        def spy(line):
            seen.append(load_checkpoint(path)["meta"]["epoch"])

        train(TOY_NET, toy_train(checkpoint_path=path), log=spy)
        # The log callback fires before the epoch dump, so the file on disk
        # trails by one epoch at that point; afterwards it holds the last.
        assert seen == [0, 1]
        assert load_checkpoint(path)["meta"]["epoch"] == 2

    def test_final_checkpoint_reproduces_forward(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        result = train(TOY_NET, toy_train(checkpoint_path=path))
        restored, _ = restore_network(path)
        x = Tensor(np.random.default_rng(3).uniform(size=(1, 1, 16, 16)))
        with no_grad():
            want = [z.data.copy() for z in result.network(x, train=False)]
            got = [z.data.copy() for z in restored(x, train=False)]
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        full_path = str(tmp_path / "full.ckpt")
        half_path = str(tmp_path / "half.ckpt")
        full = train(TOY_NET, toy_train(epochs=4, checkpoint_path=full_path))
        train(TOY_NET, toy_train(epochs=2, checkpoint_path=half_path))
        resumed = train(
            TOY_NET,
            toy_train(epochs=4, checkpoint_path=half_path, resume_from=half_path),
        )
        assert resumed.log_lines == full.log_lines[2:]
        for (_, pa), (_, pb) in zip(
            full.network.named_parameters(), resumed.network.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_diverging_step_leaves_last_good_state(self, tmp_path, monkeypatch):
        good_path = str(tmp_path / "good.ckpt")
        good = train(TOY_NET, toy_train(epochs=1, checkpoint_path=good_path))
        real_step = Adam.step

        def overflowing_step(self):
            real_step(self)
            if self.step_count == 3:  # the first step of epoch 2
                self.items[0][1].data[...] = 1e300

        monkeypatch.setattr(Adam, "step", overflowing_step)
        path = str(tmp_path / "model.ckpt")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ContractError):
            train(TOY_NET, toy_train(epochs=2, checkpoint_path=path))
        with open(path, "rb") as fh, open(good_path, "rb") as fh_good:
            assert fh.read() == fh_good.read()
        restored, snapshot = restore_network(path)
        assert snapshot["meta"]["epoch"] == 1
        for (_, want), (_, got) in zip(
            good.network.named_parameters(), restored.named_parameters()
        ):
            assert want.data.tobytes() == got.data.tobytes()

    def test_resume_rejects_config_mismatch(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        train(TOY_NET, toy_train(checkpoint_path=path))
        other = NetworkConfig(stages=2, widths=(8, 8), dropout=0.0, loss_weights=(1.0, 0.5))
        with pytest.raises(ConfigError):
            train(other, toy_train(epochs=3, resume_from=path))

    def test_resume_rejects_seed_mismatch(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        train(TOY_NET, toy_train(checkpoint_path=path))
        with pytest.raises(ConfigError):
            train(TOY_NET, toy_train(epochs=3, seed=99, resume_from=path))

    def test_resume_rejects_adam_mismatch(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        train(TOY_NET, toy_train(checkpoint_path=path))
        with pytest.raises(ConfigError, match="Adam"):
            train(TOY_NET, toy_train(epochs=3, lr=0.5, resume_from=path))


class TestEvaluateAndInfer:
    def test_evaluate_ranges_and_count(self):
        samples = load_training_samples(TOY_NET, toy_train())
        net = build_network(TOY_NET, seed=0)
        report = evaluate(net, samples)
        assert report["n_images"] == 4
        assert 0.0 <= report["iou"] <= 1.0
        assert 0.0 <= report["niou"] <= 1.0

    def test_single_image_iou_equals_niou(self):
        samples = load_training_samples(TOY_NET, toy_train(synthetic_n=1))
        net = build_network(TOY_NET, seed=0)
        report = evaluate(net, samples[:1])
        assert report["iou"] == report["niou"]

    def test_infer_matches_batched_forward(self):
        net = build_network(TOY_NET, seed=1)
        image = np.random.default_rng(4).uniform(size=(16, 16))
        probs = infer_image(net, image)
        with no_grad():
            logits = net(Tensor(image[None, None]), train=False)[0].data[0, 0]
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12)

    def test_infer_pads_and_crops(self):
        net = build_network(TOY_NET, seed=2)
        image = np.random.default_rng(5).uniform(size=(15, 10))
        probs = infer_image(net, image)
        assert probs.shape == (15, 10)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_infer_padding_is_zero(self):
        # Padding with zeros must equal inference on an explicitly zero-padded
        # image cropped back.
        net = build_network(TOY_NET, seed=3)
        image = np.random.default_rng(6).uniform(size=(15, 10))
        padded = np.zeros((16, 10))
        padded[:15] = image
        np.testing.assert_allclose(
            infer_image(net, image), infer_image(net, padded)[:15], atol=1e-12
        )

    def test_predict_probs_keeps_each_extent(self):
        config = NetworkConfig(stages=3, widths=(8, 8, 8), loss_weights=(1.0, 0.5, 0.25))
        net = build_network(config, seed=6)
        rng = np.random.default_rng(8)
        images = [rng.uniform(size=(1, n, n)) for n in (30, 30, 32, 30)]
        probs = predict_probs(net, images, batch_size=2)
        assert [p.shape for p in probs] == [(30, 30), (30, 30), (32, 32), (30, 30)]
        assert all(np.all((p >= 0.0) & (p <= 1.0)) for p in probs)

    def test_infer_rejects_bad_rank(self):
        net = build_network(TOY_NET, seed=4)
        with pytest.raises(ShapeError):
            infer_image(net, np.zeros((1, 16, 16)))

    def test_deterministic_across_calls(self):
        net = build_network(TOY_NET, seed=5)
        image = np.random.default_rng(7).uniform(size=(16, 16))
        np.testing.assert_array_equal(infer_image(net, image), infer_image(net, image))
