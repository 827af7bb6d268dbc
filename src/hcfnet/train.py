"""Training, evaluation and single-image inference.

The loop is deterministic end to end: batch order and dropout draws are
derived from (seed, epoch, step), so training from a restored checkpoint
continues the exact trajectory of an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .checkpoint import restore_network, save_checkpoint
from .data import Sample, SyntheticConfig, generate_dataset, load_dataset
from .errors import ConfigError, ShapeError
from .losses import deep_supervision_loss
from .metrics import iou_metric, niou_metric
from .network import Network, NetworkConfig, build_network
from .optim import BETA1, BETA2, EPS, Adam, check_hyper
from .tensor import Tensor, _sigmoid, backward, no_grad, zero_grads

__all__ = ["TrainConfig", "TrainResult", "train", "evaluate", "predict_probs", "infer_image"]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 8
    batch_size: int = 4
    lr: float = 1e-3
    seed: int = 0
    data_dir: str | None = None
    synthetic_n: int = 8
    synthetic_seed: int = 0
    image_size: int = 64
    checkpoint_path: str | None = None
    resume_from: str | None = None

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_hyper({"lr": self.lr, "beta1": BETA1, "beta2": BETA2, "eps": EPS})
        for name in ("seed", "synthetic_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.synthetic_n < 1:
            raise ConfigError(f"synthetic_n must be >= 1, got {self.synthetic_n}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")


@dataclass
class TrainResult:
    network: Network
    log_lines: list[str] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    epoch_ious: list[float] = field(default_factory=list)


def load_training_samples(net_config: NetworkConfig, train_config: TrainConfig) -> list[Sample]:
    """Load the PGM directory if one is configured, else generate scenes."""
    if train_config.data_dir is not None:
        samples = load_dataset(train_config.data_dir)
    else:
        synth = SyntheticConfig(
            height=train_config.image_size,
            width=train_config.image_size,
            seed=train_config.synthetic_seed,
        )
        samples = generate_dataset(synth, train_config.synthetic_n)
    shape = samples[0].image.shape
    factor = net_config.extent_multiple
    for sample in samples:
        if sample.image.shape != shape or sample.mask.shape != shape:
            raise ShapeError(f"sample '{sample.sample_id}' does not match shape {shape}")
    if shape[0] != net_config.in_channels:
        raise ConfigError(
            f"network expects {net_config.in_channels} channels, samples have {shape[0]}"
        )
    if shape[1] % factor or shape[2] % factor:
        raise ConfigError(f"sample extents {shape[1]}x{shape[2]} must be divisible by {factor}")
    return samples


def _batch_tensors(samples: list[Sample], indices: np.ndarray) -> tuple[Tensor, Tensor]:
    images = np.stack([samples[i].image for i in indices])
    masks = np.stack([samples[i].mask for i in indices])
    return Tensor(images), Tensor(masks)


def predict_probs(network: Network, images: list[np.ndarray], batch_size: int = 4) -> list[np.ndarray]:
    """Finest-scale probability map per [C, H, W] image, eval mode, no gradients.

    A batch holds up to ``batch_size`` consecutive images of one extent; a
    change of extent starts a new batch, so each image is scored at its own.
    Each batch is zero-padded on the bottom and right up to the stride the
    stage count requires, and each map is cropped back to its image.
    """
    factor = network.config.extent_multiple
    probs: list[np.ndarray] = []
    with no_grad():
        for (_, h, w), same_extent in groupby(images, key=np.shape):
            run = list(same_extent)
            pad = ((0, 0), (0, 0), (0, -h % factor), (0, -w % factor))
            for start in range(0, len(run), batch_size):
                batch = np.pad(np.stack(run[start : start + batch_size]), pad)
                logits = network(Tensor(batch), train=False)[0].data
                probs.extend(_sigmoid(logit[0, :h, :w]) for logit in logits)
    return probs


def evaluate(
    network: Network,
    samples: list[Sample],
    batch_size: int = 4,
    threshold: float = 0.5,
) -> dict:
    """Dataset IoU and normalized IoU of the finest-scale predictions."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    probs = predict_probs(network, [sample.image for sample in samples], batch_size)
    masks = [sample.mask[0] for sample in samples]
    return {
        "iou": iou_metric(probs, masks, threshold),
        "niou": niou_metric(probs, masks, threshold),
        "n_images": len(samples),
    }


def infer_image(network: Network, image: np.ndarray) -> np.ndarray:
    """Probability map for one [H, W] image in [0, 1], padded and cropped
    as ``predict_probs`` does."""
    if image.ndim != 2:
        raise ShapeError(f"infer_image expects a 2-D image, got shape {image.shape}")
    return predict_probs(network, [image[None]], batch_size=1)[0]


def train(net_config: NetworkConfig, train_config: TrainConfig, log=None) -> TrainResult:
    """Run the training loop and return the network plus per-epoch records.

    Emits one ``epoch=<i> loss=<mean> iou=<train iou>`` line per epoch.  When
    a checkpoint path is set, the state is written after every epoch (and
    once before the first).  An op that produces a non-finite value raises
    ``ContractError`` from ``tensor.record``, so a diverging step stops the
    run before it can write, and the last good state stays on disk.
    """
    net_config.validate()
    train_config.validate()
    samples = load_training_samples(net_config, train_config)

    if train_config.resume_from is None:
        network, snapshot = build_network(net_config, seed=train_config.seed), None
    else:
        network, snapshot = restore_network(train_config.resume_from)
        if snapshot["config"] != net_config:
            raise ConfigError("checkpoint config does not match the requested network config")
        if snapshot["optimizer"] is None:
            raise ConfigError("checkpoint has no optimizer state to resume from")
        meta = snapshot["meta"]
        if meta.get("seed", train_config.seed) != train_config.seed:
            raise ConfigError(
                f"checkpoint was trained with seed {meta.get('seed')}, "
                f"got seed {train_config.seed}"
            )
    optimizer = Adam(list(network.named_parameters()), lr=train_config.lr)
    start_epoch = 1
    if snapshot is not None:
        hyper = snapshot["optimizer"]["hyper"]
        if hyper != optimizer.hyper:
            raise ConfigError(f"checkpoint was trained with Adam {hyper}, not {optimizer.hyper}")
        optimizer.load_state_dict(snapshot["optimizer"])
        start_epoch = meta.get("epoch", 0) + 1

    def dump(epoch: int) -> None:
        if train_config.checkpoint_path is not None:
            save_checkpoint(
                train_config.checkpoint_path,
                network,
                optimizer_state=optimizer.state_dict(),
                meta={"epoch": epoch, "seed": train_config.seed},
            )

    result = TrainResult(network=network)
    dump(start_epoch - 1)
    count = len(samples)
    for epoch in range(start_epoch, train_config.epochs + 1):
        order = np.random.default_rng([train_config.seed, 7919, epoch]).permutation(count)
        losses = []
        for step, start in enumerate(range(0, count, train_config.batch_size)):
            images, masks = _batch_tensors(samples, order[start : start + train_config.batch_size])
            step_rng = np.random.default_rng([train_config.seed, 104729, epoch, step])
            zero_grads(network.parameters())
            logits = network(images, train=True, rng=step_rng)
            loss = deep_supervision_loss(logits, masks, net_config.loss_weights)
            losses.append(loss.item())
            backward(loss)
            optimizer.step()
        iou = evaluate(network, samples, train_config.batch_size)["iou"]
        mean_loss = float(np.mean(losses))
        line = f"epoch={epoch} loss={mean_loss:.6f} iou={iou:.6f}"
        result.log_lines.append(line)
        result.epoch_losses.append(mean_loss)
        result.epoch_ious.append(iou)
        if log is not None:
            log(line)
        dump(epoch)
    return result
