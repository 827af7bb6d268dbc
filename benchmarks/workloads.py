"""The three benchmark workloads, driven through hcfnet's public API.

Each workload prepares its inputs from a seed (untimed), then offers a timed
``setup`` and a timed ``unit`` of work.  Every call into hcfnet goes through
the module attribute at call time, so the tracer's wraps apply.  A failed
output check raises ``CheckFailed``.

- ``train-64``: ``train()`` on 8 synthetic 64x64 scenes, batch 4, dropout
  0, with a checkpoint path, as ``hcfnet train`` does.  One unit is one
  ``train()`` call of ``TRAIN_EPOCHS`` epochs.
- ``infer-large``: read a synthetic PGM frame, ``infer_image``, write the
  probability and mask PGMs, as ``hcfnet infer`` does.  One unit is a
  256x256 frame followed by a 512x512 frame.
- ``eval-64``: ``load_dataset`` on a PGM directory of 16 synthetic 64x64
  scenes, then ``evaluate`` at batch 4, as ``hcfnet eval`` does.  One unit
  is one such pass.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from tracer import Patcher

train_mod = importlib.import_module("hcfnet.train")
data_mod = importlib.import_module("hcfnet.data")
checkpoint_mod = importlib.import_module("hcfnet.checkpoint")
network_mod = importlib.import_module("hcfnet.network")
optim_mod = importlib.import_module("hcfnet.optim")

# Seed 3 with data seed 156 is the acceptance overfit pair.
DATA_SEED_OFFSET = 153
NET_CONFIG = network_mod.NetworkConfig(dropout=0.0)
BATCH = 4
TRAIN_SCENES = 8
TRAIN_EPOCHS = 3
EVAL_SCENES = 16
FRAME_SIZES = (256, 512)
FRAME_POOL = 2
THRESHOLD = 0.5
EPOCH_LINE = re.compile(r"epoch=(\d+) loss=(\d+\.\d{6}) iou=(\d+\.\d{6})")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Unit:
    """Samples of one unit of work, keyed by metric, plus its wall windows."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    windows: list[tuple[float, float]] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


def _write_checkpoint(path: str, seed: int) -> None:
    """A checkpoint as ``hcfnet train`` writes it: weights plus Adam state."""
    network = network_mod.build_network(NET_CONFIG, seed=seed)
    adam = optim_mod.Adam(list(network.named_parameters()))
    checkpoint_mod.save_checkpoint(
        path, network, optimizer_state=adam.state_dict(), meta={"epoch": 0, "seed": seed}
    )


class TrainWorkload:
    name = "train-64"
    skip_inside = "train.evaluate"  # eval forwards are not training steps
    overhead_metric = "step_s"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data_seed = seed + DATA_SEED_OFFSET
        self.ckpt_path = os.path.join(workdir, "train.ckpt")
        self.config = train_mod.TrainConfig(
            epochs=TRAIN_EPOCHS,
            batch_size=BATCH,
            seed=seed,
            synthetic_n=TRAIN_SCENES,
            synthetic_seed=self.data_seed,
            image_size=64,
            checkpoint_path=self.ckpt_path,
        )
        self.loss_final: float | None = None

    def setup(self) -> None:
        network_mod.build_network(NET_CONFIG, seed=self.seed)
        synth = data_mod.SyntheticConfig(height=64, width=64, seed=self.data_seed)
        data_mod.generate_dataset(synth, TRAIN_SCENES)

    def trace_units(self, tracer) -> int:
        return tracer.calls["optim.step"]

    def unit(self, tracer) -> Unit:
        marks: list[tuple[str, float]] = []
        adam = optim_mod.Adam
        step = vars(adam)["step"]
        save = train_mod.save_checkpoint

        def timed_step(optimizer) -> None:
            step(optimizer)
            marks.append(("step", time.perf_counter()))

        def timed_save(*args, **kwargs) -> None:
            save(*args, **kwargs)
            marks.append(("save", time.perf_counter()))

        lines: list[str] = []
        clock = Patcher()
        clock.patch(adam, "step", timed_step)
        clock.patch(train_mod, "save_checkpoint", timed_save)
        try:
            result = train_mod.train(NET_CONFIG, self.config, log=lines.append)
        finally:
            clock.restore()

        losses = result.epoch_losses
        check(len(lines) == TRAIN_EPOCHS, f"expected {TRAIN_EPOCHS} epoch lines, got {len(lines)}")
        for epoch, (line, loss) in enumerate(zip(lines, losses), start=1):
            match = EPOCH_LINE.fullmatch(line)
            check(match is not None, f"malformed epoch line {line!r}")
            check(int(match.group(1)) == epoch, f"epoch line out of order: {line!r}")
            check(math.isfinite(loss), f"non-finite loss in {line!r}")
            check(match.group(2) == f"{loss:.6f}", f"epoch line {line!r} disagrees with {loss}")
            check(0.0 <= float(match.group(3)) <= 1.0, f"iou outside [0, 1] in {line!r}")
        check(losses[-1] < losses[0], f"final loss {losses[-1]} not below epoch-1 {losses[0]}")
        if self.loss_final is not None:
            check(losses[-1] == self.loss_final, "same seed gave a different final loss")
        self.loss_final = losses[-1]
        check(os.path.getsize(self.ckpt_path) > 0, "checkpoint was not written")

        kinds = [kind for kind, _ in marks]
        steps_per_epoch = math.ceil(TRAIN_SCENES / BATCH)
        expected = (["save"] + ["step"] * steps_per_epoch) * TRAIN_EPOCHS + ["save"]
        check(kinds == expected, f"unexpected step/save sequence {kinds}")
        out = Unit()
        saves = [t for kind, t in marks if kind == "save"]
        for start, end in zip(saves, saves[1:]):
            out.add("epoch_s", end - start)
            out.add("images_per_s", TRAIN_SCENES / (end - start))
        for (_, start), (kind, end) in zip(marks, marks[1:]):
            if kind == "step":
                out.add("step_s", end - start)
                out.add("latency_s", end - start)
                out.windows.append((start, end))
        out.add("loss_final", losses[-1])
        return out


class _RestoredNetwork:
    """Shared set-up of the inference workloads: restore a checkpoint."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.ckpt_path = os.path.join(workdir, "model.ckpt")
        _write_checkpoint(self.ckpt_path, seed)
        self.network = None

    def setup(self) -> None:
        self.network = None  # release the previous copy before restoring
        self.network, _ = checkpoint_mod.restore_network(self.ckpt_path)


class InferWorkload(_RestoredNetwork):
    name = "infer-large"
    skip_inside = None
    overhead_metric = "latency_512_s"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.out_dir)
        self.frames: dict[tuple[int, int], str] = {}
        for size in FRAME_SIZES:
            synth = data_mod.SyntheticConfig(height=size, width=size, seed=seed)
            for index in range(FRAME_POOL):
                sample = data_mod.generate_sample(synth, index)
                path = os.path.join(workdir, f"frame-{size}-{index}.pgm")
                data_mod.write_pgm(path, np.round(sample.image[0] * 255.0).astype(np.uint8))
                self.frames[size, index] = path
        self.digests: dict[tuple[int, int], str] = {}
        self.count = 0

    def trace_units(self, tracer) -> int:
        return tracer.units

    def unit(self, tracer) -> Unit:
        index = self.count % FRAME_POOL
        self.count += 1
        out = Unit()
        for size in FRAME_SIZES:
            if tracer is not None:
                tracer.counting = size == FRAME_SIZES[-1]
            start, end, _ = self._frame(size, index)
            out.add(f"latency_{size}_s", end - start)
            out.windows.append((start, end))
        if tracer is not None:
            tracer.units += 1
            tracer.counting = True
        latency = out.samples[f"latency_{FRAME_SIZES[-1]}_s"][0]
        out.add("latency_s", latency)
        pair = out.samples[f"latency_{FRAME_SIZES[0]}_s"][0] + latency
        out.add("images_per_s", len(FRAME_SIZES) / pair)
        return out

    def _frame(self, size: int, index: int) -> tuple[float, float, str]:
        """One frame as ``hcfnet infer`` runs it; returns its times and map digest."""
        stem = f"frame-{size}-{index}"
        prob_path = os.path.join(self.out_dir, f"{stem}_prob.pgm")
        mask_path = os.path.join(self.out_dir, f"{stem}_mask.pgm")
        start = time.perf_counter()
        image = data_mod.read_pgm(self.frames[size, index]).astype(np.float64) / 255.0
        probs = train_mod.infer_image(self.network, image)
        data_mod.write_pgm(prob_path, np.round(probs * 255.0).astype(np.uint8))
        data_mod.write_pgm(mask_path, (probs > THRESHOLD).astype(np.uint8) * 255)
        end = time.perf_counter()

        check(probs.shape == (size, size), f"map shape {probs.shape} for a {size}x{size} frame")
        check(bool(np.all(np.isfinite(probs))), "non-finite probability")
        check(probs.min() >= 0.0 and probs.max() <= 1.0, "probability outside [0, 1]")
        expected_bytes = len(f"P5\n{size} {size}\n255\n") + size * size
        for path in (prob_path, mask_path):
            check(os.path.getsize(path) == expected_bytes, f"{path} has the wrong size")
        digest = _digest(probs)
        check(self.digests.setdefault((size, index), digest) == digest,
              "same frame gave a different map")
        return start, end, digest


class EvalWorkload(_RestoredNetwork):
    name = "eval-64"
    skip_inside = None
    overhead_metric = "latency_s"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.data_dir = os.path.join(workdir, "data")
        synth = data_mod.SyntheticConfig(height=64, width=64, seed=seed + DATA_SEED_OFFSET)
        data_mod.save_dataset(data_mod.generate_dataset(synth, EVAL_SCENES), self.data_dir)
        self.scores: dict | None = None

    def trace_units(self, tracer) -> int:
        return tracer.calls["data.load_dataset"]

    def unit(self, tracer) -> Unit:
        start = time.perf_counter()
        samples = data_mod.load_dataset(self.data_dir)
        scores = train_mod.evaluate(self.network, samples, batch_size=BATCH, threshold=THRESHOLD)
        end = time.perf_counter()

        check(len(samples) == EVAL_SCENES, f"loaded {len(samples)} of {EVAL_SCENES} scenes")
        check(0.0 <= scores["iou"] <= 1.0, f"iou {scores['iou']} outside [0, 1]")
        check(0.0 <= scores["niou"] <= 1.0, f"niou {scores['niou']} outside [0, 1]")
        check(scores["n_images"] == EVAL_SCENES, f"n_images {scores['n_images']}")
        if self.scores is not None:
            check(scores == self.scores, "same scenes gave different scores")
        self.scores = scores
        out = Unit(windows=[(start, end)])
        out.add("latency_s", end - start)
        out.add("images_per_s", EVAL_SCENES / (end - start))
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, EvalWorkload)}
