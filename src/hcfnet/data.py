"""Synthetic infrared-style scenes and PGM dataset storage.

Each sample is a smooth low-frequency background with mild clutter blobs and
a handful of small bright disks; only the disks enter the mask.  Intensities
are quantized to 256 levels so a sample is bitwise identical whether it is
used in memory or written to PGM and read back.  Generation is a pure
function of (config, index).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FileFormatError
from .ops import _interp_matrix

__all__ = [
    "SyntheticConfig",
    "Sample",
    "generate_sample",
    "generate_dataset",
    "write_pgm",
    "read_pgm",
    "read_image",
    "save_dataset",
    "load_dataset",
]


# Scene recipe: disks per scene, disk radius in pixels, additive brightness,
# and the cap on the fraction of pixels that disks may cover.
_MIN_OBJECTS, _MAX_OBJECTS = 1, 3
_RADIUS_RANGE = (1.0, 3.0)
_BOOST_RANGE = (0.3, 0.8)
_MAX_COVERAGE = 0.005


@dataclass(frozen=True)
class SyntheticConfig:
    height: int = 64
    width: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.height < 8 or self.width < 8:
            raise ConfigError(f"image extents must be >= 8, got {self.height}x{self.width}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Sample:
    """One scene: image in [0, 1] and binary mask, both [1, H, W] float64."""

    image: np.ndarray
    mask: np.ndarray
    sample_id: str


def _smooth_field(rng: np.random.Generator, height: int, width: int, knots: int) -> np.ndarray:
    coarse = rng.uniform(0.0, 1.0, (knots, knots))
    up_rows = _interp_matrix(knots, height)
    up_cols = _interp_matrix(knots, width)
    return up_rows @ coarse @ up_cols.T


def generate_sample(config: SyntheticConfig, index: int) -> Sample:
    config.validate()
    rng = np.random.default_rng([config.seed, index])
    h, w = config.height, config.width
    base = rng.uniform(0.05, 0.2)
    scene = base + 0.15 * _smooth_field(rng, h, w, 5)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    for _ in range(int(rng.integers(0, 4))):
        cy, cx = rng.uniform(0, h - 1), rng.uniform(0, w - 1)
        sigma = rng.uniform(2.0, 6.0)
        amp = rng.uniform(0.05, 0.15)
        scene += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
    mask = np.zeros((h, w), dtype=bool)
    budget = int(_MAX_COVERAGE * h * w)
    count = int(rng.integers(_MIN_OBJECTS, _MAX_OBJECTS + 1))
    for _ in range(count):
        radius = rng.uniform(*_RADIUS_RANGE)
        boost = rng.uniform(*_BOOST_RANGE)
        cy = rng.uniform(radius, h - 1 - radius)
        cx = rng.uniform(radius, w - 1 - radius)
        room = budget - int(mask.sum())
        disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
        while int((disk & ~mask).sum()) > room and radius > 0.5:
            radius *= 0.8
            disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
        added = disk & ~mask
        if int(added.sum()) == 0 or int(added.sum()) > room:
            continue
        scene[disk] = np.minimum(scene[disk] + boost, 1.0)
        mask |= disk
    scene = np.round(np.clip(scene, 0.0, 1.0) * 255.0) / 255.0
    return Sample(
        image=scene[None].astype(np.float64),
        mask=mask[None].astype(np.float64),
        sample_id=f"sample-{config.seed}-{index:05d}",
    )


def generate_dataset(config: SyntheticConfig, count: int) -> list[Sample]:
    if count < 1:
        raise ConfigError(f"dataset size must be >= 1, got {count}")
    return [generate_sample(config, i) for i in range(count)]


def write_pgm(path: str, values: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM (P5, maxval 255)."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ConfigError(f"write_pgm expects a 2-D uint8 array, got {arr.dtype} {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# Comments may stand wherever whitespace may (netpbm), in any number of runs.
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)*(\d+)")


def _parse_pgm(path: str) -> tuple[np.ndarray, int]:
    """Raw samples (a read-only 2-D uint8 view) and maxval of a binary PGM."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise FileFormatError(f"{path}: not a binary PGM (P5) file")
    pos, fields = 2, []
    while len(fields) < 3:
        match = _PGM_FIELD.match(blob, pos)
        if match is None or len(match.group(1)) > 9:
            raise FileFormatError(f"{path}: malformed PGM header")
        fields.append(int(match.group(1)))
        pos = match.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: PGM extents must be positive, got {width}x{height}")
    if not 0 < maxval <= 255:
        raise FileFormatError(f"{path}: unsupported PGM maxval {maxval}")
    if not blob[pos : pos + 1].isspace():
        raise FileFormatError(f"{path}: malformed PGM header")
    pos += 1  # single whitespace byte after maxval
    payload = blob[pos : pos + width * height]
    if len(payload) != width * height:
        raise FileFormatError(f"{path}: truncated PGM payload")
    image = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if image.max() > maxval:
        raise FileFormatError(f"{path}: PGM sample {image.max()} exceeds maxval {maxval}")
    return image, maxval


def read_pgm(path: str) -> np.ndarray:
    """Read a binary PGM (P5, maxval <= 255) into a 2-D uint8 array of its raw samples."""
    return _parse_pgm(path)[0].copy()


def read_image(path: str) -> np.ndarray:
    """Read a binary PGM as a 2-D float64 array in [0, 1]: each sample over the file's maxval."""
    image, maxval = _parse_pgm(path)
    return image.astype(np.float64) / maxval


def save_dataset(samples: list[Sample], directory: str) -> None:
    """Write <id>.pgm / <id>_mask.pgm pairs."""
    os.makedirs(directory, exist_ok=True)
    for sample in samples:
        image = np.round(sample.image[0] * 255.0).astype(np.uint8)
        mask = (sample.mask[0] > 0.5).astype(np.uint8) * 255
        write_pgm(os.path.join(directory, f"{sample.sample_id}.pgm"), image)
        write_pgm(os.path.join(directory, f"{sample.sample_id}_mask.pgm"), mask)


def load_dataset(directory: str) -> list[Sample]:
    """Read every image/mask PGM pair in a directory, sorted by name.

    Each file scales by its own maxval; a mask pixel is foreground above 0.5
    after scaling, which is exactly a sample above maxval / 2.
    """
    names = sorted(
        f[:-4]
        for f in os.listdir(directory)
        if f.endswith(".pgm") and not f.endswith("_mask.pgm")
    )
    if not names:
        raise FileFormatError(f"no image PGM files found in {directory}")
    samples = []
    for name in names:
        image_path = os.path.join(directory, f"{name}.pgm")
        mask_path = os.path.join(directory, f"{name}_mask.pgm")
        if not os.path.exists(mask_path):
            raise FileFormatError(f"missing mask file for '{name}'")
        image = read_image(image_path)
        mask = (read_image(mask_path) > 0.5).astype(np.float64)
        if image.shape != mask.shape:
            (h, w), (mh, mw) = image.shape, mask.shape
            raise FileFormatError(f"{image_path} is {w}x{h} but its mask {mask_path} is {mw}x{mh}")
        samples.append(Sample(image=image[None], mask=mask[None], sample_id=name))
    return samples
