"""Segmentation losses over pre-sigmoid logit maps.

Both losses take logits of shape [N, 1, H, W] and strictly binary targets of
the same shape.  The cross-entropy uses the softplus identity so logits of
any magnitude stay finite; the soft IoU loss is computed per image and then
averaged, so small objects are not drowned out by easy background.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor, add, div, mul, sigmoid, softplus, sub, tmean, tsum

__all__ = ["bce_loss", "soft_iou_loss", "deep_supervision_loss"]

SOFT_IOU_EPS = 1e-6


def _check_pair(logits: Tensor, target: Tensor, op: str) -> None:
    if logits.shape != target.shape:
        raise ShapeError(f"{op}: logits {logits.shape} and target {target.shape} differ")
    if logits.data.ndim != 4:
        raise ShapeError(f"{op}: expected rank-4 maps, got {logits.shape}")
    values = target.data
    if not np.all((values == 0.0) | (values == 1.0)):
        raise DomainError(f"{op}: target values must be exactly 0 or 1")


def bce_loss(logits: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross entropy from logits: mean(softplus(z) - z * y)."""
    _check_pair(logits, target, "bce_loss")
    return tmean(sub(softplus(logits), mul(logits, target)))


def soft_iou_loss(logits: Tensor, target: Tensor) -> Tensor:
    """Per-image 1 - (|p*y| + eps) / (|p| + |y| - |p*y| + eps), batch-averaged."""
    _check_pair(logits, target, "soft_iou_loss")
    probs = sigmoid(logits)
    inter = tsum(mul(probs, target), axis=(1, 2, 3))
    union = sub(add(tsum(probs, axis=(1, 2, 3)), tsum(target, axis=(1, 2, 3))), inter)
    ratio = div(add(inter, SOFT_IOU_EPS), add(union, SOFT_IOU_EPS))
    return tmean(sub(1.0, ratio))


def deep_supervision_loss(
    scale_logits: Sequence[Tensor], target: Tensor, weights: Sequence[float]
) -> Tensor:
    """Weighted sum over scales of (bce + soft IoU); finest scale first."""
    if len(scale_logits) != len(weights):
        raise ConfigError(
            f"{len(scale_logits)} logit maps but {len(weights)} loss weights"
        )
    if not scale_logits:
        raise ConfigError("deep_supervision_loss needs at least one scale")
    total: Tensor | None = None
    for logits, weight in zip(scale_logits, weights):
        term = mul(add(bce_loss(logits, target), soft_iou_loss(logits, target)), float(weight))
        total = term if total is None else add(total, term)
    return total
