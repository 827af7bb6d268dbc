"""Dimension-aware selective integration block (DASI).

Aligns the shallower (fine) and deeper (context) streams to the current
feature's channels and resolution, then gates between them: alpha =
sigmoid(current) picks the fine stream where it is high and the context
stream where it is low.  The paper gates each of four channel partitions
separately; the blend alpha*fine + (1-alpha)*context is elementwise, so one
pass over the whole tensor computes the same values bit for bit.  A 3x3
convolution, batch norm and ReLU finish the block.  Every block has a
context stream, the next deeper stage; the finest block has no shallower
stage, so there the current feature stands in for the fine stream.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .nn import BatchNorm2d, Conv2d, Module
from .ops import bilinear_resize
from .tensor import Tensor, add, mul, relu, sigmoid, sub

__all__ = ["DASI", "gated_fuse"]


def gated_fuse(current: Tensor, fine: Tensor, context: Tensor) -> Tensor:
    """Convex per-element blend of fine and context streams, gated by the
    current feature; channels must split into the paper's four partitions."""
    if not current.shape == fine.shape == context.shape:
        raise ShapeError(
            f"gated_fuse needs matching shapes, got {current.shape}, "
            f"{fine.shape}, {context.shape}"
        )
    channels = current.shape[1]
    if channels % 4:
        raise ConfigError(f"gated_fuse needs channels divisible by 4, got {channels}")
    alpha = sigmoid(current)
    return add(mul(alpha, fine), mul(sub(1.0, alpha), context))


class DASI(Module):
    def __init__(
        self,
        channels: int,
        *,
        fine_channels: int | None = None,
        context_channels: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if channels % 4:
            raise ConfigError(f"DASI channels must be divisible by 4, got {channels}")
        self.align_fine = (
            Conv2d(fine_channels, channels, 1, rng=rng) if fine_channels else None
        )
        self.align_context = Conv2d(context_channels, channels, 1, rng=rng)
        self.fuse = Conv2d(channels, channels, 3, padding=1, rng=rng)
        self.bn = BatchNorm2d(channels)

    def forward(
        self,
        current: Tensor,
        fine: Tensor | None,
        context: Tensor,
        train: bool = False,
    ) -> Tensor:
        h, w = current.shape[2], current.shape[3]
        if (fine is None) != (self.align_fine is None):
            raise ContractError("fine stream does not match this block's configuration")
        fine_aligned = (
            bilinear_resize(self.align_fine(fine), h, w) if fine is not None else current
        )
        context_aligned = bilinear_resize(self.align_context(context), h, w)
        fused = gated_fuse(current, fine_aligned, context_aligned)
        del fine_aligned, context_aligned
        fused = self.fuse(fused)
        return relu(self.bn(fused, train))

    __call__ = forward
