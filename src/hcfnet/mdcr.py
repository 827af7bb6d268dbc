"""Multi-dilated channel refiner block (MDCR).

The channels split into four contiguous heads, each filtered by a depthwise
3x3 convolution at its own dilation (padding keeps the spatial size).  The
head outputs are interleaved so that group j collects channel j from every
head, a grouped pointwise convolution mixes within each 4-channel group, a
full pointwise convolution mixes across groups, and batch norm plus ReLU
finish the block.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import BatchNorm2d, Conv2d, Module, ModuleList
from .tensor import Tensor, concat, narrow, permute_channels, relu

__all__ = ["MDCR", "head_split", "interleave", "interleave_permutation"]


def head_split(x: Tensor) -> list[Tensor]:
    """Split channels into four contiguous blocks of equal width."""
    channels = x.shape[1]
    if channels % 4:
        raise ConfigError(f"head_split needs channels divisible by 4, got {channels}")
    quarter = channels // 4
    return [narrow(x, 1, i * quarter, quarter) for i in range(4)]


def interleave_permutation(channels: int) -> np.ndarray:
    """Channel order that gathers channel j of each head into group j.

    With heads of width q = channels/4 laid out contiguously, output slot
    4*j + k takes channel k*q + j, so for 8 channels the groups read
    (0, 2, 4, 6) and (1, 3, 5, 7).
    """
    if channels % 4:
        raise ConfigError(f"interleave needs channels divisible by 4, got {channels}")
    quarter = channels // 4
    perm = np.empty(channels, dtype=np.int64)
    for group in range(quarter):
        for head in range(4):
            perm[group * 4 + head] = head * quarter + group
    return perm


def interleave(heads: list[Tensor]) -> Tensor:
    """Concatenate four equal-width heads and reorder into cross-head groups."""
    if len(heads) != 4:
        raise ShapeError(f"interleave expects 4 heads, got {len(heads)}")
    if any(h.shape != heads[0].shape for h in heads):
        raise ShapeError("interleave heads must share one shape")
    stacked = concat(heads, 1)
    return permute_channels(stacked, interleave_permutation(stacked.shape[1]))


class MDCR(Module):
    def __init__(
        self,
        channels: int,
        dilations: tuple[int, int, int, int] = (1, 3, 5, 7),
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        if channels % 4:
            raise ConfigError(f"MDCR channels must be divisible by 4, got {channels}")
        if len(dilations) != 4 or any(d < 1 for d in dilations):
            raise ConfigError(f"MDCR needs four positive dilations, got {dilations}")
        quarter = channels // 4
        self.heads = ModuleList(
            Conv2d(quarter, quarter, 3, padding=d, dilation=d, groups=quarter, rng=rng)
            for d in dilations
        )
        self.inner = Conv2d(channels, channels, 1, groups=quarter, rng=rng)
        self.outer = Conv2d(channels, channels, 1, rng=rng)
        self.bn = BatchNorm2d(channels)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        parts = head_split(x)
        mixed = interleave([conv(part) for conv, part in zip(self.heads, parts)])
        refined = self.outer(self.inner(mixed))
        return relu(self.bn(refined, train))

    __call__ = forward
