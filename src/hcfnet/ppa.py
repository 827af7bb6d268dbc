"""Parallelized patch-aware attention block (PPA).

A pointwise projection sets the working width, then three branches run in
parallel on the projected feature: two patch-attention branches with patch
sizes 2 (local) and 4 (global), and a serial stack of three 3x3 convolutions
whose intermediate outputs are summed.  The branch sum passes through channel
attention, spatial attention, dropout, batch norm and ReLU.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .nn import BatchNorm2d, Conv2d, Linear, Module, dropout, kaiming_uniform
from .ops import bilinear_resize, channel_conv1d, softmax, unfold_patches
from .tensor import (
    Parameter,
    Tensor,
    add,
    amax,
    concat,
    div,
    matmul,
    mul,
    narrow,
    pad2d,
    relu,
    reshape,
    sigmoid,
    sqrt,
    sub,
    tmean,
    transpose,
    tsum,
)

__all__ = ["PPA", "PatchBranch", "ChannelAttention", "SpatialAttention", "feature_select"]

_NORM_FLOOR = 1e-24
_ECA_KERNEL = 3


def feature_select(tokens: Tensor, embedding: Tensor, mix: Tensor) -> Tensor:
    """Scale each channel token by its similarity to an embedding-selected
    reference, then mix channels.

    ``tokens`` is [C, d] or [N, C, d] with one spatial vector per channel.
    ``embedding`` ([C]) weights the channel tokens into a reference vector
    r = embedding @ tokens; each token is scaled by max(0, cos(t_i, r))
    clamped to [0, 1], and ``mix`` ([C, C]) recombines the scaled channels.
    A zero-norm token or a zero embedding yields similarity exactly 0.
    """
    squeeze = tokens.data.ndim == 2
    if squeeze:
        tokens = reshape(tokens, (1,) + tokens.shape)
    n, c, d = tokens.shape
    if embedding.shape != (c,):
        raise ShapeError(f"embedding must have shape ({c},), got {embedding.shape}")
    if mix.shape != (c, c):
        raise ShapeError(f"mix must have shape ({c}, {c}), got {mix.shape}")
    reference = matmul(reshape(embedding, (1, 1, c)), tokens)  # [N, 1, d]
    dot = tsum(mul(tokens, reference), axis=2, keepdims=True)  # [N, C, 1]
    token_norm = sqrt(add(tsum(mul(tokens, tokens), axis=2, keepdims=True), _NORM_FLOOR))
    ref_norm = sqrt(add(tsum(mul(reference, reference), axis=2, keepdims=True), _NORM_FLOOR))
    cos = div(dot, mul(token_norm, ref_norm))
    sim = sub(1.0, relu(sub(1.0, relu(cos))))  # clamp to [0, 1]
    out = matmul(mix, mul(sim, tokens))
    if squeeze:
        return reshape(out, (c, d))
    return out


class PatchBranch(Module):
    """Patch-attention branch at one patch size.

    Pipeline: unfold into p*p-cell patches, derive per-cell weights from the
    channel-mean path via a small feed-forward net, softmax the weights over
    patch positions, re-weight the unfolded features, average each patch into
    a channel token, apply ``feature_select``, and resize the token grid back
    to the input resolution.  Inputs not divisible by p are zero-padded on
    the bottom/right and cropped after.
    """

    def __init__(self, channels: int, patch: int, *, rng: np.random.Generator):
        super().__init__()
        self.patch = patch
        cells = patch * patch
        self.fc1 = Linear(cells, 2 * cells, rng=rng)
        self.fc2 = Linear(2 * cells, cells, rng=rng)
        self.embedding = Parameter(np.ones(channels))
        self.mix = Parameter(np.eye(channels) + rng.uniform(-0.1, 0.1, (channels, channels)))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        p = self.patch
        pad_h, pad_w = (-h) % p, (-w) % p
        work = pad2d(x, pad_h, pad_w) if pad_h or pad_w else x
        hp, wp = h + pad_h, w + pad_w
        cells = p * p
        grid = (hp // p) * (wp // p)
        unfolded = unfold_patches(work, p)  # [N, C, p*p, grid]
        mean_path = transpose(tmean(unfolded, axis=1), (0, 2, 1))  # [N, grid, p*p]
        weights = self.fc2(relu(self.fc1(mean_path)))
        weights = softmax(transpose(weights, (0, 2, 1)), axis=2)  # over grid positions
        weighted = mul(unfolded, reshape(weights, (n, 1, cells, grid)))
        tokens = tmean(weighted, axis=2)  # [N, C, grid]
        selected = feature_select(tokens, self.embedding, self.mix)
        coarse = reshape(selected, (n, c, hp // p, wp // p))
        out = bilinear_resize(coarse, hp, wp)
        if pad_h or pad_w:
            out = narrow(narrow(out, 2, 0, h), 3, 0, w)
        return out

    __call__ = forward


class ChannelAttention(Module):
    """ECA-style gate: pooled descriptor, 1-D conv across channels, sigmoid."""

    def __init__(self, *, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(kaiming_uniform(rng, (_ECA_KERNEL,)))

    def forward(self, x: Tensor) -> Tensor:
        n, c = x.shape[0], x.shape[1]
        pooled = tmean(x, axis=(2, 3))  # [N, C]
        gate = sigmoid(channel_conv1d(pooled, self.weight))
        return mul(x, reshape(gate, (n, c, 1, 1)))

    __call__ = forward


class SpatialAttention(Module):
    """Gate from channel mean and max maps through a 7x7 convolution."""

    def __init__(self, *, rng: np.random.Generator):
        super().__init__()
        self.conv = Conv2d(2, 1, 7, padding=3, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        stats = concat([tmean(x, axis=1, keepdims=True), amax(x, axis=1)], 1)
        return mul(x, sigmoid(self.conv(stats)))

    __call__ = forward


class PPA(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        patch_sizes: tuple[int, int] = (2, 4),
        dropout_rate: float = 0.1,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.dropout_rate = dropout_rate
        self.proj = Conv2d(in_channels, out_channels, 1, rng=rng)
        self.local = PatchBranch(out_channels, patch_sizes[0], rng=rng)
        self.wide = PatchBranch(out_channels, patch_sizes[1], rng=rng)
        self.conv1 = Conv2d(out_channels, out_channels, 3, padding=1, rng=rng)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, rng=rng)
        self.conv3 = Conv2d(out_channels, out_channels, 3, padding=1, rng=rng)
        self.channel_att = ChannelAttention(rng=rng)
        self.spatial_att = SpatialAttention(rng=rng)
        self.bn = BatchNorm2d(out_channels)

    def serial_branch(self, projected: Tensor) -> Tensor:
        c1 = self.conv1(projected)
        c2 = self.conv2(c1)
        partial = add(c1, c2)
        del c1
        return add(partial, self.conv3(c2))

    def branch_sum(self, projected: Tensor) -> Tensor:
        return add(
            add(self.local(projected), self.wide(projected)), self.serial_branch(projected)
        )

    def forward(
        self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None
    ) -> Tensor:
        attended = self.spatial_att(self.channel_att(self.branch_sum(self.proj(x))))
        regularized = dropout(attended, self.dropout_rate, train=train, rng=rng)
        return relu(self.bn(regularized, train))

    __call__ = forward
