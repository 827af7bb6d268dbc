"""Minimal module system: parameter registration plus thin layer wrappers.

Modules register ``Parameter`` attributes, child modules and named buffers
automatically, so the whole network is addressable through dotted names in a
deterministic (construction) order.  Random layers draw their weights from an
explicit ``numpy`` generator, which makes builds bitwise reproducible.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError
from .ops import batch_norm, conv2d, conv_transpose2d
from .tensor import Parameter, Tensor, add, matmul, mul

__all__ = [
    "Module",
    "ModuleList",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "Linear",
    "dropout",
    "kaiming_uniform",
]


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, shape)


class Module:
    """Base class tracking parameters, buffers and child modules by name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Track non-trainable state (running statistics) for checkpoints."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._params.items():
            yield prefix + name, param
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


class ModuleList(Module):
    """Sequence of children registered under their index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


class Conv2d(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        *,
        padding: int = 0,
        dilation: int = 1,
        groups: int = 1,
        bias: bool = True,
        rng: np.random.Generator,
    ):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ConfigError(
                f"channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
            )
        self.padding = padding
        self.dilation = dilation
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel, kernel)
        self.weight = Parameter(kaiming_uniform(rng, shape))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(
            x,
            self.weight,
            self.bias,
            padding=self.padding,
            dilation=self.dilation,
            groups=self.groups,
        )

    __call__ = forward


class ConvTranspose2d(Module):
    """Fixed 2x2, stride-2 transposed convolution (learned upsampler)."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(kaiming_uniform(rng, (in_channels, out_channels, 2, 2)))
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return conv_transpose2d(x, self.weight, self.bias)

    __call__ = forward


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var, train=train
        )

    __call__ = forward


class Linear(Module):
    """Affine map over the last axis; weight is [in_features, out_features]."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        super().__init__()
        bound = float(np.sqrt(6.0 / in_features))
        self.weight = Parameter(rng.uniform(-bound, bound, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.weight), self.bias)

    __call__ = forward


def dropout(x: Tensor, rate: float, *, train: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: active only in training, identity otherwise."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout needs a random generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(mask))
