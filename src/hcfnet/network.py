"""Five-scale encoder/decoder segmentation network with deep supervision.

Encoder stages (PPA blocks, or plain double convolutions when ablated) are
separated by 2x2 max pooling; an MDCR block refines the deepest feature;
decoder stages combine a learned 2x upsample with a DASI-fused skip (or the
raw skip when ablated) through channel concatenation.  Every decoder scale
owns a pointwise prediction head whose logits are bilinearly upsampled to the
input resolution, finest scale first.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import asdict, dataclass

import numpy as np

from .dasi import DASI
from .errors import ConfigError, ShapeError
from .mdcr import MDCR
from .nn import BatchNorm2d, Conv2d, ConvTranspose2d, Module, ModuleList
from .ops import bilinear_resize, max_pool2d
from .ppa import PPA
from .tensor import Tensor, concat, no_grad, observe, relu

__all__ = ["NetworkConfig", "Network", "DoubleConv", "build_network", "count_params_macs"]


@dataclass(frozen=True)
class NetworkConfig:
    stages: int = 5
    widths: tuple[int, ...] = (16, 32, 64, 128, 256)
    in_channels: int = 1
    patch_sizes: tuple[int, int] = (2, 4)
    dilations: tuple[int, int, int, int] = (1, 3, 5, 7)
    dropout: float = 0.1
    use_ppa: bool = True
    use_dasi: bool = True
    use_mdcr: bool = True
    loss_weights: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125, 0.0625)

    @property
    def extent_multiple(self) -> int:
        """Input heights and widths must be multiples of this: one 2x pool per stage transition."""
        return 1 << (self.stages - 1)

    def validate(self) -> None:
        if self.stages < 2:
            raise ConfigError(f"stages must be >= 2, got {self.stages}")
        if len(self.widths) != self.stages:
            raise ConfigError(
                f"widths {self.widths} must list one entry per stage ({self.stages})"
            )
        if any(w < 4 or w % 4 for w in self.widths):
            raise ConfigError(f"stage widths must be positive multiples of 4, got {self.widths}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if len(self.patch_sizes) != 2 or any(p < 1 for p in self.patch_sizes):
            raise ConfigError(f"patch_sizes must be two positive ints, got {self.patch_sizes}")
        if len(self.dilations) != 4 or any(d < 1 for d in self.dilations):
            raise ConfigError(f"dilations must be four positive ints, got {self.dilations}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if len(self.loss_weights) != self.stages:
            raise ConfigError(
                f"loss_weights needs one weight per scale ({self.stages}), "
                f"got {len(self.loss_weights)}"
            )
        if not all(0 < w <= sys.float_info.max for w in self.loss_weights):  # no NaN or inf
            raise ConfigError(f"loss_weights must be finite and positive, got {self.loss_weights}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "NetworkConfig":
        """Config from ``to_dict`` or its JSON form; each value must match its
        field's type."""
        if not isinstance(raw, dict):
            raise ConfigError(f"network config must be an object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown network config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for key, value in raw.items():
            if not _json_matches(value, hints[key]):
                declared = cls.__dataclass_fields__[key].type
                raise ConfigError(f"{key} must be {declared}, got {value!r}")
        cfg = cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})
        cfg.validate()
        return cfg


def _json_matches(value, hint) -> bool:
    """True when a JSON value has the annotated type: a list (or tuple) for a
    tuple, an int or float for a float, otherwise exactly the type, so a bool
    is no int."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_json_matches(v, item) for v in value)
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


class DoubleConv(Module):
    """Two 3x3 convolution + batch norm + ReLU pairs (ablation stand-in)."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)

    def forward(
        self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None
    ) -> Tensor:
        x = relu(self.bn1(self.conv1(x), train))
        return relu(self.bn2(self.conv2(x), train))

    __call__ = forward


class Network(Module):
    def __init__(self, config: NetworkConfig, seed: int):
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        stages = config.stages
        widths = config.widths

        def stage_block(in_c: int, out_c: int) -> Module:
            if config.use_ppa:
                return PPA(
                    in_c,
                    out_c,
                    patch_sizes=config.patch_sizes,
                    dropout_rate=config.dropout,
                    rng=rng,
                )
            return DoubleConv(in_c, out_c, rng=rng)

        self.encoders = ModuleList(
            stage_block(config.in_channels if s == 0 else widths[s - 1], widths[s])
            for s in range(stages)
        )
        self.bottleneck = (
            MDCR(widths[-1], config.dilations, rng=rng) if config.use_mdcr else None
        )
        self.ups = ModuleList(
            ConvTranspose2d(widths[s + 1], widths[s], rng=rng) for s in range(stages - 1)
        )
        self.fusers = (
            ModuleList(
                DASI(
                    widths[s],
                    fine_channels=widths[s - 1] if s > 0 else None,
                    context_channels=widths[s + 1],
                    rng=rng,
                )
                for s in range(stages - 1)
            )
            if config.use_dasi
            else None
        )
        self.decoders = ModuleList(
            stage_block(2 * widths[s], widths[s]) for s in range(stages - 1)
        )
        self.heads = ModuleList(Conv2d(widths[s], 1, 1, rng=rng) for s in range(stages))

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 4:
            raise ShapeError(f"network input must be rank 4, got {x.shape}")
        if x.shape[1] != self.config.in_channels:
            raise ShapeError(
                f"network expects {self.config.in_channels} input channels, got {x.shape[1]}"
            )
        factor = self.config.extent_multiple
        if x.shape[2] % factor or x.shape[3] % factor:
            raise ShapeError(
                f"spatial extents {x.shape[2]}x{x.shape[3]} must be divisible by {factor}"
            )

    def forward(
        self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None
    ) -> list[Tensor]:
        """Return one logit map per scale at full input resolution, finest
        (stage 0) first; outputs are pre-sigmoid.

        Each map is dropped after its last use, so a no-grad forward holds
        only the maps still to be read.  ``backward`` adds a tensor's
        gradient terms in reverse tape order, and only the last two terms
        of that sum commute, so only a tensor's last two consumers may
        trade places: each decoder output goes to its head right after
        ``ups`` reads it, which with MDCR off puts the top feature's head
        ahead of its DASI block.
        """
        self._check_input(x)
        stages = self.config.stages
        height, width = x.shape[2], x.shape[3]
        feats: list[Tensor | None] = []
        cur = x
        for s in range(stages):
            feats.append(self.encoders[s](cur, train=train, rng=rng))
            if s < stages - 1:
                cur = max_pool2d(feats[s])
        cur = feats[-1]
        if self.bottleneck is not None:
            cur = self.bottleneck(cur, train=train)
        logits: list[Tensor] = [None] * stages  # type: ignore[list-item]
        for s in range(stages - 2, -1, -1):
            up = self.ups[s](cur)
            logits[s + 1] = bilinear_resize(self.heads[s + 1](cur), height, width)
            del cur
            if self.fusers is None:
                skip = feats[s]
            else:
                fine = feats[s - 1] if s > 0 else None
                skip = self.fusers[s](feats[s], fine, feats[s + 1], train=train)
            feats[s + 1] = None  # read last as this stage's context
            if self.fusers is None or s == 0:
                feats[s] = None  # no shallower DASI block reads it
            merged = concat([up, skip], 1)
            del up, skip
            cur = self.decoders[s](merged, train=train, rng=rng)
            del merged
        logits[0] = bilinear_resize(self.heads[0](cur), height, width)
        return logits

    __call__ = forward


def build_network(config: NetworkConfig, seed: int) -> Network:
    """Construct a network with weights drawn deterministically from ``seed``."""
    return Network(config, seed)


def count_params_macs(
    network: Network, height: int, width: int
) -> tuple[int, int, list[tuple[str, int, int]]]:
    """Total trainable parameters and per-sample MACs at one resolution,
    with one (name, parameter count, MACs) row per component.

    MACs are counted over one batch-1 eval-mode probe forward: every conv,
    transposed conv, matmul, channel conv or batch norm (its gamma scale) that
    consumes a parameter (or a reshape of one) is charged to the component owning it.
    Pooling, resampling, activations, bias adds and gates count nothing.
    """
    stages = network.config.stages
    components = [(f"encoder{s}", network.encoders[s]) for s in range(stages)]
    if network.bottleneck is not None:
        components.append(("bottleneck", network.bottleneck))
    for s in range(stages - 1):
        components.append((f"up{s}", network.ups[s]))
        if network.fusers is not None:
            components.append((f"skip_fuse{s}", network.fusers[s]))
        components.append((f"decoder{s}", network.decoders[s]))
    components += [(f"head{s}", network.heads[s]) for s in range(stages)]
    # id -> (component index, tensor); holding the tensor keeps its id unique
    owner = {id(p): (i, p) for i, (_, m) in enumerate(components) for p in m.parameters()}
    macs = [0] * len(components)

    def count(op: str, inputs, out: Tensor) -> None:
        owners = [owner[id(t)][0] for t in inputs if id(t) in owner]
        if not owners:
            return
        if op == "reshape":
            owner[id(out)] = (owners[0], out)
        elif op in ("conv2d", "conv_transpose2d"):
            macs[owners[0]] += (out if op == "conv2d" else inputs[0]).size * inputs[1].data[0].size
        elif op == "matmul":
            macs[owners[0]] += out.size * inputs[0].shape[-1]
        elif op == "channel_conv1d":
            macs[owners[0]] += out.size * inputs[1].size
        elif op == "batch_norm":
            macs[owners[0]] += out.size

    probe = Tensor(np.zeros((1, network.config.in_channels, height, width)))
    with no_grad(), observe(count):
        network(probe)
    rows = [(name, m.param_count(), n) for (name, m), n in zip(components, macs)]
    return network.param_count(), sum(macs), rows
