"""Central-difference gradient verification for the core blocks.

Each case builds a small block on fixed seeds, forms a scalar loss that
weights every output element with a fixed random field (so sign errors and
transposed axes cannot cancel), and compares reverse-mode gradients against
central differences coordinate by coordinate.  Blocks run in training mode
with dropout disabled, which exercises the batch-statistics path of the
normalization layers; running-buffer updates do not feed the loss, so they
cannot perturb the numeric differences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dasi import DASI
from .errors import ConfigError
from .losses import deep_supervision_loss
from .mdcr import MDCR
from .network import NetworkConfig, build_network
from .ppa import PPA
from .tensor import Tensor, backward, mul, no_grad, tsum, zero_grads

__all__ = ["CASES", "GRADCHECK_TOL", "build_case", "run_case", "run_all"]

CASES = ("ppa", "dasi", "mdcr", "net")

# Central differences with eps 1e-5 resolve float64 gradients to roughly 1e-7
# relative error away from kinks; 1e-4 leaves margin without hiding bugs.
_EPS = 1e-5
GRADCHECK_TOL = 1e-4

# Some gradients are structurally zero (a conv bias feeding a training-mode
# normalization cancels exactly); there central differences return pure
# rounding noise near 1e-10, so the error denominator needs an absolute
# floor or true zeros would read as failures.
_DENOM_FLOOR = 1e-4


def _field_like(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, shape))


def build_case(name: str) -> tuple[Callable[[], Tensor], list[tuple[str, Tensor]]]:
    """Return (loss function, named differentiation targets) for one case."""
    if name == "ppa":
        block = PPA(4, 4, dropout_rate=0.0, rng=np.random.default_rng(11))
        x = Tensor(0.5 * np.random.default_rng(12).standard_normal((1, 4, 8, 8)), requires_grad=True)
        field = _field_like((1, 4, 8, 8), np.random.default_rng(13))
        fn = lambda: tsum(mul(block(x, train=True), field))
        targets = [("input", x), *block.named_parameters()]
    elif name == "dasi":
        block = DASI(8, fine_channels=4, context_channels=16, rng=np.random.default_rng(21))
        gen = np.random.default_rng(22)
        cur = Tensor(0.5 * gen.standard_normal((1, 8, 4, 4)), requires_grad=True)
        fine = Tensor(0.5 * gen.standard_normal((1, 4, 8, 8)), requires_grad=True)
        ctx = Tensor(0.5 * gen.standard_normal((1, 16, 2, 2)), requires_grad=True)
        field = _field_like((1, 8, 4, 4), np.random.default_rng(23))
        fn = lambda: tsum(mul(block(cur, fine, ctx, train=True), field))
        targets = [("current", cur), ("fine", fine), ("context", ctx), *block.named_parameters()]
    elif name == "mdcr":
        block = MDCR(8, rng=np.random.default_rng(31))
        x = Tensor(0.5 * np.random.default_rng(32).standard_normal((1, 8, 6, 6)), requires_grad=True)
        field = _field_like((1, 8, 6, 6), np.random.default_rng(33))
        fn = lambda: tsum(mul(block(x, train=True), field))
        targets = [("input", x), *block.named_parameters()]
    elif name == "net":
        config = NetworkConfig(
            stages=2,
            widths=(8, 8),
            in_channels=1,
            dropout=0.0,
            loss_weights=(1.0, 0.5),
        )
        network = build_network(config, seed=41)
        gen = np.random.default_rng(42)
        x = Tensor(gen.uniform(0.0, 1.0, (1, 1, 16, 16)), requires_grad=True)
        target = np.zeros((1, 1, 16, 16))
        target[0, 0, 5:8, 6:9] = 1.0
        y = Tensor(target)
        fn = lambda: deep_supervision_loss(
            network(x, train=True), y, config.loss_weights
        )
        targets = [("input", x), *network.named_parameters()]
    else:
        raise ConfigError(f"unknown gradcheck case '{name}', expected one of {CASES}")
    return fn, targets


def check_gradients(
    fn: Callable[[], Tensor],
    targets: list[tuple[str, Tensor]],
    *,
    max_coords: int | None = None,
) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    ``max_coords`` caps the probed coordinates per target tensor, drawn
    without replacement; with it unset, every coordinate is checked.
    """
    if max_coords is not None and max_coords < 1:
        raise ConfigError(f"max_coords must be at least 1, got {max_coords}")
    zero_grads([t for _, t in targets])
    backward(fn())
    picker = np.random.default_rng(0)
    worst = 0.0
    for _, tensor in targets:
        flat = tensor.data.reshape(-1)
        analytic = np.zeros(flat.size) if tensor.grad is None else tensor.grad.reshape(-1)
        coords = range(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = sorted(picker.choice(flat.size, size=max_coords, replace=False))
        for c in coords:
            original = flat[c]
            with no_grad():
                flat[c] = original + _EPS
                upper = fn().item()
                flat[c] = original - _EPS
                lower = fn().item()
                flat[c] = original
            numeric = (upper - lower) / (2.0 * _EPS)
            err = abs(analytic[c] - numeric) / (abs(analytic[c]) + abs(numeric) + _DENOM_FLOOR)
            worst = max(worst, err)
    return worst


# Exhaustive sweeps of the whole network cost thousands of forward passes for
# no extra signal; one coordinate per tensor still reaches every parameter.
_NET_MAX_COORDS = 1


def run_case(name: str, *, max_coords: int | None = None) -> float:
    fn, targets = build_case(name)
    if name == "net" and max_coords is None:
        max_coords = _NET_MAX_COORDS
    return check_gradients(fn, targets, max_coords=max_coords)


def run_all(
    names: tuple[str, ...] = CASES, *, max_coords: int | None = None
) -> list[tuple[str, float]]:
    return [(name, run_case(name, max_coords=max_coords)) for name in names]
