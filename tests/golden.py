"""Digests of the default training trajectory and of inference frames,
shared by the golden test and the child processes it starts."""

from __future__ import annotations

import hashlib

import numpy as np

from hcfnet.network import NetworkConfig, build_network
from hcfnet.optim import Adam
from hcfnet.train import TrainConfig, infer_image, train

# The trajectory the bit-for-bit claims name: the default network without
# dropout from init seed 3, eight 64x64 scenes from data seed 156, batch 4.
NET_CONFIG = NetworkConfig(dropout=0.0)
INIT_SEED = 3
DATA_SEED = 156


def digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def run_trajectory(epochs: int, checkpoint_path: str | None = None) -> tuple[list[str], str]:
    """Train the default trajectory; return its epoch lines and the digest
    of the parameter gradients of its first step."""
    grads: list[str] = []
    step = Adam.step

    def first_step(self):
        if not grads:
            grads.append(digest(p.grad for _, p in self.items))
        step(self)

    config = TrainConfig(
        epochs=epochs, seed=INIT_SEED, synthetic_seed=DATA_SEED, checkpoint_path=checkpoint_path
    )
    Adam.step = first_step
    try:
        result = train(NET_CONFIG, config)
    finally:
        Adam.step = step
    return result.log_lines, grads[0]


def infer_digest(size: int) -> str:
    """Digest of ``infer_image`` on a fixed size x size frame."""
    network = build_network(NET_CONFIG, seed=INIT_SEED)
    image = np.random.default_rng(size).random((size, size))
    return digest([infer_image(network, image)])


def blas_configuration() -> str:
    """numpy and the OpenBLAS build and core it runs, e.g. '... Haswell ...'."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = blas.get("openblas configuration", blas.get("name", "unknown"))
    return f"numpy {np.__version__}, {core}"
