"""Adam optimizer over named parameters.

Moments are kept per parameter name so optimizer state can be checkpointed
and restored against a freshly built network.
"""

from __future__ import annotations

import sys
from numbers import Real

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Parameter, _all_finite

__all__ = ["Adam", "check_hyper"]

# Kingma & Ba's defaults, fixed; only the learning rate is settable.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def check_hyper(hyper: dict) -> None:
    """Raise ``ConfigError`` unless ``hyper`` holds exactly lr, beta1, beta2 and
    eps, each a finite real number in range: lr and eps positive, betas in [0, 1)."""
    if set(hyper) != {"lr", "beta1", "beta2", "eps"}:
        raise ConfigError(f"Adam needs exactly lr, beta1, beta2 and eps, got {sorted(hyper)}")
    for name, value in hyper.items():
        real = isinstance(value, Real) and not isinstance(value, bool)
        if not (real and abs(value) <= sys.float_info.max):  # false for NaN and inf
            raise ConfigError(f"Adam {name} must be a finite real number, got {value!r}")
        if not (0 <= value < 1 if name.startswith("beta") else value > 0):
            raise ConfigError(f"Adam {name} out of range: {value}")


class Adam:
    def __init__(self, named_params: list[tuple[str, Parameter]], lr: float = 1e-3) -> None:
        self.lr, self.beta1, self.beta2, self.eps = lr, BETA1, BETA2, EPS
        check_hyper(self.hyper)
        self.items = list(named_params)
        if len({name for name, _ in self.items}) != len(self.items):
            raise ConfigError("duplicate parameter names passed to Adam")
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.items}
        self.v = {name: np.zeros_like(p.data) for name, p in self.items}

    @property
    def hyper(self) -> dict:
        return {"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps}

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self.step_count += 1
        t = self.step_count
        for name, param in self.items:
            grad = param.grad
            if grad is None:
                continue
            if not _all_finite(grad):
                raise ContractError(f"non-finite gradient for parameter '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {
            "step": self.step_count,
            "hyper": self.hyper,
            "moments": {name: (self.m[name].copy(), self.v[name].copy()) for name, _ in self.items},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore step, hyperparameters and moments from ``state``.

        Takes ownership of the moment arrays: a contiguous float64 moment is
        stored as given, not copied, and later steps update it in place.
        """
        moments = state["moments"]
        if set(moments) != {name for name, _ in self.items}:
            raise ContractError("optimizer state does not match the parameter set")
        for name, param in self.items:
            m, v = moments[name]
            for blob, store in ((m, self.m), (v, self.v)):
                arr = np.ascontiguousarray(blob, dtype=np.float64)
                if arr.shape != param.data.shape:
                    raise ContractError(f"moment shape mismatch for parameter '{name}'")
                store[name] = arr
        self.step_count = int(state["step"])
        check_hyper(state["hyper"])
        for name, value in state["hyper"].items():  # exactly lr, beta1, beta2 and eps
            setattr(self, name, float(value))
