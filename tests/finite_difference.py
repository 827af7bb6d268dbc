"""Central-difference gradient check for single tape ops in the tests.

The package's own checker, ``hcfnet.gradcheck.check_gradients``, floors its
error denominator at 1e-4 so structurally zero gradients of whole blocks do
not read as failures.  The op tests keep the stricter 1e-12 denominator
here, so their assertions stay as tight as they were.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from hcfnet.errors import ContractError
from hcfnet.tensor import Tensor, backward, no_grad


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must map a tensor to a scalar tensor.  The relative error at each
    coordinate is |a - n| / (|a| + |n| + 1e-12).
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ContractError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ContractError("finite_difference_check requires a scalar function")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    worst = 0.0
    flat = probe.data.reshape(-1)
    with no_grad():
        for c in range(probe.size):
            saved = flat[c]
            flat[c] = saved + eps
            upper = f(probe).item()
            flat[c] = saved - eps
            lower = f(probe).item()
            flat[c] = saved
            numeric = (upper - lower) / (2.0 * eps)
            a = float(analytic.reshape(-1)[c])
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
