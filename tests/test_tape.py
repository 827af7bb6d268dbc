"""The tape keeps only the arrays each op's backward reads.

Every op is listed the way ``benchmarks/tracer.py`` finds them, so an op
added without an entry here fails ``test_every_op_has_a_case``.  Each case
feeds the op a non-leaf input, drops every Python name for it, and checks
through a weak reference that the input's array outlives the forward only
when the op's backward reads it; the gradients must match a run that kept
the input alive.
"""

import gc
import inspect
import weakref

import numpy as np
import pytest

from hcfnet import ops, tensor
from hcfnet.ops import (
    batch_norm,
    bilinear_resize,
    channel_conv1d,
    conv2d,
    conv_transpose2d,
    max_pool2d,
    softmax,
    unfold_patches,
)
from hcfnet.tensor import (
    Parameter,
    Tensor,
    add,
    amax,
    backward,
    concat,
    div,
    matmul,
    mul,
    narrow,
    pad2d,
    permute_channels,
    relu,
    reshape,
    sigmoid,
    softplus,
    sqrt,
    sub,
    tmean,
    transpose,
    tsum,
)


def op_names() -> set[str]:
    """``ops.__all__`` plus the public tensor functions that call ``record``."""
    names = set(ops.__all__)
    for name, value in vars(tensor).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == tensor.__name__
            and not name.startswith("_")
            and name != "record"
            and "record" in value.__code__.co_names
        ):
            names.add(name)
    return names


def uniform(shape, seed, low=-1.0, high=1.0):
    return np.random.default_rng(seed).uniform(low, high, shape)


def param(shape, seed=1):
    return Parameter(uniform(shape, seed))


def const(shape, seed=2):
    return Tensor(uniform(shape, seed, 0.5, 1.5))


def bn_train(x):
    c = x.shape[1]
    return batch_norm(x, param((c,), 3), param((c,), 4), np.zeros(c), np.ones(c), train=True)


def bn_eval(x):
    c = x.shape[1]
    return batch_norm(x, param((c,), 3), param((c,), 4), np.zeros(c), np.ones(c), train=False)


NCHW = (2, 3, 4, 4)

# op -> cases of (input shape, lowest input value, op applied to x, whether
# the input's array must stay on the tape).
CASES = {
    "add": [(NCHW, -1, lambda x: add(x, x), False)],
    "sub": [(NCHW, -1, lambda x: sub(x, const(NCHW)), False)],
    "mul": [
        (NCHW, -1, lambda x: mul(x, const(NCHW)), False),
        (NCHW, -1, lambda x: mul(x, param(NCHW)), True),
    ],
    "div": [
        (NCHW, -1, lambda x: div(x, const(NCHW)), False),
        (NCHW, 0.5, lambda x: div(const(NCHW), x), True),
        (NCHW, -1, lambda x: div(x, Parameter(uniform(NCHW, 1, 0.5, 1.5))), True),
    ],
    "relu": [(NCHW, -1, relu, False)],
    "sigmoid": [(NCHW, -1, sigmoid, False)],
    "softplus": [(NCHW, -1, softplus, True)],
    "sqrt": [(NCHW, 0.5, sqrt, False)],
    "tsum": [(NCHW, -1, lambda x: tsum(x, axis=(0, 2)), False)],
    "tmean": [(NCHW, -1, lambda x: tmean(x, axis=1, keepdims=True), False)],
    "amax": [(NCHW, -1, lambda x: amax(x, axis=2), True)],
    "reshape": [(NCHW, -1, lambda x: reshape(x, (6, 16)), False)],
    "transpose": [(NCHW, -1, lambda x: transpose(x, (0, 2, 3, 1)), False)],
    "concat": [(NCHW, -1, lambda x: concat([x, const(NCHW), x], axis=1), False)],
    "narrow": [
        (NCHW, -1, lambda x: narrow(x, 0, 0, 1), False),
        (NCHW, -1, lambda x: narrow(x, 1, 1, 2), False),
    ],
    "permute_channels": [(NCHW, -1, lambda x: permute_channels(x, [2, 0, 1]), False)],
    "pad2d": [(NCHW, -1, lambda x: pad2d(x, 2, 1), False)],
    "matmul": [
        ((2, 3, 4), -1, lambda x: matmul(x, const((4, 5))), False),
        ((2, 3, 4), -1, lambda x: matmul(x, param((4, 5))), True),
        ((2, 4, 3), -1, lambda x: matmul(param((2, 5, 4)), x), True),
    ],
    "conv2d": [
        (NCHW, -1, lambda x: conv2d(x, param((5, 3, 3, 3)), param((5,)), padding=1), True),
        (NCHW, -1, lambda x: conv2d(x, const((5, 3, 3, 3)), padding=1), False),
        (NCHW, -1, lambda x: conv2d(x, param((6, 1, 1, 1)), groups=3), True),
    ],
    "conv_transpose2d": [
        (NCHW, -1, lambda x: conv_transpose2d(x, param((3, 2, 2, 2)), param((2,))), True),
        (NCHW, -1, lambda x: conv_transpose2d(x, const((3, 2, 2, 2)), const((2,))), False),
    ],
    "max_pool2d": [(NCHW, -1, max_pool2d, True)],
    "bilinear_resize": [
        (NCHW, -1, lambda x: bilinear_resize(x, 8, 6), False),
        (NCHW, -1, lambda x: bilinear_resize(x, 4, 4), False),
    ],
    "softmax": [(NCHW, -1, lambda x: softmax(x, axis=1), False)],
    "unfold_patches": [(NCHW, -1, lambda x: unfold_patches(x, 2), False)],
    "batch_norm": [(NCHW, -1, bn_train, True), (NCHW, -1, bn_eval, False)],
    # Saves its padded copy of the input, not the input's own array.
    "channel_conv1d": [((2, 6), -1, lambda x: channel_conv1d(x, param((3,))), False)],
}


def test_every_op_has_a_case():
    assert op_names() == set(CASES)


def _run(shape, low, fn, keep):
    """Apply ``fn`` to a non-leaf x; return (x.data still alive, leaf grads)."""
    leaf = Parameter(uniform(shape, 0, low, low + 2.0))
    x = add(leaf, 0.0)
    probe = weakref.ref(x.data)
    out = fn(x)
    weights = Tensor(uniform(out.shape, 5))
    loss = tsum(mul(out, weights))
    kept = (x, out) if keep else ()
    del x, out
    gc.collect()
    alive = probe() is not None
    backward(loss)
    del kept
    return alive, leaf.grad


@pytest.mark.parametrize(
    "op,index",
    [(op, i) for op in sorted(CASES) for i in range(len(CASES[op]))],
)
def test_input_array_saved_only_when_backward_reads_it(op, index):
    shape, low, fn, held = CASES[op][index]
    alive, grad = _run(shape, low, fn, keep=False)
    assert alive is held, f"{op} case {index}: input array alive={alive}, expected {held}"
    _, grad_kept = _run(shape, low, fn, keep=True)
    assert grad is not None and grad.tobytes() == grad_kept.tobytes()


def test_kept_loss_does_not_hold_saved_arrays():
    # The loss names its record by key, not by reference, so once backward
    # has run the arrays the graph saved are freed while the loss lives on.
    leaf = Parameter(uniform(NCHW, 0))
    x = add(leaf, 0.0)
    probe = weakref.ref(x.data)
    loss = tsum(softplus(x))
    del x
    gc.collect()
    assert probe() is not None
    backward(loss)
    gc.collect()
    assert probe() is None and isinstance(loss.key, int)
