"""Dense float64 tensors with tape-based reverse-mode differentiation.

Tensors wrap C-contiguous numpy arrays of rank 1 to 4.  Every differentiable
operation appends one record to a module-level tape; executing an operation
only after its inputs exist means the tape is already topologically ordered,
so ``backward`` is a single reverse sweep that accumulates gradients into the
reachable leaves.  Gradients keep accumulating across ``backward`` calls until
``zero_grads`` clears them.

The tape holds arrays, not tensors.  A record names its output by an integer
key and each input by its key, or by the tensor itself for a leaf that needs
a gradient; its backward closure keeps only the arrays that backward reads
(shapes and flags aside), so an activation nobody reads is freed as soon as
the forward drops it.

Each op has one spelling, a function (``add(a, b)``, ``matmul(a, b)``);
``Tensor`` defines no arithmetic operators.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

MAX_RANK = 4


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return np.ascontiguousarray(arr)


def _check_shape(shape: tuple[int, ...]) -> None:
    if not 1 <= len(shape) <= MAX_RANK:
        raise ShapeError(f"rank must be 1..{MAX_RANK}, got shape {shape}")
    if any(int(e) <= 0 for e in shape):
        raise ShapeError(f"extents must be positive, got shape {shape}")


def _all_finite(arr: np.ndarray) -> bool:
    """np.isfinite(arr).all() in one pass without a full-size temporary.

    A NaN or infinity makes the sum non-finite, so a finite sum settles it;
    only a sum that overflows needs the exact min/max test.
    """
    return bool(
        np.isfinite(arr.sum()) or (np.isfinite(arr.min()) and np.isfinite(arr.max()))
    )


class Tensor:
    """Immutable float64 array plus gradient slot.

    ``data`` is owned by the tensor and must not be mutated while a recorded
    graph may have saved it.  ``grad`` stays ``None`` until a backward pass
    deposits into it.  ``key`` is ``None`` for a leaf; a tensor produced on
    the tape carries its record's key there, never the record itself, so
    holding an output does not keep the graph's saved arrays alive.
    """

    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, values, requires_grad: bool = False):
        arr = _as_array(values)
        _check_shape(arr.shape)
        if not _all_finite(arr):
            raise DomainError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.key: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.key is None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """Trainable leaf tensor; collected by module traversal for optimizers."""

    def __init__(self, values):
        super().__init__(values, requires_grad=True)


# --- tape ---------------------------------------------------------------


class _Node:
    """One tape record: its output's key, one grad target per input (the
    input's key if it came off the tape, the tensor if it is a leaf that
    needs a gradient, else ``None``) and the backward closure."""

    __slots__ = ("key", "targets", "backward_fn")

    def __init__(self, key, targets, backward_fn):
        self.key = key
        self.targets = targets
        self.backward_fn = backward_fn


_TAPE: list[_Node] = []
_KEYS = itertools.count()
_RECORDING = True
_OBSERVER: Callable[[str, Sequence[Tensor], Tensor], None] | None = None


@contextmanager
def no_grad():
    """Suspend tape recording inside the block."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = previous


@contextmanager
def observe(fn: Callable[[str, Sequence[Tensor], Tensor], None]):
    """Call ``fn(op, inputs, out)`` for every op run inside the block,
    whether or not it goes on the tape."""
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = fn
    try:
        yield
    finally:
        _OBSERVER = previous


def tape_length() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    _TAPE.clear()


def record(
    op: str,
    inputs: Sequence[Tensor],
    out_data: np.ndarray,
    backward_fn: Callable[[np.ndarray], tuple],
) -> Tensor:
    """Wrap ``out_data`` in a tensor, appending a tape record when needed.

    ``backward_fn`` maps the output gradient to one gradient (or ``None``)
    per input, in order.  The record keeps ``backward_fn`` and no tensor but
    the leaves it deposits into, so the closure must capture only the arrays
    its backward reads, never an input or output tensor.
    """
    if not _all_finite(out_data):
        raise ContractError(f"non-finite values produced by '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.key = None
    out.requires_grad = False
    if _RECORDING and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.key = next(_KEYS)
        targets = tuple(
            t.key if t.key is not None else (t if t.requires_grad else None) for t in inputs
        )
        _TAPE.append(_Node(out.key, targets, backward_fn))
    if _OBSERVER is not None:
        _OBSERVER(op, inputs, out)
    return out


def backward(loss: Tensor) -> None:
    """Reverse sweep from ``loss``; accumulates into reachable leaf ``grad``s.

    Gradients are keyed by grad target, and each is summed in reverse tape
    order.  Consumes the tape: each record is popped as the sweep reaches
    it, so the arrays its closure saved are released as soon as it has run,
    and all records are gone afterwards.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.is_leaf:
        clear_tape()
        raise ContractError("loss tensor was not produced on the tape")
    grads: dict[int | Tensor, np.ndarray] = {loss.key: np.ones_like(loss.data)}
    found = False
    try:
        while _TAPE:
            node = _TAPE.pop()
            gout = grads.pop(node.key, None)
            if gout is None:
                continue
            found = found or node.key == loss.key
            _deposit(grads, node.targets, node.backward_fn(gout))
        if not found:
            raise ContractError("loss tensor was not produced on the tape")
        for target, g in grads.items():
            if isinstance(target, Tensor):
                target.grad = g.copy() if target.grad is None else target.grad + g
    finally:
        clear_tape()


def _deposit(grads: dict, targets: tuple, input_grads: tuple) -> None:
    # A function of its own, so no input gradient outlives this call in a
    # local of the sweep while the next node's backward runs.
    for target, gin in zip(targets, input_grads):
        if gin is not None and target is not None:
            held = grads.get(target)
            grads[target] = gin if held is None else held + gin


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    try:
        out_shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc
    if len(out_shape) > MAX_RANK:
        raise ShapeError(f"{op}: broadcast rank {len(out_shape)} exceeds {MAX_RANK}")
    return out_shape


# --- elementwise ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "add")
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return record("add", (a, b), a.data + b.data, bw)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "sub")
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return record("sub", (a, b), a.data - b.data, bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "mul")
    a_shape, b_shape = a.shape, b.shape
    # Each operand's gradient reads the other operand.
    b_data = b.data if a.requires_grad else None
    a_data = a.data if b.requires_grad else None

    def bw(g):
        ga = _unbroadcast(g * b_data, a_shape) if b_data is not None else None
        gb = _unbroadcast(g * a_data, b_shape) if a_data is not None else None
        return ga, gb

    return record("mul", (a, b), a.data * b.data, bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "div")
    a_shape, b_shape = a.shape, b.shape
    a_grad = a.requires_grad
    b_data = b.data
    a_data = a.data if b.requires_grad else None

    def bw(g):
        ga = _unbroadcast(g / b_data, a_shape) if a_grad else None
        gb = (
            _unbroadcast(-g * a_data / (b_data * b_data), b_shape)
            if a_data is not None
            else None
        )
        return ga, gb

    return record("div", (a, b), a.data / b.data, bw)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def bw(g):
        # y > 0 exactly where x > 0, so the output alone gives the mask.
        return ((y > 0) * g,)

    return record("relu", (x,), y, bw)


def _sigmoid(values: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below.  Dividing in place holds only e and 1 + e at full size.
    e = np.abs(values)
    np.exp(np.negative(e, out=e), out=e)
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=e, where=values >= 0)
    return e


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def bw(g):
        return (g * y * (1.0 - y),)

    return record("sigmoid", (x,), y, bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) evaluated without overflow at large |x|."""
    xd = x.data

    def bw(g):
        return (g * _sigmoid(xd),)

    return record("softplus", (x,), np.logaddexp(0.0, xd), bw)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)

    def bw(g):
        return (g * 0.5 / y,)

    return record("sqrt", (x,), y, bw)


# --- reductions -------------------------------------------------------------


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    shape = x.shape
    out = x.data.sum(axis=axes, keepdims=keepdims)
    if out.ndim == 0:
        out = out.reshape(1)

    def bw(g):
        if not keepdims:
            g = g.reshape(_kept_shape(shape, axes))
        return (np.broadcast_to(g, shape).copy(),)

    return record("sum", (x,), out, bw)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    shape = x.shape
    count = int(np.prod([shape[a] for a in axes]))
    out = x.data.mean(axis=axes, keepdims=keepdims)
    if out.ndim == 0:
        out = out.reshape(1)

    def bw(g):
        if not keepdims:
            g = g.reshape(_kept_shape(shape, axes))
        return (np.broadcast_to(g / count, shape).copy(),)

    return record("mean", (x,), out, bw)


def _kept_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if i in axes else e for i, e in enumerate(shape))


def amax(x: Tensor, axis: int) -> Tensor:
    """Max along one axis, kept as extent 1; ties route the gradient to the
    first occurrence."""
    xd = x.data
    axis = axis % xd.ndim
    out = xd.max(axis=axis, keepdims=True)

    def bw(g):
        dx = np.zeros_like(xd)
        idx = np.expand_dims(xd.argmax(axis=axis), axis)
        np.put_along_axis(dx, idx, g, axis)
        return (dx,)

    return record("amax", (x,), out, bw)


# --- structural -------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(e) for e in shape)
    _check_shape(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    in_shape = x.shape

    def bw(g):
        return (g.reshape(in_shape),)

    return record("reshape", (x,), x.data.reshape(shape), bw)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"invalid transpose axes {axes} for shape {x.shape}")
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return record("transpose", (x,), np.ascontiguousarray(x.data.transpose(axes)), bw)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    axis = axis % tensors[0].data.ndim
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.ascontiguousarray(
                np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            )
            for i in range(len(sizes))
        )

    out = np.concatenate([t.data for t in tensors], axis=axis)
    return record("concat", tuple(tensors), out, bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    axis = axis % x.data.ndim
    if start < 0 or length <= 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of bounds for axis {axis} of {x.shape}"
        )
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    shape = x.shape

    def bw(g):
        dx = np.zeros(shape)
        dx[index] = g
        return (dx,)

    return record("narrow", (x,), np.ascontiguousarray(x.data[index]), bw)


def permute_channels(x: Tensor, perm) -> Tensor:
    """Reorder axis 1 by a permutation; backward applies the inverse."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(x.shape[1])):
        raise ShapeError(f"not a permutation of {x.shape[1]} channels")
    inverse = np.argsort(perm)

    def bw(g):
        return (np.ascontiguousarray(g[:, inverse]),)

    return record("permute_channels", (x,), np.ascontiguousarray(x.data[:, perm]), bw)


def pad2d(x: Tensor, bottom: int, right: int) -> Tensor:
    """Zero-pad the bottom and right edges of an NCHW tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"pad2d expects rank 4, got {x.shape}")
    if min(bottom, right) < 0:
        raise ShapeError("pad amounts must be non-negative")
    widths = ((0, 0), (0, 0), (0, bottom), (0, right))
    h, w = x.shape[2], x.shape[3]

    def bw(g):
        return (np.ascontiguousarray(g[:, :, :h, :w]),)

    return record("pad2d", (x,), np.pad(x.data, widths), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes with leading broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands need rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    # Each operand's gradient reads the other operand.
    b_data = b.data if a.requires_grad else None
    a_data = a.data if b.requires_grad else None

    def bw(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(np.matmul(g, b_data.swapaxes(-1, -2)), a_shape)
        if a_data is not None:
            gb = _unbroadcast(np.matmul(a_data.swapaxes(-1, -2), g), b_shape)
        return ga, gb

    return record("matmul", (a, b), np.matmul(a.data, b.data), bw)
