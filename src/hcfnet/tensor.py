"""Dense float64 tensors with tape-based reverse-mode differentiation.

Tensors wrap C-contiguous numpy arrays of rank 1 to 4.  Every differentiable
operation appends one record to a module-level tape; executing an operation
only after its inputs exist means the tape is already topologically ordered,
so ``backward`` is a single reverse sweep that accumulates gradients into the
reachable leaves.  Gradients keep accumulating across ``backward`` calls until
``zero_grads`` clears them.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DomainError, FileFormatError, ShapeError

MAX_RANK = 4

_FINITE_CHECKS = True


def set_finite_checks(enabled: bool) -> bool:
    """Toggle NaN/Inf screening of operation outputs; returns previous value."""
    global _FINITE_CHECKS
    previous = _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)
    return previous


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


def _check_finite(arr: np.ndarray, op: str) -> None:
    if _FINITE_CHECKS and not np.isfinite(arr).all():
        raise ContractError(f"non-finite values produced by '{op}'")


class Tensor:
    """Immutable float64 array plus gradient slot.

    ``data`` is owned by the tensor and must not be mutated while a recorded
    graph that references it is still alive.  ``grad`` stays ``None`` until a
    backward pass deposits into it.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, values, requires_grad: bool = False):
        arr = _as_array(values)
        _check_shape(arr.shape)
        if _FINITE_CHECKS and not np.isfinite(arr).all():
            raise DomainError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.is_leaf = True

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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic ------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # convenience method forms ----------------------------------------------
    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def softplus(self):
        return softplus(self)

    def sqrt(self):
        return sqrt(self)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis, keepdims)

    def amax(self, axis: int, keepdims: bool = False):
        return amax(self, axis, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


class Parameter(Tensor):
    """Trainable leaf tensor; collected by module traversal for optimizers."""

    def __init__(self, values):
        super().__init__(values, requires_grad=True)


# --- tape ---------------------------------------------------------------


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


_TAPE: list[_Node] = []
_RECORDING = True


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
    per input, in order.
    """
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if _RECORDING and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.is_leaf = False
        _TAPE.append(_Node(op, tuple(inputs), out, backward_fn))
    else:
        out.requires_grad = False
        out.is_leaf = True
    return out


def backward(loss: Tensor) -> None:
    """Reverse sweep from ``loss``; accumulates into reachable leaf ``grad``s.

    Consumes the tape: all records are dropped afterwards.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.is_leaf:
        clear_tape()
        raise ContractError("loss tensor was not produced on the tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owners: dict[int, Tensor] = {id(loss): loss}
    found = False
    try:
        for node in reversed(_TAPE):
            gout = grads.pop(id(node.output), None)
            if gout is None:
                continue
            if node.output is loss:
                found = True
            owners.pop(id(node.output), None)
            input_grads = node.backward_fn(gout)
            for inp, gin in zip(node.inputs, input_grads):
                if gin is None or not inp.requires_grad:
                    continue
                key = id(inp)
                held = grads.get(key)
                grads[key] = gin if held is None else held + gin
                owners[key] = inp
        if not found:
            raise ContractError("loss tensor was not produced on the tape")
        for key, g in grads.items():
            leaf = owners[key]
            if leaf.is_leaf and leaf.requires_grad:
                leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g
    finally:
        clear_tape()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# --- creation -------------------------------------------------------------


def create(
    shape,
    init: str = "zeros",
    *,
    seed: int | None = None,
    value: float = 0.0,
    low: float = 0.0,
    high: float = 1.0,
    requires_grad: bool = False,
) -> Tensor:
    """Build a tensor from a named initialization scheme.

    ``init`` is one of ``zeros``, ``ones``, ``constant`` (uses ``value``),
    ``uniform`` (uses ``low``/``high``) or ``kaiming``; the random inits
    require ``seed`` and are bitwise reproducible for a fixed seed.  The
    kaiming fan-in is the product of all extents after the first.
    """
    shape = tuple(int(e) for e in shape)
    _check_shape(shape)
    if init == "zeros":
        data = np.zeros(shape)
    elif init == "ones":
        data = np.ones(shape)
    elif init == "constant":
        data = np.full(shape, float(value))
    elif init in ("uniform", "kaiming"):
        if seed is None:
            raise ContractError(f"init '{init}' requires a seed")
        rng = np.random.default_rng(seed)
        if init == "uniform":
            data = rng.uniform(low, high, shape)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
            bound = np.sqrt(6.0 / fan_in)
            data = rng.uniform(-bound, bound, shape)
    else:
        raise ContractError(f"unknown init '{init}'")
    return Tensor(data, requires_grad=requires_grad)


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

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record("add", (a, b), a.data + b.data, bw)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "sub")

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record("sub", (a, b), a.data - b.data, bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "mul")

    def bw(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return record("mul", (a, b), a.data * b.data, bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _broadcast_check(a, b, "div")

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = (
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            if b.requires_grad
            else None
        )
        return ga, gb

    return record("div", (a, b), a.data / b.data, bw)


def relu(x: Tensor) -> Tensor:
    def bw(g):
        return ((x.data > 0) * g,)

    return record("relu", (x,), np.maximum(x.data, 0.0), bw)


def _sigmoid(values: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    pos = values >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-values[pos]))
    ex = np.exp(values[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def bw(g):
        return (g * y * (1.0 - y),)

    return record("sigmoid", (x,), y, bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) evaluated without overflow at large |x|."""

    def bw(g):
        return (g * _sigmoid(x.data),)

    return record("softplus", (x,), np.logaddexp(0.0, x.data), bw)


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
    out = x.data.sum(axis=axes, keepdims=keepdims)
    if out.ndim == 0:
        out = out.reshape(1)

    def bw(g):
        if not keepdims:
            g = g.reshape(_kept_shape(x.shape, axes))
        return (np.broadcast_to(g, x.shape).copy(),)

    return record("sum", (x,), out, bw)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    count = int(np.prod([x.shape[a] for a in axes]))
    out = x.data.mean(axis=axes, keepdims=keepdims)
    if out.ndim == 0:
        out = out.reshape(1)

    def bw(g):
        if not keepdims:
            g = g.reshape(_kept_shape(x.shape, axes))
        return (np.broadcast_to(g / count, x.shape).copy(),)

    return record("mean", (x,), out, bw)


def _kept_shape(shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if i in axes else e for i, e in enumerate(shape))


def amax(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; ties route the gradient to the first occurrence."""
    axis = axis % x.data.ndim
    out = x.data.max(axis=axis, keepdims=keepdims)
    if out.ndim == 0:
        out = out.reshape(1)
    idx = x.data.argmax(axis=axis)

    def bw(g):
        if not keepdims:
            g = g.reshape(_kept_shape(x.shape, (axis,)))
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, np.expand_dims(idx, axis), g, axis)
        return (dx,)

    return record("amax", (x,), out, bw)


# --- structural -------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(e) for e in shape)
    _check_shape(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def bw(g):
        return (g.reshape(x.shape),)

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
            for i in range(len(tensors))
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

    def bw(g):
        dx = np.zeros_like(x.data)
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


def pad2d(x: Tensor, top: int, bottom: int, left: int, right: int) -> Tensor:
    """Zero-pad the trailing two axes of an NCHW tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"pad2d expects rank 4, got {x.shape}")
    if min(top, bottom, left, right) < 0:
        raise ShapeError("pad amounts must be non-negative")
    if top == bottom == left == right == 0:
        def bw_id(g):
            return (g,)

        return record("pad2d", (x,), x.data.copy(), bw_id)
    widths = ((0, 0), (0, 0), (top, bottom), (left, right))

    def bw(g):
        h, w = x.shape[2], x.shape[3]
        return (np.ascontiguousarray(g[:, :, top : top + h, left : left + w]),)

    return record("pad2d", (x,), np.pad(x.data, widths), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes with leading broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands need rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")

    def bw(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return ga, gb

    return record("matmul", (a, b), np.matmul(a.data, b.data), bw)


# --- serialization ----------------------------------------------------------

_MAGIC = b"HCFT"


def tensor_to_bytes(values) -> bytes:
    """Little-endian blob: magic, u32 rank, u32 extents, f64 payload."""
    arr = values.data if isinstance(values, Tensor) else _as_array(values)
    _check_shape(arr.shape)
    header = _MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def tensor_from_bytes(blob: bytes) -> Tensor:
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise FileFormatError("bad tensor blob: missing HCFT magic")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if not 1 <= rank <= MAX_RANK:
        raise FileFormatError(f"bad tensor blob: rank {rank}")
    need = 8 + 4 * rank
    if len(blob) < need:
        raise FileFormatError("bad tensor blob: truncated header")
    shape = struct.unpack_from(f"<{rank}I", blob, 8)
    if 0 in shape:
        raise FileFormatError(f"bad tensor blob: zero extent in shape {shape}")
    count = int(np.prod(shape))
    if len(blob) != need + 8 * count:
        raise FileFormatError("bad tensor blob: payload size mismatch")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=need)
    return Tensor(data.reshape(shape).astype(np.float64))


# --- finite differences -----------------------------------------------------


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    coords: Sequence[int] | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must map a tensor to a scalar tensor.  The relative error at each
    checked coordinate is |a - n| / (|a| + |n| + 1e-12).
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ContractError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ContractError("finite_difference_check requires a scalar function")
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    if coords is None:
        coords = range(probe.size)
    worst = 0.0
    flat = probe.data.reshape(-1)
    with no_grad():
        for c in coords:
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
