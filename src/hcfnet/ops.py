"""Neural-network operations over NCHW tensors.

Convolution is im2col plus a grouped matmul; the im2col gather and its
scatter adjoint loop only over kernel taps, so each tap is one bulk strided
copy, clipped to the input: zero padding is written into the columns, never
into a padded copy of the input or its gradient.  The forward gathers and
multiplies in bands of whole output rows, so no band's column buffer exceeds
``_BAND_BYTES`` and large frames never materialise the full column tensor.
Backward builds the input gradient's columns in the same bands, scattering
each before the next, and only then recomputes the full-extent columns for
the weight gradient (its GEMM stays unsplit, which keeps its summation
order), so the two column buffers are never alive together.  All spatial ops
define exact adjoints so the tape gradients match central differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, _unbroadcast, record

__all__ = [
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "bilinear_resize",
    "softmax",
    "unfold_patches",
    "batch_norm",
    "channel_conv1d",
]


def _conv_extent(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    span = dilation * (kernel - 1) + 1
    out = (size + 2 * padding - span) // stride + 1
    if out < 1:
        raise ShapeError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding} dilation={dilation}"
        )
    return out


# Column-buffer bytes per forward band, sized to the 2 MiB per-core L2
# (2 to 8 MiB time alike on a 512x512 frame; 1 MiB is slower).
_BAND_BYTES = 4 << 20


def _clip(first: int, count: int, stride: int, size: int) -> tuple[slice, slice]:
    """Split the reads ``first + k * stride`` for k < count against [0, size).

    Returns the slice of k whose reads land inside and the slice they read;
    every other k reads zero padding.
    """
    lo = min(count, max(0, -(first // stride)))
    hi = max(lo, min(count, (size - 1 - first) // stride + 1))
    if hi == lo:
        return slice(0, 0), slice(0, 0)
    start = first + lo * stride
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _taps(kh: int, kw: int, stride: int, dilation: int, padding: int, rows: range, ow: int,
          h: int, w: int):
    """Yield (u, v, dst, src) per kernel tap in row-major order: cells
    ``dst`` of the band's [len(rows), ow] output grid read ``x[src]`` of the
    unpadded [h, w] input through tap (u, v); the others read padding."""
    cols = [_clip(v * dilation - padding, ow, stride, w) for v in range(kw)]
    for u in range(kh):
        di, si = _clip(rows.start * stride + u * dilation - padding, len(rows), stride, h)
        for v, (dj, sj) in enumerate(cols):
            yield u, v, (..., di, dj), (..., si, sj)


def _gather_taps(
    x: np.ndarray, kh: int, kw: int, stride: int, dilation: int, padding: int, rows: range, ow: int
) -> np.ndarray:
    n, c, h, w = x.shape
    col = np.empty((n, c, kh, kw, len(rows), ow))
    for u, v, dst, src in _taps(kh, kw, stride, dilation, padding, rows, ow, h, w):
        tap = col[:, :, u, v]
        tap[dst] = x[src]
        _, di, dj = dst
        # Zero only the border strips whose reads fall in the padding.
        if di.start:
            tap[..., : di.start, :] = 0.0
        if di.stop < len(rows):
            tap[..., di.stop :, :] = 0.0
        if dj.start:
            tap[..., di, : dj.start] = 0.0
        if dj.stop < ow:
            tap[..., di, dj.stop :] = 0.0
    return col


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation; weight is [out_c, in_c/groups, kh, kw]."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 x and weight, got {x.shape}, {weight.shape}")
    if stride < 1 or dilation < 1 or padding < 0 or groups < 1:
        raise ShapeError("conv2d hyperparameters out of range")
    n, c, h, w = x.shape
    out_c, c_per_g, kh, kw = weight.shape
    if c != c_per_g * groups or out_c % groups:
        raise ShapeError(
            f"conv2d channel mismatch: x has {c}, weight {weight.shape}, groups={groups}"
        )
    if bias is not None and bias.shape != (out_c,):
        raise ShapeError(f"conv2d bias must be ({out_c},), got {bias.shape}")
    oh = _conv_extent(h, kh, stride, padding, dilation)
    ow = _conv_extent(w, kw, stride, padding, dilation)
    o_per_g = out_c // groups
    positions = oh * ow
    pointwise = kh == kw == 1 and stride == 1 and padding == 0

    def columns(xd: np.ndarray, rows: range) -> np.ndarray:
        if pointwise:
            return xd[:, :, rows.start : rows.stop].reshape(n, groups, c_per_g, len(rows) * ow)
        col = _gather_taps(xd, kh, kw, stride, dilation, padding, rows, ow)
        return col.reshape(n, groups, c_per_g * kh * kw, len(rows) * ow)

    w2 = weight.data.reshape(groups, o_per_g, c_per_g * kh * kw)
    out = np.empty((n, out_c, oh, ow))
    outm = out.reshape(n, groups, o_per_g, positions)
    band = oh if pointwise else max(1, _BAND_BYTES // (n * c * kh * kw * ow * 8))
    bands = [range(r0, min(r0 + band, oh)) for r0 in range(0, oh, band)]
    for rows in bands:
        np.matmul(w2, columns(x.data, rows), out=outm[..., rows.start * ow : rows.stop * ow])
    if bias is not None:
        out += bias.data.reshape(1, out_c, 1, 1)

    def grad_input(g4: np.ndarray) -> np.ndarray:
        """Scatter each band's column gradient into the input; taps that
        read padding drop their share.

        Bands run last to first so every pixel still receives its taps in
        ascending (u, v) order, as a single full-extent scatter would.
        """
        wt = w2.swapaxes(1, 2)
        if pointwise:
            return np.matmul(wt, g4).reshape(n, c, h, w)
        dx = np.zeros((n, c, h, w))
        for rows in reversed(bands):
            dcol = np.matmul(wt, g4[..., rows.start * ow : rows.stop * ow])
            dcol = dcol.reshape(n, c, kh, kw, len(rows), ow)
            for u, v, dst, src in _taps(kh, kw, stride, dilation, padding, rows, ow, h, w):
                dx[src] += dcol[:, :, u, v][dst]
        return dx

    x_grad = x.requires_grad
    x_saved = x.data if weight.requires_grad else None  # read by the weight gradient
    w_shape = weight.shape
    has_bias = bias is not None
    b_grad = has_bias and bias.requires_grad

    def bw(gout):
        g4 = gout.reshape(n, groups, o_per_g, positions)
        grad_x = grad_input(g4) if x_grad else None
        grad_w = None
        if x_saved is not None:
            colm = columns(x_saved, range(oh))
            grad_w = np.matmul(g4, colm.swapaxes(2, 3)).sum(axis=0).reshape(w_shape)
        if not has_bias:
            return grad_x, grad_w
        return grad_x, grad_w, (gout.sum(axis=(0, 2, 3)) if b_grad else None)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return record("conv2d", inputs, out, bw)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Transposed convolution, kernel 2x2 and stride 2: exact adjoint of the
    matching strided convolution, doubling both spatial extents.

    Weight layout is [in_c, out_c, 2, 2]; tap (u, v) of input cell (i, j)
    lands at output pixel (2i+u, 2j+v), so no two contributions overlap.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError("conv_transpose2d expects rank-4 x and weight")
    n, c, h, w = x.shape
    c_in, out_c, kh, kw = weight.shape
    if kh != 2 or kw != 2:
        raise ShapeError(f"conv_transpose2d supports 2x2 kernels, got {kh}x{kw}")
    if c_in != c:
        raise ShapeError(f"conv_transpose2d channel mismatch: x {c}, weight {c_in}")
    if bias.shape != (out_c,):
        raise ShapeError(f"conv_transpose2d bias must be ({out_c},)")
    positions = h * w
    xm = x.data.reshape(n, c, positions).transpose(0, 2, 1)
    w2 = weight.data.reshape(c, out_c * 4)
    om = np.matmul(xm, w2)
    out = (
        om.reshape(n, h, w, out_c, 2, 2)
        .transpose(0, 3, 1, 4, 2, 5)
        .reshape(n, out_c, 2 * h, 2 * w)
    )
    out = np.ascontiguousarray(out)
    out += bias.data.reshape(1, out_c, 1, 1)

    x_grad = x.requires_grad
    xm_saved = xm if weight.requires_grad else None  # read by the weight gradient
    w_shape = weight.shape
    b_grad = bias.requires_grad

    def bw(gout):
        gm = (
            gout.reshape(n, out_c, h, 2, w, 2)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(n, positions, out_c * 4)
        )
        grad_x = grad_w = None
        if x_grad:
            grad_x = np.ascontiguousarray(
                np.matmul(gm, w2.T).transpose(0, 2, 1).reshape(n, c, h, w)
            )
        if xm_saved is not None:
            grad_w = np.matmul(xm_saved.swapaxes(1, 2), gm).sum(axis=0).reshape(w_shape)
        return grad_x, grad_w, (gout.sum(axis=(0, 2, 3)) if b_grad else None)

    return record("conv_transpose2d", (x, weight, bias), out, bw)


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first
    window element in row-major order."""
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d expects rank 4, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2d needs even spatial extents, got {h}x{w}")
    xd = x.data
    # Window element (u, v) of every window, in row-major order.
    taps = [(..., slice(u, None, 2), slice(v, None, 2)) for u in (0, 1) for v in (0, 1)]

    def peak() -> np.ndarray:
        out = np.maximum(xd[taps[0]], xd[taps[1]])
        np.maximum(out, xd[taps[2]], out=out)
        np.maximum(out, xd[taps[3]], out=out)
        return out

    def bw(gout):
        top = peak()
        dx = np.zeros((n, c, h, w))
        free = np.ones(top.shape, dtype=bool)
        for tap in taps:
            hit = xd[tap] == top
            hit &= free
            np.copyto(dx[tap], gout, where=hit)
            free &= ~hit
        return (dx,)

    return record("max_pool2d", (x,), peak(), bw)


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Rows hold the two linear-interpolation weights for each output cell.

    Source coordinates follow the half-pixel convention (align_corners
    false); indices beyond the border clamp, replicating edge values.
    """
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(src).astype(np.int64)
    t = src - lo
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in))
    np.add.at(m, (rows, np.clip(lo, 0, n_in - 1)), 1.0 - t)
    np.add.at(m, (rows, np.clip(lo + 1, 0, n_in - 1)), t)
    return m


# Output cells per interpolation GEMM.  A block multiplies only the span of
# source cells its outputs weight; 64 or fewer outputs make one block that
# reads every source cell, the dense product itself.
_RESAMPLE_BLOCK = 64


def _resample(m: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """``m @ x`` along axis -2 (``axis=-2``) or ``x @ m.T`` along axis -1,
    in blocks of ``_RESAMPLE_BLOCK`` rows of m."""
    n_out, n_in = m.shape
    shape = list(x.shape)
    shape[axis] = n_out
    out = np.empty(shape)
    block = min(n_out, _RESAMPLE_BLOCK)
    for r0 in range(0, n_out, block):
        rows = slice(r0, r0 + block)
        span = slice(0, n_in)
        if block < n_out:
            used = (m[rows] != 0).any(axis=0)
            span = slice(int(used.argmax()), n_in - int(used[::-1].argmax()))
        if axis == -2:
            np.matmul(m[rows, span], x[..., span, :], out=out[..., rows, :])
        else:
            np.matmul(x[..., span], m[rows, span].T, out=out[..., rows])
    return out


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable bilinear resampling to (out_h, out_w).

    When the target equals the source shape the input itself is returned:
    no copy and no tape record.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects rank 4, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be positive, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if out_h == h and out_w == w:
        return x
    mh = _interp_matrix(h, out_h) if out_h != h else None
    mw = _interp_matrix(w, out_w) if out_w != w else None
    out = x.data
    if mh is not None:
        out = _resample(mh, out, -2)
    if mw is not None:
        out = _resample(mw, out, -1)

    def bw(gout):
        g = gout
        if mw is not None:
            g = _resample(mw.T, g, -1)
        if mh is not None:
            g = _resample(mh.T, g, -2)
        return (g,)

    return record("bilinear_resize", (x,), out, bw)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Stable softmax along one axis; each slice sums to one."""
    axis = axis % x.data.ndim
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(gout):
        inner = (gout * y).sum(axis=axis, keepdims=True)
        return ((gout - inner) * y,)

    return record("softmax", (x,), y, bw)


def unfold_patches(x: Tensor, patch: int) -> Tensor:
    """Rearrange [N,C,H,W] into [N, C, patch*patch, H/patch * W/patch].

    Cell (u, v) of the patch at grid position (i, j) is x[..., i*p+u, j*p+v];
    both the patch axis and the position axis are row-major.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"unfold_patches expects rank 4, got {x.shape}")
    n, c, h, w = x.shape
    if patch < 1 or h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide spatial extents {h}x{w}")
    gh, gw = h // patch, w // patch
    out = (
        x.data.reshape(n, c, gh, patch, gw, patch)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, c, patch * patch, gh * gw)
    )

    def bw(gout):
        dx = (
            gout.reshape(n, c, patch, patch, gh, gw)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, c, h, w)
        )
        return (np.ascontiguousarray(dx),)

    return record("unfold_patches", (x,), np.ascontiguousarray(out), bw)


_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    train: bool,
) -> Tensor:
    """Per-channel normalization over (N, H, W) plus affine transform.

    One tape op in both modes.  Training mode normalizes with biased batch
    statistics, updates the running buffers in place (unbiased variance, decay
    ``_BN_MOMENTUM``) and keeps x, recomputing the centred input in backward.
    Eval mode normalizes with the running buffers as constants and keeps the
    centred input, only when gamma needs a gradient.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects rank 4, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm affine params must have shape ({c},)")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ShapeError(f"batch_norm running stats must have shape ({c},)")
    axes, chan = (0, 2, 3), (1, c, 1, 1)
    count = n * h * w
    if train:
        mu = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        s = np.sqrt(var + _BN_EPS)
        if not np.isfinite(s).all():
            raise ContractError("non-finite batch variance in 'batch_norm'")
        batch_var = var.reshape(c)
        if count > 1:
            batch_var = batch_var * (count / (count - 1.0))
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mu.reshape(c)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * batch_var
    else:
        mu, s = running_mean.reshape(chan), np.sqrt(running_var + _BN_EPS).reshape(chan)
        centered = x.data - mu
    g4 = gamma.data.reshape(chan)
    out = centered / s
    out *= g4
    out += beta.data.reshape(chan)
    saved = x.data if train else (centered if gamma.requires_grad else None)
    x_grad = x.requires_grad

    def bw(g):
        # Train mode replays the tape of mean, sub, mul, mean, add-eps, sqrt,
        # div, scale and shift in reverse with the same groupings, so the
        # gradients equal that composition's bit for bit when this op is x's
        # only consumer.  In eval mode mu and s are constants: x gets g_norm / s.
        centered = saved - mu if train else saved
        grad_beta = _unbroadcast(g, chan).reshape(c)
        grad_gamma = None if centered is None else _unbroadcast(g * (centered / s), chan).reshape(c)
        if not x_grad:
            return None, grad_gamma, grad_beta
        g_norm = g * g4
        if not train:
            return g_norm / s, grad_gamma, grad_beta
        g_s = _unbroadcast(-g_norm * centered / (s * s), chan)
        g_sq = g_s * 0.5 / s / count
        g_centered = g_norm / s + g_sq * centered + g_sq * centered
        g_mu = _unbroadcast(-g_centered, chan)
        return g_centered + g_mu / count, grad_gamma, grad_beta

    return record("batch_norm", (x, gamma, beta), out, bw)


def channel_conv1d(x: Tensor, weight: Tensor) -> Tensor:
    """Single-filter 1-D correlation along axis 1 of [N, C] with same
    padding; used for channel attention over pooled descriptors."""
    if x.data.ndim != 2 or weight.data.ndim != 1:
        raise ShapeError("channel_conv1d expects x rank 2 and weight rank 1")
    (k,) = weight.shape
    if k % 2 == 0:
        raise ShapeError(f"channel_conv1d kernel must be odd, got {k}")
    n, c = x.shape
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((0, 0), (pad, pad)))
    wd = weight.data
    out = np.zeros((n, c))
    for u in range(k):
        out += wd[u] * xp[:, u : u + c]
    x_grad, w_grad = x.requires_grad, weight.requires_grad

    def bw(gout):
        grad_x = grad_w = None
        if w_grad:
            grad_w = np.array([(gout * xp[:, u : u + c]).sum() for u in range(k)])
        if x_grad:
            dxp = np.zeros_like(xp)
            for u in range(k):
                dxp[:, u : u + c] += wd[u] * gout
            grad_x = np.ascontiguousarray(dxp[:, pad : pad + c])
        return grad_x, grad_w

    return record("channel_conv1d", (x, weight), out, bw)
