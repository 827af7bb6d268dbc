"""Neural-network operations over NCHW tensors.

Convolution is im2col plus a grouped matmul; the im2col gather and its
scatter adjoint loop only over kernel taps, so each tap is one bulk strided
copy.  The forward gathers and multiplies in bands of whole output rows, so
no band's column buffer exceeds ``_BAND_BYTES`` and large frames never
materialise the full column tensor; backward recomputes the columns over the
full extent.  All spatial ops define exact adjoints so the tape gradients
match central differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, add, div, mul, record, reshape, sqrt, sub, tmean

__all__ = [
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "bilinear_resize",
    "softmax",
    "unfold_patches",
    "fold_patches",
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


def _gather_taps(
    xp: np.ndarray, kh: int, kw: int, stride: int, dilation: int, rows: range, ow: int
) -> np.ndarray:
    n, c = xp.shape[:2]
    col = np.empty((n, c, kh, kw, len(rows), ow))
    for u in range(kh):
        iu = rows.start * stride + u * dilation
        for v in range(kw):
            jv = v * dilation
            col[:, :, u, v] = xp[
                :, :, iu : iu + stride * (len(rows) - 1) + 1 : stride,
                jv : jv + stride * (ow - 1) + 1 : stride,
            ]
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

    def padded() -> np.ndarray:
        if not padding:
            return x.data
        return np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def columns(xp: np.ndarray, rows: range) -> np.ndarray:
        if pointwise:
            return xp[:, :, rows.start : rows.stop].reshape(n, groups, c_per_g, len(rows) * ow)
        col = _gather_taps(xp, kh, kw, stride, dilation, rows, ow)
        return col.reshape(n, groups, c_per_g * kh * kw, len(rows) * ow)

    w2 = weight.data.reshape(groups, o_per_g, c_per_g * kh * kw)
    out = np.empty((n, out_c, oh, ow))
    outm = out.reshape(n, groups, o_per_g, positions)
    band = oh if pointwise else max(1, _BAND_BYTES // (n * c * kh * kw * ow * 8))
    xp = padded()
    for r0 in range(0, oh, band):
        rows = range(r0, min(r0 + band, oh))
        np.matmul(w2, columns(xp, rows), out=outm[..., rows.start * ow : rows.stop * ow])
    if bias is not None:
        out += bias.data.reshape(1, out_c, 1, 1)

    def bw(gout):
        g4 = gout.reshape(n, groups, o_per_g, positions)
        colm = columns(padded(), range(oh))
        grad_w = grad_b = grad_x = None
        if weight.requires_grad:
            grad_w = np.matmul(g4, colm.swapaxes(2, 3)).sum(axis=0).reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            grad_b = gout.sum(axis=(0, 2, 3))
        if x.requires_grad:
            dcol = np.matmul(w2.swapaxes(1, 2), g4)
            if pointwise:
                grad_x = dcol.reshape(n, c, h, w)
            else:
                dcol = dcol.reshape(n, c, kh, kw, oh, ow)
                hp, wp = h + 2 * padding, w + 2 * padding
                dxp = np.zeros((n, c, hp, wp))
                for u in range(kh):
                    iu = u * dilation
                    for v in range(kw):
                        jv = v * dilation
                        dxp[
                            :, :, iu : iu + stride * (oh - 1) + 1 : stride,
                            jv : jv + stride * (ow - 1) + 1 : stride,
                        ] += dcol[:, :, u, v]
                grad_x = (
                    dxp[:, :, padding : padding + h, padding : padding + w]
                    if padding
                    else dxp
                )
                grad_x = np.ascontiguousarray(grad_x)
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad_b)
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return record("conv2d", inputs, out, bw)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
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
    if bias is not None and bias.shape != (out_c,):
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
    if bias is not None:
        out += bias.data.reshape(1, out_c, 1, 1)

    def bw(gout):
        gm = (
            gout.reshape(n, out_c, h, 2, w, 2)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(n, positions, out_c * 4)
        )
        grad_x = grad_w = grad_b = None
        if x.requires_grad:
            grad_x = np.ascontiguousarray(
                np.matmul(gm, w2.T).transpose(0, 2, 1).reshape(n, c, h, w)
            )
        if weight.requires_grad:
            grad_w = np.matmul(xm.swapaxes(1, 2), gm).sum(axis=0).reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            grad_b = gout.sum(axis=(0, 2, 3))
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad_b)
        return tuple(grads)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return record("conv_transpose2d", inputs, out, bw)


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first
    window element in row-major order."""
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d expects rank 4, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2d needs even spatial extents, got {h}x{w}")
    oh, ow = h // 2, w // 2
    windows = (
        x.data.reshape(n, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
    )
    out = windows.max(axis=-1)
    idx = windows.argmax(axis=-1)

    def bw(gout):
        dwin = np.zeros((n, c, oh, ow, 4))
        np.put_along_axis(dwin, idx[..., None], gout[..., None], axis=-1)
        dx = (
            dwin.reshape(n, c, oh, ow, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        return (np.ascontiguousarray(dx),)

    return record("max_pool2d", (x,), np.ascontiguousarray(out), bw)


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


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable bilinear resampling to (out_h, out_w); identity when the
    target equals the source shape."""
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize expects rank 4, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target must be positive, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if out_h == h and out_w == w:
        def bw_id(g):
            return (g,)

        return record("bilinear_resize", (x,), x.data.copy(), bw_id)
    mh = _interp_matrix(h, out_h) if out_h != h else None
    mw = _interp_matrix(w, out_w) if out_w != w else None
    out = x.data
    if mh is not None:
        out = np.matmul(mh, out)
    if mw is not None:
        out = np.matmul(out, mw.T)
    out = np.ascontiguousarray(out)

    def bw(gout):
        g = gout
        if mw is not None:
            g = np.matmul(g, mw)
        if mh is not None:
            g = np.matmul(mh.T, g)
        return (np.ascontiguousarray(g),)

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


def fold_patches(x: Tensor, patch: int, out_h: int, out_w: int) -> Tensor:
    """Inverse of ``unfold_patches``: [N,C,p*p,d] back to [N,C,out_h,out_w]."""
    if x.data.ndim != 4:
        raise ShapeError(f"fold_patches expects rank 4, got {x.shape}")
    n, c, pp, d = x.shape
    gh, gw = out_h // patch, out_w // patch
    if patch < 1 or pp != patch * patch or out_h % patch or out_w % patch or gh * gw != d:
        raise ShapeError(
            f"fold_patches: {x.shape} does not fold to {out_h}x{out_w} with patch {patch}"
        )
    out = (
        x.data.reshape(n, c, patch, patch, gh, gw)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, out_h, out_w)
    )

    def bw(gout):
        dx = (
            gout.reshape(n, c, gh, patch, gw, patch)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, c, pp, d)
        )
        return (np.ascontiguousarray(dx),)

    return record("fold_patches", (x,), np.ascontiguousarray(out), bw)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    train: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel normalization over (N, H, W) plus affine transform.

    Training mode normalizes with biased batch statistics and updates the
    running buffers in place (unbiased variance, decay ``momentum``); eval
    mode normalizes with the running buffers as constants.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects rank 4, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm affine params must have shape ({c},)")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ShapeError(f"batch_norm running stats must have shape ({c},)")
    if train:
        mu = tmean(x, (0, 2, 3), keepdims=True)
        centered = sub(x, mu)
        var = tmean(mul(centered, centered), (0, 2, 3), keepdims=True)
        norm = div(centered, sqrt(add(var, eps)))
        count = n * h * w
        batch_mean = mu.data.reshape(c)
        batch_var = var.data.reshape(c)
        if count > 1:
            batch_var = batch_var * (count / (count - 1.0))
        running_mean *= 1.0 - momentum
        running_mean += momentum * batch_mean
        running_var *= 1.0 - momentum
        running_var += momentum * batch_var
    else:
        shift = Tensor(running_mean.reshape(1, c, 1, 1))
        scale = Tensor(np.sqrt(running_var + eps).reshape(1, c, 1, 1))
        norm = div(sub(x, shift), scale)
    return add(mul(norm, reshape(gamma, (1, c, 1, 1))), reshape(beta, (1, c, 1, 1)))


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
    out = np.zeros((n, c))
    for u in range(k):
        out += weight.data[u] * xp[:, u : u + c]

    def bw(gout):
        grad_x = grad_w = None
        if weight.requires_grad:
            grad_w = np.array([(gout * xp[:, u : u + c]).sum() for u in range(k)])
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for u in range(k):
                dxp[:, u : u + c] += weight.data[u] * gout
            grad_x = np.ascontiguousarray(dxp[:, pad : pad + c])
        return grad_x, grad_w

    return record("channel_conv1d", (x, weight), out, bw)
