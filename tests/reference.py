"""Independent reference implementations used as test oracles.

Everything here is written as straight-line loops from the definitions, with
no reuse of the package's vectorized code paths, so agreement is evidence
rather than tautology.  Slow is fine; these run on tiny inputs.
"""

from __future__ import annotations

import numpy as np


def conv2d_naive(x, w, b=None, stride=1, padding=0, dilation=1, groups=1):
    """Quintuple-loop direct convolution (cross-correlation), zero padding."""
    n, c_in, h, w_in = x.shape
    c_out, c_per_g, kh, kw = w.shape
    out_h = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    out_w = (w_in + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    in_per_g = c_in // groups
    out = np.zeros((n, c_out, out_h, out_w))
    for ni in range(n):
        for o in range(c_out):
            g = o // (c_out // groups)
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0 if b is None else float(b[o])
                    for c in range(c_per_g):
                        for u in range(kh):
                            for v in range(kw):
                                yy = i * stride - padding + u * dilation
                                xx = j * stride - padding + v * dilation
                                if 0 <= yy < h and 0 <= xx < w_in:
                                    acc += w[o, c, u, v] * x[ni, g * in_per_g + c, yy, xx]
                    out[ni, o, i, j] = acc
    return out


def conv_transpose2d_naive(x, w, b=None):
    """Direct scatter form of the 2x2 stride-2 transposed convolution."""
    n, c_in, h, w_in = x.shape
    _, c_out, _, _ = w.shape
    out = np.zeros((n, c_out, 2 * h, 2 * w_in))
    for ni in range(n):
        for c in range(c_in):
            for i in range(h):
                for j in range(w_in):
                    for o in range(c_out):
                        for u in range(2):
                            for v in range(2):
                                out[ni, o, 2 * i + u, 2 * j + v] += (
                                    x[ni, c, i, j] * w[c, o, u, v]
                                )
    if b is not None:
        for o in range(c_out):
            out[:, o] += b[o]
    return out


def max_pool2d_naive(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[ni, ci, i, j] = max(
                        x[ni, ci, 2 * i, 2 * j],
                        x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j],
                        x[ni, ci, 2 * i + 1, 2 * j + 1],
                    )
    return out


def bilinear_naive(x, out_h, out_w):
    """Per-pixel half-pixel-convention resampling with edge clamping."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for i in range(out_h):
        sy = (i + 0.5) * (h / out_h) - 0.5
        y0 = int(np.floor(sy))
        ty = sy - y0
        y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
        for j in range(out_w):
            sx = (j + 0.5) * (w / out_w) - 0.5
            x0 = int(np.floor(sx))
            tx = sx - x0
            x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
            out[:, :, i, j] = (
                (1 - ty) * (1 - tx) * x[:, :, y0c, x0c]
                + (1 - ty) * tx * x[:, :, y0c, x1c]
                + ty * (1 - tx) * x[:, :, y1c, x0c]
                + ty * tx * x[:, :, y1c, x1c]
            )
    return out


def conv2d_padded(x, w, b, gout, stride=1, padding=0, dilation=1, groups=1, band=None):
    """conv2d as it ran on a zero-padded copy of its input: the tap gather
    and scatter index the padded array, and the input gradient is cropped
    from a padded buffer.  Returns (out, grad_x, grad_w, grad_b) for the
    upstream gradient ``gout``.

    Not a loop oracle: it repeats the package's GEMMs in the same bands of
    ``band`` output rows (all rows when None), so ``conv2d`` must match it
    bit for bit.
    """
    n, c, h, w_in = x.shape
    out_c, c_per_g, kh, kw = w.shape
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (w_in + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    o_per_g = out_c // groups
    bands = [range(r0, min(r0 + (band or oh), oh)) for r0 in range(0, oh, band or oh)]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def taps(rows):
        last_row = stride * (len(rows) - 1) + 1
        last_col = stride * (ow - 1) + 1
        for u in range(kh):
            iu = rows.start * stride + u * dilation
            for v in range(kw):
                jv = v * dilation
                rows_read = slice(iu, iu + last_row, stride)
                yield u, v, (..., rows_read, slice(jv, jv + last_col, stride))

    def columns(rows):
        col = np.empty((n, c, kh, kw, len(rows), ow))
        for u, v, index in taps(rows):
            col[:, :, u, v] = xp[index]
        return col.reshape(n, groups, c_per_g * kh * kw, len(rows) * ow)

    w2 = w.reshape(groups, o_per_g, c_per_g * kh * kw)
    out = np.empty((n, out_c, oh, ow))
    outm = out.reshape(n, groups, o_per_g, oh * ow)
    for rows in bands:
        np.matmul(w2, columns(rows), out=outm[..., rows.start * ow : rows.stop * ow])
    if b is not None:
        out += b.reshape(1, out_c, 1, 1)
    g4 = gout.reshape(n, groups, o_per_g, oh * ow)
    wt = w2.swapaxes(1, 2)
    dxp = np.zeros(xp.shape)
    for rows in reversed(bands):
        dcol = np.matmul(wt, g4[..., rows.start * ow : rows.stop * ow])
        dcol = dcol.reshape(n, c, kh, kw, len(rows), ow)
        for u, v, index in taps(rows):
            dxp[index] += dcol[:, :, u, v]
    grad_x = dxp[:, :, padding : padding + h, padding : padding + w_in]
    grad_w = np.matmul(g4, columns(range(oh)).swapaxes(2, 3)).sum(axis=0).reshape(w.shape)
    grad_b = None if b is None else gout.sum(axis=(0, 2, 3))
    return out, grad_x, grad_w, grad_b


def max_pool2d_windows(x, gout):
    """2x2 pooling through a copy of every window: the maximum over a
    length-4 window axis, and the gradient put at each window's argmax (the
    first maximum in row-major order).  Returns (out, grad_x)."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    windows = x.reshape(n, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
    dwin = np.zeros((n, c, oh, ow, 4))
    np.put_along_axis(dwin, windows.argmax(axis=-1)[..., None], gout[..., None], axis=-1)
    dx = dwin.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return windows.max(axis=-1), dx


def bilinear_dense(x, out_h, out_w, gout=None):
    """Bilinear resampling as two dense GEMMs with the full interpolation
    matrices, and its adjoint for ``gout``.  Returns (out, grad_x).

    Reuses the package's ``_interp_matrix`` on purpose: the banded
    ``bilinear_resize`` must match these products bit for bit at the
    network's power-of-two extents.
    """
    from hcfnet.ops import _interp_matrix

    h, w = x.shape[2:]
    mh = _interp_matrix(h, out_h) if out_h != h else None
    mw = _interp_matrix(w, out_w) if out_w != w else None
    out = x
    if mh is not None:
        out = np.matmul(mh, out)
    if mw is not None:
        out = np.matmul(out, mw.T)
    if gout is None:
        return out, None
    g = gout
    if mw is not None:
        g = np.matmul(g, mw)
    if mh is not None:
        g = np.matmul(mh.T, g)
    return out, g


def softmax_naive(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def fold_patches_naive(u, patch, out_h, out_w):
    """Inverse of the patch unfold: u[n, c, a*p + b, i*gw + j] is cell (a, b)
    of the patch at grid position (i, j), i.e. x[n, c, i*p + a, j*p + b]."""
    n, c = u.shape[:2]
    gw = out_w // patch
    out = np.zeros((n, c, out_h, out_w))
    for ni in range(n):
        for ci in range(c):
            for y in range(out_h):
                for x in range(out_w):
                    i, a = divmod(y, patch)
                    j, b = divmod(x, patch)
                    out[ni, ci, y, x] = u[ni, ci, a * patch + b, i * gw + j]
    return out


def batch_norm_train_naive(x, gamma, beta, eps=1e-5):
    """Per-channel batch statistics over (N, H, W), biased variance."""
    out = np.zeros_like(x)
    for c in range(x.shape[1]):
        sl = x[:, c]
        mu = sl.mean()
        var = ((sl - mu) ** 2).mean()
        out[:, c] = gamma[c] * (sl - mu) / np.sqrt(var + eps) + beta[c]
    return out


def batch_norm_composed(x, gamma, beta, running_mean, running_var, momentum=0.1, eps=1e-5):
    """Train-mode batch norm as the 11 elementwise tape ops it once was.

    Unlike the loop oracles this reuses the package's tensor ops on purpose:
    the single-op ``batch_norm`` must reproduce this composition's forward,
    running-buffer update and gradients bit for bit.
    """
    from hcfnet.tensor import add, div, mul, reshape, sqrt, sub, tmean

    n, c, h, w = x.shape
    mu = tmean(x, (0, 2, 3), keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), (0, 2, 3), keepdims=True)
    norm = div(centered, sqrt(add(var, eps)))
    count = n * h * w
    batch_var = var.data.reshape(c)
    if count > 1:
        batch_var = batch_var * (count / (count - 1.0))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu.data.reshape(c)
    running_var *= 1.0 - momentum
    running_var += momentum * batch_var
    return add(mul(norm, reshape(gamma, (1, c, 1, 1))), reshape(beta, (1, c, 1, 1)))


def batch_norm_eval_composed(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """Eval-mode batch norm as the 6 tape ops it once was: reshapes of gamma
    and beta, then sub, div, mul and add, with the running buffers wrapped as
    constant tensors.

    Like ``batch_norm_composed`` this reuses the package's tensor ops on
    purpose: the single-op eval ``batch_norm`` must reproduce its forward and
    gradients bit for bit.
    """
    from hcfnet.tensor import Tensor, add, div, mul, reshape, sub

    c = x.shape[1]
    shift = Tensor(running_mean.reshape(1, c, 1, 1))
    scale = Tensor(np.sqrt(running_var + eps).reshape(1, c, 1, 1))
    norm = div(sub(x, shift), scale)
    return add(mul(norm, reshape(gamma, (1, c, 1, 1))), reshape(beta, (1, c, 1, 1)))


def network_forward_composed(network, x, train=False, rng=None):
    """``Network.forward`` in the op order it had while it kept every
    feature map to the end: decoded maps in a list, all heads run last, and
    each PPA summing its serial convs only after the third.

    Like ``batch_norm_composed`` this reuses the package's modules on
    purpose: the lifetime-trimmed forward must reproduce its logits,
    running-buffer updates and gradients bit for bit.
    """
    from hcfnet.nn import dropout
    from hcfnet.ops import bilinear_resize, max_pool2d
    from hcfnet.ppa import PPA
    from hcfnet.tensor import add, concat, relu

    def block(module, inp):
        if not isinstance(module, PPA):
            return module(inp, train=train, rng=rng)
        projected = module.proj(inp)

        def serial_branch():
            c1 = module.conv1(projected)
            c2 = module.conv2(c1)
            c3 = module.conv3(c2)
            return add(add(c1, c2), c3)

        fused = add(add(module.local(projected), module.wide(projected)), serial_branch())
        attended = module.spatial_att(module.channel_att(fused))
        regularized = dropout(attended, module.dropout_rate, train=train, rng=rng)
        return relu(module.bn(regularized, train))

    stages = network.config.stages
    height, width = x.shape[2], x.shape[3]
    feats = []
    cur = x
    for s in range(stages):
        feat = block(network.encoders[s], cur)
        feats.append(feat)
        if s < stages - 1:
            cur = max_pool2d(feat)
    top = feats[-1]
    if network.bottleneck is not None:
        top = network.bottleneck(top, train=train)
    decoded = [None] * stages
    decoded[-1] = top
    for s in range(stages - 2, -1, -1):
        up = network.ups[s](decoded[s + 1])
        if network.fusers is not None:
            fine = feats[s - 1] if s > 0 else None
            skip = network.fusers[s](feats[s], fine, feats[s + 1], train=train)
        else:
            skip = feats[s]
        decoded[s] = block(network.decoders[s], concat([up, skip], 1))
    return [
        bilinear_resize(network.heads[s](decoded[s]), height, width) for s in range(stages)
    ]


def batch_norm_eval_naive(x, gamma, beta, running_mean, running_var, eps=1e-5):
    out = np.zeros_like(x)
    for c in range(x.shape[1]):
        out[:, c] = (
            gamma[c] * (x[:, c] - running_mean[c]) / np.sqrt(running_var[c] + eps) + beta[c]
        )
    return out


def channel_conv1d_naive(x, w):
    """Same-padded correlation along the channel axis of [N, C]."""
    n, c = x.shape
    k = w.shape[0]
    half = k // 2
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for t in range(k):
                src = ci + t - half
                if 0 <= src < c:
                    acc += w[t] * x[ni, src]
            out[ni, ci] = acc
    return out


def gated_fuse_naive(u, l, h):
    """Partition-wise sigmoid gate: alpha*l + (1-alpha)*h, four channel blocks."""
    c = u.shape[1]
    quarter = c // 4
    parts = []
    for i in range(4):
        ui = u[:, i * quarter : (i + 1) * quarter]
        li = l[:, i * quarter : (i + 1) * quarter]
        hi = h[:, i * quarter : (i + 1) * quarter]
        alpha = 1.0 / (1.0 + np.exp(-ui))
        parts.append(alpha * li + (1.0 - alpha) * hi)
    return np.concatenate(parts, axis=1)


def dasi_naive(
    current,
    fine,
    context,
    fine_w,
    fine_b,
    ctx_w,
    ctx_b,
    fuse_w,
    fuse_b,
    gamma,
    beta,
    running_mean,
    running_var,
):
    """Straight-line DASI pipeline: align both streams, gate, conv+BN+ReLU.

    A None fine stream stands in as the current feature, matching the
    boundary rule.  Eval-mode batch norm.
    """
    n, c, h, w = current.shape
    if fine is None:
        fine_aligned = current
    else:
        fine_aligned = bilinear_naive(conv2d_naive(fine, fine_w, fine_b), h, w)
    ctx_aligned = bilinear_naive(conv2d_naive(context, ctx_w, ctx_b), h, w)
    fused = gated_fuse_naive(current, fine_aligned, ctx_aligned)
    mixed = conv2d_naive(fused, fuse_w, fuse_b, padding=1)
    normed = batch_norm_eval_naive(mixed, gamma, beta, running_mean, running_var)
    return np.maximum(normed, 0.0)


def interleave_naive(heads):
    """Group j stacks channel j of every head: (h1_j, h2_j, h3_j, h4_j)."""
    quarter = heads[0].shape[1]
    groups = []
    for j in range(quarter):
        groups.append(np.stack([heads[k][:, j] for k in range(4)], axis=1))
    return np.concatenate(groups, axis=1)


def mdcr_naive(
    x,
    head_weights,
    head_biases,
    dilations,
    inner_w,
    inner_b,
    outer_w,
    outer_b,
    gamma,
    beta,
    running_mean,
    running_var,
):
    """Straight-line MDCR: split, dilated depthwise per head, interleave,
    grouped pointwise, full pointwise, eval BN, ReLU."""
    c = x.shape[1]
    quarter = c // 4
    heads = [x[:, i * quarter : (i + 1) * quarter] for i in range(4)]
    refined = [
        conv2d_naive(
            heads[i], head_weights[i], head_biases[i],
            padding=dilations[i], dilation=dilations[i], groups=quarter,
        )
        for i in range(4)
    ]
    mixed = interleave_naive(refined)
    inner = conv2d_naive(mixed, inner_w, inner_b, groups=quarter)
    outer = conv2d_naive(inner, outer_w, outer_b)
    normed = batch_norm_eval_naive(outer, gamma, beta, running_mean, running_var)
    return np.maximum(normed, 0.0)


def feature_select_naive(tokens, xi, mix):
    """Row-by-row clamped cosine against the embedding-weighted reference."""
    c, d = tokens.shape
    reference = np.zeros(d)
    for i in range(c):
        reference += xi[i] * tokens[i]
    selected = np.zeros_like(tokens)
    for i in range(c):
        denom = np.sqrt(float(np.dot(tokens[i], tokens[i]))) * np.sqrt(
            float(np.dot(reference, reference))
        )
        cos = 0.0 if denom == 0.0 else float(np.dot(tokens[i], reference)) / denom
        sim = min(max(cos, 0.0), 1.0)
        selected[i] = sim * tokens[i]
    return mix @ selected


def bce_naive(z, y):
    """Direct sigmoid-then-log cross entropy; valid where sigma is not saturated."""
    p = 1.0 / (1.0 + np.exp(-z))
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def soft_iou_naive(z, y, eps=1e-6):
    p = 1.0 / (1.0 + np.exp(-z))
    scores = []
    for i in range(z.shape[0]):
        inter = float((p[i] * y[i]).sum())
        union = float(p[i].sum() + y[i].sum() - inter)
        scores.append(1.0 - (inter + eps) / (union + eps))
    return float(np.mean(scores))


def iou_naive(preds, gts, threshold=0.5):
    """Pixel-loop pooled IoU over binarized predictions."""
    tp = t = p = 0
    for pred, gt in zip(preds, gts):
        for a, b in zip(pred.reshape(-1), gt.reshape(-1)):
            pa = a > threshold
            gb = b > 0.5
            tp += int(pa and gb)
            t += int(gb)
            p += int(pa)
    denom = t + p - tp
    return 1.0 if denom == 0 else tp / denom


def niou_naive(preds, gts, threshold=0.5):
    scores = []
    for pred, gt in zip(preds, gts):
        tp = t = p = 0
        for a, b in zip(pred.reshape(-1), gt.reshape(-1)):
            pa = a > threshold
            gb = b > 0.5
            tp += int(pa and gb)
            t += int(gb)
            p += int(pa)
        denom = t + p - tp
        scores.append(1.0 if denom == 0 else tp / denom)
    return float(np.mean(scores))


def adam_naive(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar-recurrence Adam on a plain numpy vector."""
    x = np.array(x0, dtype=np.float64)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x
