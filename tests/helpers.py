"""Shared test fixtures: independent oracles and identity constructors.

The convolution oracle is a direct nested-loop evaluation of the definition,
written in plain Python so it shares nothing with the library's offset
decomposition path. The sigmoid oracle is the original boolean-mask form of
``ops._sigmoid``, kept as the bitwise reference for its mask-free rewrite, and
the windowed depthwise oracle is the original per-tap loop of the
depthwise forward, kept as the bitwise reference for its flattened-row form.
The tensordot tap mixes and the windowed depthwise dx scatter are the
original bodies of ``ops._dense``, ``ops._dense_reduce`` and the depthwise
input gradient; ``windowed_conv2d_grads`` runs them in the original tap loops
as the bitwise reference for conv2d's forward and gradients.
``ops._dense`` itself is gone: ``ops._dense_forward`` multiplies a run of
taps in one batched product and sums the products in tap order, and
``ops._conv_dx`` scatters the input gradient of both kinds. The per-tap
tensordot loop stays the reference for both. ``plain_check_gradients`` is
the original body of ``gradcheck.check_gradients``, which evaluates ``fn``
in full for every finite difference: the bitwise reference for the checker
that replays only the op calls a perturbation reaches.
"""

import numpy as np

from mafnet import BatchNorm2d, Conv2d, Tensor, ops
from mafnet.gradcheck import DEFAULT_STEP, max_rel_error
from mafnet.tensor import no_grad


def naive_conv2d(x, w, bias=None, stride=1, padding=None, groups=1):
    """Reference convolution: loops over batch, out-channel, output pixel, and
    accumulates over the in-group channels and the kernel window."""
    b_sz, cin, h, wdim = x.shape
    out_c, cg, k, _ = w.shape
    if padding is None:
        padding = k // 2
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wdim + 2 * padding - k) // stride + 1
    xp = np.zeros((b_sz, cin, h + 2 * padding, wdim + 2 * padding), dtype=np.float64)
    xp[:, :, padding : padding + h, padding : padding + wdim] = x
    og = out_c // groups
    out = np.zeros((b_sz, out_c, ho, wo), dtype=np.float64)
    for b in range(b_sz):
        for o in range(out_c):
            g = o // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cg):
                        for ki in range(k):
                            for kj in range(k):
                                acc += float(w[o, c, ki, kj]) * float(
                                    xp[b, g * cg + c, i * stride + ki, j * stride + kj]
                                )
                    if bias is not None:
                        acc += float(bias[o])
                    out[b, o, i, j] = acc
    return out


def mask_sigmoid(xd: np.ndarray) -> np.ndarray:
    """Reference logistic sigmoid: each sign is evaluated on its own masked
    subset, so no ``exp`` argument is ever positive."""
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def windowed_depthwise(xd, wd, padding, stride=1):
    """Reference depthwise forward: for each kernel tap in row-major order,
    add the per-channel weight times that tap's strided window of the padded
    input into a zero-initialized output."""
    k = wd.shape[2]
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = (xp.shape[2] - k) // stride + 1, (xp.shape[3] - k) // stride + 1
    out = np.zeros((xd.shape[0], xd.shape[1], ho, wo), dtype=xd.dtype)
    for i in range(k):
        for j in range(k):
            win = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += wd[:, :, i, j].reshape(1, -1, 1, 1) * win
    return out


def tensordot_dense(acc, a, wt):
    """Reference dense tap mix: add to acc the contraction of a's channels
    with the (out, in) tap matrix wt, accumulated channels-last."""
    acc_cl = acc.transpose(0, 2, 3, 1)
    acc_cl += np.tensordot(a, wt, axes=([1], [1]))


def tensordot_dense_reduce(gy, xs):
    """Reference dense tap weight gradient: (out, in) contraction of gy with
    the tap's input window over batch and space."""
    return np.tensordot(gy, xs, axes=([0, 2, 3], [0, 2, 3]))


def _tap_windows(k, stride, ho, wo):
    for i in range(k):
        for j in range(k):
            yield i, j, (..., slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))


def scatter_depthwise_dx(gy, wd, padding, stride, h, w):
    """Reference depthwise input gradient: for each tap in row-major order,
    add the per-channel weight times gy into that tap's strided window of a
    zero-initialized padded buffer, then crop the padding."""
    b, c, ho, wo = gy.shape
    dxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=gy.dtype)
    for i, j, win in _tap_windows(wd.shape[2], stride, ho, wo):
        acc = dxp[win]
        acc += wd[:, :, i, j].T.reshape(1, -1, 1, 1) * gy
    return dxp[:, :, padding : padding + h, padding : padding + w]


def windowed_conv2d_grads(x, wd, bias, stride, padding, gy):
    """Reference dense or depthwise conv2d: (out, dx, dw, db) for input x,
    weight wd, optional bias and output gradient gy, from the windowed tap
    loops with the oracles above."""
    b, cin, h, w = x.shape
    out_c, _, k, _ = wd.shape
    depthwise = wd.shape[1] == 1 and cin == out_c
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = gy.shape[2:]
    taps = list(_tap_windows(k, stride, ho, wo))
    if depthwise:
        out = windowed_depthwise(x, wd, padding, stride)
    else:
        out = np.zeros((b, ho, wo, out_c), dtype=x.dtype).transpose(0, 3, 1, 2)
        for i, j, win in taps:
            tensordot_dense(out, xp[win], wd[:, :, i, j])
    out = np.ascontiguousarray(out)
    if bias is not None:
        out += bias[None, :, None, None]
    dw = np.zeros_like(wd)
    if depthwise:
        dx = scatter_depthwise_dx(gy, wd, padding, stride, h, w)
        for i, j, win in taps:
            dw[:, :, i, j] = (gy * xp[win]).sum(axis=(0, 2, 3))[:, None]
    else:
        dxp = np.zeros_like(xp)
        for i, j, win in taps:
            tensordot_dense(dxp[win], gy, wd[:, :, i, j].T)
            dw[:, :, i, j] = tensordot_dense_reduce(gy, xp[win])
        dx = dxp[:, :, padding : padding + h, padding : padding + w]
    db = None if bias is None else gy.sum(axis=(0, 2, 3))
    return out, dx, dw, db


def plain_check_gradients(fn, arrays, step=DEFAULT_STEP, seed=0):
    """Reference finite-difference checker: the max relative error between
    tape gradients and central differences of full evaluations of `fn`."""
    tensors = {k: Tensor(v.astype(np.float64), requires_grad=True) for k, v in arrays.items()}
    out = fn(tensors)
    rng = np.random.default_rng([seed, 0x9E3779B9])
    proj = rng.standard_normal(out.shape)
    loss = ops.sum_all(ops.mul(out, Tensor(proj, dtype=np.float64)))
    loss.backward()
    analytic = {
        k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for k, t in tensors.items()
    }

    def scalar() -> float:
        with no_grad():
            y = fn(tensors)
        return float((y.data * proj).sum())

    worst = 0.0
    for k, t in tensors.items():
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = scalar()
            flat[i] = orig - step
            down = scalar()
            flat[i] = orig
            numeric[i] = (up - down) / (2 * step)
        worst = max(worst, max_rel_error(analytic[k], numeric.reshape(t.data.shape)))
    return worst


def dirac_depthwise(channels, kernel, dtype=np.float32):
    """(C,1,k,k) depthwise identity kernel: 1 at the center tap."""
    w = np.zeros((channels, 1, kernel, kernel), dtype=dtype)
    w[:, 0, kernel // 2, kernel // 2] = 1.0
    return w


def identity_pointwise(channels, dtype=np.float32):
    """(C,C,1,1) identity 1x1 kernel."""
    w = np.zeros((channels, channels, 1, 1), dtype=dtype)
    for i in range(channels):
        w[i, i, 0, 0] = 1.0
    return w


def make_identity_bn(bn: BatchNorm2d) -> None:
    """gamma=1, beta=0, mean=0, var=1, eps=0: exact pass-through."""
    c = bn.channels
    bn.gamma.data = np.ones(c, dtype=bn.gamma.dtype)
    bn.beta.data = np.zeros(c, dtype=bn.beta.dtype)
    bn.set_buffer("running_mean", np.zeros(c, dtype=bn.running_mean.dtype))
    bn.set_buffer("running_var", np.ones(c, dtype=bn.running_var.dtype))
    bn.eps = 0.0


def make_identity_conv(conv: Conv2d) -> None:
    """Set a conv's weight to the identity mapping (square 1x1 or Dirac DW)."""
    if conv.groups > 1:
        conv.weight.data = dirac_depthwise(conv.in_channels, conv.kernel, conv.weight.dtype)
    else:
        assert conv.in_channels == conv.out_channels and conv.kernel == 1
        conv.weight.data = identity_pointwise(conv.in_channels, conv.weight.dtype)
    if conv.bias is not None:
        conv.bias.data = np.zeros(conv.out_channels, dtype=conv.bias.dtype)


def zero_module(module) -> None:
    """Zero every parameter (weights, biases, BN affine)."""
    for _, p in module.named_parameters():
        p.data = np.zeros_like(p.data)


def rand_tensor(rng, *shape, dtype=np.float32, requires_grad=False):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)
