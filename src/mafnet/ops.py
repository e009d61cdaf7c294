"""Functional operators over Tensor: convolution, batch norm, SiLU,
nearest-neighbor upsampling, channel concat/split, pooling and the toy loss.

Convolution is one formulation for its two kinds, dense and depthwise: each
of the k^2 kernel taps reads one strided window of the padded input, and
every such window is a slice of one `_windows` view. The forward adds
mix(window, tap weights) into the output, dx (`_conv_dx`) scatters mix(gy,
tap weights transposed), and dw reduces gy against each window; only the
per-tap channel mix depends on the kind, a per-channel scale or one BLAS
product. A tap whose window holds only zero padding (`_reading_taps`) is
skipped in dx, and all such taps share one dw reduce. The deploy path's
forms are forward-only; each caller passes its producer's `runs_deploy`.
Gradients are exact; everything else here passes the central
finite-difference checker.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import AutogradError, ConfigError, ShapeError
from .tensor import RUNTIME, Tensor, make_op_output


def _hooked(fn):
    """A public op: once `fn` returns, `RUNTIME.op_hook`, when set, sees the
    call as hook(op name, args, kwargs, output)."""
    name = fn.__name__

    @functools.wraps(fn)
    def op(*args, **kwargs):
        out = fn(*args, **kwargs)
        if RUNTIME.op_hook is not None:
            RUNTIME.op_hook(name, args, kwargs, out)
        return out

    return op


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return (h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1


def _require_same_dtype(op: str, *arrays: np.ndarray) -> None:
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(str(d) for d in dtypes)}")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _validate_conv(x: Tensor, w: Tensor, bias: Tensor | None, stride: int, groups: int):
    """(padding, out_channels, k, ho, wo) of a valid conv call; padding is k//2."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D (B,C,H,W), got {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4-D (out,in/groups,k,k), got {w.shape}")
    out_c, cg, kh, kw = w.shape
    padding = kh // 2
    if kh != kw:
        raise ShapeError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if kh % 2 == 0 or kh < 1:
        raise ConfigError(f"conv2d: kernel must be odd and positive, got {kh}")
    if stride not in (1, 2):
        raise ConfigError(f"conv2d: stride must be 1 or 2, got {stride}")
    b, cin, h, wdim = x.shape
    if groups != 1 and not groups == cin == out_c:
        raise ConfigError(
            f"conv2d: groups={groups} must be 1 (dense) or equal in_channels={cin} "
            f"and out_channels={out_c} (depthwise)"
        )
    if cg != cin // groups:
        raise ShapeError(
            f"conv2d: weight expects {cg} channels per group, input supplies {cin // groups}"
        )
    ho, wo = conv_output_hw(h, wdim, kh, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d: output would be {ho}x{wo} for input {h}x{wdim}, kernel {kh}, "
            f"stride {stride}, padding {padding}"
        )
    _require_same_dtype("conv2d", x.data, w.data)
    if bias is not None:
        if bias.shape != (out_c,):
            raise ShapeError(f"conv2d: bias shape {bias.shape} != ({out_c},)")
        _require_same_dtype("conv2d", x.data, bias.data)
    return padding, out_c, kh, ho, wo


def _pad_hw(a: np.ndarray, p: int) -> np.ndarray:
    """`a` padded by p zeros on each side of H and W, always a C array."""
    if p == 0:
        return np.ascontiguousarray(a)
    b, c, h, w = a.shape
    out = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=a.dtype)
    out[:, :, p : p + h, p : p + w] = a
    return out


def _windows(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The (B, C, k, k, ho, wo) view of a padded C-ordered (B, C, H, W) array
    whose [:, :, i, j] is the strided window that tap (i, j) reads: the im2col
    operand, copying nothing. Built from offset 0, which numpy accepts for an
    empty batch too."""
    sb, sc, sh, sw = xp.strides
    shape = xp.shape[:2] + (k, k, ho, wo)
    return np.ndarray(shape, xp.dtype, xp, 0, (sb, sc, sh, sw, stride * sh, stride * sw))


@functools.lru_cache(maxsize=256)
def _reading_taps(k: int, stride: int, h: int, w: int) -> tuple:
    """Indices i * k + j of the taps whose window holds at least one unpadded
    pixel of an h x w input; every other tap reads only zero padding. They
    form one rectangle of whole kernel rows and columns."""
    p = k // 2
    ho, wo = conv_output_hw(h, w, k, stride, p)
    rows = [any(p <= i + stride * o < p + h for o in range(ho)) for i in range(k)]
    cols = [any(p <= j + stride * o < p + w for o in range(wo)) for j in range(k)]
    return tuple(i * k + j for i in range(k) for j in range(k) if rows[i] and cols[j])


# Per-tap weight gradients: `reduce(gy, xs)` reduces gy against a tap's
# window, a per-channel scale for depthwise taps, one `np.dot` for dense ones.
# Dense taps contract the channels-last (B*H*W, C) reshape of a map, as
# np.tensordot would; the dense forward accumulates channels-last, so every
# add streams.

def _scale_reduce(gy, xs):
    return (gy * xs).sum(axis=(0, 2, 3))[:, None]


def _channels_last(a: np.ndarray) -> np.ndarray:
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def _dense_reduce(gy, xs):
    return np.dot(gy.transpose(1, 0, 2, 3).reshape(gy.shape[1], -1), _channels_last(xs))


# Rows per block of `_depthwise_rows` hold about this many elements, so that
# a block's accumulator and the input rows it reads stay in a core's L2 cache.
_ROW_BLOCK = 1 << 16
# A tap over a block of at most this many elements costs more in its two
# ufunc calls than in arithmetic, so such a block multiplies all its live
# taps in one product (at most 81 x 2^11 elements, 1.3 MB as float64). A
# larger block adds one tap at a time, where the product would only add a
# pass over memory (numpy 2.4: one product was 1.4-3.5x faster on 8x8 maps
# at 320-1792 elements a block, 5-28% slower on 2x2 maps at 4096-16384, and
# made the toy SGD step ~1% slower).
_RUN_BLOCK = 1 << 11


def _depthwise_rows(xd: np.ndarray, wd: np.ndarray, stride: int) -> np.ndarray:
    """Depthwise forward over the padded input's `_windows`, on an (ho, row)
    grid of each (batch, channel) map: at stride 1 the grid row is the padded
    width, so a tap's window is one contiguous run whose columns past w are
    discarded; at stride 2 it is wo. The view, cut to the live taps
    (`_reading_taps`, a rectangle of the kernel), merges batch and channel
    into one (k, k, B*C, ho, row) view. A block of at most `_RUN_BLOCK`
    elements multiplies all its live taps in one C-ordered product and sums
    it along its leading axis from +0; larger blocks, among them every map of
    the toy and 640 models, add one tap at a time. So every kept element sees
    the same multiplies and adds, in the same tap order, as in the windowed
    loop."""
    b, c, h, w = xd.shape
    k = wd.shape[2]
    p = k // 2
    width = w + 2 * p
    ho, wo = conv_output_hw(h, w, k, stride, p)
    bc = b * c
    # One spare bottom row: the last tap's run at stride 1 ends k - 1 past
    # the padding.
    height = h + 2 * p + 1
    xp = np.zeros((b, c, height, width), dtype=xd.dtype)
    xp[:, :, p : p + h, p : p + w] = xd
    row = width if stride == 1 else wo
    n = ho * row
    live = _reading_taps(k, stride, h, w)
    (i0, j0), (i1, j1) = divmod(live[0], k), divmod(live[-1], k)
    nr, nc = i1 - i0 + 1, j1 - j0 + 1
    windows = _windows(xp, k, stride, ho, row).transpose(2, 3, 0, 1, 4, 5)
    windows = windows.reshape(k, k, bc, ho, row)[i0 : i1 + 1, j0 : j1 + 1]
    taps = np.repeat(wd.reshape(1, c, k * k), b, axis=0).reshape(bc, k * k).T
    wt = taps.reshape(k, k, bc, 1, 1)[i0 : i1 + 1, j0 : j1 + 1]
    rows = max(1, min(bc, _ROW_BLOCK // n))
    batched = rows * n <= _RUN_BLOCK and nr * nc > 1
    acc = np.zeros((bc, ho, row), dtype=xd.dtype)
    # Under numpy's default 8192-element ufunc buffer, these ufuncs over
    # blocks of short rows ran 2-3x slower on the 20x20 and 40x40 maps, and
    # the batched product 2x slower on 8x8 ones (numpy 2.4). At stride 2,
    # whose grid steps over every other element, the default buffer ran the
    # batched product faster (k7 on 2x4x8x8: 17 against 28 us). These ufuncs
    # cast nothing, so the buffer size changes no result bit.
    bufsize = None if batched and stride == 2 else np.setbufsize(16)
    try:
        for r in range(0, bc, rows):
            a, wr, xr = acc[r : r + rows], wt[:, :, r : r + rows], windows[:, :, r : r + rows]
            if batched:
                # C order: the default K order follows the windows' strides,
                # which at stride 2 would put the tap columns innermost and
                # have the reduce sum them pairwise. numpy also sums pairwise
                # a reduce with a single output and 8 or more terms; a
                # one-element block has at most 4 live taps (stride 2 on a
                # map of at most 2x2).
                prod = np.multiply(wr, xr, order="C")
                np.add.reduce(prod.reshape((-1,) + prod.shape[2:]), axis=0, out=a, initial=0)
            else:
                for i in range(nr):
                    for j in range(nc):
                        a += wr[i, j] * xr[i, j]
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
    if len(live) < k * k:
        # A padding-only tap adds w * 0: +-0, which changes no bit of an
        # accumulator that starts at +0 and so never holds -0, or NaN to every
        # output of its channel when w is inf or NaN. One sum per channel does.
        acc += (np.delete(taps, live, axis=0) * 0).sum(axis=0).reshape(bc, 1, 1)
    return acc.reshape(b, c, ho, row)[..., :wo]


# `_depthwise_band` computes output columns in tiles of at most this many, so
# a band GEMM does (tile + k - 1) / k times the conv's multiplies. A row's
# tiles share its width evenly, so the last tile computes few columns that
# the crop drops: 10 a tile for W = 20, 14 for W = 40, 16 for W = 80 or 160.
# Its channels run in blocks of about `_BAND_BLOCK` tile-window elements,
# whose copy and accumulator stay in a core's L2 cache (numpy 2.4, OpenBLAS:
# 2^18 ran the 640 model's calls 1.4x slower than 2^16 or 2^17).
_BAND_TILE = 16
_BAND_BLOCK = 1 << 17


def _depthwise_band(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray | None) -> np.ndarray:
    """Stride-1 depthwise forward as banded GEMMs, for the deploy path. Per
    channel and kernel row i, the band[c, i] matrix holds w[c, i, j] at
    (x + j, x), so a row of wb + k - 1 padded inputs times it gives wb
    outputs. Output columns go in the fewest tiles of at most `_BAND_TILE`,
    each wb = ceil(W / tiles) wide: each block of channels writes its bands
    with one strided assignment, copies its overlapping (H + 2p, tiles,
    wb + k - 1) tile windows once, and multiplies the contiguous slice of
    rows i * tiles to (i + H) * tiles of that copy by the bands of kernel
    row i: k `np.matmul` calls a block, the bands broadcast over the batch.
    Built per block, the bands stay small (at most about 1.3 MB on the 640
    model) and are never stored. The bias `bd`, if any, is added as each
    block's cropped sum is written out. Zeros off the band still multiply
    every input, so a non-finite input or weight reaches every output of the
    tiles that read it."""
    b, c, h, w = xd.shape
    k = wd.shape[2]
    p = k // 2
    nt = -(-w // _BAND_TILE)
    wb = -(-w // nt)
    span, hp = wb + k - 1, h + 2 * p
    xp = np.zeros((b, c, hp, nt * wb + k - 1), dtype=xd.dtype)
    xp[:, :, p : p + h, p : p + w] = xd
    sb, sc, sh, sw = xp.strides
    # Not a `_windows` view: a tile steps wb along W only, not a k x k window.
    # Built from offset 0, which numpy accepts for an empty batch too.
    tiles = np.ndarray((b, c, hp, nt, span), xp.dtype, xp, 0, (sb, sc, sh, wb * sw, sw))
    out = np.empty((b, c, h, w), dtype=xd.dtype)
    cb = max(1, _BAND_BLOCK // (max(b, 1) * hp * nt * span))
    for c0 in range(0, c, cb):
        n = min(cb, c - c0)
        band = np.zeros((n, k, span, wb), dtype=xd.dtype)
        s = band.strides
        diagonals = np.ndarray((n, k, wb, k), band.dtype, band, 0, (s[0], s[1], s[2] + s[3], s[2]))
        diagonals[...] = wd[c0 : c0 + n].reshape(n, k, 1, k)
        a = np.ascontiguousarray(tiles[:, c0 : c0 + n]).reshape(b, n, hp * nt, span)
        acc = np.matmul(a[:, :, : h * nt], band[:, 0])
        prod = np.empty_like(acc)
        for i in range(1, k):
            acc += np.matmul(a[:, :, i * nt : (i + h) * nt], band[:, i], out=prod)
        crop = acc.reshape(b, n, h, nt * wb)[..., :w]
        if bd is None:
            out[:, c0 : c0 + n] = crop
        else:
            np.add(crop, bd[c0 : c0 + n, None, None], out=out[:, c0 : c0 + n])
    return out


# A run of dense taps, batched into one product, holds about this many window
# and product elements, so that its buffers stay in cache like a block of
# `_depthwise_rows`; each run after the first adds into the sum in tap order.
_TAP_BLOCK = 1 << 16


@functools.lru_cache(maxsize=256)
def _tap_runs(k: int, per_run: int) -> tuple:
    """(rows, cols, first tap, taps) per run, in tap order: as many whole
    kernel rows as `per_run` taps hold, or one tap a run if no row fits."""
    rows = per_run // k
    if rows:
        return tuple(
            (slice(i, min(i + rows, k)), slice(0, k), i * k, (min(i + rows, k) - i) * k)
            for i in range(0, k, rows)
        )
    return tuple((slice(i, i + 1), slice(j, j + 1), i * k + j, 1) for i in range(k) for j in range(k))


def _dense_forward(xd: np.ndarray, wd: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """Dense conv forward as channels-last (B*ho*wo, out) rows, summed over
    the taps in tap order. A k x k conv copies a run of taps' windows out of
    the padded input's `_windows`, transposed to (k, k, B, ho, wo, C), in one
    go and multiplies them by the taps' (in, out) matrices in one
    `np.matmul`. Both operands reach BLAS as C arrays, as np.dot's copies of
    the per-tap views did: OpenBLAS rounds a product by its operands' layout.
    A run of several taps is reduced from an explicit +0, as in a `zeros +=
    p` loop (0 + -0 is +0); a single product needs none, since BLAS sums from
    +0 itself and never returns -0 (the bitwise property test draws -0 inputs
    and zero weights and compares signed zeros)."""
    b, cin = xd.shape[:2]
    out_c, _, k, _ = wd.shape
    n = b * ho * wo
    windows = _windows(_pad_hw(xd, k // 2), k, stride, ho, wo)
    if k == 1 or min(n, cin, out_c) < 2 or not wd.flags.c_contiguous:
        # One np.dot per tap. A 1x1 conv has one tap, nothing to batch. The
        # other two cases are here for bits, not speed, and no layer runs
        # them: with a unit (or empty) dimension np.dot leaves GEMM for its
        # vector paths, which np.matmul does not round alike (one skips an inf
        # weight times 0, the other gives NaN), and the taps of a weight that
        # is not C-ordered may reach BLAS in another layout.
        out = np.dot(_channels_last(windows[:, :, 0, 0]), wd[:, :, 0, 0].T)
        for t in range(1, k * k):
            i, j = divmod(t, k)
            out += np.dot(_channels_last(windows[:, :, i, j]), wd[:, :, i, j].T)
    else:
        windows = windows.transpose(2, 3, 0, 4, 5, 1)
        taps = np.ascontiguousarray(wd.transpose(2, 3, 1, 0)).reshape(k * k, cin, out_c)
        for rows, cols, t0, t in _tap_runs(k, max(1, _TAP_BLOCK // (n * (cin + out_c)))):
            wins = np.ascontiguousarray(windows[rows, cols]).reshape(t, n, cin)
            prod = np.matmul(wins, taps[t0 : t0 + t])
            if t0 == 0:
                out = np.add.reduce(prod, axis=0, initial=0) if t > 1 else prod[0]
            else:
                for p in prod:
                    out += p
    return out


def _conv_dx(gy: np.ndarray, wd: np.ndarray, stride: int, x_shape: tuple, depthwise: bool):
    """dx of a dense or depthwise conv, scattered tap by tap into a padded
    (H, W, B, C) buffer. Only a tap's mix of gy depends on the kind: a
    per-channel scale of gy's (H, W, B, C) copy, or one `np.dot` of gy's
    channels-last rows with the tap's (out, in) matrix. Those rows stay in
    (b, h, w) order: at one input channel the dot is a GEMV, and OpenBLAS can
    round a row by its position. A padding-only tap writes only the cropped
    border: skipped."""
    (b, cin, h, w), (ho, wo), k = x_shape, gy.shape[2:], wd.shape[2]
    p = k // 2
    if depthwise:
        g = np.ascontiguousarray(gy.transpose(2, 3, 0, 1))
        taps = np.tile(wd.reshape(cin, k * k).T, (1, b)).reshape(k * k, b, cin)
    else:
        g = _channels_last(gy)
    dxp = np.zeros((h + 2 * p, w + 2 * p, b, cin), dtype=gy.dtype)
    for t in _reading_taps(k, stride, h, w):
        i, j = divmod(t, k)
        if depthwise:
            mix = g * taps[t]
        else:
            mix = np.dot(g, wd[:, :, i, j]).reshape(b, ho, wo, cin).transpose(1, 2, 0, 3)
        # a slice, not `_windows`: dxp is a channels-last (H, W, B, C) buffer
        dxp[i : i + stride * ho : stride, j : j + stride * wo : stride] += mix
    return dxp[p : p + h, p : p + w].transpose(2, 3, 0, 1)


@_hooked
def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    groups: int = 1,
    deploy: bool = False,
) -> Tensor:
    """2-D cross-correlation, padded by k//2 ("same" at stride 1). A dense
    forward runs one batched GEMM per run of taps and sums the products in
    tap order from +0, bit for bit as one `np.dot` per tap; a product with a
    unit dimension keeps that per-tap dot, since np.matmul rounds it apart.
    `deploy=True` runs a stride-1 depthwise conv as the forward-only banded
    GEMMs of `_depthwise_band`: within rounding of the default form, and no
    backward."""
    padding, out_c, k, ho, wo = _validate_conv(x, w, bias, stride, groups)

    xd, wd = x.data, w.data
    b, cin, h, wdim = xd.shape
    depthwise = groups == cin == out_c
    parents = (x, w) if bias is None else (x, w, bias)
    if deploy:
        if not depthwise or stride != 1:
            raise ConfigError(
                f"conv2d: deploy=True runs only a stride-1 depthwise conv, got "
                f"{'depthwise' if depthwise else 'dense'} at stride {stride}"
            )
        out = _depthwise_band(xd, wd, None if bias is None else bias.data)

        def forward_only(gy):
            raise AutogradError("conv2d: forward-only deploy form; run deploy=False to record one")

        return make_op_output(out, parents, forward_only, "conv2d")
    reduce = _scale_reduce if depthwise else _dense_reduce

    if depthwise:
        out = _depthwise_rows(xd, wd, stride)
    else:
        out = _dense_forward(xd, wd, stride, ho, wo).reshape(b, ho, wo, out_c)
        out = out.transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)
    if bias is not None:
        out += bias.data[None, :, None, None]

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(_conv_dx(gy, wd, stride, xd.shape, depthwise))
        if w.requires_grad:
            windows = _windows(_pad_hw(xd, padding), k, stride, ho, wo)
            dw = np.zeros_like(wd)
            flat = dw.reshape(*dw.shape[:2], k * k)
            live = _reading_taps(k, stride, h, wdim)
            for t in live:
                flat[..., t] = reduce(gy, windows[:, :, t // k, t % k])
            # every padding-only tap reduces gy against the same all-zero window
            dead = np.delete(np.arange(k * k), live)
            if dead.size:
                flat[..., dead] = reduce(gy, windows[:, :, dead[0] // k, dead[0] % k])[..., None]
            w.accumulate_grad(dw)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gy.sum(axis=(0, 2, 3)))

    return make_op_output(out, parents, backward, "conv2d")


@_hooked
def conv2d_gemm(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
) -> Tensor:
    """Forward-only dense conv for the deploy path, padded by k//2: one GEMM
    per image over the im2col matrix, a C copy of the padded input's
    `_windows` (at stride 1, a 1x1 conv's is the input itself, not copied).
    It matches conv2d to rounding, not bit for bit (BLAS sums in another
    order), and has no backward."""
    padding, out_c, k, ho, wo = _validate_conv(x, w, bias, stride, 1)
    b, cin = x.shape[:2]
    cols = np.ascontiguousarray(_windows(_pad_hw(x.data, padding), k, stride, ho, wo))
    out = np.matmul(w.data.reshape(out_c, -1), cols.reshape(b, cin * k * k, ho * wo))
    if bias is not None:
        out += bias.data[:, None]

    def backward(gy):
        raise AutogradError("conv2d_gemm: forward-only op; run conv2d to record a backward")

    parents = (x, w) if bias is None else (x, w, bias)
    return make_op_output(out.reshape(b, out_c, ho, wo), parents, backward, "conv2d_gemm")


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def _validate_bn(op, x, channels_of):
    if x.ndim != 4:
        raise ShapeError(f"{op}: input must be 4-D, got {x.shape}")
    if x.shape[1] != channels_of:
        raise ShapeError(f"{op}: input has {x.shape[1]} channels, params have {channels_of}")


@_hooked
def batchnorm_infer(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> Tensor:
    """Inference-mode affine normalization using frozen running statistics."""
    _validate_bn("batchnorm_infer", x, gamma.shape[0])
    istd = 1.0 / np.sqrt(running_var + eps)
    scale = (gamma.data * istd).astype(x.dtype, copy=False)
    shift = (beta.data - gamma.data * running_mean * istd).astype(x.dtype, copy=False)
    out = scale[None, :, None, None] * x.data + shift[None, :, None, None]

    xd = x.data
    mean = running_mean
    istd_x = istd.astype(x.dtype, copy=False)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * scale[None, :, None, None])
        if gamma.requires_grad:
            xhat = (xd - mean[None, :, None, None]) * istd_x[None, :, None, None]
            gamma.accumulate_grad((gy * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(gy.sum(axis=(0, 2, 3)))

    return make_op_output(out, (x, gamma, beta), backward, "batchnorm_infer")


@_hooked
def batchnorm_train(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm; returns (y, batch_mean, batch_var).

    Variance is the biased (1/N) estimate, as used for normalization; the
    caller decides how to fold the returned statistics into running buffers.
    Gradient flows through the batch statistics.
    """
    _validate_bn("batchnorm_train", x, gamma.shape[0])
    xd = x.data
    n = xd.shape[0] * xd.shape[2] * xd.shape[3]
    mu = xd.mean(axis=(0, 2, 3))
    xc = xd - mu[None, :, None, None]
    # the same operations as numpy's var, without computing xc a second time
    var = (xc * xc).sum(axis=(0, 2, 3)) / n
    istd = 1.0 / np.sqrt(var + eps)
    xhat = xc * istd[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(gy):
        if gamma.requires_grad:
            gamma.accumulate_grad((gy * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(gy.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dxhat = gy * gamma.data[None, :, None, None]
            dvar = (dxhat * xc).sum(axis=(0, 2, 3)) * -0.5 * istd**3
            dmu = (dxhat.sum(axis=(0, 2, 3)) * -istd) + dvar * (-2.0 / n) * xc.sum(
                axis=(0, 2, 3)
            )
            dx = (
                dxhat * istd[None, :, None, None]
                + (2.0 / n) * dvar[None, :, None, None] * xc
                + dmu[None, :, None, None] / n
            )
            x.accumulate_grad(dx)

    y = make_op_output(out, (x, gamma, beta), backward, "batchnorm_train")
    return y, mu, var


# ---------------------------------------------------------------------------
# pointwise and structural ops
# ---------------------------------------------------------------------------

def _sigmoid(xd: np.ndarray) -> np.ndarray:
    # One exp, of -|x| <= 0, so nothing overflows. With e = exp(-|x|), x >= 0
    # gives 1 / (1 + e) and x < 0 gives e / (1 + e) = exp(x) / (1 + exp(x)):
    # the same operations per element as evaluating each sign on its own mask.
    e = np.abs(xd)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    np.maximum(e, xd >= 0, out=e)
    return np.divide(e, den, out=e)


@_hooked
def silu(x: Tensor, deploy: bool = False) -> Tensor:
    """y = x * sigmoid(x), element-wise. `deploy=True` runs the forward-only
    form x / (1 + exp(-x)): one exp into one fresh buffer, within a few ulp of
    the default form, and no backward."""
    if deploy:
        t = np.negative(x.data)
        # below about -88 (float32) exp(-x) overflows to inf, giving the right -0
        with np.errstate(over="ignore"):
            np.exp(t, out=t)
        t += 1

        def forward_only(gy):
            raise AutogradError("silu: forward-only deploy form; run deploy=False to record one")

        return make_op_output(np.divide(x.data, t, out=t), (x,), forward_only, "silu")
    s = _sigmoid(x.data)
    # without a tape entry no backward reads s, so the product can overwrite it
    records = RUNTIME.grad and x.requires_grad
    out = np.multiply(x.data, s, out=None if records else s)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy * (s + x.data * s * (1.0 - s)))

    return make_op_output(out, (x,), backward, "silu")


@_hooked
def upsample_nearest2x(x: Tensor) -> Tensor:
    """Replicate every element into a 2x2 block: (B,C,H,W) -> (B,C,2H,2W)."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest2x: input must be 4-D, got {x.shape}")
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)
    b, c, h, w = x.shape

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(gy.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)))

    return make_op_output(out, (x,), backward, "upsample_nearest2x")


@_hooked
def concat_channels(xs: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis; batch and spatial dims must match."""
    if not xs:
        raise ConfigError("concat_channels: empty input list")
    ref = xs[0]
    for i, t in enumerate(xs):
        if t.ndim != 4:
            raise ShapeError(f"concat_channels: input {i} must be 4-D, got {t.shape}")
        if t.shape[0] != ref.shape[0] or t.shape[2:] != ref.shape[2:]:
            raise ShapeError(
                f"concat_channels: input {i} has shape {t.shape}, "
                f"incompatible with {ref.shape} (batch/spatial must match)"
            )
    _require_same_dtype("concat_channels", *[t.data for t in xs])
    sizes = [t.shape[1] for t in xs]
    out = np.concatenate([t.data for t in xs], axis=1)

    def backward(gy):
        off = 0
        for t, c in zip(xs, sizes):
            if t.requires_grad:
                t.accumulate_grad(gy[:, off : off + c])
            off += c

    return make_op_output(out, tuple(xs), backward, "concat_channels")


@_hooked
def split_channels(x: Tensor, sizes: list[int]) -> list[Tensor]:
    """Split along the channel axis; sizes must sum to the channel count."""
    if any(s <= 0 for s in sizes):
        raise ConfigError(f"split_channels: sizes must be positive, got {sizes}")
    if sum(sizes) != x.shape[1]:
        raise ConfigError(
            f"split_channels: sizes {sizes} sum to {sum(sizes)}, input has {x.shape[1]} channels"
        )
    outs = []
    off = 0
    for c in sizes:
        lo = off

        def backward(gy, lo=lo, c=c):
            if x.requires_grad:
                g = np.zeros_like(x.data)
                g[:, lo : lo + c] = gy
                x.accumulate_grad(g)

        piece = np.ascontiguousarray(x.data[:, lo : lo + c])
        outs.append(make_op_output(piece, (x,), backward, "split_channels"))
        off += c
    return outs


@_hooked
def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial dims, keeping them as 1x1."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool: input must be 4-D, got {x.shape}")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(gy / (h * w), x.shape).copy())

    return make_op_output(out, (x,), backward, "global_avg_pool")


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

@_hooked
def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    _require_same_dtype("add", a.data, b.data)
    out = a.data + b.data

    def backward(gy):
        if a.requires_grad:
            a.accumulate_grad(gy)
        if b.requires_grad:
            b.accumulate_grad(gy)

    return make_op_output(out, (a, b), backward, "add")


@_hooked
def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    _require_same_dtype("mul", a.data, b.data)
    out = a.data * b.data

    def backward(gy):
        if a.requires_grad:
            a.accumulate_grad(gy * b.data)
        if b.requires_grad:
            b.accumulate_grad(gy * a.data)

    return make_op_output(out, (a, b), backward, "mul")


@_hooked
def mul_scalar(a: Tensor, s: float) -> Tensor:
    sv = a.dtype.type(s)
    out = a.data * sv

    def backward(gy):
        if a.requires_grad:
            a.accumulate_grad(gy * sv)

    return make_op_output(out, (a,), backward, "mul_scalar")


@_hooked
def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(gy):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(gy, x.shape).astype(x.dtype, copy=True))

    return make_op_output(out, (x,), backward, "sum_all")


@_hooked
def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    Accepts (B, K) or (B, K, 1, 1) logits.
    """
    ld = logits.data
    if ld.ndim == 4:
        if ld.shape[2:] != (1, 1):
            raise ShapeError(f"softmax_cross_entropy: expected 1x1 spatial dims, got {ld.shape}")
        ld = ld.reshape(ld.shape[0], ld.shape[1])
    if ld.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be (B,K), got {logits.shape}")
    labels = np.asarray(labels)
    b, k = ld.shape
    if labels.shape != (b,):
        raise ShapeError(f"softmax_cross_entropy: labels shape {labels.shape} != ({b},)")
    z = ld - ld.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(b), labels] - np.log(ez.sum(axis=1)))
    out = np.asarray(nll.mean(), dtype=ld.dtype)

    def backward(gy):
        if logits.requires_grad:
            g = p.copy()
            g[np.arange(b), labels] -= 1.0
            g *= gy / b
            logits.accumulate_grad(g.reshape(logits.shape))

    return make_op_output(out, (logits,), backward, "softmax_cross_entropy")
