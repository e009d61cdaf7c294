import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mafnet import AutogradError, ConfigError, ShapeError, Tensor, count_ops, using
from mafnet import ops

from helpers import (
    identity_pointwise,
    mask_sigmoid,
    naive_conv2d,
    windowed_conv2d_grads,
    windowed_depthwise,
)


rng = np.random.default_rng


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_identity_pointwise():
    x = Tensor(rng(0).standard_normal((2, 3, 5, 5)).astype(np.float32))
    w = Tensor(identity_pointwise(3))
    y = ops.conv2d(x, w)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv_allones_overlap_counts():
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    y = ops.conv2d(x, w, stride=1, groups=1)
    assert y.data[0, 0, 1, 1] == 9.0
    for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert y.data[0, 0, i, j] == 4.0


def test_conv_matches_naive_depthwise():
    r = rng(1)
    x = r.standard_normal((1, 4, 8, 8)).astype(np.float32)
    w = r.standard_normal((4, 1, 3, 3)).astype(np.float32)
    y = ops.conv2d(Tensor(x), Tensor(w), groups=4)
    ref = naive_conv2d(x, w, groups=4)
    np.testing.assert_allclose(y.data, ref, atol=1e-6)


@pytest.mark.parametrize("kernel", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("depthwise", [False, True])
def test_conv_oracle_matrix(kernel, stride, depthwise):
    r = rng(kernel * 10 + stride + depthwise)
    cin = 4
    if depthwise:
        groups, cout = cin, cin
    else:
        groups, cout = 1, 3
    x = r.standard_normal((2, cin, 9, 9)).astype(np.float32)
    w = r.standard_normal((cout, cin // groups, kernel, kernel)).astype(np.float32)
    b = r.standard_normal(cout).astype(np.float32)
    y = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, groups=groups)
    ref = naive_conv2d(x, w, b, stride=stride, groups=groups)
    assert y.shape == ref.shape
    np.testing.assert_allclose(y.data, ref, atol=1e-5)


# (in_channels, out_channels, groups) per conv kind
CONV_KINDS = {
    "depthwise": (3, 3, 3),
    "dense": (3, 2, 1),
}


@st.composite
def conv_cases(draw):
    kind = draw(st.sampled_from(sorted(CONV_KINDS)))
    cin, cout, groups = CONV_KINDS[kind]
    k = draw(st.sampled_from([1, 3, 5]))
    h = draw(st.integers(k, k + 4))
    w = draw(st.integers(k, k + 4).filter(lambda v: v != h))
    return dict(
        batch=draw(st.integers(1, 2)), cin=cin, cout=cout, groups=groups, k=k, h=h, w=w,
        stride=draw(st.sampled_from([1, 2])),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(conv_cases())
def test_conv_matches_naive_property(case):
    r = rng(case["seed"])
    cin, cout, groups, k = case["cin"], case["cout"], case["groups"], case["k"]
    x = r.standard_normal((case["batch"], cin, case["h"], case["w"])).astype(np.float32)
    w = r.standard_normal((cout, cin // groups, k, k)).astype(np.float32)
    b = r.standard_normal(cout).astype(np.float32)
    y = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=case["stride"], groups=groups)
    ref = naive_conv2d(x, w, b, stride=case["stride"], groups=groups)
    assert y.shape == ref.shape
    np.testing.assert_allclose(y.data, ref, atol=1e-5)


@settings(max_examples=80, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    k=st.sampled_from([1, 3, 5, 7, 9]),
    stride=st.sampled_from([1, 2]),
    batch=st.integers(1, 3),
    channels=st.integers(1, 6),
    extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    with_bias=st.booleans(),
    bad_tap=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    row_blocks=st.booleans(),
    tap_runs=st.booleans(),
    seed=st.integers(0, 2**16),
)
# A 5x2 map at stride 2: numpy's default K-ordered product would put the tap
# columns innermost, and the reduce would sum them pairwise.
@example(np.float32, 7, 2, 1, 5, (4, 0), False, None, False, False, 0)
# A 2x2 map under a k9 kernel: seed 9 puts the NaN on tap (3, 3), whose
# window reads the input at stride 1 but only padding at stride 2.
@example(np.float32, 9, 2, 1, 2, (1, 0), False, np.nan, False, False, 9)
def test_depthwise_forward_bitwise_equals_windowed_loop(
    dtype, k, stride, batch, channels, extra, with_bias, bad_tap, row_blocks, tap_runs, seed
):
    """The flattened-row depthwise forward gives the windowed per-tap loop's
    output bit for bit (signed zeros included), at stride 1 and 2, with an
    infinite or NaN kernel tap, in one block of rows or one row a block
    (`_ROW_BLOCK` = 1), and with all live taps in one product or one tap at
    a time (`_RUN_BLOCK` = 0). It restores numpy's ufunc buffer size."""
    r = rng(seed)
    padding = k // 2
    h, w = 1 + extra[0], 2 + extra[1]
    x = r.standard_normal((batch, channels, h, w)).astype(dtype)
    x[r.random(x.shape) < 0.2] = -0.0
    wd = r.standard_normal((channels, 1, k, k)).astype(dtype)
    wd[r.random(wd.shape) < 0.2] = 0.0
    if bad_tap is not None:
        wd[tuple(r.integers(0, n) for n in wd.shape)] = bad_tap
    b = r.standard_normal(channels).astype(dtype) if with_bias else None
    bufsize = np.setbufsize(12288)  # a value no code sets, to see it restored
    try:
        with pytest.MonkeyPatch.context() as mp, using(checked=False), np.errstate(
            invalid="ignore", over="ignore"
        ):
            if row_blocks:
                mp.setattr(ops, "_ROW_BLOCK", 1)
            if tap_runs:
                mp.setattr(ops, "_RUN_BLOCK", 0)
            y = ops.conv2d(
                Tensor(x), Tensor(wd), None if b is None else Tensor(b), stride, channels
            )
            ref = windowed_depthwise(x, wd, padding, stride)
        assert np.getbufsize() == 12288
    finally:
        np.setbufsize(bufsize)
    if b is not None:
        ref += b[None, :, None, None]
    assert y.shape == ref.shape and y.data.flags.c_contiguous
    view = UINT_VIEW[dtype]
    np.testing.assert_array_equal(y.data.view(view), ref.view(view))


@settings(max_examples=150, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    k=st.sampled_from([1, 3, 5, 7, 9]),
    stride=st.sampled_from([1, 2]),
    depthwise=st.booleans(),
    gemv=st.booleans(),
    batch=st.integers(1, 3),
    channels=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    with_bias=st.booleans(),
    bad_tap=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    one_row_blocks=st.booleans(),
    run_rows=st.sampled_from([None, 0, 1, 2]),
    seed=st.integers(0, 2**16),
)
# The toy trunk's stride-32 geometry: a k9 kernel, padding 4, on a 2x2 map,
# where 72 of 81 taps (77 of 81 at stride 2) read only padding. Seed 0 puts
# the bad tap on such a tap: (7, 0) with batch 2 and 3 channels, (5, 6) with
# batch 1 and 2 channels.
@example(np.float32, 9, 1, True, False, 2, (3, 3), (1, 1), True, np.nan, False, None, 0)
@example(np.float32, 9, 2, True, False, 2, (3, 3), (1, 1), False, np.inf, True, None, 0)
@example(np.float64, 9, 1, True, False, 1, (2, 2), (1, 1), False, -np.inf, False, None, 0)
@example(np.float64, 9, 2, True, False, 1, (2, 2), (1, 1), True, np.nan, False, None, 0)
# The same map under a dense k9 conv: seed 0 puts the NaN on tap (5, 2) at
# stride 1 and on tap (4, 7) at stride 2, both padding-only, which dx skips.
@example(np.float32, 9, 1, False, False, 2, (3, 2), (1, 1), True, np.nan, False, None, 0)
@example(np.float64, 9, 2, False, False, 1, (2, 3), (1, 1), False, np.nan, False, None, 0)
# A 1x1 map at batch 1 and one input channel: every product has a unit
# dimension, where np.dot leaves GEMM and skips 0 * inf; np.matmul gives NaN.
@example(np.float32, 3, 1, False, False, 1, (1, 2), (0, 0), False, np.inf, False, None, 0)
# One input channel makes the dense dx dot a GEMV, whose rounding OpenBLAS
# can tie to a row's position: gy's rows must stay in (b, h, w) order.
@example(np.float32, 1, 1, False, False, 2, (1, 3), (0, 2), False, None, False, None, 0)
def test_conv_forward_and_grads_bitwise_equal_windowed_loops(
    dtype,
    k,
    stride,
    depthwise,
    gemv,
    batch,
    channels,
    extra,
    with_bias,
    bad_tap,
    one_row_blocks,
    run_rows,
    seed,
):
    """conv2d's output and its x, w and bias gradients equal the windowed
    tap loops with tensordot mixes and the depthwise dx scatter bit for bit:
    on maps of side 1 to 5, where every k >= 3 has padding-only taps, in one
    block of rows or in blocks of one row, with the dense taps in one run,
    one tap a run or one or two kernel rows a run, on 1x1 maps with one
    output channel, and with an infinite or NaN kernel tap."""
    r = rng(seed)
    padding = k // 2
    cin, cout = channels
    if depthwise:
        cout = cin
    elif gemv:
        cout = 1
    h, w = (1, 1) if gemv else (1 + extra[0], 1 + extra[1])
    x = r.standard_normal((batch, cin, h, w)).astype(dtype)
    x[r.random(x.shape) < 0.2] = -0.0
    wd = r.standard_normal((cout, 1 if depthwise else cin, k, k)).astype(dtype)
    wd[r.random(wd.shape) < 0.2] = 0.0
    if bad_tap is not None:
        wd[tuple(r.integers(0, n) for n in wd.shape)] = bad_tap
    b = r.standard_normal(cout).astype(dtype) if with_bias else None
    ho, wo = ops.conv_output_hw(h, w, k, stride, padding)
    gy = r.standard_normal((batch, cout, ho, wo)).astype(dtype)
    gy[r.random(gy.shape) < 0.2] = 0.0
    xt, wt = Tensor(x, requires_grad=True), Tensor(wd, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    with pytest.MonkeyPatch.context() as mp, using(checked=False), np.errstate(
        invalid="ignore", over="ignore"
    ):
        if one_row_blocks:
            mp.setattr(ops, "_ROW_BLOCK", 1)
        if run_rows is not None:
            # a budget of run_rows kernel rows of taps; 0 gives one tap a run
            per_tap = batch * ho * wo * (cin + cout)
            mp.setattr(ops, "_TAP_BLOCK", max(1, run_rows * k * per_tap))
        y = ops.conv2d(xt, wt, bt, stride, cin if depthwise else 1)
        ops.sum_all(ops.mul(y, Tensor(gy))).backward()
        ref = windowed_conv2d_grads(x, wd, b, stride, padding, gy)
    view = UINT_VIEW[dtype]
    got = (y.data, xt.grad, wt.grad, None if bt is None else bt.grad)
    for name, g, want in zip(("out", "dx", "dw", "db"), got, ref):
        if want is None:
            continue
        # grads land in zero-initialized buffers: +0 + g
        want = want if name == "out" else np.zeros_like(want) + want
        assert g.shape == want.shape, name
        np.testing.assert_array_equal(g.view(view), want.view(view), err_msg=name)


# Dense convs of one toy SGD step (batch 16, float32), as (input shape, out
# channels, kernel, stride): the stride-2 3x3 convs, whose taps run one a run
# on the large maps and in one or a few runs on the small ones, and the 1x1
# convs with at least 32 input channels, where OpenBLAS rounds a product by
# its operands' layout. Last, two batch-1 convs like those of nano's branch
# path: a 1x1 conv, whose window is a Fortran-order view of the input, and a
# 3x3 stride-2 conv with 32 input channels, all taps in one run.
TOY_DENSE_CONVS = [
    ((16, 3, 64, 64), 8, 3, 2),
    ((16, 8, 32, 32), 8, 3, 2),
    ((16, 8, 16, 16), 16, 3, 2),
    ((16, 16, 8, 8), 16, 3, 2),
    ((16, 16, 8, 8), 24, 3, 2),
    ((16, 24, 4, 4), 24, 3, 2),
    ((16, 24, 4, 4), 32, 3, 2),
    ((16, 36, 4, 4), 24, 1, 1),
    ((16, 96, 4, 4), 24, 1, 1),
    ((16, 96, 2, 2), 32, 1, 1),
    ((16, 48, 8, 8), 16, 1, 1),
    ((16, 72, 1, 1), 2, 1, 1),
    ((1, 64, 4, 4), 16, 1, 1),
    ((1, 32, 8, 8), 16, 3, 2),
]


@pytest.mark.parametrize("shape, cout, k, stride", TOY_DENSE_CONVS, ids=str)
def test_dense_conv_bitwise_equals_windowed_loops_on_toy_shapes(shape, cout, k, stride):
    """On the toy step's own dense shapes, conv2d's output and gradients equal
    the per-tap tensordot loops bit for bit, signed zeros included."""
    r = rng(sum(shape) + cout)
    x = r.standard_normal(shape).astype(np.float32)
    x[r.random(x.shape) < 0.2] = -0.0
    wd = (r.standard_normal((cout, shape[1], k, k)) / np.sqrt(shape[1] * k * k)).astype(np.float32)
    wd[r.random(wd.shape) < 0.2] = 0.0
    ho, wo = ops.conv_output_hw(shape[2], shape[3], k, stride, k // 2)
    gy = r.standard_normal((shape[0], cout, ho, wo)).astype(np.float32)
    xt, wt = Tensor(x, requires_grad=True), Tensor(wd, requires_grad=True)
    y = ops.conv2d(xt, wt, stride=stride)
    ops.sum_all(ops.mul(y, Tensor(gy))).backward()
    out, dx, dw, _ = windowed_conv2d_grads(x, wd, None, stride, k // 2, gy)
    for name, g, want in (("out", y.data, out), ("dx", xt.grad, dx + 0), ("dw", wt.grad, dw + 0)):
        np.testing.assert_array_equal(g.view(np.uint32), want.view(np.uint32), err_msg=name)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 9),
    stride=st.sampled_from([1, 2]),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
)
def test_reading_taps_are_the_windows_holding_an_input_pixel(k, stride, h, w):
    """`_reading_taps` lists exactly the taps whose strided window of the
    padded input holds at least one unpadded pixel, and they form one
    rectangle of whole kernel rows and columns, the one strided view of
    `_depthwise_rows`."""
    padding = k // 2
    ho, wo = ops.conv_output_hw(h, w, k, stride, padding)
    assume(ho >= 1 and wo >= 1)
    unpadded = np.pad(np.ones((h, w), dtype=bool), padding)
    want = tuple(
        i * k + j
        for i in range(k)
        for j in range(k)
        if unpadded[i : i + stride * ho : stride, j : j + stride * wo : stride].any()
    )
    assert ops._reading_taps(k, stride, h, w) == want
    rows, cols = sorted({t // k for t in want}), sorted({t % k for t in want})
    rectangle = tuple(
        i * k + j for i in range(rows[0], rows[-1] + 1) for j in range(cols[0], cols[-1] + 1)
    )
    assert want == rectangle


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5, 7, 9]),
    stride=st.sampled_from([1, 2]),
    batch=st.integers(0, 2),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
)
def test_windows_are_the_strided_slices_each_tap_reads(k, stride, batch, h, w):
    """`_windows(...)[:, :, i, j]` is the slice of the padded input that tap
    (i, j) reads, with the same values and strides, in the input's memory."""
    padding = k // 2
    ho, wo = ops.conv_output_hw(h, w, k, stride, padding)
    xp = ops._pad_hw(rng(k * 100 + h * 10 + w).standard_normal((batch, 2, h, w)), padding)
    windows = ops._windows(xp, k, stride, ho, wo)
    assert windows.shape == (batch, 2, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            want = xp[..., i : i + stride * ho : stride, j : j + stride * wo : stride]
            got = windows[:, :, i, j]
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides
            assert batch == 0 or np.shares_memory(got, xp)


@settings(max_examples=100, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    k=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    depthwise=st.booleans(),
    batch=st.integers(1, 3),
    channels=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 2**16),
)
# A dense 1x1 stride-2 conv with one output channel: its dw is a GEMV, which
# BLAS rounds by operand layout, so a Fortran-ordered input once changed it.
@example(np.float32, 1, 2, False, 2, (4, 1), (2, 2), 0)
@example(np.float32, 1, 2, False, 2, (3, 1), (2, 2), 0)
def test_conv_bits_do_not_depend_on_the_input_layout(
    dtype, k, stride, depthwise, batch, channels, hw, seed
):
    """conv2d's output, dx and dw have the same bits for a C-ordered input,
    its Fortran-ordered copy and a channels-last buffer seen as (B, C, H, W)."""
    r = rng(seed)
    cin, cout = channels
    if depthwise:
        cout = cin
    x = r.standard_normal((batch, cin, *hw)).astype(dtype)
    wd = r.standard_normal((cout, 1 if depthwise else cin, k, k)).astype(dtype)
    ho, wo = ops.conv_output_hw(*hw, k, stride, k // 2)
    gy = r.standard_normal((batch, cout, ho, wo)).astype(dtype)

    def run(xd):
        xt, wt = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        y = ops.conv2d(xt, wt, stride=stride, groups=cin if depthwise else 1)
        ops.sum_all(ops.mul(y, Tensor(gy))).backward()
        return [np.ascontiguousarray(a).tobytes() for a in (y.data, xt.grad, wt.grad)]

    want = run(x)
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    for layout, xd in (("F", np.asfortranarray(x)), ("channels-last", channels_last)):
        for name, got, ref in zip(("out", "dx", "dw"), run(xd), want):
            assert got == ref, (layout, name)


def test_conv_linearity():
    r = rng(2)
    x1 = r.standard_normal((1, 3, 6, 6)).astype(np.float32)
    x2 = r.standard_normal((1, 3, 6, 6)).astype(np.float32)
    w = Tensor(r.standard_normal((2, 3, 3, 3)).astype(np.float32))
    a, b = 1.7, -0.4
    lhs = ops.conv2d(Tensor(a * x1 + b * x2), w).data
    rhs = a * ops.conv2d(Tensor(x1), w).data + b * ops.conv2d(Tensor(x2), w).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-6)


def test_conv_output_shape_formula():
    x = Tensor(np.zeros((1, 2, 11, 13), dtype=np.float32))
    w = Tensor(np.zeros((4, 2, 5, 5), dtype=np.float32))
    y = ops.conv2d(x, w, stride=2)
    assert y.shape == (1, 4, (11 + 4 - 5) // 2 + 1, (13 + 4 - 5) // 2 + 1)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("depthwise", [True, False])
def test_conv_empty_batch_shapes(stride, depthwise):
    """A batch of 0 images gives an empty output of the right shape, as the
    cost probe in `count_costs` relies on."""
    x = Tensor(np.zeros((0, 4, 11, 13), dtype=np.float32))
    w = Tensor(np.zeros((4, 1 if depthwise else 4, 5, 5), dtype=np.float32))
    expected = (0, 4, (11 - 1) // stride + 1, (13 - 1) // stride + 1)
    y = ops.conv2d(x, w, stride=stride, groups=4 if depthwise else 1)
    assert y.shape == expected and y.dtype == np.float32
    if depthwise and stride == 1:
        assert ops.conv2d(x, w, groups=4, deploy=True).shape == expected
    if not depthwise:
        assert ops.conv2d_gemm(x, w, stride=stride).shape == expected


def test_conv_errors_name_offending_dim():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="channels per group"):
        ops.conv2d(x, w)
    with pytest.raises(ConfigError, match="groups"):
        ops.conv2d(x, Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32)), groups=2)
    # grouped (6 -> 4 in 2 groups) and channel-multiplier (2 -> 4) convs
    with pytest.raises(ConfigError, match="groups=2"):
        ops.conv2d(
            Tensor(np.zeros((1, 6, 4, 4), dtype=np.float32)),
            Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32)),
            groups=2,
        )
    with pytest.raises(ConfigError, match="groups=2"):
        ops.conv2d(
            Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)),
            Tensor(np.zeros((4, 1, 3, 3), dtype=np.float32)),
            groups=2,
        )
    with pytest.raises(ConfigError, match="kernel"):
        ops.conv2d(x, Tensor(np.zeros((2, 3, 2, 2), dtype=np.float32)))
    with pytest.raises(ShapeError, match="bias"):
        ops.conv2d(
            x,
            Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32)),
            Tensor(np.zeros(3, dtype=np.float32)),
        )


@settings(max_examples=80, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    k=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    batch=st.integers(2, 3),
    cin=st.integers(1, 6),
    cout=st.integers(1, 5),
    hw=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    with_bias=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv2d_gemm_matches_conv2d(dtype, k, stride, batch, cin, cout, hw, with_bias, seed):
    """The deploy GEMM conv (always padded by k//2) agrees with conv2d within
    the rounding bound of an n-term dot product, n = cin * k * k + 1: each side
    is off the exact value by at most n * eps * (|w| * |x| + |b|), so they
    differ by at most twice that."""
    r = rng(seed)
    x = r.standard_normal((batch, cin, k + hw[0], k + hw[1])).astype(dtype)
    w = r.standard_normal((cout, cin, k, k)).astype(dtype)
    b = Tensor(r.standard_normal(cout).astype(dtype)) if with_bias else None
    got = ops.conv2d_gemm(Tensor(x), Tensor(w), b, stride)
    ref = ops.conv2d(Tensor(x), Tensor(w), b, stride)
    assert got.dtype == dtype and got.shape == ref.shape
    scale = ops.conv2d(Tensor(np.abs(x)), Tensor(np.abs(w)), None, stride).data
    if with_bias:
        scale = scale + np.abs(b.data)[:, None, None]
    n = cin * k * k + 1
    assert np.all(np.abs(got.data - ref.data) <= 2 * n * np.finfo(dtype).eps * scale)


def test_conv2d_gemm_is_forward_only():
    x = Tensor(rng(3).standard_normal((1, 2, 5, 5)).astype(np.float32), requires_grad=True)
    w = Tensor(rng(4).standard_normal((3, 2, 3, 3)).astype(np.float32))
    loss = ops.sum_all(ops.conv2d_gemm(x, w))
    with pytest.raises(AutogradError, match="forward-only"):
        loss.backward()


@settings(max_examples=120, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    k=st.sampled_from([3, 5, 7, 9]),
    batch=st.integers(0, 3),
    channels=st.integers(1, 5),
    h=st.integers(1, 12),
    w=st.integers(1, 40),
    with_bias=st.booleans(),
    block=st.sampled_from([1, 2000, 1 << 17]),
    seed=st.integers(0, 2**16),
)
# widths of one tile, two tiles and one column past them; the first example
# runs blocks of 3 channels, so its last block holds 2
@example(np.float32, 9, 2, 5, 3, 16, True, 2000, 0)
@example(np.float64, 3, 1, 4, 2, 32, False, 1, 1)
@example(np.float32, 7, 3, 3, 5, 33, True, 2000, 2)
def test_depthwise_deploy_form_matches_conv2d(
    dtype, k, batch, channels, h, w, with_bias, block, seed
):
    """The banded deploy form of a depthwise conv agrees with conv2d within the
    rounding bound of a sum of n = k * k + 1 terms (the band's zeros add
    exact zeros): each side is off the exact value by at most
    n * eps * (|w| * |x| + |b|), so they differ by at most twice that. Its
    output is a fresh C array of the same shape and dtype, for maps narrower
    than, as wide as and not a multiple of a tile, one channel a block
    (`_BAND_BLOCK` = 1), a few or all, and an empty batch."""
    r = rng(seed)
    x = r.standard_normal((batch, channels, h, w)).astype(dtype)
    wd = r.standard_normal((channels, 1, k, k)).astype(dtype)
    b = Tensor(r.standard_normal(channels).astype(dtype)) if with_bias else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_BAND_BLOCK", block)
        with count_ops() as counts:
            got = ops.conv2d(Tensor(x), Tensor(wd), b, groups=channels, deploy=True)
    ref = ops.conv2d(Tensor(x), Tensor(wd), b, groups=channels)
    assert counts == {"conv2d": 1}
    assert got.dtype == dtype and got.shape == ref.shape and got.data.flags.c_contiguous
    scale = ops.conv2d(Tensor(np.abs(x)), Tensor(np.abs(wd)), None, groups=channels).data
    if with_bias:
        scale = scale + np.abs(b.data)[:, None, None]
    n = k * k + 1
    assert np.all(np.abs(got.data - ref.data) <= 2 * n * np.finfo(dtype).eps * scale)


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    k=st.sampled_from([3, 5, 7, 9]),
    hw=st.tuples(st.integers(1, 9), st.integers(1, 35)),
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    in_weight=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_depthwise_deploy_form_keeps_non_finite_values(dtype, k, hw, bad, in_weight, seed):
    """A non-finite input pixel or weight tap gives a non-finite output
    wherever conv2d gives one: the band's zeros never hide it."""
    r = rng(seed)
    x = r.standard_normal((2, 3) + hw).astype(dtype)
    wd = r.standard_normal((3, 1, k, k)).astype(dtype)
    target = wd if in_weight else x
    target[tuple(r.integers(0, n) for n in target.shape)] = bad
    with using(checked=False), np.errstate(invalid="ignore", over="ignore"):
        got = ops.conv2d(Tensor(x), Tensor(wd), groups=3, deploy=True).data
        ref = ops.conv2d(Tensor(x), Tensor(wd), groups=3).data
    assert not np.isfinite(ref).all()
    assert np.all(~np.isfinite(got)[~np.isfinite(ref)])


def test_depthwise_deploy_form_is_forward_only():
    x = Tensor(rng(5).standard_normal((1, 2, 5, 5)).astype(np.float32), requires_grad=True)
    w = Tensor(rng(6).standard_normal((2, 1, 3, 3)).astype(np.float32))
    loss = ops.sum_all(ops.conv2d(x, w, groups=2, deploy=True))
    with pytest.raises(AutogradError, match="forward-only"):
        loss.backward()


def test_deploy_conv_is_depthwise_at_stride_1_only():
    x = Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32))
    with pytest.raises(ConfigError, match="deploy=True.*dense at stride 1"):
        ops.conv2d(x, Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32)), deploy=True)
    with pytest.raises(ConfigError, match="deploy=True.*depthwise at stride 2"):
        ops.conv2d(x, Tensor(np.zeros((3, 1, 3, 3), dtype=np.float32)), stride=2, groups=3,
                   deploy=True)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

def _bn(x, gamma, beta, mean, var, eps):
    return ops.batchnorm_infer(
        Tensor(np.asarray(x, dtype=np.float32)),
        Tensor(np.asarray(gamma, dtype=np.float32)),
        Tensor(np.asarray(beta, dtype=np.float32)),
        np.asarray(mean, dtype=np.float32),
        np.asarray(var, dtype=np.float32),
        eps,
    )


def test_bn_identity():
    x = rng(3).standard_normal((2, 3, 4, 4)).astype(np.float32)
    y = _bn(x, [1, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1], 0.0)
    np.testing.assert_array_equal(y.data, x)


def test_bn_hand_affine():
    y = _bn(np.full((1, 1, 1, 1), 5.0), [2.0], [3.0], [1.0], [4.0], 0.0)
    assert y.data.reshape(()) == pytest.approx(7.0)


def test_bn_zero_scale_gives_beta():
    x = rng(4).standard_normal((2, 2, 3, 3)).astype(np.float32)
    y = _bn(x, [0, 0], [1.5, -2.0], [0.3, 0.7], [1, 1], 1e-5)
    assert np.allclose(y.data[:, 0], 1.5)
    assert np.allclose(y.data[:, 1], -2.0)


def test_bn_channel_mismatch():
    with pytest.raises(ShapeError, match="channels"):
        _bn(np.zeros((1, 3, 2, 2)), [1, 1], [0, 0], [0, 0], [1, 1], 1e-5)


def test_bn_train_normalizes_batch():
    x = rng(5).standard_normal((4, 2, 5, 5)).astype(np.float32) * 3 + 1
    y, mu, var = ops.batchnorm_train(
        Tensor(x), Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
    )
    assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0, atol=1e-5)
    assert np.allclose(y.data.std(axis=(0, 2, 3)), 1, atol=1e-3)
    assert np.allclose(mu, x.mean(axis=(0, 2, 3)), atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 24), st.integers(1, 24)),
    offset=st.sampled_from([0.0, 1.0, -3e3, 1e6]),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    seed=st.integers(0, 2**16),
)
@example(np.float32, (16, 16, 32, 32), 1.0, 1.0, 0)  # toy-step shapes
@example(np.float32, (16, 32, 2, 2), -3e3, 50.0, 1)
@example(np.float64, (1, 3, 1, 1), 1e6, 1e-3, 2)
def test_bn_train_variance_bitwise_equals_numpy_var(dtype, shape, offset, scale, seed):
    """batchnorm_train's variance, the sum of squared deviations over n, is
    numpy's var bit for bit, with -0 inputs, large offsets and batch 1."""
    r = rng(seed)
    x = (r.standard_normal(shape) * scale + offset).astype(dtype)
    x[r.random(shape) < 0.2] = -0.0
    c = shape[1]
    _, mu, var = ops.batchnorm_train(
        Tensor(x), Tensor(np.ones(c, dtype=dtype)), Tensor(np.zeros(c, dtype=dtype))
    )
    view = UINT_VIEW[dtype]
    np.testing.assert_array_equal(mu.view(view), x.mean(axis=(0, 2, 3)).view(view))
    np.testing.assert_array_equal(var.view(view), x.var(axis=(0, 2, 3)).view(view))


# ---------------------------------------------------------------------------
# silu / upsample / concat / split / pool
# ---------------------------------------------------------------------------

def test_silu_values():
    x = Tensor(np.array([0.0, 1.0, -20.0], dtype=np.float32).reshape(1, 1, 1, 3))
    y = ops.silu(x).data.reshape(-1)
    assert y[0] == 0.0
    assert y[1] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-6)
    assert abs(y[2]) < 1e-7


SIGMOID_SPECIALS = [
    0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 104.0, -104.0,
    709.0, -709.0, 746.0, -746.0, 1e30, -1e30,
]
UINT_VIEW = {np.float32: np.uint32, np.float64: np.uint64}


def assert_sigmoid_bitwise(x):
    """ops._sigmoid equals the mask-based oracle bit for bit, and neither
    raises a floating-point warning (e.g. an overflowing exp)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ops._sigmoid(x)
        ref = mask_sigmoid(np.ascontiguousarray(x))
    assert got.dtype == x.dtype and got.shape == x.shape
    view = UINT_VIEW[x.dtype.type]
    np.testing.assert_array_equal(got.view(view), ref.view(view))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dt: hnp.arrays(
        dt,
        hnp.array_shapes(min_dims=1, max_dims=4, max_side=6),
        elements=st.floats(
            width=np.finfo(dt).bits, allow_nan=False, allow_infinity=True, allow_subnormal=True
        ),
    )
))
def test_sigmoid_bitwise_equals_mask_oracle(x):
    assert_sigmoid_bitwise(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_on_special_values(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    vals = SIGMOID_SPECIALS + [tiny, -tiny, np.finfo(dtype).max, np.finfo(dtype).min]
    with np.errstate(over="ignore"):  # 1e30, 746 overflow float32 to inf
        x = np.array(vals, dtype=np.float64).astype(dtype)
    assert_sigmoid_bitwise(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_on_strided_input(dtype):
    x = (rng(21).standard_normal((2, 6, 9, 10)) * 30).astype(dtype)
    assert_sigmoid_bitwise(x[:, ::2, 1:, ::3])
    assert_sigmoid_bitwise(x.transpose(0, 2, 3, 1))


# Below these points exp(x) is no longer a normal number, so the default
# form's sigmoid loses its relative precision; both forms are then ~0.
SILU_DEPLOY_ULP_FROM = {np.float32: -87.0, np.float64: -700.0}
SILU_DEPLOY_ZERO_BAND = {np.float32: 1e-35, np.float64: 1e-300}


def ulp_distance(a, b):
    """Steps between a and b along a's float grid: 0 for equal values, -0.0
    and +0.0 included, 1 for neighbours, and inf is the step after max. a and
    b are 1-D, of one dtype, and never of opposite signs."""
    ints = np.int32 if a.dtype == np.float32 else np.int64

    def ordered(v):
        i = v.view(ints).astype(np.int64)
        return np.where(i < 0, np.iinfo(ints).min - i, i)

    return np.abs(ordered(a) - ordered(b))


def assert_silu_deploy_form(x):
    """ops.silu(x, deploy=True) is within 8 ulp of ops.silu(x) from
    SILU_DEPLOY_ULP_FROM up, both lie within SILU_DEPLOY_ZERO_BAND of zero
    below it, NaN stays NaN, the output is a fresh `silu` op, and no
    floating-point warning is raised. x holds no -inf (see the specials test)."""
    t = Tensor(x)
    with using(checked=False), warnings.catch_warnings():
        warnings.simplefilter("error")
        with count_ops() as counts:
            got = ops.silu(t, deploy=True).data
        ref = ops.silu(Tensor(x)).data
    assert counts == {"silu": 1}
    assert got.dtype == x.dtype and got.shape == x.shape
    assert not np.shares_memory(got, x)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(x))
    dt = x.dtype.type
    ulp = (x >= SILU_DEPLOY_ULP_FROM[dt]) & ~np.isnan(x)
    np.testing.assert_array_equal(np.isinf(got[ulp]), np.isinf(ref[ulp]))
    assert np.all(ulp_distance(got[ulp], ref[ulp]) <= 8)
    low = x < SILU_DEPLOY_ULP_FROM[dt]
    band = SILU_DEPLOY_ZERO_BAND[dt]
    assert np.all(np.abs(got[low]) <= band) and np.all(np.abs(ref[low]) <= band)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dt: hnp.arrays(
        dt,
        hnp.array_shapes(min_dims=1, max_dims=4, max_side=6),
        elements=st.floats(
            width=np.finfo(dt).bits, allow_nan=True, allow_infinity=False, allow_subnormal=True
        )
        | st.floats(-800.0, 120.0, width=np.finfo(dt).bits),
    )
))
def test_silu_deploy_form_matches_default_form(x):
    assert_silu_deploy_form(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_deploy_form_on_special_values(dtype):
    fi = np.finfo(dtype)
    vals = [0.0, -0.0, np.nan, 87.0, -87.0, 88.72, -88.72, 104.0, -104.0, 709.78, -709.78,
            1e30, -1e30, fi.max, fi.min, fi.smallest_subnormal, -fi.smallest_subnormal,
            2 * fi.smallest_subnormal, -2 * fi.smallest_subnormal, np.inf]
    with np.errstate(over="ignore"):  # 709.78 and 1e30 overflow float32 to inf
        x = np.array(vals, dtype=np.float64).astype(dtype)
    assert_silu_deploy_form(x)
    with using(checked=False):
        assert ops.silu(Tensor(x), deploy=True).data[-1] == np.inf
        # -inf is NaN in both forms (-inf * 0 and -inf / inf), each flagged invalid
        for deploy in (False, True):
            with pytest.warns(RuntimeWarning, match="invalid"):
                y = ops.silu(Tensor(np.array([-np.inf, 1.0], dtype=dtype)), deploy=deploy)
            assert np.isnan(y.data[0]) and y.data[1] > 0


def test_silu_deploy_form_is_forward_only():
    x = Tensor(rng(6).standard_normal((1, 2, 3, 3)).astype(np.float32), requires_grad=True)
    loss = ops.sum_all(ops.silu(x, deploy=True))
    with pytest.raises(AutogradError, match="forward-only"):
        loss.backward()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_nan_maps_to_nan(dtype):
    x = np.array([np.nan, -np.nan, 1.0, -1.0, np.nan], dtype=dtype)
    y = ops._sigmoid(x)
    np.testing.assert_array_equal(np.isnan(y), np.isnan(x))


def test_upsample_single_value():
    y = ops.upsample_nearest2x(Tensor(np.full((1, 1, 1, 1), 5.0, dtype=np.float32)))
    np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), 5.0))


def test_upsample_block_layout():
    x = Tensor(np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2))
    y = ops.upsample_nearest2x(x).data[0, 0]
    expect = np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32
    )
    np.testing.assert_array_equal(y, expect)


def test_upsample_average_roundtrip():
    x = rng(6).standard_normal((2, 3, 5, 7)).astype(np.float32)
    up = ops.upsample_nearest2x(Tensor(x)).data
    down = up.reshape(2, 3, 5, 2, 7, 2).mean(axis=(3, 5))
    np.testing.assert_allclose(down, x, atol=1e-6)


def test_concat_shapes():
    a = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    assert ops.concat_channels([a, b]).shape == (1, 5, 4, 4)


def test_split_concat_roundtrip_bit_exact():
    x = rng(7).standard_normal((1, 6, 2, 2)).astype(np.float32)
    parts = ops.split_channels(Tensor(x), [3, 3])
    back = ops.concat_channels(parts)
    assert back.data.tobytes() == x.tobytes()


def test_concat_spatial_mismatch_error():
    a = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 2, 8, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="spatial"):
        ops.concat_channels([a, b])


def test_split_bad_sizes_error():
    x = Tensor(np.zeros((1, 6, 2, 2), dtype=np.float32))
    with pytest.raises(ConfigError, match="sum"):
        ops.split_channels(x, [3, 2])


def test_global_avg_pool():
    x = rng(8).standard_normal((2, 3, 4, 6)).astype(np.float32)
    y = ops.global_avg_pool(Tensor(x))
    assert y.shape == (2, 3, 1, 1)
    np.testing.assert_allclose(y.data[:, :, 0, 0], x.mean(axis=(2, 3)), atol=1e-6)


def test_softmax_cross_entropy_uniform():
    logits = Tensor(np.zeros((4, 3), dtype=np.float32))
    loss = ops.softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert loss.item() == pytest.approx(np.log(3.0), abs=1e-6)
