"""Canaries for the numpy and BLAS behaviours that the bitwise goldens rest on.

README "Conventions" lists these rules; each test here shows one on a minimal
array, so an upgraded numpy or OpenBLAS fails at the named rule rather than
deep inside a golden. The last test pins the premise of the finite-difference
replay in `gradcheck`: an op given equal inputs returns equal bits, with the
tape on or off.
"""

import functools
import operator

import numpy as np
import pytest

from mafnet import Tensor, no_grad, ops


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_ufunc_output_follows_input_strides_unless_c_order_is_asked():
    f = np.ones((3, 4)).T
    assert np.multiply(f, 2.0).flags.f_contiguous
    assert np.multiply(f, 2.0, order="C").flags.c_contiguous


def test_single_output_reduce_sums_pairwise_from_eight_terms():
    # 1 plus seven halves of an ulp: in order each add rounds back to 1;
    # pairwise the halves first add up to ulps that 1 can hold.
    e = 2.0**-53
    terms = np.array([1.0] + [e] * 7)
    in_order = functools.reduce(operator.add, terms.tolist())
    assert in_order == 1.0
    assert np.add.reduce(terms[:7]) == 1.0
    assert np.add.reduce(terms) == 1.0 + 3 * 2.0**-52
    # with two outputs the leading axis is summed in order
    assert np.add.reduce(np.stack([terms, terms], axis=1), axis=0).tolist() == [1.0, 1.0]


def test_dot_with_a_unit_dimension_skips_zero_times_inf_and_matmul_does_not():
    x = np.zeros((1, 1), dtype=np.float32)
    w = np.array([[np.inf, 1.0]], dtype=np.float32)
    with np.errstate(invalid="ignore"):
        assert np.dot(x, w).tolist() == [[0.0, 0.0]]
        got = np.matmul(x, w)
    assert np.isnan(got[0, 0]) and got[0, 1] == 0.0


def test_blas_rounds_a_product_by_operand_layout():
    r = np.random.default_rng(0)
    a = r.standard_normal((2, 32)).astype(np.float32)
    b = r.standard_normal((32, 2)).astype(np.float32)
    c = np.matmul(a, b)
    assert _bits(np.matmul(a, b)) == _bits(c)
    f = np.matmul(np.asfortranarray(a), b)
    assert _bits(f) != _bits(c)
    np.testing.assert_allclose(f, c, rtol=1e-5)
    row = r.standard_normal((1, 16)).astype(np.float32)
    w = r.standard_normal((16, 4)).astype(np.float32)
    assert _bits(np.matmul(row, np.asfortranarray(w))) != _bits(np.matmul(row, w))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ufunc_buffer_size_changes_no_bit(dtype):
    # The depthwise forward's ufuncs under `np.setbufsize(16)`: a strided
    # window times broadcast weights, added in place, and a C-ordered product
    # of several taps summed along its leading axis from +0.
    r = np.random.default_rng(1)
    x = r.standard_normal((3, 40, 40)).astype(dtype)
    w = r.standard_normal((3, 1)).astype(dtype)
    taps = r.standard_normal((3, 3, 1)).astype(dtype)
    # (tap, channel, output) windows of a row at stride 2, a strided view
    windows = np.lib.stride_tricks.sliding_window_view(x[:, 7], 3, axis=1)[:, ::2].transpose(2, 0, 1)

    def run():
        acc = np.zeros((3, 20), dtype=dtype)
        acc += w * x[:, 5, ::2]
        prod = np.multiply(taps, windows, order="C")
        total = np.add.reduce(prod, axis=0, initial=0)
        return _bits(acc) + _bits(total)

    default = run()
    old = np.setbufsize(16)
    try:
        small = run()
    finally:
        np.setbufsize(old)
    assert small == default


def test_merging_batch_and_channel_of_a_transposed_window_view_copies_nothing():
    # `_depthwise_rows` moves the tap axes of its window view in front and
    # merges batch and channel; a copy would be k^2 times the input.
    k, b, c, h, w = 3, 2, 3, 4, 5
    xp = ops._pad_hw(np.ones((b, c, h, w)), k // 2)
    taps_first = ops._windows(xp, k, 1, h, w).transpose(2, 3, 0, 1, 4, 5)
    merged = taps_first.reshape(k, k, b * c, h, w)
    assert np.shares_memory(merged, xp)
    np.testing.assert_array_equal(merged[1, 2, c + 1], xp[1, 1, 1 : 1 + h, 2 : 2 + w])


def test_contiguous_copy_of_a_stride_1_pointwise_window_view_is_the_input():
    # The (B, C, 1, 1, H, W) window of a 1x1 conv at stride 1: numpy ignores
    # the strides of unit axes when it checks C order, so the im2col matrix
    # of conv2d's dense deploy form is the input itself.
    x = np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5)
    cols = np.ascontiguousarray(ops._windows(x, 1, 1, 4, 5))
    assert np.shares_memory(cols, x)
    assert np.shares_memory(cols.reshape(2, 3, 4 * 5), x)


@pytest.mark.parametrize(
    "call",
    [
        lambda x, w, g, b: ops.conv2d(x, w[0]),
        lambda x, w, g, b: ops.conv2d(x, w[1], b, stride=2, groups=4),
        lambda x, w, g, b: ops.silu(x),
        lambda x, w, g, b: ops.batchnorm_infer(x, g, b, np.full(4, 0.1), np.full(4, 2.0)),
        lambda x, w, g, b: ops.split_channels(x, [1, 3])[1],
    ],
    ids=["conv2d-dense", "conv2d-dw-s2", "silu", "batchnorm_infer", "split_channels"],
)
def test_op_on_equal_inputs_returns_equal_bits_with_or_without_tape(call):
    r = np.random.default_rng(2)
    arrays = (
        r.standard_normal((2, 4, 6, 6)),
        [r.standard_normal((3, 4, 3, 3)), r.standard_normal((4, 1, 5, 5))],
        r.standard_normal(4),
        r.standard_normal(4),
    )

    def leaves(requires_grad):
        x, (dense, dw), g, b = arrays
        return (
            Tensor(x.copy(), requires_grad),
            [Tensor(dense.copy(), requires_grad), Tensor(dw.copy(), requires_grad)],
            Tensor(g.copy(), requires_grad),
            Tensor(b.copy(), requires_grad),
        )

    taped = call(*leaves(True))
    assert taped.requires_grad
    with no_grad():
        plain = call(*leaves(False))
    again = call(*leaves(True))
    assert _bits(taped.data) == _bits(plain.data) == _bits(again.data)
