import numpy as np
import pytest

from mafnet import AutogradError, NumericalError, ShapeError, Tensor, count_ops, no_grad, using
from mafnet import ops


def test_dtype_coercion():
    t = Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    t64 = Tensor(np.zeros(3, dtype=np.float64))
    assert t64.dtype == np.float64


def test_grad_accumulates_with_matching_shape():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    t.accumulate_grad(np.ones((2, 3)))
    t.accumulate_grad(np.ones((2, 3)))
    assert t.grad.shape == t.data.shape
    assert np.all(t.grad == 2.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ops.mul_scalar(x, 2.0)
    with pytest.raises(AutogradError):
        y.backward()


def test_sum_backward_is_ones():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)), requires_grad=True)
    ops.sum_all(x).backward()
    assert np.all(x.grad == 1.0)


def test_double_backward_rejected():
    x = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    loss = ops.sum_all(x)
    loss.backward()
    with pytest.raises(AutogradError):
        loss.backward()


def test_no_grad_blocks_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        y = ops.mul_scalar(x, 3.0)
    assert not y.requires_grad
    assert y._backward is None


def test_count_ops_reports_call_diffs():
    x = Tensor(np.ones((1, 2, 4, 4)))
    w = Tensor(np.ones((2, 1, 3, 3)))
    with count_ops() as counts:
        ops.conv2d(x, w, groups=2)
        ops.silu(x)
        ops.silu(x)
    assert counts["conv2d"] == 1
    assert counts["silu"] == 2


def test_checked_mode_flags_nonfinite():
    x = Tensor(np.array([[np.inf]], dtype=np.float32).reshape(1, 1, 1, 1))
    with using(checked=True), pytest.raises(NumericalError):
        ops.silu(x)
    with using(checked=False):
        ops.silu(x)  # unchecked mode lets it through


def test_mixed_dtype_rejected():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float64))
    with pytest.raises(ShapeError):
        ops.conv2d(x, w)
