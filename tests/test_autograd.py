import numpy as np
import pytest

from helpers import plain_check_gradients

from mafnet import Tensor
from mafnet import ops
from mafnet.gradcheck import CHECKS, check_gradients, registry, run_gradcheck


def test_sum_of_conv_weight_grad_is_border_clipped_count():
    # all-ones input, 3x3 depthwise, pad 1: a weight tap's gradient counts the
    # positions where that tap sees real data, so center = H*W and the corner
    # taps lose one clipped row and column each.
    h = w = 6
    x = Tensor(np.ones((1, 1, h, w), dtype=np.float32))
    k = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
    y = ops.conv2d(x, k, stride=1, groups=1)
    ops.sum_all(y).backward()
    g = k.grad[0, 0]
    assert g[1, 1] == h * w
    assert g[0, 0] == (h - 1) * (w - 1)
    assert g[0, 1] == (h - 1) * w
    assert g[2, 2] == (h - 1) * (w - 1)


def test_grad_accumulates_across_uses():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    y = ops.concat_channels([x, x])
    ops.sum_all(y).backward()
    assert np.all(x.grad == 2.0)


def test_branch_sum_distributes_grads():
    x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32), requires_grad=True)
    a = ops.mul_scalar(x, 2.0)
    b = ops.mul_scalar(x, 3.0)
    ops.sum_all(a + b).backward()
    assert np.all(x.grad == 5.0)


# Every check's label and exact max relative error at seed 0, in registry
# order. The checks are deterministic float64 computations, so a refactor of
# the registry that keeps every RNG draw and op in place keeps these bitwise.
GRADCHECK_GOLDEN = {
    "conv2d": [
        ("conv2d[k=1,g1,s=1]", "1.99972918338239e-09"),
        ("conv2d[k=1,g1,s=2]", "3.41274936564518e-10"),
        ("conv2d[k=1,dw,s=1]", "2.2907426931207213e-09"),
        ("conv2d[k=1,dw,s=2]", "1.3542046856757394e-09"),
        ("conv2d[k=3,g1,s=1]", "4.283072251264466e-09"),
        ("conv2d[k=3,g1,s=2]", "2.112537435982249e-09"),
        ("conv2d[k=3,dw,s=1]", "2.261771232233947e-09"),
        ("conv2d[k=3,dw,s=2]", "3.154574081764784e-09"),
        ("conv2d[k=7,g1,s=1]", "3.0513697309795392e-09"),
        ("conv2d[k=7,g1,s=2]", "5.164149778366044e-09"),
        ("conv2d[k=7,dw,s=1]", "9.849800909866137e-09"),
        ("conv2d[k=7,dw,s=2]", "2.4937274747306008e-09"),
    ],
    "batchnorm": [
        ("batchnorm[infer]", "6.067031604396489e-10"),
        ("batchnorm[train]", "4.957704432125198e-09"),
    ],
    "silu": [("silu", "1.1204302835372731e-07")],
    "upsample": [("upsample", "7.114207361820346e-11")],
    "concat": [("concat", "1.420688492631957e-09")],
    "split": [("split", "1.468753322580235e-09")],
    "pool": [("pool", "6.006492806162707e-11")],
    "cross_entropy": [("cross_entropy", "1.3924556999597155e-09")],
    "rephdw": [("rephdw", "1.849950473442109e-09")],
    "bottleneck": [("bottleneck", "8.905224256351235e-07")],
    "saf": [("saf", "3.5011873819116156e-08")],
    "aaf": [("aaf", "1.938920614162077e-07")],
}
COMPOSITES = ["rephdw", "bottleneck"]


def _assert_golden(groups):
    ok, rows = run_gradcheck(groups)
    assert ok, rows
    got = [(label, repr(err)) for label, err, _ in rows]
    assert got == [row for g in groups for row in GRADCHECK_GOLDEN[g]]


@pytest.mark.parametrize("group", [g for g in GRADCHECK_GOLDEN if g not in COMPOSITES])
def test_finite_difference_ops(group):
    _assert_golden([group])


def test_finite_difference_composites():
    _assert_golden(COMPOSITES)


def test_gradcheck_golden_covers_registry():
    assert list(GRADCHECK_GOLDEN) == list(registry())


def _same_as_plain(fn_and_arrays, seed):
    """check_gradients against the plain checker, each on fresh leaves."""
    got = check_gradients(*fn_and_arrays(), seed=seed)
    want = plain_check_gradients(*fn_and_arrays(), seed=seed)
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("build", [b for _, _, b in CHECKS], ids=[label for _, label, _ in CHECKS])
def test_replayed_differences_match_full_evaluation_bitwise(build, seed):
    _same_as_plain(lambda: build(np.random.default_rng(seed)), seed)


def _leaves(rng, **shapes):
    return {k: rng.standard_normal(s) for k, s in shapes.items()}


def test_fresh_tensor_over_a_leaf_falls_back_to_full_evaluation():
    """A Tensor made inside `fn` over a leaf's data is untraceable: its
    perturbations show only in a full evaluation."""

    def fn(t):
        return ops.mul(ops.silu(t["x"]), ops.silu(Tensor(t["y"].data)))

    err = _same_as_plain(lambda: (fn, _leaves(np.random.default_rng(0), x=(1, 2, 3, 3), y=(1, 2, 3, 3))), 0)
    assert err > 0.5  # y's tape gradient is zero, its differences are not


def test_leaf_data_as_running_mean_falls_back_to_full_evaluation():
    var = np.full(2, 1.5)

    def fn(t):
        return ops.batchnorm_infer(ops.silu(t["x"]), t["g"], t["b"], t["m"].data, var)

    def case():
        return fn, _leaves(np.random.default_rng(0), x=(1, 2, 3, 3), g=(2,), b=(2,), m=(2,))

    assert _same_as_plain(case, 0) > 0.5
