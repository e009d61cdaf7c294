import numpy as np
import pytest

from mafnet import (
    ConfigError,
    RepHDWConv,
    Tensor,
    count_ops,
    count_costs,
    default_small_kernels,
    fold_bn,
    fuse_equivalence_deviation,
    no_grad,
    pad_kernel_to,
    randomize_bn_stats,
    randomize_weights,
)
from mafnet import ops
from mafnet.modules import BatchNormParams
from mafnet.repconv import branch_path

from helpers import dirac_depthwise, make_identity_bn


rng = np.random.default_rng


# ---------------------------------------------------------------------------
# default_small_kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("large,expect", [(3, []), (5, [3]), (7, [5, 3]), (9, [7, 5, 3])])
def test_default_small_kernels(large, expect):
    assert default_small_kernels(large) == expect


@pytest.mark.parametrize("bad", [2, 4, 1, -3])
def test_default_small_kernels_rejects(bad):
    with pytest.raises(ConfigError):
        default_small_kernels(bad)


# ---------------------------------------------------------------------------
# fold_bn
# ---------------------------------------------------------------------------

def _bn_params(c, gamma, beta, mean, var, eps=0.0):
    return BatchNormParams(
        np.full(c, gamma, dtype=np.float32),
        np.full(c, beta, dtype=np.float32),
        np.full(c, mean, dtype=np.float32),
        np.full(c, var, dtype=np.float32),
        eps,
    )


def test_fold_bn_identity():
    w = rng(0).standard_normal((3, 1, 3, 3)).astype(np.float32)
    w2, b2 = fold_bn(w, _bn_params(3, 1.0, 0.0, 0.0, 1.0))
    np.testing.assert_allclose(w2, w, atol=1e-7)
    np.testing.assert_allclose(b2, 0.0, atol=1e-7)


def test_fold_bn_hand_case():
    w = rng(1).standard_normal((2, 1, 3, 3)).astype(np.float32)
    w2, b2 = fold_bn(w, _bn_params(2, 2.0, 1.0, 0.0, 1.0))
    np.testing.assert_allclose(w2, 2.0 * w, rtol=1e-6)
    np.testing.assert_allclose(b2, 1.0, atol=1e-7)


def test_fold_bn_forward_equivalence_random():
    r = rng(2)
    for _ in range(25):
        c = int(r.integers(1, 6))
        k = int(r.choice([1, 3, 5]))
        w = r.standard_normal((c, 1, k, k)).astype(np.float32)
        bn = BatchNormParams(
            r.uniform(0.5, 1.5, c).astype(np.float32),
            r.normal(0, 0.3, c).astype(np.float32),
            r.normal(0, 0.5, c).astype(np.float32),
            r.uniform(0.3, 2.0, c).astype(np.float32),
            1e-5,
        )
        x = Tensor(r.standard_normal((2, c, 5, 5)).astype(np.float32))
        w2, b2 = fold_bn(w, bn)
        pre = ops.batchnorm_infer(
            ops.conv2d(x, Tensor(w), groups=c),
            Tensor(bn.gamma),
            Tensor(bn.beta),
            bn.running_mean,
            bn.running_var,
            bn.eps,
        )
        post = ops.conv2d(x, Tensor(w2), Tensor(b2), groups=c)
        np.testing.assert_allclose(post.data, pre.data, atol=1e-5)


def test_pad_kernel_centers():
    w = np.ones((2, 1, 3, 3), dtype=np.float32)
    p = pad_kernel_to(w, 7)
    assert p.shape == (2, 1, 7, 7)
    assert p[0, 0, 2:5, 2:5].sum() == 9
    assert p.sum() == 18


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------

def _identity_unit(channels, kernel, use_rep):
    u = RepHDWConv(channels, kernel, use_rep, rng=rng(0))
    for k in u.branch_kernels:
        conv = getattr(u, f"conv{k}")
        conv.weight.data = dirac_depthwise(channels, k)
        make_identity_bn(getattr(u, f"bn{k}"))
    return u


def test_single_branch_dirac_is_identity():
    u = _identity_unit(3, 3, use_rep=False)
    u.eval()
    x = Tensor(rng(1).standard_normal((1, 3, 5, 5)).astype(np.float32))
    y = u(x)
    np.testing.assert_allclose(y.data, x.data, atol=1e-6)


def test_forward_train_compositional_oracle():
    r = rng(3)
    u = RepHDWConv(8, 7, rng=r)
    randomize_weights(u, r)
    randomize_bn_stats(u, r)
    u.eval()
    x = Tensor(r.standard_normal((2, 8, 16, 16)).astype(np.float32))
    y = u(x)
    acc = None
    for k in (7, 5, 3):
        conv = getattr(u, f"conv{k}")
        bn = getattr(u, f"bn{k}")
        z = ops.batchnorm_infer(
            ops.conv2d(x, conv.weight, groups=8),
            bn.gamma,
            bn.beta,
            bn.running_mean,
            bn.running_var,
            bn.eps,
        ).data
        acc = z if acc is None else acc + z
    np.testing.assert_allclose(y.data, acc, atol=1e-5)


def test_channel_mismatch():
    u = RepHDWConv(4, 5, rng=rng(0))
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    with pytest.raises(Exception, match="channels"):
        u(x)
    u.eval()
    u.fuse()
    with pytest.raises(Exception, match="channels"), no_grad():
        u(x)


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def test_fuse_single_branch_identity_bn():
    u = _identity_unit(2, 5, use_rep=False)
    u.eval()
    w, b = u.fuse()
    np.testing.assert_allclose(w, dirac_depthwise(2, 5), atol=1e-7)
    np.testing.assert_allclose(b, 0.0, atol=1e-7)


def test_fuse_padding_placement():
    u = RepHDWConv(2, 5, rng=rng(0))
    assert u.branch_kernels == [5, 3]
    u.conv5.weight.data = np.zeros((2, 1, 5, 5), dtype=np.float32)
    u.conv3.weight.data = dirac_depthwise(2, 3)
    make_identity_bn(u.bn5)
    make_identity_bn(u.bn3)
    u.eval()
    w, b = u.fuse()
    expect = np.zeros((2, 1, 5, 5), dtype=np.float32)
    expect[:, 0, 2, 2] = 1.0
    np.testing.assert_allclose(w, expect, atol=1e-7)
    np.testing.assert_allclose(b, 0.0, atol=1e-7)


def test_fuse_equivalence_sweep():
    r = rng(4)
    for channels in (1, 8):
        for large in (5, 7, 9):
            for _ in range(5):
                u = RepHDWConv(channels, large, rng=r)
                randomize_weights(u, r)
                randomize_bn_stats(u, r)
                x = Tensor(r.standard_normal((2, channels, 16, 16)).astype(np.float32))
                assert fuse_equivalence_deviation(u, x) <= 1e-4


def test_fuse_equivalence_float64():
    r = rng(5)
    u = RepHDWConv(8, 9, rng=r, dtype=np.float64)
    randomize_weights(u, r)
    randomize_bn_stats(u, r)
    x = Tensor(r.standard_normal((2, 8, 16, 16)))
    assert fuse_equivalence_deviation(u, x) <= 1e-10


def test_fuse_equivalence_deviation_checks_held_kernels():
    r = rng(6)
    u = RepHDWConv(8, 7, rng=r)
    randomize_weights(u, r)
    randomize_bn_stats(u, r)
    x = Tensor(r.standard_normal((2, 8, 16, 16)).astype(np.float32))
    assert fuse_equivalence_deviation(u, x) <= 1e-4
    u.set_buffer("fused_weight", np.zeros_like(u.fused_weight))
    # a fused unit is not re-fused, so its zeroed kernel shows
    assert fuse_equivalence_deviation(u, x) > 1e-1


def test_fuse_is_idempotent():
    r = rng(6)
    u = RepHDWConv(4, 7, rng=r)
    randomize_bn_stats(u, r)
    u.eval()
    w1, b1 = u.fuse()
    w2, b2 = u.fuse()
    assert w1.tobytes() == w2.tobytes()
    assert b1.tobytes() == b2.tobytes()


def test_fused_forward_is_single_conv():
    u = RepHDWConv(4, 7, rng=rng(7))
    u.eval()
    u.fuse()
    x = Tensor(np.ones((1, 4, 8, 8), dtype=np.float32))
    with count_ops() as counts:
        with no_grad():
            u(x)
    assert counts == {"conv2d": 1}
    with count_ops() as counts:
        with no_grad(), branch_path():
            u(x)
    assert counts == {"conv2d": 3, "batchnorm_infer": 3, "add": 2}


def test_fuse_rejected_in_train_mode():
    u = RepHDWConv(4, 7, rng=rng(9))
    with pytest.raises(ConfigError, match="eval"):
        u.fuse()


def test_gradient_reaches_every_branch():
    r = rng(10)
    u = RepHDWConv(4, 7, rng=r)
    u.eval()
    x = Tensor(r.standard_normal((1, 4, 8, 8)).astype(np.float32))
    y = u(x)
    ops.sum_all(y).backward()
    for k in u.branch_kernels:
        g = getattr(u, f"conv{k}").weight.grad
        assert g is not None and np.abs(g).max() > 0


def test_parameter_count_identity_after_fusion():
    c, large = 16, 7
    u = RepHDWConv(c, large, rng=rng(11))
    smalls = u.small_kernels
    train_report = count_costs(u, 16, in_channels=c)
    expect_train = c * (large**2 + sum(k**2 for k in smalls)) + 2 * c * (1 + len(smalls))
    assert train_report.total_params == expect_train
    u.eval()
    u.fuse()
    fused_report = count_costs(u, 16, in_channels=c)
    assert fused_report.total_params == c * large**2 + c


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(channels=4, kernel=4),
        dict(channels=4, kernel=4, use_rep=False),
        dict(channels=4, kernel=1, use_rep=False),
    ],
)
def test_constructor_validation(kwargs):
    with pytest.raises(ConfigError):
        RepHDWConv(rng=rng(0), **kwargs)
