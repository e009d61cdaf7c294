import numpy as np
import pytest

from mafnet import (
    Bottleneck,
    NeckConfig,
    RepHELAN,
    Tensor,
    layer_inventory,
    randomize_bn_stats,
    randomize_weights,
)
from mafnet import ops
from mafnet.errors import ConfigError, ShapeError

from helpers import (
    dirac_depthwise,
    make_identity_bn,
    make_identity_conv,
    zero_module,
)

rng = np.random.default_rng


def test_bottleneck_zero_weights_annihilate():
    block = Bottleneck(4, 5, expansion=2.0, rng=rng(0))
    zero_module(block)
    block.eval()
    x = Tensor(rng(1).standard_normal((1, 4, 6, 6)).astype(np.float32))
    y = block(x)
    np.testing.assert_array_equal(y.data, 0.0)


def test_bottleneck_identity_composition():
    block = Bottleneck(3, 5, expansion=1.0, use_rep=False, rng=rng(0))
    make_identity_conv(block.pw_expand)
    make_identity_conv(block.pw_shrink)
    make_identity_bn(block.bn_expand)
    make_identity_bn(block.bn_shrink)
    block.dw.conv5.weight.data = dirac_depthwise(3, 5)
    make_identity_bn(block.dw.bn5)
    block.eval()
    x = Tensor(rng(2).standard_normal((1, 3, 7, 7)).astype(np.float32))
    y = block(x)
    # identity convs and BNs leave the two activations: silu(silu(x))
    np.testing.assert_array_equal(y.data, ops.silu(ops.silu(x)).data)


def test_bottleneck_compositional_oracle():
    r = rng(3)
    block = Bottleneck(8, 7, expansion=2.0, use_rep=True, rng=r)
    randomize_bn_stats(block, r)
    block.eval()
    x = Tensor(r.standard_normal((1, 8, 10, 10)).astype(np.float32))
    y = block(x)

    def bn(m, t):
        return ops.batchnorm_infer(t, m.gamma, m.beta, m.running_mean, m.running_var, m.eps)

    h = ops.silu(bn(block.bn_expand, ops.conv2d(x, block.pw_expand.weight)))
    acc = None
    for k in (7, 5, 3):
        conv = getattr(block.dw, f"conv{k}")
        bnm = getattr(block.dw, f"bn{k}")
        z = bn(bnm, ops.conv2d(h, conv.weight, groups=16))
        acc = z if acc is None else acc + z
    ref = bn(block.bn_shrink, ops.conv2d(ops.silu(acc), block.pw_shrink.weight))
    np.testing.assert_allclose(y.data, ref.data, atol=1e-5)


def test_bottleneck_kernel_degradations():
    plain = Bottleneck(4, 7, use_rep=False, rng=rng(0))
    assert plain.dw.branch_kernels == [7]
    # the large-kernel toggle acts in the block: without it every unit is <= 5x5
    small = _helan(out_ch=8, kernel=9, use_large=False).bottlenecks[0]
    assert small.dw.kernel == 5
    assert small.dw.branch_kernels == [5, 3]
    neither = _helan(out_ch=8, kernel=9, use_rep=False, use_large=False).bottlenecks[0]
    assert neither.dw.branch_kernels == [5]
    assert _helan(out_ch=8, kernel=3, use_large=False).bottlenecks[0].dw.kernel == 3


def test_bottleneck_channel_mismatch():
    block = Bottleneck(4, 5, rng=rng(0))
    with pytest.raises(ShapeError, match="channels"):
        block(Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32)))


# ---------------------------------------------------------------------------
# RepHELAN
# ---------------------------------------------------------------------------

def _helan(in_ch=4, out_ch=4, n=1, kernel=5, seed=0, **toggles):
    # the toggles (use_elan, use_rep, use_large, expansion) come from a neck config
    return RepHELAN(in_ch, out_ch, n, kernel, NeckConfig(**toggles), rng=rng(seed))


def test_helan_passthrough_lane_survives():
    block = _helan(in_ch=4, out_ch=4, n=1)
    for b in block.bottlenecks:
        zero_module(b)
    make_identity_conv(block.pw_in)  # 4 -> 4 = 2*hidden
    make_identity_bn(block.bn_in)
    make_identity_bn(block.bn_out)
    # pw_out selects the first two concat lanes (s0) into the first two
    # output channels; everything else zero
    w = np.zeros((4, block.concat_width, 1, 1), dtype=np.float32)
    w[0, 0, 0, 0] = 1.0
    w[1, 1, 0, 0] = 1.0
    block.pw_out.weight.data = w
    block.eval()
    x = Tensor(rng(4).standard_normal((1, 4, 5, 5)).astype(np.float32))
    y = block(x)
    assert y.shape[1] == 4
    # the lane passes pw_in's and pw_out's activations: silu(silu(x))
    ref = ops.silu(ops.silu(x)).data
    np.testing.assert_allclose(y.data[:, :2], ref[:, :2], atol=1e-6)


def test_helan_concat_width_by_elan_toggle():
    on = _helan(out_ch=6, n=2, use_elan=True)
    off = _helan(out_ch=6, n=2, use_elan=False)
    assert on.hidden == off.hidden == 3
    assert on.concat_width == (2 + 2) * 3
    assert off.concat_width == 2 * 3
    assert on.pw_out.in_channels == 12
    assert off.pw_out.in_channels == 6


def test_helan_compositional_oracle():
    r = rng(5)
    block = _helan(in_ch=6, out_ch=8, n=2, seed=5)
    randomize_weights(block, r)
    randomize_bn_stats(block, r)
    block.eval()
    x = Tensor(r.standard_normal((2, 6, 8, 8)).astype(np.float32))
    y = block(x)

    def bn(m, t):
        return ops.batchnorm_infer(t, m.gamma, m.beta, m.running_mean, m.running_var, m.eps)

    h = ops.silu(bn(block.bn_in, ops.conv2d(x, block.pw_in.weight)))
    s0, s1 = ops.split_channels(h, [4, 4])
    c1 = block.bottlenecks[0](s1)
    c2 = block.bottlenecks[1](c1)
    cat = ops.concat_channels([s0, s1, c1, c2])
    ref = ops.silu(bn(block.bn_out, ops.conv2d(cat, block.pw_out.weight)))
    np.testing.assert_allclose(y.data, ref.data, atol=1e-5)


@pytest.mark.parametrize("hw", [(8, 8), (16, 12), (5, 9)])
def test_helan_preserves_spatial_dims(hw):
    block = _helan(in_ch=4, out_ch=6, n=2)
    block.eval()
    x = Tensor(np.ones((1, 4, *hw), dtype=np.float32))
    assert block(x).shape == (1, 6, *hw)


def test_helan_gradient_reach():
    r = rng(6)
    block = _helan(in_ch=4, out_ch=4, n=2, use_elan=True)
    block.eval()
    x = Tensor(r.standard_normal((1, 4, 6, 6)).astype(np.float32))
    ops.sum_all(block(x)).backward()
    for b in block.bottlenecks:
        for name, p in b.named_parameters():
            if name.endswith("weight"):
                assert p.grad is not None and np.abs(p.grad).max() > 0, name
    assert np.abs(block.pw_in.weight.grad).max() > 0


def test_inventory_toggle_semantics():
    # all mechanisms off: exactly one 5x5 depthwise conv per bottleneck,
    # no retained intermediates
    off = _helan(out_ch=8, n=2, use_elan=False, kernel=9, use_rep=False, use_large=False)
    inv = layer_inventory(off)
    dw = [r for r in inv if r["kind"] == "dwconv"]
    assert len(dw) == 2
    assert all(r["kernel"] == 5 for r in dw)
    assert off.pw_out.in_channels == 2 * 4

    rep_on = _helan(out_ch=8, n=2, use_elan=False, kernel=9, use_rep=True, use_large=False)
    inv_rep = layer_inventory(rep_on)
    assert [r for r in inv_rep if r["kind"] == "rephdw"][0]["branch_kernels"] == [5, 3]

    lk_on = _helan(out_ch=8, n=2, use_elan=False, kernel=9, use_rep=False, use_large=True)
    dw_lk = [r for r in layer_inventory(lk_on) if r["kind"] == "dwconv"]
    assert all(r["kernel"] == 9 for r in dw_lk)


def test_neck_config_rejects_zero_depth():
    with pytest.raises(ConfigError, match=r"neck\.depth must be >= 1, got 0"):
        NeckConfig(depth=0)


def test_zero_width_blocks_raise_config_error():
    # configs reject these widths; direct constructions reach Conv2d's own check
    with pytest.raises(ConfigError, match="Conv2d: channel counts must be >= 1, got 0 in"):
        Bottleneck(0, 5)
    with pytest.raises(ConfigError, match="Conv2d: channel counts must be >= 1, got 4 in, 0 out"):
        RepHELAN(4, 1, 1, 5, NeckConfig(), rng(0))
