import numpy as np
import pytest

from mafnet import (
    AAFFuse,
    MAFPN,
    NeckConfig,
    SAFFuse,
    Tensor,
    backbone_lineage,
    no_grad,
    randomize_bn_stats,
    randomize_weights,
)
from mafnet import ops
from mafnet.errors import ConfigError, ShapeError

from helpers import zero_module

rng = np.random.default_rng


def _taps(r, widths=(32, 64, 128, 256), size=64, batch=1):
    out = {}
    for i, w in enumerate(widths):
        s = size // (4 * 2**i)
        out[f"P{i + 2}"] = Tensor(r.standard_normal((batch, w, s, s)).astype(np.float32))
    return out


def _neck(saf=True, aaf=True, widths=(16, 24, 32), seed=0):
    cfg = NeckConfig(
        widths=list(widths), depth=1, enable_saf=saf, enable_aaf=aaf
    )
    return MAFPN([8, 16, 24, 32], cfg, rng=rng(seed))


# ---------------------------------------------------------------------------
# SAF
# ---------------------------------------------------------------------------

# (kind, in_channels, out_channels) per lane: the assist lane projected to
# half the same-level width, as MAFPN builds it with saf_ratio=0.5
SAF_LANES = (("assist-down", 8, 8), ("same", 16, 16), ("up", 4, 4))


def test_saf_width_rule_and_shape():
    neck = _neck()  # P3 -> 16, P4 -> 24 channels; P'5 -> 32
    assert neck.saf4.assist.proj.out_channels == round(0.5 * 24)
    assert neck.saf4.lanes == (("assist-down", 16, 12), ("same", 24, 24), ("up", 32, 32))
    shallow = Tensor(np.zeros((1, 16, 16, 16), dtype=np.float32))
    same = Tensor(np.zeros((1, 24, 8, 8), dtype=np.float32))
    deep = Tensor(np.zeros((1, 32, 4, 4), dtype=np.float32))
    y = neck.saf4(shallow, same, deep)
    assert y.shape == (1, 12 + 24 + 32, 8, 8) and neck.saf4.out_channels == 12 + 24 + 32


def test_saf_ratio_that_rounds_an_assist_lane_to_zero_is_rejected():
    # P'4 gets round(0.03 * 24) = 1 assist channel, P'3 round(0.03 * 16) = 0
    cfg = NeckConfig(widths=[16, 24, 32], depth=1, saf_ratio=0.03)
    with pytest.raises(ConfigError, match="saf_ratio 0.03 leaves node P'3 a 0-channel"):
        MAFPN([8, 16, 24, 32], cfg, rng=rng(0))


def test_saf_assist_lane_isolation():
    r = rng(1)
    node = SAFFuse(SAF_LANES, rng=r)
    zero_module(node.assist)
    node.eval()
    shallow = Tensor(r.standard_normal((1, 8, 16, 16)).astype(np.float32))
    same = Tensor(r.standard_normal((1, 16, 8, 8)).astype(np.float32))
    deep = Tensor(r.standard_normal((1, 4, 4, 4)).astype(np.float32))
    with no_grad():
        y = node(shallow, same, deep)
    assist_w = node.lanes[0][2]
    np.testing.assert_array_equal(y.data[:, :assist_w], 0.0)
    np.testing.assert_array_equal(y.data[:, assist_w : assist_w + 16], same.data)
    np.testing.assert_array_equal(
        y.data[:, assist_w + 16 :], ops.upsample_nearest2x(deep).data
    )


def test_saf_shape_scale_equivariance():
    node = SAFFuse(SAF_LANES, rng=rng(2))
    node.eval()
    for size in (16, 8):
        shallow = Tensor(np.ones((1, 8, 2 * size, 2 * size), dtype=np.float32))
        same = Tensor(np.ones((1, 16, size, size), dtype=np.float32))
        deep = Tensor(np.ones((1, 4, size // 2, size // 2), dtype=np.float32))
        y = node(shallow, same, deep)
        assert y.shape == (1, 8 + 16 + 4, size, size)


def test_saf_spatial_violation_names_level():
    node = SAFFuse(SAF_LANES, level="P'4", rng=rng(3))
    shallow = Tensor(np.ones((1, 8, 12, 12), dtype=np.float32))  # not 2x
    same = Tensor(np.ones((1, 16, 8, 8), dtype=np.float32))
    deep = Tensor(np.ones((1, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="P'4: assist-down lane has spatial dims"):
        node(shallow, same, deep)
    with pytest.raises(ShapeError, match="P'4: got 2 lanes, expected 3"):
        node(same, deep)


# ---------------------------------------------------------------------------
# AAF
# ---------------------------------------------------------------------------

def test_aaf_equal_width_rule():
    node = AAFFuse((("cross-down", 8, 16), ("chain-down", 24, 16), ("same", 16, 16),
                    ("up-project", 40, 16)), rng=rng(4))
    node.eval()
    p1 = Tensor(np.ones((1, 8, 16, 16), dtype=np.float32))
    p2 = Tensor(np.ones((1, 24, 16, 16), dtype=np.float32))
    same = Tensor(np.ones((1, 16, 8, 8), dtype=np.float32))
    deep = Tensor(np.ones((1, 40, 4, 4), dtype=np.float32))
    y = node(p1, p2, same, deep)
    assert y.shape == (1, 4 * 16, 8, 8)


def test_aaf_boundary_three_lane_width():
    node = AAFFuse((("assist-down", 8, 16), ("same", 16, 16), ("up-project", 40, 16)),
                   rng=rng(5))
    node.eval()
    assist = Tensor(np.ones((1, 8, 16, 16), dtype=np.float32))
    same = Tensor(np.ones((1, 16, 8, 8), dtype=np.float32))
    deep = Tensor(np.ones((1, 40, 4, 4), dtype=np.float32))
    y = node(assist, same, deep)
    assert y.shape == (1, 3 * 16, 8, 8)


def test_aaf_compositional_oracle():
    r = rng(6)
    node = AAFFuse((("cross-down", 4, 6), ("chain-down", 6, 6), ("same", 6, 6),
                    ("up-project", 10, 6)), rng=r)
    randomize_weights(node, r)
    randomize_bn_stats(node, r)
    node.eval()
    p1 = Tensor(r.standard_normal((1, 4, 8, 8)).astype(np.float32))
    p2 = Tensor(r.standard_normal((1, 6, 8, 8)).astype(np.float32))
    same = Tensor(r.standard_normal((1, 6, 4, 4)).astype(np.float32))
    deep = Tensor(r.standard_normal((1, 10, 2, 2)).astype(np.float32))
    with no_grad():
        y = node(p1, p2, same, deep)

    def down_lane(lane, t):
        z = ops.conv2d(t, lane.down.weight, stride=2)
        bn = lane.bn
        z = ops.batchnorm_infer(z, bn.gamma, bn.beta, bn.running_mean, bn.running_var, bn.eps)
        z = ops.conv2d(z, lane.proj.weight, lane.proj.bias)
        return ops.silu(z)

    lane1 = down_lane(node.p1_down, p1)
    lane2 = down_lane(node.p2_down, p2)
    up = ops.conv2d(ops.upsample_nearest2x(deep), node.up_proj.weight, node.up_proj.bias)
    ref = ops.concat_channels([lane1, lane2, same, up])
    np.testing.assert_allclose(y.data, ref.data, atol=1e-5)


# ---------------------------------------------------------------------------
# full neck
# ---------------------------------------------------------------------------

def test_mafpn_output_strides():
    neck = _neck()
    neck.eval()
    taps = _taps(rng(7), widths=(8, 16, 24, 32), size=128)
    with no_grad():
        outs, _ = neck.forward_taps(taps)
    assert outs["N3"].shape == (1, 16, 16, 16)
    assert outs["N4"].shape == (1, 24, 8, 8)
    assert outs["N5"].shape == (1, 32, 4, 4)


def test_mafpn_forward_deterministic():
    neck = _neck()
    neck.eval()
    taps = _taps(rng(8), widths=(8, 16, 24, 32), size=64)
    with no_grad():
        a, _ = neck.forward_taps(taps)
        b, _ = neck.forward_taps(taps)
    for k in a:
        assert a[k].data.tobytes() == b[k].data.tobytes()


def test_wiring_edges_full_config():
    edges = _neck(saf=True, aaf=True).wiring_edges()
    assert edges == [
        "P5 -> P'5 [project]",
        "P3 -> P'4 [assist-down]",
        "P4 -> P'4 [same]",
        "P'5 -> P'4 [up]",
        "P2 -> P'3 [assist-down]",
        "P3 -> P'3 [same]",
        "P'4 -> P'3 [up]",
        "P2 -> P''3 [assist-down]",
        "P'3 -> P''3 [same]",
        "P'4 -> P''3 [up-project]",
        "P'3 -> P''4 [cross-down]",
        "P''3 -> P''4 [chain-down]",
        "P'4 -> P''4 [same]",
        "P'5 -> P''4 [up-project]",
        "P'4 -> P''5 [cross-down]",
        "P''4 -> P''5 [chain-down]",
        "P'5 -> P''5 [same]",
        "P''3 -> N3 [output]",
        "P''4 -> N4 [output]",
        "P''5 -> N5 [output]",
    ]


def test_wiring_toggle_diffs_are_exact():
    full = set(_neck(True, True).wiring_edges())
    no_saf = set(_neck(False, True).wiring_edges())
    no_aaf = set(_neck(True, False).wiring_edges())
    assert full - no_saf == {
        "P3 -> P'4 [assist-down]",
        "P2 -> P'3 [assist-down]",
        "P2 -> P''3 [assist-down]",
    }
    assert no_saf - full == set()
    removed = full - no_aaf
    assert removed == {
        "P2 -> P''3 [assist-down]",
        "P'3 -> P''3 [same]",
        "P'4 -> P''3 [up-project]",
        "P'3 -> P''4 [cross-down]",
        "P'5 -> P''4 [up-project]",
        "P'4 -> P''5 [cross-down]",
    }
    assert no_aaf - full == {"P'3 -> P''3 [alias]"}


def test_backbone_lineage_reaches_three_levels():
    lineage = backbone_lineage(_neck(True, True))
    for out in ("N3", "N4", "N5"):
        assert len(lineage[out]) >= 3, (out, lineage[out])
    # P2 enters only through assist lanes, so without SAF nothing sees it
    upper = {"P3", "P4", "P5"}
    assert backbone_lineage(_neck(False, True)) == {
        "P'5": {"P5"}, "P'4": {"P4", "P5"}, "P'3": upper, "P''3": upper, "P''4": upper,
        "P''5": upper, "N3": upper, "N4": upper, "N5": upper,
    }


def test_p2_only_feeds_assist_lanes():
    edges = _neck(True, True).wiring_edges()
    p2_edges = [e for e in edges if e.startswith("P2 ")]
    assert p2_edges and all("[assist-down]" in e for e in p2_edges)
    assert not any(e.endswith("N3 [output]") and e.startswith("P2") for e in edges)


def test_pafpn_degeneration_structure():
    neck = _neck(saf=False, aaf=False)
    neck.eval()
    assert not hasattr(neck, "aaf3")
    assert not hasattr(neck.aaf4, "p1_down") and not hasattr(neck.aaf4, "up_proj")
    assert hasattr(neck.aaf4, "p2_down")
    taps = _taps(rng(9), widths=(8, 16, 24, 32), size=64)
    with no_grad():
        outs, neck_taps = neck.forward_taps(taps)
    assert neck_taps["P''3"] is neck_taps["P'3"]
    assert outs["N4"].shape[1] == 24


def test_backbone_tap_of_wrong_width_names_first_reader():
    # P3 is read first by P'4's assist lane, before P'3 reads it as its same lane
    neck = _neck()
    taps = _taps(rng(11), widths=(8, 17, 24, 32), size=64)
    with pytest.raises(ShapeError, match="P'4: assist-down lane has 17 channels, expected 16"):
        neck.forward_taps(taps)


def test_mafpn_gradients_flow_to_all_lanes():
    neck = _neck(True, True)
    neck.eval()
    taps = _taps(rng(10), widths=(8, 16, 24, 32), size=64)
    for t in taps.values():
        t.requires_grad = True
    outs, _ = neck.forward_taps(taps)
    loss = ops.sum_all(outs["N3"]) + ops.sum_all(outs["N4"]) + ops.sum_all(outs["N5"])
    loss.backward()
    for name, t in taps.items():
        assert t.grad is not None and np.abs(t.grad).max() > 0, name
