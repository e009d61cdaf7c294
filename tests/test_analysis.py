import numpy as np
import pytest

from mafnet import (
    Conv2d,
    RepHDWConv,
    Sequential,
    Tensor,
    build_model,
    count_costs,
    erf_map,
    erf_radius,
    fuse_model,
    nano_config,
    no_grad,
    toy_config,
    using,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from mafnet.errors import ConfigError
from mafnet.model import calibrate_bn_stats
from mafnet.repconv import branch_path, randomize_bn_stats
from mafnet.train import ToyClassifier

rng = np.random.default_rng


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_single_conv_hand_counts():
    conv = Conv2d(16, 32, 3, bias=True, rng=rng(0))
    report = count_costs(conv, 64, in_channels=16)
    assert report.total_params == 16 * 32 * 9 + 32 == 4640
    assert report.total_macs == 4608 * 64 * 64 == 18_874_368


def test_fused_rephdw_param_count():
    u = RepHDWConv(32, 7, rng=rng(1))
    u.eval()
    u.fuse()
    report = count_costs(u, 16, in_channels=32)
    assert report.total_params == 32 * 49 + 32 == 1600


def test_depthwise_conv_counts():
    conv = Conv2d(32, 32, 7, groups=32, rng=rng(2))
    report = count_costs(conv, 20, in_channels=32)
    assert report.total_params == 32 * 49
    assert report.total_macs == 32 * 49 * 20 * 20


def test_totals_equal_row_sums():
    model = build_model(toy_config())
    report = count_costs(model, 64)
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_macs == sum(r.macs for r in report.rows)
    assert report.total_params == model.param_count()


def test_macs_scale_with_resolution():
    model = build_model(toy_config())
    m640 = count_costs(model, 640).total_macs
    m320 = count_costs(model, 320).total_macs
    assert m640 == 4 * m320


def test_fused_model_under_branch_path_counts_as_unfused():
    model = build_model(toy_config(seed=1))
    unfused = count_costs(model, 64).to_dict()
    model.eval()
    fuse_model(model)
    with branch_path():
        under = count_costs(model, 64).to_dict()
    assert under == unfused
    assert not any(r["kind"] == "dwconv-fused" for r in under["rows"])


def test_fused_delta_matches_closed_form():
    model = build_model(toy_config())
    train_report = count_costs(model, 64)
    model.eval()
    fuse_model(model)
    fused_report = count_costs(model, 64)
    delta = train_report.total_params - fused_report.total_params
    expect = 0
    for m in model.modules():
        if isinstance(m, RepHDWConv):
            c = m.channels
            branches = 1 + len(m.small_kernels)
            small = c * sum(k * k for k in m.small_kernels)
            bn = 2 * c * branches
            expect += small + bn - c  # fused path gains one bias vector
    assert delta == expect
    assert fused_report.total_params < train_report.total_params
    assert fused_report.total_macs < train_report.total_macs


def test_probe_shapes_match_real_forward():
    model = build_model(toy_config())
    report = count_costs(model, 128)
    model.eval()
    with no_grad():
        _, taps = model.forward_taps(Tensor(np.zeros((1, 3, 128, 128), dtype=np.float32)))
    spatial = {taps[k].shape[2] for k in ("P2", "P3", "P4", "P5")}
    assert spatial == {32, 16, 8, 4}
    assert {r.out_shape[2] for r in report.rows} <= {128, 64, 32, 16, 8, 4}


def _observed_shapes(module, hw):
    """(name, output shape) of every module call in a real batch-1 eval
    forward; modules that return a dict of taps have shape None."""
    names = {id(m): n for n, m in module.named_modules()}
    seen = []

    def observer(m, out):
        seen.append((names[id(m)], getattr(out, "shape", None)))

    with module.mode(False), using(grad=False, observer=observer):
        module.forward_taps(Tensor(np.zeros((1, 3, *hw), dtype=np.float32)))
    return seen


@pytest.mark.parametrize("hw", [(96, 96), (64, 160)])
@pytest.mark.parametrize("make", [build_model, ToyClassifier], ids=["model", "classifier"])
def test_cost_rows_match_observed_forward_shapes(make, hw):
    """Every row's shape is the output shape its layer has in a real forward,
    including layers after the classifier's global pool."""
    module = make(toy_config())
    report = count_costs(module, hw)
    costed = {r.name for r in report.rows}
    seen = [(name, shape[1:]) for name, shape in _observed_shapes(module, hw) if name in costed]
    assert [(r.name, r.out_shape[1:]) for r in report.rows] == seen
    assert all(r.out_shape[0] == 1 for r in report.rows)


@pytest.mark.parametrize("size", [64, 96, 640])
def test_classifier_row_costed_on_pooled_map(size):
    model = ToyClassifier(toy_config())
    (row,) = [r for r in count_costs(model, size).rows if r.name == "classifier"]
    assert row.out_shape == (1, 2, 1, 1)
    assert row.macs == model.classifier.weight.data.size


def test_nano_calibration_window():
    report = count_costs(build_model(nano_config()), 640)
    assert abs(report.total_params - 3.76e6) <= 0.2 * 3.76e6
    assert abs(report.flops - 10.51e9) <= 0.2 * 10.51e9


# ---------------------------------------------------------------------------
# effective receptive field
# ---------------------------------------------------------------------------

def _ones(c, hw):
    return Tensor(np.ones((1, c, hw, hw), dtype=np.float32))


def test_erf_single_conv_support():
    conv = Conv2d(1, 1, 3, rng=rng(3))
    heat = erf_map(conv, "out", _ones(1, 9))
    nz = np.argwhere(heat > 0)
    assert nz.min(axis=0).tolist() == [3, 3]
    assert nz.max(axis=0).tolist() == [5, 5]


def test_erf_stacked_conv_support():
    stack = Sequential(Conv2d(1, 2, 3, rng=rng(4)), Conv2d(2, 1, 3, rng=rng(5)))
    heat = erf_map(stack, "out", _ones(1, 11))
    nz = np.argwhere(heat > 0)
    assert nz.min(axis=0).tolist() == [3, 3]
    assert nz.max(axis=0).tolist() == [7, 7]


def test_erf_map_normalized_and_nonnegative():
    conv = Conv2d(2, 2, 5, rng=rng(6))
    heat = erf_map(conv, "out", _ones(2, 15))
    assert heat.min() >= 0
    assert heat.sum() == pytest.approx(1.0, abs=1e-9)


def test_erf_map_leaves_no_parameter_grads():
    model = build_model(toy_config())
    model.train()
    heat = erf_map(model, "N3", _ones(3, 64))
    assert heat.sum() == pytest.approx(1.0, abs=1e-9)
    params = list(model.parameters())
    assert all(p.grad is None for p in params)
    assert all(p.requires_grad for p in params)
    assert model.training


def test_erf_unknown_tap():
    conv = Conv2d(1, 1, 3, rng=rng(7))
    with pytest.raises(ConfigError, match="unknown tap"):
        erf_map(conv, "nope", _ones(1, 9))


def test_erf_radius_dirac():
    heat = np.zeros((9, 9))
    heat[4, 4] = 1.0
    assert erf_radius(heat) == 0


def test_erf_radius_uniform_3x3():
    heat = np.zeros((9, 9))
    heat[3:6, 3:6] = 1.0 / 9
    assert erf_radius(heat, 0.95) == 1
    assert erf_radius(heat, 1.0) == 1


def test_erf_radius_monotone_under_dilation():
    r = rng(8)
    for _ in range(10):
        h = np.zeros((21, 21))
        k = int(r.integers(1, 8))
        block = r.uniform(0.1, 1.0, (k, k))
        h[10 - k // 2 : 10 - k // 2 + k, 10 - k // 2 : 10 - k // 2 + k] = block
        small = erf_radius(h / h.sum(), 0.95)
        hd = np.zeros((21, 21))
        kd = k + 4
        hd[10 - kd // 2 : 10 - kd // 2 + kd, 10 - kd // 2 : 10 - kd // 2 + kd] = r.uniform(
            0.1, 1.0, (kd, kd)
        )
        big = erf_radius(hd / hd.sum(), 0.95)
        assert big >= small


def _dw_stack(kernel, depth, channels=8, seed=0):
    r = rng(seed)
    units = []
    for _ in range(depth):
        u = RepHDWConv(channels, kernel, rng=r)
        randomize_bn_stats(u, r)
        u.eval()
        u.fuse()
        units.append(u)
    return Sequential(*units)


def test_erf_radius_grows_with_kernel_size():
    big = _dw_stack(9, 4, seed=0)
    small = _dw_stack(3, 4, seed=0)
    x = _ones(8, 64)
    r_big = erf_radius(erf_map(big, "out", x), 0.95)
    r_small = erf_radius(erf_map(small, "out", x), 0.95)
    assert r_big > r_small


def test_heatmap_writers(tmp_path):
    heat = np.abs(rng(9).standard_normal((6, 6)))
    heat /= heat.sum()
    csv_path = tmp_path / "m.csv"
    pgm_path = tmp_path / "m.pgm"
    write_heatmap_csv(heat, str(csv_path))
    write_heatmap_pgm(heat, str(pgm_path))
    rows = csv_path.read_text().strip().split("\n")
    assert len(rows) == 6 and len(rows[0].split(",")) == 6
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_allclose(parsed, heat, rtol=1e-6)
    lines = pgm_path.read_text().split("\n")
    assert lines[0] == "P2" and lines[1] == "6 6" and lines[2] == "255"


def test_count_costs_after_calibration_unchanged():
    model = build_model(toy_config())
    before = count_costs(model, 64).total_params
    calibrate_bn_stats(model, rng(10), input_shape=(1, 3, 64, 64), batches=2)
    after = count_costs(model, 64).total_params
    assert before == after
