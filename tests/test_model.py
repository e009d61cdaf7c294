import json
import struct

import numpy as np
import pytest

from mafnet import (
    ConfigError,
    Conv2d,
    RepHDWConv,
    SerializationError,
    ShapeError,
    Tensor,
    build_model,
    calibrate_bn_stats,
    config_from_dict,
    config_to_dict,
    count_costs,
    count_ops,
    erf_map,
    fuse_equivalence_deviation,
    fuse_model,
    ghks_kernels,
    load_config,
    load_weights,
    nano_config,
    no_grad,
    read_entries,
    rep_units,
    save_config,
    save_weights,
    toy_config,
    using,
)
from mafnet import ops
from mafnet.cli import ABLATIONS, _ablation_config
from mafnet.model import ModelConfig
from mafnet.repconv import branch_path
from mafnet.serialize import MAGIC

rng = np.random.default_rng


def test_nano_builds_with_kernel_schedule():
    model = build_model(nano_config())
    ks = ghks_kernels(model)
    assert ks["backbone"] == [3, 5, 7, 9]
    assert ks["neck"] == [5, 7, 9]


def test_schedule_survives_width_changes():
    cfg = toy_config()
    ks = ghks_kernels(build_model(cfg))
    assert ks["backbone"] == [3, 5, 7, 9]
    assert ks["neck"] == [5, 7, 9]


def test_config_rejects_three_stage_kernels():
    with pytest.raises(ConfigError, match="backbone_kernels"):
        ModelConfig(backbone_kernels=[3, 5, 7])


def test_config_rejects_even_kernels():
    with pytest.raises(ConfigError):
        ModelConfig(backbone_kernels=[2, 4, 6, 8])


def test_same_seed_bitwise_identical():
    a = build_model(nano_config(seed=11))
    b = build_model(nano_config(seed=11))
    for (na, ta), (nb, tb) in zip(a.state_entries(), b.state_entries()):
        assert na == nb
        assert ta.tobytes() == tb.tobytes()


def test_different_seed_differs():
    a = build_model(toy_config(seed=1))
    b = build_model(toy_config(seed=2))
    same = all(
        ta.tobytes() == tb.tobytes()
        for (_, ta), (_, tb) in zip(a.state_entries(), b.state_entries())
    )
    assert not same


def test_forward_requires_divisible_input():
    model = build_model(toy_config())
    model.eval()
    with pytest.raises(ShapeError, match="divisible by 32"):
        model(Tensor(np.zeros((1, 3, 48, 48), dtype=np.float32)))


def test_fused_nano_forward_op_mix():
    # Structural gate on the deploy path: a per-kind op count does not drift
    # with machine load the way wall time does. The 28 RepHDW units run one
    # depthwise conv2d each; the 90 dense convs run one GEMM conv2d each,
    # folding all 78 batch norms.
    model = build_model(nano_config())
    model.eval()
    fuse_model(model)
    x = Tensor(rng(5).standard_normal((1, 3, 128, 128)).astype(np.float32))
    with count_ops() as counts:
        with no_grad():
            model(x)
    assert counts == {
        "conv2d": 118,
        "silu": 84,
        "split_channels": 18,
        "concat_channels": 14,
        "upsample_nearest2x": 4,
    }


# c02 checks 320; at 640 one calibration batch, as the deploy benchmark uses
def test_fused_forward_matches_branch_path():
    model = build_model(nano_config())
    calibrate_bn_stats(model, rng(1), input_shape=(1, 3, 640, 640), batches=1)
    x = Tensor(rng(2).standard_normal((1, 3, 640, 640)).astype(np.float32))
    dev = fuse_equivalence_deviation(model, x)
    print(f"\n640x640: max |fused - branch| {dev:.2e} (tol 1e-3)")
    assert dev <= 1e-3


def _deploy_convs(seen):
    """An op hook that appends to `seen` the weight shape of each conv2d
    call with deploy=True (Conv2d and RepHDWConv pass it by keyword)."""
    def hook(op, args, kwargs, out):
        if op == "conv2d" and kwargs.get("deploy"):
            seen.append(args[1].shape)
    return hook


@pytest.mark.parametrize("off", [off for *_, off in ABLATIONS],
                         ids=[f"{p}-{label}" for p, label, _ in ABLATIONS])
def test_fused_ablation_forward_folds_every_batch_norm(off):
    model = build_model(_ablation_config(off, 0))
    model.eval()
    fuse_model(model)
    deploy = []
    with count_ops() as counts, no_grad(), using(op_hook=_deploy_convs(deploy)):
        model(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    dense = sum(isinstance(m, Conv2d) and m.groups == 1 for m in model.modules())
    assert "batchnorm_infer" not in counts
    assert sum(shape[1] > 1 for shape in deploy) == dense
    assert len(deploy) == dense + len(rep_units(model))


def test_fuse_model_adds_only_rephdw_state_and_keeps_costs():
    model = build_model(toy_config(seed=2))
    model.eval()
    names = [n for n, _ in model.state_entries()]
    for unit in model.modules():
        if isinstance(unit, RepHDWConv):
            unit.fuse()
    units_only = count_costs(model, 64).to_dict()
    fuse_model(model)
    fused = [n for n, _ in model.state_entries()]
    assert set(fused) - set(names) == {
        f"{path}.{attr}" for path, _ in rep_units(model) for attr in ("fused_weight", "fused_bias")
    }
    assert count_costs(model, 64).to_dict() == units_only


def test_fused_model_with_tape_on_runs_unfolded_ops():
    # the deploy GEMM has no backward, so a recorded forward runs the branch
    # form everywhere: the RepHDW branches, unfolded dense convs, live norms
    model = build_model(toy_config(seed=3))
    model.eval()
    fuse_model(model)
    x = Tensor(rng(4).standard_normal((1, 3, 64, 64)).astype(np.float32), requires_grad=True)
    deploy = []
    with count_ops() as counts, using(op_hook=_deploy_convs(deploy)):
        taped, _ = model.forward_taps(x)
    with count_ops() as branch_counts, no_grad(), branch_path():
        branch, _ = model.forward_taps(x)
    assert counts == branch_counts
    assert counts["batchnorm_infer"] > 0 and deploy == []
    branch_convs = sum(len(u.branch_kernels) for _, u in rep_units(model))
    dense = sum(isinstance(m, Conv2d) and m.groups == 1 for m in model.modules())
    assert counts["conv2d"] == branch_convs + dense
    for k in taped:
        assert taped[k].data.tobytes() == branch[k].data.tobytes()
    heat = erf_map(model, "N3", x.data)
    assert np.isfinite(heat).all() and heat.sum() == pytest.approx(1.0)


def test_silu_takes_deploy_form_exactly_where_its_producer_does(monkeypatch):
    """Every SiLU of a fused eval forward with the tape off runs its deploy
    form; with the tape on, under branch_path() or in train mode none does."""
    model = build_model(toy_config(seed=3))
    model.eval()
    fuse_model(model)
    x = Tensor(rng(4).standard_normal((1, 3, 64, 64)).astype(np.float32))
    forms, silu = [], ops.silu

    def recording_silu(t, deploy=False):
        forms.append(deploy)
        return silu(t, deploy)

    monkeypatch.setattr(ops, "silu", recording_silu)

    def forms_of(x):
        forms.clear()
        with count_ops() as counts:
            model(x)
        assert len(forms) == counts["silu"] > 0
        return set(forms)

    with no_grad():
        assert forms_of(x) == {True}
        with branch_path():
            assert forms_of(x) == {False}
    assert forms_of(Tensor(x.data, requires_grad=True)) == {False}
    model.train()
    with no_grad():
        assert forms_of(x) == {False}


def test_nano_output_strides_at_full_resolution():
    model = build_model(nano_config())
    model.eval()
    with no_grad():
        outs, taps = model.forward_taps(Tensor(np.zeros((1, 3, 640, 640), dtype=np.float32)))
    assert taps["N3"].shape[2:] == (80, 80)
    assert taps["N4"].shape[2:] == (40, 40)
    assert taps["N5"].shape[2:] == (20, 20)


def test_model_tap_surface():
    model = build_model(toy_config())
    model.eval()
    with no_grad():
        outs, taps = model.forward_taps(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    for name in ("stem", "P2", "P3", "P4", "P5", "P'3", "P''5", "N3", "N4", "N5", "out3"):
        assert name in taps, name
    assert outs["out3"].shape == (1, 8, 8, 8)
    assert outs["out5"].shape == (1, 8, 2, 2)


# ---------------------------------------------------------------------------
# config JSON
# ---------------------------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    cfg = toy_config(seed=3)
    p = tmp_path / "cfg.json"
    save_config(cfg, str(p))
    loaded = load_config(str(p))
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    d = config_to_dict(toy_config())
    d["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(d)
    d.pop("bogus")
    d["neck"]["mystery"] = 2
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(d)


def test_config_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(p))


# ---------------------------------------------------------------------------
# weight serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_byte_identical(tmp_path):
    model = build_model(toy_config(seed=4))
    p1, p2 = tmp_path / "a.mafw", tmp_path / "b.mafw"
    save_weights(model, str(p1))
    fresh = build_model(toy_config(seed=5))
    load_weights(fresh, str(p1))
    save_weights(fresh, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_forward_identical(tmp_path):
    model = build_model(toy_config(seed=6))
    model.eval()
    x = Tensor(rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32))
    with no_grad():
        before, _ = model.forward_taps(x)
    p = tmp_path / "w.mafw"
    save_weights(model, str(p))
    fresh = build_model(toy_config(seed=7))
    load_weights(fresh, str(p))
    fresh.eval()
    with no_grad():
        after, _ = fresh.forward_taps(x)
    for k in before:
        assert before[k].data.tobytes() == after[k].data.tobytes()


def test_fused_state_survives_roundtrip(tmp_path):
    model = build_model(toy_config(seed=8))
    model.eval()
    fuse_model(model)
    p = tmp_path / "fused.mafw"
    save_weights(model, str(p))
    names = [n for n, _ in read_entries(str(p))]
    assert any(n.endswith("fused_weight") for n in names)
    fresh = build_model(toy_config(seed=9))
    load_weights(fresh, str(p))
    units = [m for m in fresh.modules() if isinstance(m, RepHDWConv) and m.deploy]
    assert units
    fresh.eval()
    x = Tensor(rng(1).standard_normal((1, 3, 64, 64)).astype(np.float32))
    with no_grad():
        a, _ = model.forward_taps(x)
        b, _ = fresh.forward_taps(x)
    for k in a:
        assert a[k].data.tobytes() == b[k].data.tobytes()


def _calibrated_fused_toy(seed):
    model = build_model(toy_config(seed=seed))
    calibrate_bn_stats(model, rng(seed), input_shape=(2, 3, 64, 64), batches=2)
    model.eval()
    fuse_model(model)
    return model


def test_fused_file_loads_into_a_train_mode_model(tmp_path):
    model = _calibrated_fused_toy(8)
    p, q = tmp_path / "fused.mafw", tmp_path / "again.mafw"
    save_weights(model, str(p))
    fresh = build_model(toy_config(seed=9))
    load_weights(fresh, str(p))
    assert all(m.training for m in fresh.modules())
    save_weights(fresh, str(q))
    assert q.read_bytes() == p.read_bytes()
    fresh.eval()
    x = Tensor(rng(1).standard_normal((1, 3, 64, 64)).astype(np.float32))
    with no_grad():
        a, _ = model.forward_taps(x)
        with count_ops() as counts:
            b, _ = fresh.forward_taps(x)
    assert "batchnorm_infer" not in counts
    for k in a:
        assert a[k].data.tobytes() == b[k].data.tobytes()


def test_load_rejects_fused_kernels_for_only_some_units(tmp_path):
    model = _calibrated_fused_toy(8)
    first = rep_units(model)[0][0]
    keep = {f"{first}.fused_weight", f"{first}.fused_bias"}
    entries = [(n, a) for n, a in model.state_entries()
               if n.rpartition(".")[2] not in ("fused_weight", "fused_bias") or n in keep]
    p = tmp_path / "w.mafw"
    _write_entries(p, entries)
    with pytest.raises(SerializationError, match=r"missing entries: \['[\w.]+\.fused_(weight|bias)'"):
        load_weights(build_model(toy_config(seed=9)), str(p))


def test_fuse_model_twice_changes_nothing():
    model = _calibrated_fused_toy(4)
    names = [n for n, _ in model.state_entries()]
    x = Tensor(rng(2).standard_normal((1, 3, 64, 64)).astype(np.float32))
    with no_grad():
        once, _ = model.forward_taps(x)
        fuse_model(model)
        twice, _ = model.forward_taps(x)
    assert [n for n, _ in model.state_entries()] == names
    for k in once:
        assert once[k].data.tobytes() == twice[k].data.tobytes()


def test_fuse_model_in_train_mode_changes_nothing():
    model = build_model(toy_config(seed=4))
    with pytest.raises(ConfigError, match="eval mode"):
        fuse_model(model)
    assert not any(m.deploy for m in model.modules())


def test_truncated_file_reports_offset(tmp_path):
    model = build_model(toy_config(seed=10))
    p = tmp_path / "w.mafw"
    save_weights(model, str(p))
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(SerializationError, match="offset"):
        read_entries(str(p))


def test_repeated_entry_rejected(tmp_path):
    """A copy of the first entry appended with other values would otherwise
    replace it on load."""
    entries = list(build_model(toy_config(seed=10)).state_entries())
    name, arr = entries[0]
    p = tmp_path / "w.mafw"
    _write_entries(p, entries + [(name, np.full_like(arr, 7.0))])
    with pytest.raises(SerializationError, match=rf"entry '{name}' appears twice"):
        read_entries(str(p))


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "w.mafw"
    save_weights(build_model(toy_config(seed=10)), str(p))
    size = p.stat().st_size
    p.write_bytes(p.read_bytes() + b"\x00garbage")
    with pytest.raises(SerializationError, match=f"8 trailing bytes at offset {size}$"):
        read_entries(str(p))


def test_unknown_dtype_code_rejected(tmp_path):
    p = tmp_path / "w.mafw"
    name = b"m.weight"
    blob = MAGIC + struct.pack("<II", 1, 1)
    blob += struct.pack("<I", len(name)) + name
    blob += struct.pack("<II", 99, 1) + struct.pack("<I", 2) + b"\x00" * 8
    p.write_bytes(blob)
    with pytest.raises(SerializationError, match="dtype code 99"):
        read_entries(str(p))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "w.mafw"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(SerializationError, match="magic"):
        read_entries(str(p))


def test_unknown_entry_rejected(tmp_path):
    model = build_model(toy_config(seed=11))
    p = tmp_path / "w.mafw"
    save_weights(model, str(p))
    entries = read_entries(str(p))
    # rewrite with one renamed entry
    from mafnet.serialize import VERSION

    blob = MAGIC + struct.pack("<II", VERSION, len(entries))
    for i, (name, arr) in enumerate(entries):
        nm = ("definitely.not.a.module.weight" if i == 0 else name).encode()
        blob += struct.pack("<I", len(nm)) + nm
        blob += struct.pack("<II", 0, arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f4").tobytes()
    p.write_bytes(blob)
    fresh = build_model(toy_config(seed=11))
    with pytest.raises(SerializationError, match="no matching module"):
        load_weights(fresh, str(p))


def _write_entries(path, entries):
    """A weight file holding exactly `entries`, in order."""
    from mafnet.serialize import VERSION

    blob = MAGIC + struct.pack("<II", VERSION, len(entries))
    for name, arr in entries:
        nm = name.encode()
        blob += struct.pack("<I", len(nm)) + nm
        blob += struct.pack("<II", {"float32": 0, "float64": 1}[arr.dtype.name], arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    path.write_bytes(blob)


def _fused_unit(dtype=np.float32):
    unit = RepHDWConv(2, 5, rng=rng(14), dtype=dtype)
    unit.eval()
    unit.fuse()
    return unit


@pytest.mark.parametrize(
    "entry, arr, match",
    [
        ("conv5.weight", np.zeros((2, 1, 3, 3), np.float32),
         r"shape mismatch for 'conv5.weight': file \(2, 1, 3, 3\), model \(2, 1, 5, 5\)"),
        ("bn5.running_mean", np.zeros(3, np.float32),
         r"shape mismatch for 'bn5.running_mean': file \(3,\), model \(2,\)"),
        ("fused_weight", np.zeros((2, 1, 3, 3), np.float32),
         r"shape mismatch for 'fused_weight': file \(2, 1, 3, 3\), model \(2, 1, 5, 5\)"),
        ("fused_weight", np.zeros((1, 2, 5, 5), np.float32), "'fused_weight'"),
        ("fused_bias", np.zeros((2, 1), np.float32), r"shape mismatch for 'fused_bias'"),
    ],
    ids=["parameter", "buffer", "fused-kernel-size", "fused-kernel-layout", "fused-bias"],
)
def test_load_rejects_entry_of_wrong_shape(tmp_path, entry, arr, match):
    entries = [(n, arr if n == entry else a) for n, a in _fused_unit().state_entries()]
    p = tmp_path / "w.mafw"
    _write_entries(p, entries)
    with pytest.raises(SerializationError, match=match):
        load_weights(RepHDWConv(2, 5, rng=rng(15)), str(p))


def test_load_rejects_missing_entries(tmp_path):
    entries = list(_fused_unit().state_entries())
    p = tmp_path / "w.mafw"
    _write_entries(p, [e for e in entries if e[0] != "bn3.running_var"])
    with pytest.raises(SerializationError, match=r"missing entries: \['bn3.running_var'\]"):
        load_weights(RepHDWConv(2, 5, rng=rng(15)), str(p))


def test_load_rejects_incomplete_fused_pair(tmp_path):
    entries = list(_fused_unit().state_entries())
    p = tmp_path / "w.mafw"
    _write_entries(p, [e for e in entries if e[0] != "fused_bias"])
    with pytest.raises(SerializationError, match=r"missing entries: \['fused_bias'\]"):
        load_weights(RepHDWConv(2, 5, rng=rng(15)), str(p))


def test_load_casts_fused_kernels_to_the_model_dtype(tmp_path):
    wide = _fused_unit(np.float64)
    p = tmp_path / "w.mafw"
    save_weights(wide, str(p))
    unit = RepHDWConv(2, 5, rng=rng(15))
    load_weights(unit, str(p))
    assert unit.fused_weight.dtype == unit.fused_bias.dtype == np.float32
    unit.eval()
    x = rng(16).standard_normal((1, 2, 6, 6))
    with no_grad():
        y = unit(Tensor(x.astype(np.float32)))
        ref = wide(Tensor(x))
    assert y.dtype == np.float32
    np.testing.assert_allclose(y.data, ref.data, rtol=1e-5, atol=1e-5)


def test_weight_file_fuzz_raises_only_serialization_error(tmp_path):
    unit = RepHDWConv(2, 5, rng=rng(12))
    p = tmp_path / "unit.mafw"
    save_weights(unit, str(p))
    data = p.read_bytes()
    # byte ranges of the header and of every entry name
    strict = list(range(12))
    off = 12
    for name, arr in unit.state_entries():
        strict += range(off + 4, off + 4 + len(name))
        off += 4 + len(name) + 8 + 4 * arr.ndim + arr.nbytes
    assert off == len(data)
    bad = tmp_path / "bad.mafw"

    def load():
        read_entries(str(bad))
        load_weights(RepHDWConv(2, 5, rng=rng(13)), str(bad))

    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(SerializationError):
            load()
    for i in range(len(data)):
        blob = bytearray(data)
        blob[i] ^= 0xFF
        bad.write_bytes(bytes(blob))
        if i in strict:
            with pytest.raises(SerializationError):
                load()
        else:
            try:
                load()
            except SerializationError:
                pass
