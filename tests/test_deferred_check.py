"""Checked mode on a fused forward: the ops of the outermost deploy call run
unchecked, that call checks its outputs once, and a non-finite output re-runs
it with per-op checks, which name the first bad op as per-op mode does.
Everywhere else (tape, train mode, `branch_path()`, unfused eval) every op
output is checked."""

import numpy as np
import pytest

from mafnet import (
    NumericalError,
    Tensor,
    build_model,
    calibrate_bn_stats,
    count_ops,
    fuse_model,
    nano_config,
    no_grad,
    ops,
    toy_config,
    using,
)
from mafnet import tensor
from mafnet.repconv import branch_path


@pytest.fixture(scope="module")
def nano128():
    """A calibrated, fused nano model and one 1x3x128x128 input."""
    rng = np.random.default_rng([5, 640])
    model = build_model(nano_config(seed=5))
    calibrate_bn_stats(model, rng, (8, 3, 128, 128), batches=1)
    model.eval()
    fuse_model(model)
    return model, Tensor(rng.standard_normal((1, 3, 128, 128)).astype(np.float32))


@pytest.fixture
def checks(monkeypatch):
    """Count the `check_finite` calls: one per op output in per-op mode."""
    seen = []
    check = tensor.check_finite

    def counting(data, op):
        seen.append(op)
        return check(data, op)

    monkeypatch.setattr(tensor, "check_finite", counting)
    return seen


def poison(monkeypatch, kind, value, calls=None):
    """Write `value` into the first element of each `kind` op output; with
    `calls`, only into the outputs of those call numbers (0 = first). Kind
    "conv2d.dense" or "conv2d.dw" picks the conv2d outputs of that weight
    geometry: (out, in, k, k) or (C, 1, k, k)."""
    make = ops.make_op_output
    seen = [0]
    name, _, geometry = kind.partition(".")

    def picked(op, parents):
        return op == name and (not geometry or (parents[1].shape[1] == 1) == (geometry == "dw"))

    def poisoned(data, parents, backward, op):
        if picked(op, parents):
            if calls is None or seen[0] in calls:
                data = data.copy()
                data.flat[0] = value
            seen[0] += 1
        return make(data, parents, backward, op)

    monkeypatch.setattr(ops, "make_op_output", poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", [
    "conv2d.dense", "conv2d.dw", "conv2d", "silu", "split_channels", "concat_channels",
    "upsample_nearest2x",
])
def test_fused_forward_names_the_poisoned_op(nano128, monkeypatch, kind, value):
    model, x = nano128
    poison(monkeypatch, kind, value)
    with no_grad(), np.errstate(invalid="ignore"), pytest.raises(NumericalError) as err:
        model.forward_taps(x)
    assert str(err.value) == f"{kind.partition('.')[0]}: non-finite values in output"


@pytest.mark.parametrize("call, name", [
    (lambda m, x: m.forward_taps(x), "Backbone"),
    (lambda m, x: m(x), "Model"),
])
def test_failure_the_rerun_does_not_repeat_names_the_module(nano128, monkeypatch, call, name):
    model, x = nano128
    poison(monkeypatch, "conv2d", np.nan, calls={0})
    with no_grad(), np.errstate(invalid="ignore"), pytest.raises(NumericalError) as err:
        call(model, x)
    assert str(err.value) == f"{name}: non-finite values in output"


def test_fused_forward_checks_only_its_outputs(nano128, checks):
    model, x = nano128
    with no_grad(), count_ops() as counts:
        outs = model(x)
    assert sum(counts.values()) == 238
    assert checks == ["Model"] * len(outs)


def _toy(fused=True):
    """A calibrated toy model in eval mode, fused unless asked otherwise, and
    one 1x3x32x32 input."""
    model = build_model(toy_config())
    calibrate_bn_stats(model, np.random.default_rng(0), (2, 3, 32, 32), batches=1)
    model.eval()
    if fused:
        fuse_model(model)
    return model, Tensor(np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32))


@pytest.mark.parametrize("path", ["tape", "train", "branch_path", "unfused"])
def test_other_paths_check_every_op_output(checks, path):
    model, x = _toy(fused=path != "unfused")
    checks.clear()
    with count_ops() as counts:
        if path == "tape":
            model(x)
        elif path == "train":
            with model.mode(True), no_grad():
                model(x)
        elif path == "branch_path":
            with no_grad(), branch_path():
                model(x)
        else:
            with no_grad():
                model(x)
    assert sum(counts.values()) > 0
    assert len(checks) == sum(counts.values())


def test_unchecked_mode_checks_nothing(monkeypatch, checks):
    model, x = _toy()
    poison(monkeypatch, "silu", np.nan)
    checks.clear()
    with using(checked=False), no_grad(), np.errstate(invalid="ignore"):
        fused = model(x)
        with branch_path():
            model(x)
    assert checks == []
    assert not all(np.isfinite(o.data).all() for o in fused.values())
