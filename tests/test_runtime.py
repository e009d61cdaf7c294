"""Run-time switches: nesting, restoration on exceptions, and mode hygiene.

Also pins the names the external benchmark tracer patches at run time: if an
op stopped calling `make_op_output` through the `ops` module, or
`make_op_output` stopped calling `check_finite` through the `tensor` module,
the traced per-layer metrics would silently read zero.
"""

import numpy as np
import pytest

from mafnet import (
    RepHDWConv,
    ShapeError,
    Tensor,
    ToyClassifier,
    build_model,
    calibrate_bn_stats,
    count_costs,
    count_ops,
    evaluate_accuracy,
    fuse_equivalence_deviation,
    make_blob_dataset,
    no_grad,
    ops,
    toy_config,
)
from mafnet import gradcheck, modules, tensor
from mafnet.repconv import branch_path


class Boom(Exception):
    pass


def _records_tape() -> bool:
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    return ops.mul_scalar(x, 2.0).requires_grad


def _fused_unit():
    unit = RepHDWConv(4, 7, rng=np.random.default_rng(0))
    unit.eval()
    unit.fuse()
    return unit


def _convs_run(unit) -> int:
    x = Tensor(np.ones((1, 4, 8, 8), dtype=np.float32))
    with count_ops() as counts, no_grad():
        unit(x)
    return counts["conv2d"]


def test_no_grad_nests_and_restores_after_exception():
    with pytest.raises(Boom):
        with no_grad():
            with no_grad():
                assert not _records_tape()
            assert not _records_tape()
            raise Boom
    assert _records_tape()


def test_branch_path_nests_and_restores_after_exception():
    unit = _fused_unit()
    assert _convs_run(unit) == 1
    with pytest.raises(Boom):
        with branch_path():
            with branch_path():
                assert _convs_run(unit) == 3
            assert _convs_run(unit) == 3
            raise Boom
    assert _convs_run(unit) == 1


def test_count_ops_nests_and_reports_after_exception():
    x = Tensor(np.ones((1, 1, 2, 2)))
    with count_ops() as outer:
        ops.silu(x)
        with pytest.raises(Boom):
            with count_ops() as inner:
                ops.silu(x)
                raise Boom
        ops.silu(x)
    assert inner == {"silu": 1}
    assert outer == {"silu": 3}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_failed_cost_probe_leaves_no_observer(training):
    model = build_model(toy_config())
    model.train(training)
    with pytest.raises(ShapeError):
        count_costs(model, 64, in_channels=5)
    assert all(m.training == training for m in model.modules())
    other = build_model(toy_config(seed=1))
    with no_grad():
        other(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))


def _tree_modes(module) -> set:
    return {m.training for m in module.modules()}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_evaluate_accuracy_restores_mode(training):
    model = ToyClassifier(toy_config())
    model.train(training)
    evaluate_accuracy(model, make_blob_dataset(n=2, size=32), batch_size=2)
    assert _tree_modes(model) == {training}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_calibrate_bn_stats_restores_mode(training):
    model = build_model(toy_config())
    model.train(training)
    calibrate_bn_stats(model, np.random.default_rng(0), (1, 3, 32, 32), batches=1)
    assert _tree_modes(model) == {training}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_fuse_equivalence_deviation_restores_mode(training):
    unit = RepHDWConv(4, 5, rng=np.random.default_rng(0))
    unit.train(training)
    x = Tensor(np.ones((1, 4, 8, 8), dtype=np.float32))
    assert fuse_equivalence_deviation(unit, x) < 1e-4
    assert _tree_modes(unit) == {training}


def test_tracer_patch_points_see_every_call(monkeypatch):
    seen = {"check_finite": 0, "make_op_output": 0}
    called = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(tensor, "check_finite")
    counting(ops, "make_op_output")
    module_call = modules.Module.__call__

    def call_wrapper(module, *args, **kwargs):
        called.append(module)
        return module_call(module, *args, **kwargs)

    monkeypatch.setattr(modules.Module, "__call__", call_wrapper)
    model = ToyClassifier(toy_config())
    with count_ops() as counts:
        model(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
    total = sum(counts.values())
    assert total > 0
    assert seen == {"check_finite": total, "make_op_output": total}
    kinds = {cls: sum(type(m) is cls for m in called) for cls in (modules.Conv2d, modules.BatchNorm2d)}
    assert kinds[modules.Conv2d] == counts["conv2d"]
    assert kinds[modules.BatchNorm2d] == counts["batchnorm_train"]
    leaves = {id(m) for m in model.modules() if not m._children}
    assert leaves <= {id(m) for m in called}


def test_gradcheck_looks_up_no_grad_at_call_time(monkeypatch):
    """`check_gradients` enters `gradcheck.no_grad()` once per finite-difference
    evaluation: two per leaf element, the count the traced benchmark's
    `fd evals == 2 x leaf elements` check reads."""
    entered = []
    original = gradcheck.no_grad

    def counting():
        entered.append(1)
        return original()

    monkeypatch.setattr(gradcheck, "no_grad", counting)
    ok, _ = gradcheck.run_gradcheck(["silu"])
    build = next(b for family, _, b in gradcheck.CHECKS if family == "silu")
    _, arrays = build(np.random.default_rng(0))
    assert ok and len(entered) == 2 * sum(a.size for a in arrays.values())
