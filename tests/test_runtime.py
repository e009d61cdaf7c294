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
    fuse_model,
    make_blob_dataset,
    nano_config,
    no_grad,
    ops,
    toy_config,
    train_toy,
    using,
)
from mafnet import gradcheck, modules, tensor
from mafnet.repconv import branch_path
from mafnet.tensor import RUNTIME


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


def _hooked_events(monkeypatch, run) -> tuple[list, dict]:
    """(events, count_ops totals) of `run()`: ("make", op, tensor) for every
    `make_op_output` call and ("hook", op, output) for every hook call."""
    events = []
    make = ops.make_op_output

    def recording_make(data, parents, backward, op):
        out = make(data, parents, backward, op)
        events.append(("make", op, out))
        return out

    monkeypatch.setattr(ops, "make_op_output", recording_make)
    with count_ops() as counts, using(op_hook=lambda op, args, kwargs, out: events.append(("hook", op, out))):
        run()
    return events, counts


def _toy_train_step():
    train_toy(ToyClassifier(toy_config()), make_blob_dataset(n=4, size=32), steps=1, batch_size=4)


def _fused_nano_forward():
    rng = np.random.default_rng([5, 640])
    model = build_model(nano_config(seed=5))
    calibrate_bn_stats(model, rng, (2, 3, 128, 128), batches=1)
    model.eval()
    fuse_model(model)
    with no_grad():
        model.forward_taps(Tensor(rng.standard_normal((1, 3, 128, 128)).astype(np.float32)))


def _arithmetic_backward():
    x = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
    ops.sum_all(ops.mul(ops.mul_scalar(x, 2.0), x + x)).backward()


@pytest.mark.parametrize(
    "run",
    [_toy_train_step, _fused_nano_forward, _arithmetic_backward],
    ids=["toy-step", "fused-nano", "arithmetic"],
)
def test_op_hook_sees_every_op_output_once(monkeypatch, run):
    """Each hooked call follows the `make_op_output` calls it made: every op
    output is made inside exactly one hooked call, and the hook sees the
    value that call returned."""
    events, counts = _hooked_events(monkeypatch, run)
    assert events and events[-1][0] == "hook"
    made = []
    seen = {}
    for kind, op, value in events:
        if kind == "make":
            made.append((op, value))
            continue
        outputs = [v for v in (value if isinstance(value, (list, tuple)) else [value])
                   if isinstance(v, Tensor)]
        assert made and [o for o, _ in made] == [op] * len(made)
        assert [id(v) for _, v in made] == [id(v) for v in outputs]
        seen[op] = seen.get(op, 0) + len(made)
        made = []
    assert seen == counts


def test_op_hook_sees_args_kwargs_and_output():
    x = Tensor(np.ones((1, 2, 4, 4)))
    w = Tensor(np.ones((2, 1, 3, 3)))
    calls = []
    with using(op_hook=lambda *call: calls.append(call)):
        out = ops.conv2d(x, w, None, groups=2)
        parts = ops.split_channels(out, sizes=[1, 1])
    assert len(calls) == 2
    (op, args, kwargs, got), (op2, args2, kwargs2, got2) = calls
    assert op == "conv2d" and args[0] is x and args[1] is w and args[2] is None
    assert kwargs == {"groups": 2} and got is out
    assert op2 == "split_channels" and args2 == (out,) and kwargs2 == {"sizes": [1, 1]}
    assert got2 is parts


def test_op_hook_defaults_to_none_and_restores_after_exception():
    assert RUNTIME.op_hook is None
    calls = []
    with pytest.raises(Boom):
        with using(op_hook=lambda *call: calls.append(call)):
            ops.silu(Tensor(np.ones(3)))
            raise Boom
    assert RUNTIME.op_hook is None
    ops.silu(Tensor(np.ones(3)))
    assert [call[0] for call in calls] == ["silu"]
