"""Central finite-difference validation of recorded gradients.

Every check rebuilds its computation in float64, projects the output onto a
fixed random direction to get a scalar, records gradients through the tape,
then perturbs each input element by +/-step and compares. The comparison is
relative with a per-tensor floor so elements with true zero gradient do not
produce spurious failures.

The taped forward is also recorded through `RUNTIME.op_hook`: each public
op call with its arguments and output. A perturbed leaf then replays only
the recorded calls it reaches, those with an input that depends on it, in
their recorded order through the public ops, each replayed output standing
in for the recorded one; every other recorded output is reused. Equal
inputs give an op equal bits, so every difference, and so every reported
error, keeps the bits of a full evaluation of `fn`. `fn` itself is
evaluated, under `no_grad()`, for a leaf that every recorded call depends
on (a single-op check), and for every leaf when the recording cannot be
traced: an op input that is neither a leaf nor an earlier recorded output,
an op output that already is one of these, an ndarray argument that shares
memory with a leaf or a recorded output, or a returned Tensor that is
neither a leaf nor a recorded output. So `fn` must run the same ops with
the tape on as under `no_grad()`, and compute nothing it hands an op from
a leaf outside the ops (numpy work on `.data`), which no recording sees.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ops
from .blocks import Bottleneck
from .errors import ConfigError
from .mafpn import SAFFuse, AAFFuse
from .repconv import RepHDWConv, randomize_bn_stats
from .tensor import Tensor, no_grad, using

DEFAULT_STEP = 1e-4
DEFAULT_RTOL = 1e-4


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * scale)
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


def _flat(a) -> list:
    """The items of nested lists and tuples, in order."""
    if isinstance(a, (list, tuple)):
        return [v for item in a for v in _flat(item)]
    return [a]


def _tensors(a) -> list:
    return [v for v in _flat(a) if isinstance(v, Tensor)]


def _swap(a, new: dict):
    """`a` with every Tensor whose id `new` holds replaced by its value."""
    if isinstance(a, Tensor):
        return new.get(id(a), a)
    if isinstance(a, (list, tuple)):
        return type(a)(_swap(v, new) for v in a)
    return a


def _plans(calls: list, tensors: dict, out) -> dict:
    """{leaf name: the steps of the recorded calls that depend on it, in
    order}, without the leaves every call depends on; {} when the recording
    cannot be traced. A step is (op, args, the positions of args that hold a
    Tensor, kwargs, the keys of those that do, the output ids)."""
    deps = {id(t): {k} for k, t in tensors.items()}
    arrays = [t.data for t in tensors.values()]
    steps = []
    for op, args, kwargs, res in calls:
        d = set()
        for a in _flat((args, tuple(kwargs.values()))):
            if isinstance(a, Tensor):
                if id(a) not in deps:
                    return {}
                d |= deps[id(a)]
            elif isinstance(a, np.ndarray) and any(np.may_share_memory(a, m) for m in arrays):
                return {}
        for r in _flat(res):
            if isinstance(r, Tensor):
                if id(r) in deps:
                    return {}
                deps[id(r)] = d
                r = r.data
            arrays.append(r)
        pos = tuple(i for i, a in enumerate(args) if _tensors(a))
        keys = tuple(k for k, v in kwargs.items() if _tensors(v))
        steps.append((d, (op, args, pos, kwargs, keys, [id(t) for t in _tensors(res)])))
    if id(out) not in deps:
        return {}
    plans = {k: [step for d, step in steps if k in d] for k in tensors}
    return {k: plan for k, plan in plans.items() if len(plan) < len(calls)}


def _replay(plan: list, out: Tensor) -> Tensor:
    """`out` recomputed by the steps of `plan` through the public ops."""
    new: dict = {}
    for op, args, pos, kwargs, keys, ids in plan:
        if pos:
            args = list(args)
            for i in pos:
                args[i] = _swap(args[i], new)
        if keys:
            kwargs = {**kwargs, **{k: _swap(kwargs[k], new) for k in keys}}
        new.update(zip(ids, _tensors(getattr(ops, op)(*args, **kwargs))))
    return new.get(id(out), out)


def check_gradients(
    fn,
    arrays: dict[str, np.ndarray],
    step: float = DEFAULT_STEP,
    seed: int = 0,
) -> float:
    """Max relative error between tape gradients and central differences.

    `fn` maps a dict of float64 Tensors to one output Tensor; `arrays` are
    the leaf values to differentiate with respect to.
    """
    tensors = {k: Tensor(v.astype(np.float64), requires_grad=True) for k, v in arrays.items()}
    calls: list = []
    with using(op_hook=lambda *call: calls.append(call)):
        out = fn(tensors)
    # Keyed off the seed but decoupled from the stream that generated the
    # inputs; a projection colinear with the input can hit a null direction
    # of the op (batch norm is scale-invariant along x) and zero the grads.
    rng = np.random.default_rng([seed, 0x9E3779B9])
    proj = rng.standard_normal(out.shape)
    loss = ops.sum_all(ops.mul(out, Tensor(proj, dtype=np.float64)))
    loss.backward()
    analytic = {
        k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for k, t in tensors.items()
    }
    plans = _plans(calls, tensors, out)

    def scalar(plan) -> float:
        with no_grad():
            y = fn(tensors) if plan is None else _replay(plan, out)
        return float((y.data * proj).sum())

    worst = 0.0
    for k, t in tensors.items():
        plan = plans.get(k)
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = scalar(plan)
            flat[i] = orig - step
            down = scalar(plan)
            flat[i] = orig
            numeric[i] = (up - down) / (2 * step)
        worst = max(worst, max_rel_error(analytic[k], numeric.reshape(t.data.shape)))
    return worst


# ---------------------------------------------------------------------------
# named checks (small random instances, float64)
#
# Each row of CHECKS is (family, label, build). build(rng) draws the inputs
# from the seeded generator and returns (fn, arrays) for check_gradients;
# module checks also differentiate every parameter, evaluated in eval mode.
# ---------------------------------------------------------------------------

def _op(fn, scale=1.0, **shapes):
    """Standard-normal inputs (times `scale`), drawn in keyword order."""
    return lambda rng: (fn, {k: rng.standard_normal(s) * scale for k, s in shapes.items()})


def _conv2d(kernel, depthwise, stride):
    def build(rng):
        cin = 4
        groups, cout, cg = (cin, cin, 1) if depthwise else (1, 3, cin)
        arrays = {
            "x": rng.standard_normal((2, cin, 8, 8)),
            "w": rng.standard_normal((cout, cg, kernel, kernel)) * 0.5,
            "b": rng.standard_normal(cout) * 0.1,
        }
        return lambda t: ops.conv2d(t["x"], t["w"], t["b"], stride=stride, groups=groups), arrays

    return build


def _batchnorm(train):
    def build(rng):
        n, c = (3, 4) if train else (2, 5)
        arrays = {
            "x": rng.standard_normal((n, c, 4, 4)),
            "gamma": rng.standard_normal(c) * 0.5 + 1.0,
            "beta": rng.standard_normal(c) * 0.2,
        }
        if train:
            return lambda t: ops.batchnorm_train(t["x"], t["gamma"], t["beta"], 1e-5)[0], arrays
        mean = rng.standard_normal(c) * 0.3
        var = rng.uniform(0.5, 2.0, c)
        return lambda t: ops.batchnorm_infer(t["x"], t["gamma"], t["beta"], mean, var, 1e-5), arrays

    return build


def _split(t):
    parts = ops.split_channels(t["x"], [2, 3, 1])
    # rescale each piece differently so every split output contributes
    return ops.concat_channels([ops.mul_scalar(p, s) for s, p in zip((1.0, -2.0, 0.5), parts)])


def _cross_entropy(rng):
    x = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, 5)
    return lambda t: ops.softmax_cross_entropy(t["x"], labels), {"x": x}


def _module(make, call, **input_shapes):
    """make(rng) builds the module; call(module, t) runs it on the tape tensors.

    Each forward first rebinds the parameter slots to the (possibly
    perturbed) tape tensors, so every parameter is a leaf of the check.
    """

    def build(rng):
        module = make(rng)
        randomize_bn_stats(module, rng)
        arrays = {k: rng.standard_normal(s) for k, s in input_shapes.items()}
        module.eval()
        params = dict(module.named_parameters())
        owners = dict(module.named_modules())
        arrays.update({k: p.data.astype(np.float64) for k, p in params.items()})

        def fn(t):
            for name in params:
                path, _, attr = name.rpartition(".")
                setattr(owners[path], attr, t[name])
            return call(module, t)

        return fn, arrays

    return build


CHECKS = (
    *(
        ("conv2d", f"conv2d[k={k},{'dw' if dw else 'g1'},s={s}]", _conv2d(k, dw, s))
        for k in (1, 3, 7) for dw in (False, True) for s in (1, 2)
    ),
    ("batchnorm", "batchnorm[infer]", _batchnorm(train=False)),
    ("batchnorm", "batchnorm[train]", _batchnorm(train=True)),
    ("silu", "silu", _op(lambda t: ops.silu(t["x"]), 3.0, x=(2, 3, 5, 5))),
    ("upsample", "upsample", _op(lambda t: ops.upsample_nearest2x(t["x"]), x=(2, 3, 4, 4))),
    ("concat", "concat", _op(lambda t: ops.concat_channels([t["a"], t["b"], t["c"]]),
                             a=(2, 2, 4, 4), b=(2, 3, 4, 4), c=(2, 1, 4, 4))),
    ("split", "split", _op(_split, x=(2, 6, 4, 4))),
    ("pool", "pool", _op(lambda t: ops.global_avg_pool(t["x"]), x=(2, 3, 6, 6))),
    ("cross_entropy", "cross_entropy", _cross_entropy),
    ("rephdw", "rephdw", _module(
        lambda rng: RepHDWConv(3, 5, rng=rng, dtype=np.float64),
        lambda m, t: m(t["x"]), x=(2, 3, 6, 6))),
    ("bottleneck", "bottleneck", _module(
        lambda rng: Bottleneck(3, 7, rng=rng, dtype=np.float64),
        lambda m, t: m(t["x"]), x=(1, 3, 8, 8))),
    ("saf", "saf", _module(
        lambda rng: SAFFuse((("assist-down", 2, 2), ("same", 3, 3), ("up", 4, 4)),
                            rng=rng, dtype=np.float64),
        lambda m, t: m(t["shallow"], t["same"], t["deep"]),
        shallow=(1, 2, 8, 8), same=(1, 3, 4, 4), deep=(1, 4, 2, 2))),
    ("aaf", "aaf", _module(
        lambda rng: AAFFuse((("cross-down", 2, 3), ("chain-down", 3, 3), ("same", 3, 3),
                             ("up-project", 4, 3)), rng=rng, dtype=np.float64),
        lambda m, t: m(t["p1"], t["p2"], t["same"], t["deep"]),
        p1=(1, 2, 8, 8), p2=(1, 3, 8, 8), same=(1, 3, 4, 4), deep=(1, 4, 2, 2))),
)


def _run(build, seed=0) -> float:
    fn, arrays = build(np.random.default_rng(seed))
    return check_gradients(fn, arrays, seed=seed)


def registry() -> dict:
    """{family: [(label, check(seed=0) -> max rel err), ...]} in CHECKS order."""
    checks: dict[str, list] = {}
    for family, label, build in CHECKS:
        checks.setdefault(family, []).append((label, functools.partial(_run, build)))
    return checks


def run_gradcheck(
    names: list[str] | None = None,
    rtol: float = DEFAULT_RTOL,
    seed: int = 0,
) -> tuple[bool, list[tuple[str, float, bool]]]:
    """Run named checks; returns (all_passed, [(label, max_rel_err, ok), ...])."""
    checks = registry()
    if names is None or names == ["all"]:
        names = list(checks)
    unknown = [n for n in names if n not in checks]
    if unknown:
        raise ConfigError(f"gradcheck: unknown ops {unknown}; known: {sorted(checks)}")
    rows = []
    ok_all = True
    for n in names:
        for label, fn in checks[n]:
            err = fn(seed=seed)
            ok = err <= rtol
            ok_all = ok_all and ok
            rows.append((label, err, ok))
    return ok_all, rows
