"""Central finite-difference validation of recorded gradients.

Every check rebuilds its computation in float64, projects the output onto a
fixed random direction to get a scalar, records gradients through the tape,
then perturbs each input element by +/-step and compares. The comparison is
relative with a per-tensor floor so elements with true zero gradient do not
produce spurious failures.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .blocks import Bottleneck, BottleneckConfig
from .errors import ConfigError
from .mafpn import SAFFuse, AAFFuse
from .modules import Module
from .repconv import RepHDWConv, randomize_bn_stats
from .tensor import Tensor, no_grad

DEFAULT_STEP = 1e-4
DEFAULT_RTOL = 1e-4


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * scale)
    return float((np.abs(analytic - numeric) / denom).max(initial=0.0))


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

    def scalar() -> float:
        with no_grad():
            y = fn(tensors)
        return float((y.data * proj).sum())

    worst = 0.0
    for k, t in tensors.items():
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = scalar()
            flat[i] = orig - step
            down = scalar()
            flat[i] = orig
            numeric[i] = (up - down) / (2 * step)
        worst = max(worst, max_rel_error(analytic[k], numeric.reshape(t.data.shape)))
    return worst


# ---------------------------------------------------------------------------
# named checks (small random instances, float64)
# ---------------------------------------------------------------------------

def _rng(seed):
    return np.random.default_rng(seed)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def check_conv2d(kernel=3, depthwise=False, stride=1, seed=0) -> float:
    rng = _rng(seed)
    cin = 4
    if depthwise:
        groups, cout, cg = cin, cin, 1
    else:
        groups, cout, cg = 1, 3, cin
    x = _rand(rng, 2, cin, 8, 8)
    w = _rand(rng, cout, cg, kernel, kernel) * 0.5
    b = _rand(rng, cout) * 0.1

    def fn(t):
        return ops.conv2d(t["x"], t["w"], t["b"], stride=stride, groups=groups)

    return check_gradients(fn, {"x": x, "w": w, "b": b}, seed=seed)


def check_batchnorm_infer(seed=0) -> float:
    rng = _rng(seed)
    c = 5
    x = _rand(rng, 2, c, 4, 4)
    gamma = _rand(rng, c) * 0.5 + 1.0
    beta = _rand(rng, c) * 0.2
    mean = _rand(rng, c) * 0.3
    var = rng.uniform(0.5, 2.0, c)

    def fn(t):
        return ops.batchnorm_infer(t["x"], t["gamma"], t["beta"], mean, var, eps=1e-5)

    return check_gradients(fn, {"x": x, "gamma": gamma, "beta": beta}, seed=seed)


def check_batchnorm_train(seed=0) -> float:
    rng = _rng(seed)
    c = 4
    x = _rand(rng, 3, c, 4, 4)
    gamma = _rand(rng, c) * 0.5 + 1.0
    beta = _rand(rng, c) * 0.2

    def fn(t):
        y, _, _ = ops.batchnorm_train(t["x"], t["gamma"], t["beta"], eps=1e-5)
        return y

    return check_gradients(fn, {"x": x, "gamma": gamma, "beta": beta}, seed=seed)


def check_silu(seed=0) -> float:
    x = _rand(_rng(seed), 2, 3, 5, 5) * 3.0
    return check_gradients(lambda t: ops.silu(t["x"]), {"x": x}, seed=seed)


def check_upsample(seed=0) -> float:
    x = _rand(_rng(seed), 2, 3, 4, 4)
    return check_gradients(lambda t: ops.upsample_nearest2x(t["x"]), {"x": x}, seed=seed)


def check_concat(seed=0) -> float:
    rng = _rng(seed)
    a, b, c = _rand(rng, 2, 2, 4, 4), _rand(rng, 2, 3, 4, 4), _rand(rng, 2, 1, 4, 4)

    def fn(t):
        return ops.concat_channels([t["a"], t["b"], t["c"]])

    return check_gradients(fn, {"a": a, "b": b, "c": c}, seed=seed)


def check_split(seed=0) -> float:
    rng = _rng(seed)
    x = _rand(rng, 2, 6, 4, 4)
    scales = [1.0, -2.0, 0.5]

    def fn(t):
        parts = ops.split_channels(t["x"], [2, 3, 1])
        # rescale each piece differently so every split output contributes
        return ops.concat_channels([ops.mul_scalar(p, s) for s, p in zip(scales, parts)])

    return check_gradients(fn, {"x": x}, seed=seed)


def check_pool(seed=0) -> float:
    x = _rand(_rng(seed), 2, 3, 6, 6)
    return check_gradients(lambda t: ops.global_avg_pool(t["x"]), {"x": x}, seed=seed)


def check_cross_entropy(seed=0) -> float:
    rng = _rng(seed)
    x = _rand(rng, 5, 3)
    labels = rng.integers(0, 3, 5)

    def fn(t):
        return ops.softmax_cross_entropy(t["x"], labels)

    return check_gradients(fn, {"x": x}, seed=seed)


def rebind_params(module: Module):
    """Return (params, binder); binder(t) swaps tape tensors in by name.

    Lets check_gradients treat every module parameter as a leaf: each forward
    rebinds the parameter slots to the (possibly perturbed) tape tensors.
    """
    params = dict(module.named_parameters())
    module_by_path = dict(module.named_modules())

    def binder(t):
        for name in params:
            mod_path, _, attr = name.rpartition(".")
            m = module_by_path[mod_path]
            m._params[attr] = t[name]
            object.__setattr__(m, attr, t[name])

    return params, binder


def _module_check(module: Module, x: np.ndarray, seed: int) -> float:
    """FD-check a single-input module's input and every parameter (eval mode)."""
    module.eval()
    params, binder = rebind_params(module)
    arrays = {"x": x}
    arrays.update({k: p.data.astype(np.float64) for k, p in params.items()})

    def fn(t):
        binder(t)
        return module(t["x"])

    return check_gradients(fn, arrays, seed=seed)


def check_rephdw(seed=0) -> float:
    rng = _rng(seed)
    unit = RepHDWConv(3, 5, rng=rng, dtype=np.float64)
    randomize_bn_stats(unit, rng)
    x = _rand(rng, 2, 3, 6, 6)
    return _module_check(unit, x, seed)


def check_bottleneck(seed=0) -> float:
    rng = _rng(seed)
    cfg = BottleneckConfig(channels=3, expansion=2.0, kernel=7, use_rep=True)
    block = Bottleneck(cfg, rng=rng, dtype=np.float64)
    randomize_bn_stats(block, rng)
    x = _rand(rng, 1, 3, 8, 8)
    return _module_check(block, x, seed)


def check_saf(seed=0) -> float:
    rng = _rng(seed)
    node = SAFFuse(shallow_ch=2, same_ch=3, deep_ch=4, ratio=0.5, rng=rng, dtype=np.float64)
    randomize_bn_stats(node, rng)
    shallow = _rand(rng, 1, 2, 8, 8)
    same = _rand(rng, 1, 3, 4, 4)
    deep = _rand(rng, 1, 4, 2, 2)
    node.eval()
    params, binder = rebind_params(node)

    def fn(t):
        binder(t)
        return node(t["shallow"], t["same"], t["deep"])

    arrays = {"shallow": shallow, "same": same, "deep": deep}
    arrays.update({k: p.data.astype(np.float64) for k, p in params.items()})
    return check_gradients(fn, arrays, seed=seed)


def check_aaf(seed=0) -> float:
    rng = _rng(seed)
    node = AAFFuse(
        3, assist_ch=None, p1_prev_ch=2, p2_prev_ch=3, deep_ch=4, rng=rng, dtype=np.float64
    )
    randomize_bn_stats(node, rng)
    p1 = _rand(rng, 1, 2, 8, 8)
    p2 = _rand(rng, 1, 3, 8, 8)
    same = _rand(rng, 1, 3, 4, 4)
    deep = _rand(rng, 1, 4, 2, 2)
    node.eval()
    params, binder = rebind_params(node)

    def fn(t):
        binder(t)
        return node(t["same"], p1_prev=t["p1"], p2_prev=t["p2"], deep=t["deep"])

    arrays = {"p1": p1, "p2": p2, "same": same, "deep": deep}
    arrays.update({k: p.data.astype(np.float64) for k, p in params.items()})
    return check_gradients(fn, arrays, seed=seed)


def conv_variants() -> list[tuple[str, dict]]:
    out = []
    for kernel in (1, 3, 7):
        for depthwise in (False, True):
            for stride in (1, 2):
                label = f"conv2d[k={kernel},{'dw' if depthwise else 'g1'},s={stride}]"
                out.append((label, dict(kernel=kernel, depthwise=depthwise, stride=stride)))
    return out


def registry() -> dict:
    checks: dict[str, list] = {"conv2d": []}
    for label, kw in conv_variants():
        checks["conv2d"].append((label, lambda seed=0, kw=kw: check_conv2d(seed=seed, **kw)))
    checks["batchnorm"] = [
        ("batchnorm[infer]", check_batchnorm_infer),
        ("batchnorm[train]", check_batchnorm_train),
    ]
    checks["silu"] = [("silu", check_silu)]
    checks["upsample"] = [("upsample", check_upsample)]
    checks["concat"] = [("concat", check_concat)]
    checks["split"] = [("split", check_split)]
    checks["pool"] = [("pool", check_pool)]
    checks["cross_entropy"] = [("cross_entropy", check_cross_entropy)]
    checks["rephdw"] = [("rephdw", check_rephdw)]
    checks["bottleneck"] = [("bottleneck", check_bottleneck)]
    checks["saf"] = [("saf", check_saf)]
    checks["aaf"] = [("aaf", check_aaf)]
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
