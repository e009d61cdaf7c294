"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program by wrapping, for the duration of
the traced phase only:

- every public function on the ``mafnet.ops`` module object (callers look
  them up there, so the wrapper sees every op call);
- ``Module.__call__``, plus ``MAFPN.forward_taps`` and ``Model.forward_taps``,
  which callers invoke directly rather than through ``__call__``;
- ``Tensor.backward``, ``Tensor.accumulate_grad`` and
  ``mafnet.tensor.check_finite``;
- the ``_backward`` closure of each op output (via ``ops.make_op_output``);
- ``gradcheck.registry`` (one span per check family) and
  ``gradcheck.no_grad`` / ``gradcheck.check_gradients`` (finite-difference
  evaluation counts).

``uninstall()`` restores every original. Each span holds a name, start and
end (process CPU time, like every benchmark time), parent span and pass id; a
pass is one benchmark item, branch sample or fused sample. Aggregates are kept
per (pass kind, name):

- self time: duration minus every child span;
- module self time: duration minus child *module* spans only, so a module's
  own op calls count as its work (this is the time joined to cost rows);
- inclusive time, counted once when a name nests inside itself.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import process_time as clock  # the benchmark's clock; see run.py

import numpy as np

# Op kinds reported per layer; conv2d is split by its weight geometry.
OP_KINDS = (
    "conv2d.dw",
    "conv2d.pw",
    "conv2d.dense",
    "silu",
    "batchnorm_infer",
    "batchnorm_train",
    "upsample_nearest2x",
    "concat_channels",
    "split_channels",
    "add",
    "global_avg_pool",
    "softmax_cross_entropy",
)


def conv_kind(in_channels: int, weight_shape: tuple) -> str:
    """Classify a conv2d call the way ops.conv2d picks its loop nest."""
    out_c, cg, k, _ = weight_shape
    groups = in_channels // cg
    if groups == in_channels and out_c == in_channels and cg == 1:
        return "conv2d.dw"
    if groups == 1:
        return "conv2d.pw" if k == 1 else "conv2d.dense"
    return "conv2d.grouped"


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    data = getattr(obj, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


class Tracer:
    def __init__(self, module_paths: dict[int, str] | None = None):
        self.module_paths = module_paths or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # raw spans, one entry each (struct-of-arrays keeps memory small)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.passes: list[str] = []
        self.pass_ops: list[tuple[str, int, int]] = []  # (kind, count_ops total, op outputs)
        self.stats: dict[tuple[str, int], list] = {}  # -> [calls, incl_s, self_s, modself_s]
        self.path_stats: dict[tuple[str, str], list] = {}  # -> [calls, incl_s, modself_s]
        self.cost: Counter = Counter()  # (kind, "ops.<o>.macs" | ".bytes") -> computed
        self.counters: Counter = Counter()  # (kind, name) -> count
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._kind = "other"
        self._pass = -1
        self._op_outputs = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _enter(self, nid: int, path: str | None = None, is_module: bool = False) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_pass.append(self._pass)
        self.span_end.append(0.0)
        self._open[nid] += 1
        frame = [idx, nid, path, is_module, 0.0, 0.0, clock()]
        self.span_start.append(frame[6])
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t = clock()
        idx, nid, path, is_module, child_all, child_mod, t0 = frame
        self._stack.pop()
        self.span_end[idx] = t
        dur = t - t0
        self._open[nid] -= 1
        key = (self._kind, nid)
        a = self.stats.get(key)
        if a is None:
            a = self.stats[key] = [0, 0.0, 0.0, 0.0]
        a[0] += 1
        if not self._open[nid]:
            a[1] += dur
        a[2] += dur - child_all
        a[3] += dur - child_mod
        if path is not None:
            p = self.path_stats.get((self._kind, path))
            if p is None:
                p = self.path_stats[(self._kind, path)] = [0, 0.0, 0.0]
            p[0] += 1
            p[1] += dur
            p[2] += dur - child_mod
        if self._stack:
            parent = self._stack[-1]
            parent[4] += dur
            parent[5] += dur if is_module else child_mod

    @contextmanager
    def span(self, name: str):
        frame = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def pass_(self, kind: str):
        """One benchmark pass: an item, a branch sample or a fused sample."""
        from mafnet.tensor import count_ops

        prev_kind, prev_pass = self._kind, self._pass
        self._kind, self._pass = kind, len(self.passes)
        self.passes.append(kind)
        outputs0 = self._op_outputs
        try:
            with count_ops() as counts:
                yield
        finally:
            self._kind, self._pass = prev_kind, prev_pass
        self.pass_ops.append((kind, sum(counts.values()), self._op_outputs - outputs0))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[(self._kind, name)] += n

    # -- wrappers ------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _plain(self, name: str, fn):
        tr, nid = self, self._id(name)

        def wrapper(*args, **kwargs):
            frame = tr._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._exit(frame)

        return wrapper

    def _op(self, name: str, fn):
        tr = self
        plain_id = self._id("ops." + name)

        def wrapper(*args, **kwargs):
            if name == "conv2d":
                kind = "ops." + conv_kind(args[0].shape[1], args[1].shape)
                nid = tr._id(kind)
            else:
                kind, nid = "ops." + name, plain_id
            frame = tr._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._exit(frame)
            tr._add_cost(kind, args, kwargs, out)
            return out

        return wrapper

    def _add_cost(self, kind: str, args, kwargs, out) -> None:
        """Computed work of one op call, from array sizes (count_costs convention)."""
        nbytes = _nbytes(args) + _nbytes(list(kwargs.values())) + _nbytes(out)
        macs = 0
        if kind.startswith("ops.conv2d"):
            w = args[1].data
            macs = out.data.size * w.shape[1] * w.shape[2] * w.shape[3]
        elif kind == "ops.batchnorm_infer":
            macs = out.data.size
        self.cost[(self._kind, kind + ".bytes")] += nbytes
        self.cost[(self._kind, kind + ".macs")] += macs

    def _make_op_output(self, fn):
        tr = self

        def wrapper(data, parents, backward, op):
            tr._op_outputs += 1
            kind = conv_kind(parents[0].shape[1], parents[1].shape) if op == "conv2d" else op
            bid = tr._id(f"ops.{kind}.bwd")

            def traced_backward(gy):
                frame = tr._enter(bid)
                try:
                    backward(gy)
                finally:
                    tr._exit(frame)

            return fn(data, parents, traced_backward, op)

        return wrapper

    def _module_call(self, fn):
        tr = self
        names: dict[type, int] = {}

        def wrapper(module, *args, **kwargs):
            cls = type(module)
            nid = names.get(cls)
            if nid is None:
                layer = cls.__module__.rsplit(".", 1)[-1]
                nid = names[cls] = tr._id(f"{layer}.{cls.__name__}")
            frame = tr._enter(nid, tr.module_paths.get(id(module)), True)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tr._exit(frame)

        return wrapper

    def _gradcheck_registry(self, fn):
        tr = self

        def wrapper():
            checks = fn()
            return {
                family: [(label, tr._plain(f"gradcheck.{family}", check)) for label, check in rows]
                for family, rows in checks.items()
            }

        return wrapper

    def _gradcheck_no_grad(self, fn):
        tr = self

        @contextmanager
        def wrapper():
            tr.count("gradcheck.fd_evals")
            with fn():
                yield

        return wrapper

    def _gradcheck_check_gradients(self, fn):
        tr = self

        def wrapper(f, arrays, *args, **kwargs):
            # central differences: two forward evaluations per leaf element
            tr.count("gradcheck.fd_evals_expected", 2 * sum(a.size for a in arrays.values()))
            return fn(f, arrays, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        from mafnet import gradcheck, mafpn, model, modules, ops, tensor

        for name, fn in list(vars(ops).items()):
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == ops.__name__:
                self._patch(ops, name, self._op(name, fn))
        self._patch(ops, "make_op_output", self._make_op_output(ops.make_op_output))
        self._patch(tensor, "check_finite", self._plain("tensor.check_finite", tensor.check_finite))
        self._patch(tensor.Tensor, "backward", self._plain("tensor.backward", tensor.Tensor.backward))
        self._patch(
            tensor.Tensor,
            "accumulate_grad",
            self._plain("tensor.accumulate_grad", tensor.Tensor.accumulate_grad),
        )
        self._patch(modules.Module, "__call__", self._module_call(modules.Module.__call__))
        for cls in (mafpn.MAFPN, model.Model):
            self._patch(cls, "forward_taps", self._module_call(cls.forward_taps))
        self._patch(gradcheck, "registry", self._gradcheck_registry(gradcheck.registry))
        self._patch(gradcheck, "no_grad", self._gradcheck_no_grad(gradcheck.no_grad))
        self._patch(
            gradcheck, "check_gradients", self._gradcheck_check_gradients(gradcheck.check_gradients)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------------
    def n_passes(self, kind: str) -> int:
        return self.passes.count(kind)

    def stat(self, kind: str, name: str) -> list:
        """[calls, inclusive_s, self_s, module_self_s] summed over passes of `kind`."""
        nid = self._ids.get(name)
        return self.stats.get((kind, nid), [0, 0.0, 0.0, 0.0])

    def self_by_name(self, kind: str) -> dict[str, list]:
        return {self.names[nid]: v for (k, nid), v in self.stats.items() if k == kind}

    def self_by_path(self, kind: str) -> dict[str, list]:
        return {path: v for (k, path), v in self.path_stats.items() if k == kind}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            passes=np.array(self.passes),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            pass_id=np.frombuffer(self.span_pass, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
