"""Dense-tensor engine with reverse-mode differentiation.

Feature maps live in (batch, channels, height, width) layout; weights in
(out, in/groups, k, k). Forward values default to float32; float64 is used
by the finite-difference checker. Tensors are immutable after construction
except for gradient accumulation.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager

import numpy as np

from .errors import AutogradError, NumericalError


class Runtime:
    """Process-wide switches, changed for a block with `using()`: NaN/Inf checks
    (`checked`, off when MAF_CHECKED=0) on every op output, or only on the
    outputs of the outermost call of a deploy forward (see `Module.__call__`),
    tape recording (`grad`), the unfused eval forward on a fused model
    (`branch_path`), a hook run as `observer(module, output)` after every
    Module call, one run as `op_hook(op, args, kwargs, output)` after every
    public op call, and `op_counts`."""

    def __init__(self):
        self.checked = os.environ.get("MAF_CHECKED", "1") != "0"
        self.grad = True
        self.branch_path = False
        self.observer = None
        self.op_hook = None
        self.op_counts = Counter()


RUNTIME = Runtime()


@contextmanager
def using(**switches):
    """Set the named RUNTIME fields inside the block; restore them on exit."""
    prev = {name: getattr(RUNTIME, name) for name in switches}
    for name, value in switches.items():
        setattr(RUNTIME, name, value)
    try:
        yield
    finally:
        for name, value in prev.items():
            setattr(RUNTIME, name, value)


def checked_enabled() -> bool:
    return RUNTIME.checked


def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    return using(grad=False)


@contextmanager
def count_ops():
    """Yield a dict that, after the block, holds per-op call counts."""
    before = dict(RUNTIME.op_counts)
    diff: dict = {}
    try:
        yield diff
    finally:
        for k, v in RUNTIME.op_counts.items():
            d = v - before.get(k, 0)
            if d:
                diff[k] = d


def check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericalError(f"{op}: non-finite values in output")


def check_outputs(out, name: str) -> None:
    """`check_finite` on every Tensor of a Module output: a Tensor, or a dict,
    list or tuple of them, nested."""
    if isinstance(out, Tensor):
        check_finite(out.data, name)
    elif isinstance(out, (dict, list, tuple)):
        for o in out.values() if isinstance(out, dict) else out:
            check_outputs(o, name)


class Tensor:
    """A numpy array plus optional participation in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_released")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple = ()
        self._released = False

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- autograd ------------------------------------------------------------
    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate grads of every participating tensor; releases the graph."""
        if self.data.size != 1:
            raise AutogradError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if self._released:
            raise AutogradError(
                "graph already released; double backward is unsupported"
            )
        order = self._topo_order()
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._released = True
            node._backward = None
            node._parents = ()

    def _topo_order(self) -> list:
        order: list = []
        visited: set = set()
        stack: list = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        return order

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Tensor") -> "Tensor":
        from . import ops

        return ops.add(self, other)


def make_op_output(data: np.ndarray, parents: tuple, backward, op: str) -> Tensor:
    """Wrap an op result, checking finiteness and recording the tape entry.

    `backward(gout)` must accumulate gradients into the parents; it is only
    attached when at least one parent requires grad and recording is enabled.
    """
    RUNTIME.op_counts[op] += 1
    if RUNTIME.checked:
        check_finite(data, op)
    req = RUNTIME.grad and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req, dtype=data.dtype)
    if req:
        out._parents = tuple(parents)
        out._backward = backward
    return out
