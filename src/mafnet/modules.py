"""Light parameter-container layer on top of the functional ops.

Modules register parameters (Tensors with requires_grad) and buffers
(plain numpy arrays such as running statistics or fused kernels) so the
whole tree can be walked for serialization, cost accounting and inventory
introspection. Initialization is fully determined by the generator handed
to the constructor. Every module has one `deploy` flag: `fuse_model` sets it
on each layer and container it readies, and `runs_deploy` is the one place
that reads it. In checked mode, the outermost call that runs deploy forms
checks only its outputs (see `Module.__call__`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, NumericalError, ShapeError
from .tensor import RUNTIME, Tensor, check_outputs


@dataclass
class BatchNormParams:
    """Per-channel affine normalization statistics (numpy view of a BN layer)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float

    def __post_init__(self):
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            v = getattr(self, name)
            if v.shape != (c,):
                raise ShapeError(f"BatchNormParams: {name} shape {v.shape} != ({c},)")
        if np.any(self.running_var < 0):
            raise ConfigError("BatchNormParams: running_var must be >= 0 element-wise")
        if self.eps < 0:
            raise ConfigError(f"BatchNormParams: eps must be >= 0, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def fold_bn(weight: np.ndarray, bn: BatchNormParams) -> tuple[np.ndarray, np.ndarray]:
    """Fold inference-mode batch norm into the preceding convolution.

    Returns (weight', bias') with weight'[c] = weight[c] * gamma[c]/sqrt(var[c]+eps)
    and bias'[c] = beta[c] - gamma[c]*mean[c]/sqrt(var[c]+eps), so that
    conv(x, weight') + bias' == bn(conv(x, weight)) in exact arithmetic.
    """
    if weight.ndim != 4:
        raise ShapeError(f"fold_bn: weight must be 4-D, got {weight.shape}")
    if weight.shape[0] != bn.channels:
        raise ShapeError(
            f"fold_bn: weight has {weight.shape[0]} output channels, bn has {bn.channels}"
        )
    istd = 1.0 / np.sqrt(bn.running_var.astype(weight.dtype) + weight.dtype.type(bn.eps))
    scale = bn.gamma.astype(weight.dtype) * istd
    w = weight * scale[:, None, None, None]
    b = bn.beta.astype(weight.dtype) - bn.gamma.astype(weight.dtype) * bn.running_mean.astype(
        weight.dtype
    ) * istd
    return w, b


def runs_deploy(m: "Module") -> bool:
    """Whether a layer that `fuse_model` readied runs its deploy form now: in
    eval mode, with the tape off (the deploy GEMM has no backward) and outside
    `branch_path()`. Otherwise it runs the form it had before fusing."""
    return m.deploy and not m.training and not RUNTIME.grad and not RUNTIME.branch_path


class Module:
    """Base class: tracks parameters, buffers and child modules in order."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "deploy", False)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise ConfigError(f"unknown buffer {name!r} on {type(self).__name__}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------
    def named_modules(self, prefix: str = ""):
        yield prefix, self
        for name, child in self._children.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(sub)

    def modules(self):
        for _, m in self.named_modules():
            yield m

    def named_parameters(self, prefix: str = ""):
        for path, m in self.named_modules(prefix):
            for name, p in m._params.items():
                yield (f"{path}.{name}" if path else name), p

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def state_entries(self, prefix: str = ""):
        """Deterministic (name, array) walk: per module, params then buffers."""
        for path, m in self.named_modules(prefix):
            for name, p in m._params.items():
                yield (f"{path}.{name}" if path else name), p.data
            for name, b in m._buffers.items():
                yield (f"{path}.{name}" if path else name), b

    def train(self, mode: bool = True):
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    @contextmanager
    def mode(self, training: bool):
        """Put the whole tree in train or eval mode for the block, then back
        in the root's previous mode, also on an exception."""
        was_training = self.training
        self.train(training)
        try:
            yield
        finally:
            self.train(was_training)

    def param_count(self) -> int:
        return sum(int(p.data.size) for p in self.parameters())

    # -- forward -------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if RUNTIME.checked and runs_deploy(self):
            # Checked once at the outputs: the ops below run unchecked. A
            # non-finite output re-runs the call checked, which names the
            # first bad op; if the re-run raises nothing, this module is named.
            RUNTIME.checked = False
            try:
                out = self.forward(*args, **kwargs)
            finally:
                RUNTIME.checked = True
            try:
                check_outputs(out, type(self).__name__)
            except NumericalError:
                self.forward(*args, **kwargs)
                raise
        else:
            out = self.forward(*args, **kwargs)
        if RUNTIME.observer is not None:
            RUNTIME.observer(self, out)
        return out

    def forward_taps(self, x):
        """Default tap surface: just the final output under the name 'out'."""
        out = self(x)
        return out, {"out": out}


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._list = []
        for m in mods:
            self.append(m)

    def append(self, m: Module):
        self._children[str(len(self._list))] = m
        self._list.append(m)
        return self

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


class Sequential(Module):
    def __init__(self, *mods):
        super().__init__()
        self.items = ModuleList(mods)

    def forward(self, x):
        for m in self.items:
            x = m(x)
        return x


class Conv2d(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        groups: int = 1,
        bias: bool = False,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
        init_std: float | None = None,
    ):
        super().__init__()
        if min(in_channels, out_channels) < 1:
            raise ConfigError(
                f"Conv2d: channel counts must be >= 1, got {in_channels} in, {out_channels} out")
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.groups = kernel, stride, groups
        rng = rng or np.random.default_rng(0)
        shape = (out_channels, in_channels // groups, kernel, kernel)
        # Kaiming-normal (std sqrt(2 / fan_in)) unless a std is given
        std = np.sqrt(2.0 / (shape[1] * kernel**2)) if init_std is None else init_std
        self.weight = Tensor((rng.standard_normal(shape) * std).astype(dtype), requires_grad=True)
        self.bias = (
            Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None
        )
        self.folded_bn = None

    def forward(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d: input has {x.shape[1]} channels, layer expects {self.in_channels}"
            )
        if not runs_deploy(self):
            return ops.conv2d(x, self.weight, self.bias, self.stride, groups=self.groups)
        w, b = self.weight, self.bias
        if self.folded_bn is not None:
            # folded per call, so nothing derived from the weights is stored
            w, b = (Tensor(a) for a in fold_bn(w.data, self.folded_bn.bn_params()))
        return ops.conv2d_gemm(x, w, b, self.stride)


class BatchNorm2d(Module):
    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.eps = 1e-5
        self.momentum = 0.1
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x):
        if runs_deploy(self):
            return x  # the conv that produced x applied this norm
        if self.training:
            y, mu, var = ops.batchnorm_train(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mu.astype(self.running_mean.dtype)
            self.running_var *= 1.0 - m
            self.running_var += m * var.astype(self.running_var.dtype)
            return y
        return ops.batchnorm_infer(
            x, self.gamma, self.beta, self.running_mean, self.running_var, self.eps
        )

    def bn_params(self) -> BatchNormParams:
        return BatchNormParams(
            self.gamma.data, self.beta.data, self.running_mean, self.running_var, self.eps
        )


class ConvBN(Module):
    """Conv (no bias) followed by batch norm and SiLU."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, kernel, stride, rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(out_channels, dtype=dtype)

    def forward(self, x):
        return ops.silu(self.bn(self.conv(x)), runs_deploy(self.conv))
