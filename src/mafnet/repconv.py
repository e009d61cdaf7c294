"""Reparameterized heterogeneous depthwise convolution (RepHDWConv).

Training runs one large depthwise kernel in parallel with a set of smaller
ones, each followed by its own batch norm, and sums the results. For
inference every branch is folded into its batch norm, zero-padded to the
large kernel size and summed, leaving a single depthwise convolution with a
bias that is numerically equivalent to the training-time branch sum.
`RepHDWConv.forward` runs that kernel when `runs_deploy` says the unit runs
its deploy form, and the branch sum otherwise; `branch_path()` compares the
two forms on one fused unit or model.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, Module, fold_bn, runs_deploy
from .tensor import Tensor, no_grad, using


def branch_path():
    """Run a fused model unfused inside the block: RepHDW units their branches,
    dense convs unfolded before their batch norms. Compares both paths on one
    model without unfusing it."""
    return using(branch_path=True)


def default_small_kernels(large: int) -> list[int]:
    """All admissible parallel kernel sizes below `large`: odd, >= 3, descending.

    A 3x3 unit has no admissible smaller branch and yields [].
    """
    if large < 3 or large % 2 == 0:
        raise ConfigError(f"large kernel must be odd and >= 3, got {large}")
    return list(range(large - 2, 2, -2))


def pad_kernel_to(weight: np.ndarray, target: int) -> np.ndarray:
    """Zero-pad a (C,1,k,k) kernel symmetrically to (C,1,target,target)."""
    k = weight.shape[-1]
    if (target - k) % 2:
        raise ConfigError(f"cannot center a {k} kernel inside {target}")
    p = (target - k) // 2
    if p == 0:
        return weight
    return np.pad(weight, ((0, 0), (0, 0), (p, p), (p, p)))


class RepHDWConv(Module):
    """Parallel heterogeneous depthwise branches, mergeable into one kernel.

    kernel is the large branch size; the small branches are every admissible
    odd size below it. With use_rep off (the reparameterization toggle) the
    unit is a single depthwise conv + BN.
    """

    def __init__(
        self,
        channels: int,
        kernel: int,
        use_rep: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        if kernel < 3 or kernel % 2 == 0:
            raise ConfigError(f"RepHDWConv: kernel must be odd and >= 3, got {kernel}")
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel = kernel
        self.small_kernels = default_small_kernels(kernel) if use_rep else []
        self.branch_kernels = [kernel] + self.small_kernels
        for k in self.branch_kernels:
            conv = Conv2d(channels, channels, k, groups=channels, rng=rng, dtype=dtype)
            bn = BatchNorm2d(channels, dtype=dtype)
            setattr(self, f"conv{k}", conv)
            setattr(self, f"bn{k}", bn)

    # -- forwards ------------------------------------------------------------
    def _branches(self) -> list[tuple[Conv2d, BatchNorm2d]]:
        return [
            (getattr(self, f"conv{k}"), getattr(self, f"bn{k}"))
            for k in self.branch_kernels
        ]

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.channels:
            raise ShapeError(
                f"RepHDWConv: input has {x.shape[1]} channels, unit has {self.channels}"
            )
        if runs_deploy(self):
            w, b = Tensor(self.fused_weight), Tensor(self.fused_bias)
            return ops.conv2d(x, w, b, groups=self.channels, deploy=True)
        out = None
        for conv, bn in self._branches():
            y = bn(conv(x))
            out = y if out is None else out + y
        return out

    # -- reparameterization ----------------------------------------------------
    def fuse(self) -> tuple[np.ndarray, np.ndarray]:
        """Merge all branches into a single (C,1,K,K) kernel and bias vector.

        Requires eval mode so the folded statistics are the running ones, not
        the last batch's. The folding arithmetic runs in float64 and is cast
        back to the branch dtype, so the merge itself adds no rounding beyond
        the final cast. Idempotent: recomputes the same arrays each call.
        """
        if self.training:
            raise ConfigError(
                "RepHDWConv: fuse() requires eval mode; running statistics "
                "must be finalized before merging"
            )
        dtype = getattr(self, f"conv{self.kernel}").weight.dtype
        merged_w = None
        merged_b = None
        for conv, bn in self._branches():
            w, b = fold_bn(conv.weight.data.astype(np.float64), bn.bn_params())
            w = pad_kernel_to(w, self.kernel)
            merged_w = w if merged_w is None else merged_w + w
            merged_b = b if merged_b is None else merged_b + b
        # a second fuse replaces each entry in place, keeping the state order
        self.register_buffer("fused_weight", merged_w.astype(dtype))
        self.register_buffer("fused_bias", merged_b.astype(dtype))
        self.deploy = True
        return self.fused_weight, self.fused_bias


def fuse_model(model: Module) -> int:
    """Ready an eval-mode model for the deploy path; returns the RepHDW unit count.

    Every RepHDW unit merges its branches into one stored kernel. Every other
    (dense) conv runs as one GEMM and folds in the BatchNorm2d registered
    right after it in the same parent, where one exists and the conv has no
    bias. That fold runs per call, so nothing derived from the weights is
    stored and the model may load new weights after fusing. Every container
    is marked `deploy` too, so that in checked mode a deploy forward checks
    only the outputs of its outermost call; a branch conv or an unfolded
    batch norm is left as it is.
    """
    if model.training:
        raise ConfigError("fuse_model: requires eval mode; running statistics "
                          "must be finalized before merging")
    n = 0
    for m in model.modules():
        if isinstance(m, RepHDWConv):
            m.fuse()
            n += 1
            continue
        if not isinstance(m, (Conv2d, BatchNorm2d)):
            m.deploy = True  # a container: its call checks only its outputs
        kids = list(m._children.values())
        for conv, nxt in zip(kids, kids[1:] + [None]):
            if isinstance(conv, Conv2d) and conv.groups == 1:
                bn = nxt if isinstance(nxt, BatchNorm2d) and conv.bias is None else None
                conv.deploy = True
                object.__setattr__(conv, "folded_bn", bn)  # a reference, not a child
                if bn is not None:
                    bn.deploy = True
    return n


def randomize_bn_stats(module: Module, rng: np.random.Generator) -> None:
    """Draw non-trivial affine parameters and running statistics for every BN.

    Freshly built models carry identity-like statistics, under which BN
    folding is numerically almost a no-op; equivalence checks randomize them
    so the merge arithmetic is actually exercised.
    """
    for m in module.modules():
        if isinstance(m, BatchNorm2d):
            c = m.channels
            dt = m.gamma.dtype
            m.gamma.data = rng.uniform(0.5, 1.5, c).astype(dt)
            m.beta.data = rng.normal(0.0, 0.2, c).astype(dt)
            m.set_buffer("running_mean", rng.normal(0.0, 0.3, c).astype(m.running_mean.dtype))
            m.set_buffer("running_var", rng.uniform(0.5, 2.0, c).astype(m.running_var.dtype))


def randomize_weights(module: Module, rng: np.random.Generator, scale: float = 0.5) -> None:
    """Redraw every conv weight (and bias) from a normal distribution."""
    for name, p in module.named_parameters():
        if name.endswith("weight") or name.endswith("bias"):
            p.data = (rng.standard_normal(p.shape) * scale).astype(p.dtype)


def fuse_equivalence_deviation(module: Module, x: Tensor) -> float:
    """Max |branch-path forward - deploy forward| over every output of a unit
    or a model on one input (eval mode, no tape). A module with no fused layer
    is fused first; one already fused is checked with the kernels it holds."""
    with module.mode(False), no_grad():
        if not any(m.deploy for m in module.modules()):
            fuse_model(module)
        y_fused = module(x)
        with branch_path():
            y_branch = module(x)
    if isinstance(y_fused, Tensor):
        y_fused, y_branch = {"out": y_fused}, {"out": y_branch}
    return float(np.max([np.abs(y_branch[k].data - y_fused[k].data).max() for k in y_fused]))
