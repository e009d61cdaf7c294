"""Inverted bottleneck and RepHELAN aggregation block.

The bottleneck expands channels with a 1x1 conv, applies a (reparameterized
heterogeneous) depthwise conv, and shrinks back with a second 1x1 conv. The
RepHELAN block splits its stem output into a pass-through lane and a chain
of bottlenecks; with the aggregation mechanism on, every intermediate chain
output is retained and concatenated before the transition conv. Blocks take
their toggles from a model or neck config, which checks its values here once.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, Module, ModuleList
from .repconv import RepHDWConv


def check_block_rules(cfg, prefix: str, widths: str, kernels: str, depths: str) -> None:
    """Reject values no block can be built from, naming the JSON field (prefix +
    the cfg field named by `widths`, `kernels` or `depths`, or expansion). A
    block of width w has hidden width w // 2, which expansion must not shrink."""
    for name, rule, ok in (
        (widths, "must all be >= 2", lambda v: v >= 2),
        (kernels, "must all be odd and >= 3", lambda v: v >= 3 and v % 2),
        (depths, "must be >= 1", lambda v: v >= 1),
    ):
        values = getattr(cfg, name)
        if not all(map(ok, values if isinstance(values, list) else [values])):
            raise ConfigError(f"model config: {prefix}{name} {rule}, got {values}")
    e = cfg.expansion
    if not math.isfinite(e):
        raise ConfigError(f"model config: {prefix}expansion must be finite, got {e}")
    for h in (w // 2 for w in getattr(cfg, widths)):
        if round(h * e) < h:
            raise ConfigError(
                f"model config: {prefix}expansion {e} shrinks a hidden width {h} to {round(h * e)}")


class Bottleneck(Module):
    """1x1 expand -> depthwise (RepHDW) -> 1x1 shrink, shape preserving."""

    def __init__(
        self,
        channels: int,
        kernel: int,
        expansion: float = 2.0,
        use_rep: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        mid = int(round(channels * expansion))
        self.pw_expand = Conv2d(channels, mid, 1, rng=rng, dtype=dtype)
        self.bn_expand = BatchNorm2d(mid, dtype=dtype)
        self.dw = RepHDWConv(mid, kernel, use_rep, rng=rng, dtype=dtype)
        self.pw_shrink = Conv2d(mid, channels, 1, rng=rng, dtype=dtype)
        self.bn_shrink = BatchNorm2d(channels, dtype=dtype)

    def forward(self, x):
        if x.shape[1] != self.channels:
            raise ShapeError(
                f"Bottleneck: input has {x.shape[1]} channels, expected {self.channels}"
            )
        y = ops.silu(self.bn_expand(self.pw_expand(x)))
        y = ops.silu(self.dw(y))
        return self.bn_shrink(self.pw_shrink(y))


class RepHELAN(Module):
    """RepHELAN with hidden width out/2 and `depth` bottlenecks.

    `toggles` is a model or neck config: its expansion, use_rep, use_large and
    use_elan fields set the block structure. Without the large-kernel
    mechanism every depthwise conv is at most 5x5.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        depth: int,
        kernel: int,
        toggles,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.hidden = hidden = out_channels // 2
        self.use_elan = toggles.use_elan
        self.concat_width = (2 + depth if self.use_elan else 2) * hidden
        kernel = kernel if toggles.use_large else min(kernel, 5)
        self.pw_in = Conv2d(in_channels, 2 * hidden, 1, rng=rng, dtype=dtype)
        self.bn_in = BatchNorm2d(2 * hidden, dtype=dtype)
        self.bottlenecks = ModuleList(
            Bottleneck(hidden, kernel, toggles.expansion, toggles.use_rep, rng=rng, dtype=dtype)
            for _ in range(depth)
        )
        self.pw_out = Conv2d(self.concat_width, out_channels, 1, rng=rng, dtype=dtype)
        self.bn_out = BatchNorm2d(out_channels, dtype=dtype)

    def forward(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"RepHELAN: input has {x.shape[1]} channels, expected {self.in_channels}"
            )
        h = ops.silu(self.bn_in(self.pw_in(x)))
        s0, s1 = ops.split_channels(h, [self.hidden, self.hidden])
        chain = [s1]
        for b in self.bottlenecks:
            chain.append(b(chain[-1]))
        lanes = [s0] + chain if self.use_elan else [s0, chain[-1]]
        y = ops.concat_channels(lanes)
        return ops.silu(self.bn_out(self.pw_out(y)))
