"""Inverted bottleneck and RepHELAN aggregation block.

The bottleneck expands channels with a 1x1 conv, applies a (reparameterized
heterogeneous) depthwise conv, and shrinks back with a second 1x1 conv. The
RepHELAN block splits its stem output into a pass-through lane and a chain
of bottlenecks; with the aggregation mechanism on, every intermediate chain
output is retained and concatenated before the transition conv. Blocks take
their toggles from a model or neck config, whose values CONFIG_RULES checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, Module, ModuleList, runs_deploy
from .repconv import RepHDWConv


# Value rules per JSON config field: (list length or None, rule that each value
# must meet, its test). ModelConfig and NeckConfig check the rows of the fields
# they have and share the `expansion` row. The caps on channel counts and on
# expansion keep a config from asking for more memory than exists.
MAX_CHANNELS, MAX_EXPANSION = 4096, 16
_CHANNELS = (f"in [1, {MAX_CHANNELS}]", lambda v: 1 <= v <= MAX_CHANNELS)
_KERNEL = ("odd and >= 3", lambda v: v >= 3 and v % 2 == 1)
CONFIG_RULES = {
    "stem_width": (None, *_CHANNELS),
    "stage_widths": (4, f"even and in [2, {MAX_CHANNELS}]",
                     lambda v: 2 <= v <= MAX_CHANNELS and v % 2 == 0),
    "stage_depths": (4, ">= 1", lambda v: v >= 1),
    "backbone_kernels": (4, *_KERNEL),
    "expansion": (None, f"finite and <= {MAX_EXPANSION}",
                  lambda v: math.isfinite(v) and v <= MAX_EXPANSION),
    "head_width": (None, *_CHANNELS),
    "head_out_channels": (None, *_CHANNELS),
    "in_channels": (None, *_CHANNELS),
    "seed": (None, ">= 0", lambda v: v >= 0),
    "widths": (3, f"in [2, {MAX_CHANNELS}]", lambda v: 2 <= v <= MAX_CHANNELS),
    "kernels": (3, *_KERNEL),
    "depth": (None, ">= 1", lambda v: v >= 1),
    "saf_ratio": (None, "in (0, 1]", lambda v: 0 < v <= 1),
}


def check_config(cfg, prefix: str, widths_field: str) -> None:
    """Check the CONFIG_RULES rows of the fields `cfg` has, then the two
    cross-field rules. A block of width w (in `widths_field`) has hidden width
    w // 2, which expansion must not shrink."""
    def fail(name, rule, value):
        raise ConfigError(f"model config: {prefix}{name} {rule}, got {value}")

    for name, (length, rule, ok) in CONFIG_RULES.items():
        if hasattr(cfg, name):
            value = getattr(cfg, name)
            shape = f"list {length} values, each" if length else "be"
            if not (len(value) == length and all(map(ok, value)) if length else ok(value)):
                fail(name, f"must {shape} {rule}", value)
    ks = getattr(cfg, "backbone_kernels", [])
    if ks != sorted(set(ks)):
        fail("backbone_kernels", "must strictly increase", ks)
    e = cfg.expansion
    for h in (w // 2 for w in getattr(cfg, widths_field)):
        if round(h * e) < h:
            fail("expansion", f"must not shrink hidden width {h} to {round(h * e)}", e)


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
        y = ops.silu(self.bn_expand(self.pw_expand(x)), runs_deploy(self.pw_expand))
        y = ops.silu(self.dw(y), runs_deploy(self.dw))
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
        h = ops.silu(self.bn_in(self.pw_in(x)), runs_deploy(self.pw_in))
        s0, s1 = ops.split_channels(h, [self.hidden, self.hidden])
        chain = [s1]
        for b in self.bottlenecks:
            chain.append(b(chain[-1]))
        lanes = [s0] + chain if self.use_elan else [s0, chain[-1]]
        y = ops.concat_channels(lanes)
        return ops.silu(self.bn_out(self.pw_out(y)), runs_deploy(self.pw_out))
