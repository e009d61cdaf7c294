"""Inverted bottleneck and RepHELAN aggregation block.

The bottleneck expands channels with a 1x1 conv, applies a (reparameterized
heterogeneous) depthwise conv, and shrinks back with a second 1x1 conv. The
RepHELAN block splits its stem output into a pass-through lane and a chain
of bottlenecks; with the aggregation mechanism on, every intermediate chain
output is retained and concatenated before the transition conv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, Module, ModuleList
from .repconv import RepHDWConv


@dataclass
class BottleneckConfig:
    channels: int
    expansion: float = 2.0
    kernel: int = 5
    use_rep: bool = True
    use_large: bool = True

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"BottleneckConfig: channels must be >= 1, got {self.channels}")
        if self.kernel % 2 == 0 or self.kernel < 3:
            raise ConfigError(f"BottleneckConfig: kernel must be odd >= 3, got {self.kernel}")
        if round(self.channels * self.expansion) < self.channels:
            raise ConfigError(
                f"BottleneckConfig: expansion {self.expansion} shrinks {self.channels} channels"
            )

    @property
    def expanded(self) -> int:
        return int(round(self.channels * self.expansion))

    @property
    def effective_kernel(self) -> int:
        # Without the large-kernel mechanism every spatial conv is 5x5.
        return self.kernel if self.use_large else min(self.kernel, 5)


@dataclass
class HELANConfig:
    in_channels: int
    out_channels: int
    hidden: int
    n_bottlenecks: int = 2
    bottleneck: BottleneckConfig | None = None
    use_elan: bool = True

    def __post_init__(self):
        if self.n_bottlenecks < 1:
            raise ConfigError(
                f"HELANConfig: n_bottlenecks must be >= 1, got {self.n_bottlenecks}"
            )
        if self.bottleneck is None:
            self.bottleneck = BottleneckConfig(channels=self.hidden)
        if self.bottleneck.channels != self.hidden:
            raise ConfigError(
                f"HELANConfig: bottleneck channels {self.bottleneck.channels} "
                f"!= hidden {self.hidden}"
            )

    @property
    def concat_width(self) -> int:
        if self.use_elan:
            return (2 + self.n_bottlenecks) * self.hidden
        return 2 * self.hidden


class Bottleneck(Module):
    """1x1 expand -> depthwise (RepHDW) -> 1x1 shrink, shape preserving."""

    def __init__(
        self,
        cfg: BottleneckConfig,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        mid = cfg.expanded
        k = cfg.effective_kernel
        self.pw_expand = Conv2d(cfg.channels, mid, 1, rng=rng, dtype=dtype)
        self.bn_expand = BatchNorm2d(mid, dtype=dtype)
        self.dw = RepHDWConv(
            mid, k, small_kernels=None if cfg.use_rep else [], rng=rng, dtype=dtype
        )
        self.pw_shrink = Conv2d(mid, cfg.channels, 1, rng=rng, dtype=dtype)
        self.bn_shrink = BatchNorm2d(cfg.channels, dtype=dtype)

    def forward(self, x):
        if x.shape[1] != self.cfg.channels:
            raise ShapeError(
                f"Bottleneck: input has {x.shape[1]} channels, expected {self.cfg.channels}"
            )
        y = ops.silu(self.bn_expand(self.pw_expand(x)))
        y = ops.silu(self.dw(y))
        return self.bn_shrink(self.pw_shrink(y))


class RepHELAN(Module):
    def __init__(
        self,
        cfg: HELANConfig,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        self.pw_in = Conv2d(cfg.in_channels, 2 * cfg.hidden, 1, rng=rng, dtype=dtype)
        self.bn_in = BatchNorm2d(2 * cfg.hidden, dtype=dtype)
        self.bottlenecks = ModuleList(
            Bottleneck(cfg.bottleneck, rng=rng, dtype=dtype) for _ in range(cfg.n_bottlenecks)
        )
        self.pw_out = Conv2d(cfg.concat_width, cfg.out_channels, 1, rng=rng, dtype=dtype)
        self.bn_out = BatchNorm2d(cfg.out_channels, dtype=dtype)

    def forward(self, x):
        cfg = self.cfg
        if x.shape[1] != cfg.in_channels:
            raise ShapeError(
                f"RepHELAN: input has {x.shape[1]} channels, expected {cfg.in_channels}"
            )
        h = ops.silu(self.bn_in(self.pw_in(x)))
        s0, s1 = ops.split_channels(h, [cfg.hidden, cfg.hidden])
        chain = [s1]
        for b in self.bottlenecks:
            chain.append(b(chain[-1]))
        if cfg.use_elan:
            lanes = [s0] + chain
        else:
            lanes = [s0, chain[-1]]
        y = ops.concat_channels(lanes)
        return ops.silu(self.bn_out(self.pw_out(y)))


def helan_block(in_channels, out_channels, depth, kernel, toggles, rng, dtype) -> RepHELAN:
    """RepHELAN with hidden width out/2 and `depth` bottlenecks.

    `toggles` is a model or neck config: its expansion, use_rep, use_large and
    use_elan fields set the block structure.
    """
    hidden = out_channels // 2
    bottleneck = BottleneckConfig(
        channels=hidden,
        expansion=toggles.expansion,
        kernel=kernel,
        use_rep=toggles.use_rep,
        use_large=toggles.use_large,
    )
    cfg = HELANConfig(in_channels, out_channels, hidden, depth, bottleneck, toggles.use_elan)
    return RepHELAN(cfg, rng=rng, dtype=dtype)
