"""Two-pathway fusion neck over backbone taps P2..P5.

Pathway 1 (top-down) uses superficial assisted fusion: every level merges a
downsampled shallower backbone tap (the assist lane, projected to a fraction
of the level width), the same-level tap and the upsampled deeper neck lane.
Pathway 2 (bottom-up) uses advanced assisted fusion: equal-width lanes from
the first pathway's neighbours, the running second-pathway lane and an
upsampled deeper lane. Each fusion node feeds a RepHELAN block; the three
second-pathway outputs (strides 8/16/32) are the neck outputs.

The wiring is written once, as data: NECK_NODES lists every fusion node and
its lanes. MAFPN builds, runs and lists its edges from that table, and
backbone_lineage walks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .blocks import helan_block
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, ConvBN, Module
from .tensor import Tensor


@dataclass
class NeckConfig:
    widths: list[int] = field(default_factory=lambda: [96, 192, 320])
    kernels: list[int] = field(default_factory=lambda: [5, 7, 9])
    saf_ratio: float = 0.5
    enable_saf: bool = True
    enable_aaf: bool = True
    depth: int = 2
    expansion: float = 2.0
    use_elan: bool = True
    use_rep: bool = True
    use_large: bool = True

    def __post_init__(self):
        if len(self.widths) != 3 or any(w < 1 for w in self.widths):
            raise ConfigError(f"NeckConfig: widths must be three positive ints, got {self.widths}")
        if len(self.kernels) != 3:
            raise ConfigError(f"NeckConfig: kernels must list three sizes, got {self.kernels}")
        if not 0.0 < self.saf_ratio <= 1.0:
            raise ConfigError(f"NeckConfig: saf_ratio must be in (0,1], got {self.saf_ratio}")


BACKBONE_TAPS = ("P2", "P3", "P4", "P5")

# The neck topology, one row per fusion node in build and forward order:
# (node, fuse attr, block attr, level, lanes). A lane is (source, kind) and
# lanes are listed in concat order; level indexes NeckConfig.widths/kernels
# (0 = stride 8). Lane kinds:
#   project      1x1 ConvBN of the deepest tap (the only lane of P'5)
#   assist-down  shallower backbone tap, downsampled (SAF; the AAF boundary)
#   same         same-level lane, concatenated as is
#   up           deeper neck lane, upsampled (SAF)
#   up-project   deeper neck lane, upsampled and projected to the width (AAF)
#   cross-down   first-pathway lane from the level below (AAF)
#   chain-down   running second-pathway lane from the level below
NECK_NODES = (
    ("P'5", "proj5", None, 2, (("P5", "project"),)),
    ("P'4", "saf4", "td4", 1, (("P3", "assist-down"), ("P4", "same"), ("P'5", "up"))),
    ("P'3", "saf3", "td3", 0, (("P2", "assist-down"), ("P3", "same"), ("P'4", "up"))),
    ("P''3", "aaf3", "bu3", 0, (("P2", "assist-down"), ("P'3", "same"), ("P'4", "up-project"))),
    ("P''4", "aaf4", "bu4", 1, (("P'3", "cross-down"), ("P''3", "chain-down"), ("P'4", "same"),
                                ("P'5", "up-project"))),
    ("P''5", "aaf5", "bu5", 2, (("P'4", "cross-down"), ("P''4", "chain-down"), ("P'5", "same"))),
)
NECK_OUTPUTS = (("P''3", "N3"), ("P''4", "N4"), ("P''5", "N5"))

# The lowest second-pathway node has no shallower neck lane to chain from.
# Without AAF it adds nothing, so it becomes an alias of its same lane.
AAF_ONLY_NODE = "P''3"

# AAFFuse argument fed by each lane kind (constructor: the same name + "_ch").
_AAF_ARGS = {
    "assist-down": "assist",
    "cross-down": "p1_prev",
    "chain-down": "p2_prev",
    "up-project": "deep",
}


def _check_spatial(level: str, name: str, got, want) -> None:
    if got != want:
        raise ShapeError(
            f"{level}: lane {name} has spatial dims {got}, expected {want}"
        )


class DownLane(Module):
    """3x3 stride-2 conv + BN, then a 1x1 width-control conv, then SiLU."""

    def __init__(self, in_channels, out_channels, rng=None, dtype=np.float32):
        super().__init__()
        self.down = Conv2d(in_channels, in_channels, 3, stride=2, rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(in_channels, dtype=dtype)
        self.proj = Conv2d(in_channels, out_channels, 1, bias=True, rng=rng, dtype=dtype)

    def forward(self, x):
        return ops.silu(self.proj(self.bn(self.down(x))))


class SAFFuse(Module):
    """Superficial assisted fusion at one level.

    concat(assist(shallow), same, upsample(deep)) where the assist lane is
    Down -> 1x1 projected to ratio * same-level width. With the assist lane
    disabled the node degenerates to concat(same, up).
    """

    def __init__(
        self,
        shallow_ch: int,
        same_ch: int,
        deep_ch: int,
        ratio: float = 0.5,
        enable_assist: bool = True,
        level: str = "",
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        self.level = level or "saf"
        self.enable_assist = enable_assist
        self.assist_ch = int(round(ratio * same_ch)) if enable_assist else 0
        if enable_assist:
            self.assist = DownLane(shallow_ch, self.assist_ch, rng=rng, dtype=dtype)
        self.out_channels = self.assist_ch + same_ch + deep_ch

    def forward(self, shallow: Tensor | None, same: Tensor, deep: Tensor) -> Tensor:
        hs, ws = same.shape[2], same.shape[3]
        _check_spatial(self.level, "deep", deep.shape[2:], (hs // 2, ws // 2))
        lanes = []
        if self.enable_assist:
            _check_spatial(self.level, "shallow", shallow.shape[2:], (2 * hs, 2 * ws))
            lanes.append(self.assist(shallow))
        lanes.append(same)
        lanes.append(ops.upsample_nearest2x(deep))
        return ops.concat_channels(lanes)


class AAFFuse(Module):
    """Advanced assisted fusion: every enabled lane is projected to `width`.

    Lane order is (backbone assist, first-pathway down, second-pathway down,
    same, projected upsample). Any lane but `same` can be absent; the same
    lane must already carry `width` channels. The assist lane only exists at
    the lowest level, where no shallower neck lanes are available.
    """

    def __init__(
        self,
        width: int,
        assist_ch: int | None = None,
        p1_prev_ch: int | None = None,
        p2_prev_ch: int | None = None,
        deep_ch: int | None = None,
        level: str = "",
        rng=None,
        dtype=np.float32,
    ):
        super().__init__()
        self.level = level or "aaf"
        self.width = width
        self.has_assist = assist_ch is not None
        self.has_p1_down = p1_prev_ch is not None
        self.has_p2_down = p2_prev_ch is not None
        self.has_up = deep_ch is not None
        if self.has_assist:
            self.assist = DownLane(assist_ch, width, rng=rng, dtype=dtype)
        if self.has_p1_down:
            self.p1_down = DownLane(p1_prev_ch, width, rng=rng, dtype=dtype)
        if self.has_p2_down:
            self.p2_down = DownLane(p2_prev_ch, width, rng=rng, dtype=dtype)
        if self.has_up:
            self.up_proj = Conv2d(deep_ch, width, 1, bias=True, rng=rng, dtype=dtype)
        self.out_channels = width * (
            1
            + int(self.has_assist)
            + int(self.has_p1_down)
            + int(self.has_p2_down)
            + int(self.has_up)
        )

    def forward(
        self,
        same: Tensor,
        assist: Tensor | None = None,
        p1_prev: Tensor | None = None,
        p2_prev: Tensor | None = None,
        deep: Tensor | None = None,
    ) -> Tensor:
        hs, ws = same.shape[2], same.shape[3]
        if same.shape[1] != self.width:
            raise ShapeError(
                f"{self.level}: same lane has {same.shape[1]} channels, expected {self.width}"
            )
        lanes = []
        if self.has_assist:
            _check_spatial(self.level, "assist", assist.shape[2:], (2 * hs, 2 * ws))
            lanes.append(self.assist(assist))
        if self.has_p1_down:
            _check_spatial(self.level, "p1_prev", p1_prev.shape[2:], (2 * hs, 2 * ws))
            lanes.append(self.p1_down(p1_prev))
        if self.has_p2_down:
            _check_spatial(self.level, "p2_prev", p2_prev.shape[2:], (2 * hs, 2 * ws))
            lanes.append(self.p2_down(p2_prev))
        lanes.append(same)
        if self.has_up:
            _check_spatial(self.level, "deep", deep.shape[2:], (hs // 2, ws // 2))
            lanes.append(self.up_proj(ops.upsample_nearest2x(deep)))
        return ops.concat_channels(lanes)


class MAFPN(Module):
    """The full neck: backbone taps (P2,P3,P4,P5) -> outputs (N3,N4,N5).

    Construction, `forward_taps` and `wiring_edges` all walk `self.nodes`,
    which is NECK_NODES with the lanes that the config disables filtered out.
    """

    def __init__(
        self,
        tap_channels: list[int],
        cfg: NeckConfig,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        if len(tap_channels) != 4:
            raise ConfigError(f"MAFPN: need 4 tap widths (P2..P5), got {tap_channels}")
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        dropped = set()
        if not cfg.enable_saf:
            dropped.add("assist-down")
        if not cfg.enable_aaf:
            dropped.update(("cross-down", "up-project"))
        self.nodes = tuple(
            (node, None, None, level, tuple((s, "alias") for s, k in lanes if k == "same"))
            if node == AAF_ONLY_NODE and not cfg.enable_aaf
            else (node, fuse, block, level, tuple(ln for ln in lanes if ln[1] not in dropped))
            for node, fuse, block, level, lanes in NECK_NODES
        )

        # Modules are built in table order, which fixes the RNG draw order
        # and the weight-entry order.
        ch = dict(zip(BACKBONE_TAPS, tap_channels))
        for node, fuse, block, level, lanes in self.nodes:
            src = {kind: s for s, kind in lanes}
            width = cfg.widths[level]
            if "alias" in src:
                ch[node] = ch[src["alias"]]
                continue
            if "project" in src:
                m = ConvBN(ch[src["project"]], width, 1, rng=rng, dtype=dtype)
            elif "up" in src:
                shallow = src.get("assist-down")
                m = SAFFuse(ch.get(shallow), ch[src["same"]], ch[src["up"]], cfg.saf_ratio,
                            shallow is not None, node, rng=rng, dtype=dtype)
            else:
                lane_ch = {f"{_AAF_ARGS[k]}_ch": ch[s] for s, k in lanes if k != "same"}
                m = AAFFuse(width, level=node, rng=rng, dtype=dtype, **lane_ch)
            setattr(self, fuse, m)
            if block:
                kernel = cfg.kernels[level]
                setattr(self, block,
                        helan_block(m.out_channels, width, cfg.depth, kernel, cfg, rng, dtype))
            ch[node] = width

    def forward(self, taps: dict[str, Tensor]) -> dict[str, Tensor]:
        outs, _ = self.forward_taps(taps)
        return outs

    def forward_taps(self, taps: dict[str, Tensor]):
        vals = {tap: taps[tap] for tap in BACKBONE_TAPS}
        for node, fuse, block, _, lanes in self.nodes:
            x = {kind: vals[s] for s, kind in lanes}
            if "alias" in x:
                y = x["alias"]
            elif "project" in x:
                y = getattr(self, fuse)(x["project"])
            elif "up" in x:
                y = getattr(self, fuse)(x.get("assist-down"), x["same"], x["up"])
            else:
                same = x.pop("same")
                y = getattr(self, fuse)(same, **{_AAF_ARGS[k]: v for k, v in x.items()})
            vals[node] = getattr(self, block)(y) if block else y
        neck_taps = {node: vals[node] for node, *_ in self.nodes}
        return {out: vals[node] for node, out in NECK_OUTPUTS}, neck_taps

    # -- wiring introspection --------------------------------------------------
    def wiring_edges(self) -> list[str]:
        """Deterministic edge list, one `src -> dst [kind]` line per lane."""
        edges = [f"{s} -> {node} [{kind}]" for node, *_, lanes in self.nodes for s, kind in lanes]
        return edges + [f"{node} -> {out} [output]" for node, out in NECK_OUTPUTS]


def backbone_lineage(neck: MAFPN) -> dict[str, set[str]]:
    """Backbone levels (P2..P5) whose information can reach each neck node.

    Keys are the neck's nodes, then its outputs (N3..N5), in table order;
    the rows are in forward order, so every lane source is already known.
    """
    reach = {tap: {tap} for tap in BACKBONE_TAPS}
    for node, *_, lanes in neck.nodes:
        reach[node] = set().union(*(reach[s] for s, _ in lanes))
    lineage = {node: reach[node] for node, *_ in neck.nodes}
    lineage.update((out, set(reach[node])) for node, out in NECK_OUTPUTS)
    return lineage
