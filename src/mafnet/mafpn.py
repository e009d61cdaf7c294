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
from .blocks import RepHELAN, check_config
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, ConvBN, Module, runs_deploy
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
        check_config(self, "neck.", "widths")


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

# What a fusion-node lane kind means: (module attribute or None, input size
# relative to the node). A 2x lane runs through a DownLane, a 1/2x lane is
# upsampled first and then, if it has a module, projected by a biased 1x1 conv.
_LANES = {
    "assist-down": ("assist", 2),
    "cross-down": ("p1_down", 2),
    "chain-down": ("p2_down", 2),
    "up-project": ("up_proj", 0.5),
    "same": (None, 1),
    "up": (None, 0.5),
}

# The lowest second-pathway node has no shallower neck lane to chain from.
# Without AAF it adds nothing, so it becomes an alias of its same lane.
AAF_ONLY_NODE = "P''3"


class DownLane(Module):
    """3x3 stride-2 conv + BN, then a 1x1 width-control conv, then SiLU."""

    def __init__(self, in_channels, out_channels, rng=None, dtype=np.float32):
        super().__init__()
        self.down = Conv2d(in_channels, in_channels, 3, stride=2, rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(in_channels, dtype=dtype)
        self.proj = Conv2d(in_channels, out_channels, 1, bias=True, rng=rng, dtype=dtype)

    def forward(self, x):
        return ops.silu(self.proj(self.bn(self.down(x))), runs_deploy(self.proj))


class FusionNode(Module):
    """Concatenate lanes, each brought to the node's size by its kind's module.

    `lanes` lists (kind, in_channels, out_channels) in concat order; exactly
    one lane is `same`, and lanes without a module keep their width. The
    forward takes one tensor per lane, in the same order.
    """

    def __init__(self, lanes, level: str = "", rng=None, dtype=np.float32):
        super().__init__()
        self.level = level or type(self).__name__
        self.lanes = tuple(lanes)
        self.same = [kind for kind, *_ in self.lanes].index("same")
        for kind, cin, cout in self.lanes:
            attr, scale = _LANES[kind]
            if attr:
                setattr(self, attr, DownLane(cin, cout, rng=rng, dtype=dtype) if scale > 1
                        else Conv2d(cin, cout, 1, bias=True, rng=rng, dtype=dtype))
        self.out_channels = sum(cout for *_, cout in self.lanes)

    def forward(self, *xs: Tensor) -> Tensor:
        if len(xs) != len(self.lanes):
            raise ShapeError(f"{self.level}: got {len(xs)} lanes, expected {len(self.lanes)}")
        hs, ws = xs[self.same].shape[2:]
        outs = []
        for (kind, cin, _), x in zip(self.lanes, xs):
            attr, scale = _LANES[kind]
            want = (int(hs * scale), int(ws * scale))
            if x.shape[1] != cin:
                raise ShapeError(
                    f"{self.level}: {kind} lane has {x.shape[1]} channels, expected {cin}")
            if x.shape[2:] != want:
                raise ShapeError(
                    f"{self.level}: {kind} lane has spatial dims {x.shape[2:]}, expected {want}")
            if scale < 1:
                x = ops.upsample_nearest2x(x)
            outs.append(getattr(self, attr)(x) if attr else x)
        return ops.concat_channels(outs)


class SAFFuse(FusionNode):
    """Superficial assisted fusion: concat(assist-down, same, up), where MAFPN
    projects the assist lane to saf_ratio * same-level width. Without the
    assist lane the node degenerates to concat(same, up)."""


class AAFFuse(FusionNode):
    """Advanced assisted fusion: every lane but `same` is projected to the
    node width. The assist lane only exists at the lowest level, where no
    shallower neck lanes are available."""


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
            width = cfg.widths[level]
            if fuse is None:
                ch[node] = ch[lanes[0][0]]
                continue
            kinds = [kind for _, kind in lanes]
            if kinds == ["project"]:
                m = ConvBN(ch[lanes[0][0]], width, 1, rng=rng, dtype=dtype)
            else:
                # SAF projects only its assist lane, to a fraction of the same
                # lane; AAF projects every lane but `same` to the node width.
                saf = "up" in kinds
                assist = round(cfg.saf_ratio * ch[lanes[kinds.index("same")][0]])
                if saf and "assist-down" in kinds and assist < 1:
                    raise ConfigError(
                        f"model config: neck.saf_ratio {cfg.saf_ratio} leaves node {node} "
                        f"a 0-channel assist lane")
                spec = []
                for s, kind in lanes:
                    if saf:
                        spec.append((kind, ch[s], assist if kind == "assist-down" else ch[s]))
                    else:
                        spec.append((kind, ch[s], ch[s] if kind == "same" else width))
                m = (SAFFuse if saf else AAFFuse)(spec, node, rng=rng, dtype=dtype)
            setattr(self, fuse, m)
            if block:
                setattr(self, block, RepHELAN(
                    m.out_channels, width, cfg.depth, cfg.kernels[level], cfg, rng, dtype))
            ch[node] = width

    def forward_taps(self, taps: dict[str, Tensor]):
        vals = {tap: taps[tap] for tap in BACKBONE_TAPS}
        for node, fuse, block, _, lanes in self.nodes:
            x = [vals[s] for s, _ in lanes]
            y = getattr(self, fuse)(*x) if fuse else x[0]
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
