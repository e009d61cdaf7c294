"""Full-network assembly: backbone stub, fusion neck, head stub.

The backbone is a stem plus four stages (taps P2..P5 at strides 4/8/16/32),
each a stride-2 transition conv followed by a RepHELAN block whose depthwise
kernel follows the shared schedule (3/5/7/9 by stage; 5/7/9 by neck level).
The head is a per-level stub: projection, two reparameterized depthwise
units, and a 1x1 output conv. Configs round-trip through strict JSON.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .blocks import RepHELAN, check_config
from .errors import ConfigError, ShapeError
from .mafpn import MAFPN, NeckConfig
from .modules import BatchNorm2d, Conv2d, ConvBN, Module, ModuleList, runs_deploy
from .repconv import RepHDWConv, fuse_model  # fuse_model: also model.fuse_model
from .tensor import Tensor, no_grad


@dataclass
class ModelConfig:
    stem_width: int = 16
    stage_widths: list[int] = field(default_factory=lambda: [32, 64, 128, 256])
    stage_depths: list[int] = field(default_factory=lambda: [2, 4, 4, 2])
    backbone_kernels: list[int] = field(default_factory=lambda: [3, 5, 7, 9])
    expansion: float = 2.0
    use_elan: bool = True
    use_rep: bool = True
    use_large: bool = True
    neck: NeckConfig = field(default_factory=NeckConfig)
    head_width: int = 64
    head_out_channels: int = 64
    in_channels: int = 3
    seed: int = 0

    def __post_init__(self):
        check_config(self, "", "stage_widths")


def config_to_dict(cfg: ModelConfig) -> dict:
    d = dataclasses.asdict(cfg)
    return d


# JSON value check per config field annotation; a boolean is not an integer
_JSON_TYPES = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "bool": lambda v: type(v) is bool,
    "list[int]": lambda v: type(v) is list and all(type(i) is int for i in v),
    "NeckConfig": lambda v: type(v) is dict,
}


def _check_fields(cls, d, where: str) -> None:
    """Reject unknown keys and values whose JSON type does not match the field."""
    if not isinstance(d, dict):
        raise ConfigError(f"model config: {where} value must be an object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"model config: unknown {where} keys {sorted(unknown)}")
    for name, value in d.items():
        if not _JSON_TYPES[types[name]](value):
            raise ConfigError(
                f"model config: {where} field {name!r} must be {types[name]}, got {value!r}"
            )


def config_from_dict(d: dict) -> ModelConfig:
    _check_fields(ModelConfig, d, "top-level")
    d = dict(d)
    if "neck" in d:
        _check_fields(NeckConfig, d["neck"], "neck")
        d["neck"] = NeckConfig(**d["neck"])
    return ModelConfig(**d)


def save_config(cfg: ModelConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def load_config(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"model config: invalid JSON at {path}: {e}") from e
    return config_from_dict(d)


class Stage(Module):
    """Stride-2 transition conv followed by a RepHELAN block."""

    def __init__(self, in_ch, width, depth, kernel, cfg: ModelConfig, rng, dtype):
        super().__init__()
        self.down = ConvBN(in_ch, width, 3, stride=2, rng=rng, dtype=dtype)
        self.block = RepHELAN(width, width, depth, kernel, cfg, rng, dtype)

    def forward(self, x):
        return self.block(self.down(x))


class Backbone(Module):
    def __init__(self, cfg: ModelConfig, rng, dtype):
        super().__init__()
        self.in_channels = cfg.in_channels
        self.stem = ConvBN(cfg.in_channels, cfg.stem_width, 3, stride=2, rng=rng, dtype=dtype)
        stages = []
        prev = cfg.stem_width
        for width, depth, kernel in zip(
            cfg.stage_widths, cfg.stage_depths, cfg.backbone_kernels
        ):
            stages.append(Stage(prev, width, depth, kernel, cfg, rng, dtype))
            prev = width
        self.stages = ModuleList(stages)

    def forward(self, x):
        # checked before any op runs, for every trunk that starts here
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"Model: input must be (B,{self.in_channels},H,W), got {x.shape}")
        h, w = x.shape[2], x.shape[3]
        if h % 32 or w % 32:
            raise ShapeError(f"Model: input spatial dims {h}x{w} must be divisible by 32")
        taps = {}
        y = self.stem(x)
        taps["stem"] = y
        for i, stage in enumerate(self.stages):
            y = stage(y)
            taps[f"P{i + 2}"] = y
        return taps


class HeadBranch(Module):
    """Per-level stub: 1x1 projection, two RepHDW units, 1x1 output conv."""

    def __init__(self, in_ch, width, out_ch, use_rep, rng, dtype):
        super().__init__()
        self.proj = ConvBN(in_ch, width, 1, rng=rng, dtype=dtype)
        self.dw1 = RepHDWConv(width, 7, use_rep, rng=rng, dtype=dtype)
        self.dw2 = RepHDWConv(width, 7, use_rep, rng=rng, dtype=dtype)
        # prediction conv: small init keeps raw output maps near zero
        self.out = Conv2d(width, out_ch, 1, bias=True, rng=rng, dtype=dtype, init_std=0.01)

    def forward(self, x):
        y = self.proj(x)
        y = ops.silu(self.dw1(y), runs_deploy(self.dw1))
        y = ops.silu(self.dw2(y), runs_deploy(self.dw2))
        return self.out(y)


class Trunk(Module):
    """Backbone + fusion neck, the shared front of Model and ToyClassifier.

    Subclasses draw their head from the same generator after the trunk, so
    the RNG draw and weight-entry order is backbone, neck, head.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype):
        super().__init__()
        self.cfg = cfg
        self.backbone = Backbone(cfg, rng, dtype)
        self.neck = MAFPN(cfg.stage_widths, cfg.neck, rng=rng, dtype=dtype)

    def trunk_taps(self, x: Tensor):
        """(neck outputs N3..N5, every tap up to and including them)."""
        taps = self.backbone(x)
        neck_outs, neck_taps = self.neck.forward_taps(taps)
        taps.update(neck_taps)
        taps.update(neck_outs)
        return neck_outs, taps


class Model(Trunk):
    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        rng = np.random.default_rng(cfg.seed)
        super().__init__(cfg, rng, dtype)
        self.heads = ModuleList(
            HeadBranch(w, cfg.head_width, cfg.head_out_channels, cfg.use_rep, rng, dtype)
            for w in cfg.neck.widths
        )

    def forward(self, x: Tensor) -> dict[str, Tensor]:
        outs, _ = self.forward_taps(x)
        return outs

    def forward_taps(self, x: Tensor):
        neck_outs, taps = self.trunk_taps(x)
        outs = {}
        for i, head in enumerate(self.heads):
            level = i + 3
            outs[f"out{level}"] = head(neck_outs[f"N{level}"])
        taps.update(outs)
        return outs, taps


def build_model(cfg: ModelConfig, dtype=np.float32) -> Model:
    """Deterministically build a model; identical cfg.seed gives identical weights."""
    return Model(cfg, dtype=dtype)


def calibrate_bn_stats(
    module: Module,
    rng: np.random.Generator,
    input_shape: tuple = (1, 3, 320, 320),
    batches: int = 4,
) -> None:
    """Estimate batch-norm running statistics from train-mode noise passes.

    A freshly initialized network carries (0,1) running statistics that bear
    no relation to its actual activation distribution, so inference-mode
    activations grow without bound through depth; folding is defined for
    finalized statistics. The momentum schedule 1, 1/2, ..., 1/n leaves each
    running buffer holding the plain average of the batch statistics.

    Statistics are resolution sensitive (border padding dominates small deep
    maps), so calibrate at the resolution you intend to evaluate at.
    """
    bns = [m for m in module.modules() if isinstance(m, BatchNorm2d)]
    saved_momentum = [bn.momentum for bn in bns]
    dtype = next(module.parameters()).dtype
    try:
        with module.mode(True), no_grad():
            for i in range(batches):
                for bn in bns:
                    bn.momentum = 1.0 / (i + 1)
                x = Tensor(rng.standard_normal(input_shape).astype(dtype))
                module(x)
    finally:
        for bn, m in zip(bns, saved_momentum):
            bn.momentum = m


def rep_units(model: Module) -> list[tuple[str, RepHDWConv]]:
    return [(name, m) for name, m in model.named_modules() if isinstance(m, RepHDWConv)]


def ghks_kernels(model: Model) -> dict[str, list[int]]:
    """Depthwise kernel schedule actually present in the built model."""
    backbone = [stage.block.bottlenecks[0].dw.kernel for stage in model.backbone.stages]
    neck = sorted(
        {getattr(model.neck, block).bottlenecks[0].dw.kernel
         for _, _, block, _, _ in model.neck.nodes if block}
    )
    return {"backbone": backbone, "neck": neck}


def nano_config(seed: int = 0) -> ModelConfig:
    """Default full-scale configuration (the calibration target)."""
    return ModelConfig(seed=seed)


def toy_config(seed: int = 0) -> ModelConfig:
    """Reduced-width configuration for gradient-flow and training tests."""
    return ModelConfig(
        stem_width=8,
        stage_widths=[8, 16, 24, 32],
        stage_depths=[1, 1, 1, 1],
        neck=NeckConfig(widths=[16, 24, 32], depth=1),
        head_width=16,
        head_out_channels=8,
        seed=seed,
    )
