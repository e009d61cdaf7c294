"""Cost accounting, layer inventory and effective-receptive-field maps.

Parameter and multiply-accumulate counts are taken from one instrumented
probe forward over an empty batch at the requested input size, so they
always describe the path that actually executes, at the sizes it runs at,
without computing any activation: a layer's MAC count is
params_without_bias * out_h * out_w of its real output.

Conventions, also printed in every report header: conv MACs are weight
multiplies only (bias adds excluded); inference batch norm counts one MAC
per element; activations, upsampling, concat and split count zero; FLOPs
are reported as 2 * MACs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, NumericalError, ShapeError
from .modules import BatchNorm2d, Conv2d, Module, runs_deploy
from .repconv import RepHDWConv
from .tensor import Tensor, using

FLOPS_CONVENTION = (
    "MACs: conv = weight multiplies (bias excluded); inference BN = C*H*W; "
    "activations/upsample/concat/split = 0. FLOPs = 2 * MACs."
)

@dataclass
class CostRow:
    name: str
    kind: str
    params: int
    macs: int
    out_shape: tuple
    non_learnable: int = 0


@dataclass
class CostReport:
    input_hw: tuple
    rows: list[CostRow] = field(default_factory=list)
    convention: str = FLOPS_CONVENTION

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_non_learnable(self) -> int:
        return sum(r.non_learnable for r in self.rows)

    @property
    def flops(self) -> int:
        return 2 * self.total_macs

    def to_dict(self) -> dict:
        return {
            "input_hw": list(self.input_hw),
            "convention": self.convention,
            "total_params": self.total_params,
            "total_macs": self.total_macs,
            "total_flops": self.flops,
            "non_learnable_params": self.total_non_learnable,
            "rows": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "params": r.params,
                    "macs": r.macs,
                    "out_shape": list(r.out_shape),
                }
                for r in self.rows
            ],
        }

    def format_table(self) -> str:
        lines = [f"# {self.convention}", f"# input: {self.input_hw[0]}x{self.input_hw[1]}"]
        name_w = max([len(r.name) for r in self.rows] + [5])
        kind_w = max([len(r.kind) for r in self.rows] + [4])
        lines.append(f"{'layer':<{name_w}}  {'kind':<{kind_w}}  {'params':>10}  {'MACs':>14}  out")
        for r in self.rows:
            shape = "x".join(str(d) for d in r.out_shape)
            lines.append(
                f"{r.name:<{name_w}}  {r.kind:<{kind_w}}  {r.params:>10}  {r.macs:>14}  {shape}"
            )
        lines.append(
            f"{'TOTAL':<{name_w}}  {'':<{kind_w}}  {self.total_params:>10}  {self.total_macs:>14}  "
            f"(+{self.total_non_learnable} non-learnable, {self.flops} FLOPs)"
        )
        return "\n".join(lines)


def _classify(m: Module):
    """(kind, params, weight params, inventory fields) of a layer; None otherwise.

    Kinds are conv, dwconv, bn and rephdw; a RepHDWConv's counts are those of
    its fused single-kernel form, which is the only form it is costed in.
    """
    if isinstance(m, Conv2d):
        fields = {"kernel": m.kernel, "in": m.in_channels, "out": m.out_channels,
                  "stride": m.stride}
        kind = "dwconv" if m.groups == m.in_channels == m.out_channels else "conv"
        weights = m.weight.data.size
        return kind, weights + (0 if m.bias is None else m.bias.data.size), weights, fields
    if isinstance(m, BatchNorm2d):
        return "bn", 2 * m.channels, m.channels, {"channels": m.channels}
    if isinstance(m, RepHDWConv):
        c, k = m.channels, m.kernel
        fields = {"kernel": k, "branch_kernels": list(m.branch_kernels), "channels": c,
                  "fused": m.deploy}
        return "rephdw", c * k * k + c, c * k * k, fields
    return None


def _probe_rows(module: Module, in_channels: int, h: int, w: int) -> list[CostRow]:
    """Run an eval-mode probe over an empty h x w batch; one row per costed layer."""
    names = {id(m): n for n, m in module.named_modules()}
    rows: list[CostRow] = []

    def observer(m, out):
        layer = _classify(m)
        if layer is None:
            return
        kind, params, weights, _ = layer
        if kind == "rephdw":
            # only a unit that runs fused is one conv; otherwise its branches are costed
            if not runs_deploy(m):
                return
            kind = "dwconv-fused"
        _, c, ho, wo = out.shape
        rows.append(
            CostRow(
                name=names[id(m)],
                kind=kind,
                params=params,
                macs=weights * ho * wo,
                out_shape=(1, c, ho, wo),
                non_learnable=params if kind == "bn" else 0,
            )
        )

    with module.mode(False), using(grad=False, observer=observer):
        x = Tensor(np.zeros((0, in_channels, h, w), dtype=np.float32))
        module.forward_taps(x)
    return rows


def _infer_in_channels(module: Module) -> int:
    if hasattr(module, "cfg") and hasattr(module.cfg, "in_channels"):
        return module.cfg.in_channels
    for m in module.modules():
        if isinstance(m, Conv2d):
            return m.in_channels
        if isinstance(m, RepHDWConv):
            return m.channels
    raise ConfigError("count_costs: cannot infer input channel count")


def count_costs(
    module: Module,
    input_hw: tuple[int, int] | int,
    in_channels: int | None = None,
) -> CostReport:
    """Count parameters and MACs along the active forward path.

    The probe runs once, over an empty batch at `input_hw`, so every row's
    MACs come from the size its layer actually outputs; rows report batch 1.
    """
    if isinstance(input_hw, int):
        input_hw = (input_hw, input_hw)
    h, w = input_hw
    if h < 1 or w < 1:
        raise ConfigError(f"count_costs: bad input size {input_hw}")
    in_channels = in_channels or _infer_in_channels(module)
    return CostReport(input_hw=(h, w), rows=_probe_rows(module, in_channels, h, w))


def layer_inventory(module: Module) -> list[dict]:
    """Static description of every conv/BN/rep unit in the module tree."""
    rows = []
    for name, m in module.named_modules():
        layer = _classify(m)
        if layer is not None:
            kind, _, _, fields = layer
            rows.append({"name": name, "kind": kind, **fields})
    return rows


# ---------------------------------------------------------------------------
# effective receptive field
# ---------------------------------------------------------------------------

def erf_map(module: Module, tap: str, x: Tensor | np.ndarray) -> np.ndarray:
    """Normalized input-gradient magnitude of the tap's spatial-center activation.

    The tap activation is summed over batch and channels at the center pixel,
    differentiated back to the input, and the absolute gradient is summed over
    input channels and normalized to total mass 1.
    """
    if isinstance(x, np.ndarray):
        x = Tensor(x)
    inp = Tensor(x.data.copy(), requires_grad=True)
    # Only the input gradient is wanted: with the parameters frozen for the
    # pass, no weight gradient is computed or left behind in `.grad`.
    params = [p for p in module.parameters() if p.requires_grad]
    with module.mode(False):
        try:
            for p in params:
                p.requires_grad = False
            _, taps = module.forward_taps(inp)
            if tap not in taps:
                raise ConfigError(f"unknown tap {tap!r}; available: {sorted(taps)}")
            t = taps[tap]
            mask = np.zeros(t.shape, dtype=t.dtype)
            mask[:, :, t.shape[2] // 2, t.shape[3] // 2] = 1.0
            loss = ops.sum_all(ops.mul(t, Tensor(mask)))
            loss.backward()
        finally:
            for p in params:
                p.requires_grad = True
    if inp.grad is None:
        raise NumericalError(f"erf_map: no gradient reached the input for tap {tap!r}")
    m = np.abs(inp.grad.astype(np.float64)).sum(axis=(0, 1))
    total = m.sum()
    if total <= 0:
        raise NumericalError(f"erf_map: gradient mass is zero for tap {tap!r}")
    return m / total


def erf_radius(heat: np.ndarray, mass: float = 0.95) -> int:
    """Smallest Chebyshev radius around the center holding >= `mass` of the map."""
    if heat.ndim != 2:
        raise ShapeError(f"erf_radius: map must be 2-D, got shape {heat.shape}")
    if not 0.0 < mass <= 1.0:
        raise ConfigError(f"erf_radius: mass must be in (0,1], got {mass}")
    h, w = heat.shape
    ci, cj = h // 2, w // 2
    total = heat.sum()
    for r in range(max(h, w)):
        lo_i, hi_i = max(ci - r, 0), min(ci + r + 1, h)
        lo_j, hi_j = max(cj - r, 0), min(cj + r + 1, w)
        if heat[lo_i:hi_i, lo_j:hi_j].sum() >= mass * total - 1e-12:
            return r
    return max(h, w)


def write_heatmap_csv(heat: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in heat:
            f.write(",".join(f"{v:.8e}" for v in row))
            f.write("\n")


def write_heatmap_pgm(heat: np.ndarray, path: str) -> None:
    """Plain-text (P2) grayscale rendering, scaled so the peak maps to 255."""
    peak = heat.max()
    scaled = np.zeros_like(heat) if peak <= 0 else heat / peak
    img = np.round(scaled * 255).astype(int)
    h, w = img.shape
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"P2\n{w} {h}\n255\n")
        for row in img:
            f.write(" ".join(str(v) for v in row))
            f.write("\n")
