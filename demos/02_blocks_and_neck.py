"""Aggregation blocks and the two-pathway fusion neck.

Shows how the block toggles change structure (aggregation lanes, large
kernels, reparameterized branches), then prints the neck's wiring graph
and traces which backbone levels can influence each output.
"""

import numpy as np

from mafnet import (
    MAFPN,
    NeckConfig,
    Tensor,
    backbone_lineage,
    layer_inventory,
    no_grad,
)
from mafnet.blocks import RepHELAN

rng = np.random.default_rng(0)

print("== block structure under the three toggles ==")
for label, kw in [
    ("plain 5x5", dict(use_rep=False, use_large=False)),
    ("large kernel", dict(use_rep=False, use_large=True)),
    ("rep branches", dict(use_rep=True, use_large=True)),
]:
    # a block takes its toggles from a neck (or model) config
    block = RepHELAN(16, 16, 1, 9, NeckConfig(**kw), rng=np.random.default_rng(0))
    kinds = [
        (r["kind"], r.get("kernel") or r.get("branch_kernels"))
        for r in layer_inventory(block)
        if r["kind"] in ("dwconv", "rephdw")
    ]
    print(f"  {label:13s} -> spatial convs: {kinds}")

print("\n== neck wiring (full configuration) ==")
cfg = NeckConfig(widths=[16, 24, 32], depth=1)
neck = MAFPN([8, 16, 24, 32], cfg, rng=rng)
for edge in neck.wiring_edges():
    print("  " + edge)

print("\n== backbone lineage of each output ==")
lineage = backbone_lineage(neck)
for out in ("N3", "N4", "N5"):
    print(f"  {out} sees {sorted(lineage[out])}")

print("\n== forward shapes ==")
neck.eval()
taps = {
    f"P{i + 2}": Tensor(rng.standard_normal((1, c, 64 // 2**i, 64 // 2**i)).astype(np.float32))
    for i, c in enumerate([8, 16, 24, 32])
}
with no_grad():
    outs, _ = neck.forward_taps(taps)
for k, v in outs.items():
    print(f"  {k}: {v.shape}")
