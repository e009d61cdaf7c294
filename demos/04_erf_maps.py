"""Effective receptive field of large-kernel vs small-kernel stacks.

Builds two depth-4 fused depthwise stacks (9x9 vs 3x3), measures the
gradient of the center output activation with respect to the input, and
compares the radius containing 95% of the gradient mass. The gradient is
recorded on the tape, so each fused unit runs its branch form: the merged
kernel serves inference only, and the two forms agree to rounding. Writes
the maps as CSV and PGM next to this script.
"""

from pathlib import Path

import numpy as np

from mafnet import (
    RepHDWConv,
    Sequential,
    Tensor,
    erf_map,
    erf_radius,
    randomize_bn_stats,
    write_heatmap_csv,
    write_heatmap_pgm,
)

out_dir = Path(__file__).parent


def fused_stack(kernel, depth=4, channels=8):
    rng = np.random.default_rng(8)
    units = []
    for _ in range(depth):
        u = RepHDWConv(channels, kernel, rng=rng)
        randomize_bn_stats(u, rng)
        u.eval()
        u.fuse()
        units.append(u)
    return Sequential(*units)


x = Tensor(np.ones((1, 8, 64, 64), dtype=np.float32))
for kernel in (3, 9):
    stack = fused_stack(kernel)
    heat = erf_map(stack, "out", x)
    radius = erf_radius(heat, 0.95)
    print(f"depth-4 stack of {kernel}x{kernel}: 95%-mass radius = {radius}")
    write_heatmap_csv(heat, str(out_dir / f"erf_k{kernel}.csv"))
    write_heatmap_pgm(heat, str(out_dir / f"erf_k{kernel}.pgm"))
    print(f"  wrote erf_k{kernel}.csv / erf_k{kernel}.pgm")
