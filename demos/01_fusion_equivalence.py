"""Merge parallel heterogeneous depthwise branches into one kernel.

A unit trains as a large depthwise conv running alongside smaller ones
(7x7 + 5x5 + 3x3 here), each with its own batch norm. For inference the
batch norms fold into their kernels, the small kernels are zero-padded to
the large size, and everything sums into a single conv + bias. This script
builds one unit, fuses it, and measures how far the two paths diverge: the
fused unit runs its merged kernel, and inside `branch_path()` its branches.
"""

import numpy as np

from mafnet import (
    RepHDWConv,
    Tensor,
    count_ops,
    default_small_kernels,
    fuse_equivalence_deviation,
    no_grad,
    randomize_bn_stats,
    randomize_weights,
)
from mafnet.repconv import branch_path

rng = np.random.default_rng(0)

print("admissible small kernels below 9:", default_small_kernels(9))

unit = RepHDWConv(channels=16, kernel=7, rng=rng)
print("branch kernels:", unit.branch_kernels)

# give the batch norms non-trivial statistics so folding actually does work
randomize_weights(unit, rng)
randomize_bn_stats(unit, rng)
unit.eval()

w, b = unit.fuse()
print("fused kernel shape:", w.shape, " bias shape:", b.shape)

x = Tensor(rng.standard_normal((2, 16, 32, 32)).astype(np.float32))
with no_grad():
    with branch_path():
        y_train = unit(x)
    with count_ops() as counts:
        y_fused = unit(x)

dev = float(np.abs(y_train.data - y_fused.data).max())
print(f"max |branch-sum - fused| on random input: {dev:.3e}")
print("convolutions issued by the fused path:", counts["conv2d"])

# the same comparison in float64 shows the merge is exact up to rounding
unit64 = RepHDWConv(channels=16, kernel=7, rng=rng, dtype=np.float64)
randomize_weights(unit64, rng)
randomize_bn_stats(unit64, rng)
x64 = Tensor(rng.standard_normal((2, 16, 32, 32)))
dev64 = fuse_equivalence_deviation(unit64, x64)  # fuses the unit, then compares
print(f"same check in float64: {dev64:.3e}")
