"""mafnet: multi-branch auxiliary fusion network toolkit.

A dependency-light library implementing reparameterized heterogeneous
depthwise convolutions, the RepHELAN aggregation block, the MAFPN fusion
neck (SAF/AAF nodes) and the heterogeneous kernel schedule, together with
the verification surface: train/inference fusion equivalence, gradient
checks against finite differences, parameter/MAC accounting and effective
receptive field measurement.
"""

from .analysis import (
    CostReport,
    CostRow,
    count_costs,
    erf_map,
    erf_radius,
    layer_inventory,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from .blocks import Bottleneck, RepHELAN
from .errors import (
    AutogradError,
    ConfigError,
    MafError,
    NumericalError,
    SerializationError,
    ShapeError,
)
from .gradcheck import check_gradients, max_rel_error, run_gradcheck
from .mafpn import AAFFuse, MAFPN, NeckConfig, SAFFuse, backbone_lineage
from .model import (
    Model,
    ModelConfig,
    build_model,
    calibrate_bn_stats,
    config_from_dict,
    config_to_dict,
    fuse_model,
    ghks_kernels,
    load_config,
    nano_config,
    rep_units,
    save_config,
    toy_config,
)
from .modules import BatchNorm2d, BatchNormParams, Conv2d, ConvBN, Module, Sequential
from .ops import (
    batchnorm_infer,
    batchnorm_train,
    concat_channels,
    conv2d,
    global_avg_pool,
    silu,
    softmax_cross_entropy,
    split_channels,
    sum_all,
    upsample_nearest2x,
)
from .repconv import (
    RepHDWConv,
    default_small_kernels,
    fold_bn,
    fuse_equivalence_deviation,
    pad_kernel_to,
    randomize_bn_stats,
    randomize_weights,
)
from .serialize import load_weights, read_entries, save_weights
from .tensor import Tensor, count_ops, no_grad, using
from .train import (
    BlobDataset,
    SGD,
    ToyClassifier,
    ToyTrainResult,
    evaluate_accuracy,
    make_blob_dataset,
    train_toy,
)

__version__ = "0.1.0"
