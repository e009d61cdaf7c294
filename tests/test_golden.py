"""Golden digests of freshly built models.

A fixed seed must give the same weights, in the same walk order, under the
same names, whatever the code that builds the model looks like: weight files
(`.mafw`) are keyed by these names, and the RNG draw order decides every
initial value. Unlike the same-process determinism checks, these digests also
catch a build that reorders its modules or renames one.

The run goldens pin the bits of whole computations on real shapes: ten toy
SGD steps (every dense and depthwise conv shape of the toy step, forward and
backward) and nano's fused and branch outputs at 128. BLAS rounds a product
by its operands' layout and size, so a conv that is bitwise on the property
tests' few channels can still change these. A failing run golden names the
numpy and BLAS it ran under, so a toolchain change reads apart from a code
change.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mafnet import (
    ToyClassifier,
    build_model,
    calibrate_bn_stats,
    count_costs,
    fuse_model,
    nano_config,
    no_grad,
    toy_config,
)
from mafnet.cli import _ablate_rows, main
from mafnet.model import config_to_dict
from mafnet.repconv import branch_path
from mafnet.tensor import Tensor

# (config, enable_saf, enable_aaf) -> (sha256 over state_entries, params @ 640)
GOLDEN = {
    ("toy", True, True): ("3d7203df25b29fbf7dfa8dad72f2cdee1c7f4411a702e57e1d4b92ed642f2cb9", 89116),
    ("toy", True, False): ("40841bc855e9ddf1608da1e763f067cd51643df25155872316e6e5e791524174", 74108),
    ("toy", False, True): ("3c06c732b8711b113ff7f830904c58ddbc213843a590efc16e47d9a6a887ab5d", 84504),
    ("toy", False, False): ("e6ebc9e00adec6eb45ceb03cdd7ef22ed50f413da583010fa647e8525888d8d2", 70488),
    ("nano", True, True): ("2dbebfc89c7fd236a1c03348181a8f8c7041519e0a9f5c984aa24747afedabc9", 3932208),
    ("nano", True, False): ("2eb90b4cef944d000ef351be04bf6c76c5ea85f15377cf7ba763abeaa54283b9", 3095024),
    ("nano", False, True): ("bcbf63e712e984d116567219fb107ea4300e3e91e82b8b094b5720016bc0b8e9", 3843696),
    ("nano", False, False): ("0fc4814dfe57f62e1e924ab7b58cb7007d22eb8d8db51dfa15eba34001a94aee", 3028176),
}

CONFIGS = {"toy": toy_config, "nano": nano_config}

# ToyClassifier(toy_config(seed=3)): the Backbone + MAFPN trunk, then the head
TOY_CLASSIFIER_GOLDEN = "f02224b9e29c12ed351f3d48eef7cd7f095b40b8d36cc7c267a0443cd3cc03b7"

# Ablation rows in order: (label, toggles switched off). Every row is the nano
# config with these toggles off; use_elan/use_rep/use_large are set on both
# the model and its neck, enable_saf/enable_aaf on the neck.
ABLATE_GOLDEN = {
    "table2": [
        ("plain", ("use_elan", "use_large", "use_rep")),
        ("elan", ("use_large", "use_rep")),
        ("elan+rep", ("use_large",)),
        ("elan+lk", ("use_rep",)),
        ("lk+rep", ("use_elan",)),
        ("elan+lk+rep", ()),
    ],
    "table3": [
        ("none", ("enable_saf", "enable_aaf")),
        ("saf", ("enable_aaf",)),
        ("aaf", ("enable_saf",)),
        ("saf+aaf", ()),
    ],
    "table5": [
        ("baseline", ("enable_saf", "enable_aaf", "use_elan", "use_rep", "use_large")),
        ("+neck", ("use_elan", "use_rep", "use_large")),
        ("+blocks", ("use_large",)),
        ("+kernels", ()),
    ],
}


# `maf toy-train --steps 10 --seed 3 --format json` at its default sizes (64
# samples at 64x64, batch 16): the JSON payload and the sha256 of the
# `--save-weights` file
TOY_TRAIN_GOLDEN = (
    {"accuracy": 0.65625, "final_loss": 0.7054777145385742, "steps": 10},
    "ea4f7d5589768d6ce1790020239f01ae825a38bfdb49bc67d68eb401dc0cb234",
)

# nano_config(seed=5), BN statistics from one calibration batch of 8 images
# at 128, one 1x3x128x128 input: sha256 over the outputs in key order
NANO128_GOLDEN = {
    "fused": "ee4f7c1f8693deb4d44c5e85f75e9efa52d39a8168aafa49a7f5178ecf0d0712",
    "branch": "351dd3ac9ec7b65872e7408c7bb49a2951dd218e6a47de496343270305f8804f",
}


def toolchain() -> str:
    """The numpy and BLAS the run goldens were checked under, for their failure
    messages; the goldens above were captured under numpy 2.4.6 and
    scipy-openblas 0.3.31.188.0."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def state_digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in model.state_entries():
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"{k[0]}-saf{int(k[1])}-aaf{int(k[2])}")
def test_build_matches_golden_digest(key):
    name, saf, aaf = key
    cfg = CONFIGS[name](seed=3)
    cfg.neck = dataclasses.replace(cfg.neck, enable_saf=saf, enable_aaf=aaf)
    model = build_model(cfg)
    digest, params = GOLDEN[key]
    assert state_digest(model) == digest
    assert count_costs(model, 640).total_params == params


def test_toy_classifier_matches_golden_digest():
    assert state_digest(ToyClassifier(toy_config(seed=3))) == TOY_CLASSIFIER_GOLDEN


@pytest.mark.parametrize("preset", list(ABLATE_GOLDEN))
@pytest.mark.parametrize("seed", [0, 5])
def test_ablate_rows_match_golden_configs(preset, seed):
    rows = _ablate_rows(preset, seed)
    assert [label for label, _ in rows] == [label for label, _ in ABLATE_GOLDEN[preset]]
    for (label, cfg), (_, off) in zip(rows, ABLATE_GOLDEN[preset]):
        want = config_to_dict(nano_config(seed=seed))
        for toggle in off:
            if toggle.startswith("use_"):
                want[toggle] = False
            want["neck"][toggle] = False
        assert config_to_dict(cfg) == want, label


def test_toy_train_run_matches_golden_bytes(capsys, tmp_path):
    weights = tmp_path / "toy.mafw"
    argv = ["toy-train", "--steps", "10", "--seed", "3", "--format", "json"]
    assert main([*argv, "--save-weights", str(weights)]) == 0
    payload, digest = TOY_TRAIN_GOLDEN
    assert json.loads(capsys.readouterr().out) == payload, toolchain()
    assert hashlib.sha256(weights.read_bytes()).hexdigest() == digest, toolchain()


def test_nano_fused_and_branch_outputs_match_golden_digests():
    rng = np.random.default_rng([5, 640])
    model = build_model(nano_config(seed=5))
    calibrate_bn_stats(model, rng, (8, 3, 128, 128), batches=1)
    model.eval()
    fuse_model(model)
    x = Tensor(rng.standard_normal((1, 3, 128, 128)).astype(np.float32))

    def digest():
        with no_grad():
            outs, _ = model.forward_taps(x)
        h = hashlib.sha256()
        for k in sorted(outs):
            h.update(outs[k].data.tobytes())
        return h.hexdigest()

    fused = digest()
    with branch_path():
        branch = digest()
    assert {"fused": fused, "branch": branch} == NANO128_GOLDEN, toolchain()
