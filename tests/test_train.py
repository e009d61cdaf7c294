import numpy as np
import pytest

from mafnet import (
    BlobDataset,
    ConfigError,
    NumericalError,
    ShapeError,
    Tensor,
    ToyClassifier,
    count_ops,
    make_blob_dataset,
    toy_config,
    train_toy,
)


def test_dataset_is_deterministic():
    a = make_blob_dataset(n=8, size=32, seed=3)
    b = make_blob_dataset(n=8, size=32, seed=3)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.labels.tolist() == b.labels.tolist()
    assert a.images.shape == (8, 3, 32, 32)
    assert set(a.labels.tolist()) == {0, 1}


@pytest.mark.parametrize("size", [-1, 0, 8, 11])
def test_dataset_rejects_size_below_blob_margins(size):
    with pytest.raises(ConfigError, match="size must be >= 12"):
        make_blob_dataset(n=2, size=size)


def test_dataset_accepts_minimum_size():
    assert make_blob_dataset(n=2, size=12).images.shape == (2, 3, 12, 12)


@pytest.mark.parametrize("hw", [(33, 33), (32, 48), (16, 16)])
def test_toy_classifier_rejects_indivisible_input_before_any_op(hw):
    model = ToyClassifier(toy_config(seed=0))
    x = Tensor(np.zeros((1, 3) + hw, dtype=np.float32))
    with count_ops() as counts:
        with pytest.raises(ShapeError, match=f"{hw[0]}x{hw[1]} must be divisible by 32"):
            model(x)
    assert counts == {}


def test_zero_lr_keeps_loss_constant():
    ds = make_blob_dataset(n=8, size=32, seed=0)
    model = ToyClassifier(toy_config(seed=0))
    result = train_toy(model, ds, steps=5, lr=0.0, batch_size=8)
    assert max(result.losses) - min(result.losses) < 1e-6


def test_single_sample_overfits():
    full = make_blob_dataset(n=2, size=32, seed=1)
    ds = BlobDataset(images=full.images[:1], labels=full.labels[:1])
    model = ToyClassifier(toy_config(seed=1))
    result = train_toy(model, ds, steps=200, lr=0.1, batch_size=1)
    assert result.final_loss < 0.01
    assert result.accuracy == 1.0


def test_divergence_reports_step():
    ds = make_blob_dataset(n=8, size=32, seed=2)
    model = ToyClassifier(toy_config(seed=2))
    bad = next(iter(model.parameters()))
    bad.data = np.full_like(bad.data, np.nan)
    with pytest.raises(NumericalError, match="step 0"):
        train_toy(model, ds, steps=3, lr=0.01, batch_size=4)


def test_moving_average_helper():
    from mafnet import ToyTrainResult

    r = ToyTrainResult(losses=[float(v) for v in np.linspace(10, 1, 40)])
    ma = r.moving_average(20)
    assert len(ma) == 21
    assert all(ma[i + 1] <= ma[i] for i in range(len(ma) - 1))
