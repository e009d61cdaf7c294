"""Synthetic two-scale blob dataset and a small SGD trainer.

The dataset is the end-to-end gradient exercise for the whole stack: class 0
images contain several small blobs, class 1 one large blob, so the scale of
the dominant structure is the label. A reduced-width trunk with a pooled
classifier head must overfit it quickly if gradients flow through every
fusion lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, NumericalError
from .model import ModelConfig, Trunk
from .modules import Conv2d, Module
from .tensor import Tensor, no_grad


BLOB_MARGIN = 6  # small-blob centres keep this far from every edge


@dataclass
class BlobDataset:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64

    def __len__(self):
        return self.images.shape[0]


def make_blob_dataset(n: int = 64, size: int = 64, seed: int = 0) -> BlobDataset:
    """Deterministic 3-channel blob images: class 0 = small blobs, class 1 =
    one large blob."""
    if n < 1:
        raise ConfigError(f"make_blob_dataset: n must be >= 1, got {n}")
    if size < 2 * BLOB_MARGIN:
        raise ConfigError(f"make_blob_dataset: size must be >= {2 * BLOB_MARGIN}, got {size}")
    rng = np.random.default_rng(seed)
    images = np.zeros((n, 3, size, size), dtype=np.float32)
    labels = np.zeros(n, dtype=np.int64)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for i in range(n):
        label = i % 2
        canvas = np.zeros((size, size))
        if label == 0:
            for _ in range(rng.integers(3, 6)):
                cy, cx = rng.uniform(BLOB_MARGIN, size - BLOB_MARGIN, 2)
                sigma = rng.uniform(1.0, 1.8)
                canvas += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        else:
            cy, cx = rng.uniform(size * 0.3, size * 0.7, 2)
            sigma = rng.uniform(size * 0.12, size * 0.2)
            canvas += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        canvas += rng.normal(0, 0.02, canvas.shape)
        for c in range(3):
            images[i, c] = ((0.8 + 0.2 * rng.random()) * canvas).astype(np.float32)
        labels[i] = label
    return BlobDataset(images=images, labels=labels)


class ToyClassifier(Trunk):
    """Backbone + fusion neck + pooled linear classifier over all three outputs."""

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        rng = np.random.default_rng(cfg.seed)
        super().__init__(cfg, rng, dtype)
        # one logit per blob class
        self.classifier = Conv2d(sum(cfg.neck.widths), 2, 1, bias=True, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        outs, _ = self.trunk_taps(x)
        pooled = ops.concat_channels(
            [ops.global_avg_pool(outs[k]) for k in ("N3", "N4", "N5")]
        )
        return self.classifier(pooled)


class SGD:
    """Plain stochastic gradient descent, fixed learning rate."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class ToyTrainResult:
    losses: list[float] = field(default_factory=list)
    final_loss: float = 0.0
    accuracy: float = 0.0
    steps: int = 0

    def moving_average(self, window: int = 20) -> list[float]:
        if len(self.losses) < window:
            return [float(np.mean(self.losses))] if self.losses else []
        k = np.ones(window) / window
        return list(np.convolve(self.losses, k, mode="valid"))


def evaluate_accuracy(model: Module, ds: BlobDataset, batch_size: int = 16) -> float:
    correct = 0
    with model.mode(False), no_grad():
        for lo in range(0, len(ds), batch_size):
            xb = Tensor(ds.images[lo : lo + batch_size])
            logits = model(xb)
            pred = logits.data.reshape(logits.shape[0], -1).argmax(axis=1)
            correct += int((pred == ds.labels[lo : lo + batch_size]).sum())
    return correct / len(ds)


def train_toy(
    model: Module,
    ds: BlobDataset,
    steps: int = 500,
    lr: float = 0.05,
    batch_size: int = 16,
    log_fn=None,
) -> ToyTrainResult:
    """Run plain SGD; returns the loss curve and final training-set accuracy.

    Raises NumericalError naming the step if the loss diverges to NaN/Inf,
    or the last step if the final accuracy pass meets a non-finite value.
    """
    if steps < 1:
        raise ConfigError(f"train_toy: steps must be >= 1, got {steps}")
    if batch_size < 1:
        raise ConfigError(f"train_toy: batch_size must be >= 1, got {batch_size}")
    n = len(ds)
    if n < 1:
        raise ConfigError("train_toy: empty dataset")
    opt = SGD(model.parameters(), lr)
    model.train()
    result = ToyTrainResult()
    for step in range(steps):
        idx = [(step * batch_size + j) % n for j in range(batch_size)]
        xb = Tensor(ds.images[idx])
        yb = ds.labels[idx]
        try:
            logits = model(xb)
            loss = ops.softmax_cross_entropy(logits, yb)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericalError("loss is not finite")
            opt.zero_grad()
            loss.backward()
            opt.step()
        except NumericalError as e:
            raise NumericalError(f"train_toy: diverged at step {step}: {e}") from None
        result.losses.append(loss_val)
        if log_fn is not None:
            log_fn(step, loss_val)
    result.steps = steps
    result.final_loss = result.losses[-1]
    try:
        result.accuracy = evaluate_accuracy(model, ds)
    except NumericalError as e:
        raise NumericalError(
            f"train_toy: diverged in the final accuracy evaluation after step {steps - 1}: {e}"
        ) from None
    return result


def write_curve_csv(result: ToyTrainResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,loss\n")
        for i, v in enumerate(result.losses):
            f.write(f"{i},{v:.8e}\n")
