"""Two-layer ReLU classifier with full-batch gradient descent, all float64.

Checkpoints use the fixed tensor names layer0.weight [h,d], layer0.bias
[h], layer1.weight [c,h], layer1.bias [c] so they flow through the same
archive, merge, and diff machinery as any other checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor_store import Checkpoint, Tensor
from .data import Dataset, ModelSpec
from .rng import SplitMix64

INIT_STD = 0.1

TENSOR_NAMES = ("layer0.bias", "layer0.weight", "layer1.bias", "layer1.weight")


@dataclass
class TrainConfig:
    learning_rate: float = 0.03
    epochs: int = 80
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"invalid learning rate {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"invalid epoch count {self.epochs}")


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


def init_model(spec: ModelSpec, seed: int) -> Checkpoint:
    """Gaussian(0, 0.1) weights drawn in lexicographic tensor-name order,
    row-major; biases exactly zero."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.class_count
    rng = SplitMix64(seed)
    tensors = {
        "layer0.bias": Tensor("F64", np.zeros(h)),
        "layer0.weight": Tensor(
            "F64", INIT_STD * np.array(rng.gaussians(h * d)).reshape(h, d)),
        "layer1.bias": Tensor("F64", np.zeros(c)),
        "layer1.weight": Tensor(
            "F64", INIT_STD * np.array(rng.gaussians(c * h)).reshape(c, h)),
    }
    return Checkpoint(tensors)


def forward(model: Checkpoint, X: np.ndarray) -> np.ndarray:
    """logits = W1 @ relu(W0 @ x + b0) + b1, row per sample."""
    w0 = model.values("layer0.weight")
    b0 = model.values("layer0.bias")
    w1 = model.values("layer1.weight")
    b1 = model.values("layer1.bias")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != w0.shape[1]:
        raise ValueError(f"input shape {X.shape} incompatible with weight {w0.shape}")
    hidden = np.maximum(X @ w0.T + b0, 0.0)
    return hidden @ w1.T + b1


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(model: Checkpoint, X: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy and analytic gradients per tensor."""
    w0 = model.values("layer0.weight")
    b0 = model.values("layer0.bias")
    w1 = model.values("layer1.weight")
    n = len(y)
    z = X @ w0.T + b0
    hidden = np.maximum(z, 0.0)
    logits = hidden @ w1.T + model.values("layer1.bias")
    probs = softmax(logits)
    with np.errstate(divide="ignore"):
        # a zero probability yields inf loss, reported as divergence upstream
        loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    d_hidden = g @ w1
    d_z = np.where(z > 0.0, d_hidden, 0.0)
    grads = {
        "layer0.bias": d_z.sum(axis=0),
        "layer0.weight": d_z.T @ X,
        "layer1.bias": g.sum(axis=0),
        "layer1.weight": g.T @ hidden,
    }
    return loss, grads


def train(model: Checkpoint, data: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Full-batch gradient descent; returns a new checkpoint, input untouched."""
    if data.split != "train":
        raise ValueError(f"training requires a train split, got {data.split!r}")
    params = {name: model.values(name).copy() for name in sorted(model.names())}
    current = Checkpoint({n: Tensor("F64", v) for n, v in params.items()})
    X = np.asarray(data.X, dtype=np.float64)
    for epoch in range(cfg.epochs):
        loss, grads = loss_and_grads(current, X, data.y)
        if not np.isfinite(loss):
            raise DivergenceError(epoch)
        params = {name: params[name] - cfg.learning_rate * grads[name]
                  for name in sorted(params)}
        current = Checkpoint({n: Tensor("F64", v) for n, v in params.items()})
    return current


def predict(model: Checkpoint, X: np.ndarray) -> np.ndarray:
    return np.argmax(forward(model, X), axis=1)


def macro_f1(preds, truth, c: int) -> float:
    """Unweighted mean of per-class F1; a class with P+R = 0 scores 0."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {truth.shape}")
    if len(preds) and (preds.min() < 0 or preds.max() >= c or truth.min() < 0 or truth.max() >= c):
        raise ValueError(f"labels out of range [0, {c})")
    total = 0.0
    for k in range(c):
        tp = int(np.count_nonzero((preds == k) & (truth == k)))
        fp = int(np.count_nonzero((preds == k) & (truth != k)))
        fn = int(np.count_nonzero((preds != k) & (truth == k)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / c
