"""Two-layer ReLU classifier with full-batch gradient descent, all float64.

Checkpoints use the fixed tensor names layer0.weight [h,d], layer0.bias
[h], layer1.weight [c,h], layer1.bias [c] so they flow through the same
archive, merge, and diff machinery as any other checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Workspace(NamedTuple):
    """The n x h buffers of one training step, reused across epochs."""

    z: np.ndarray
    hidden: np.ndarray
    d_z: np.ndarray
    inactive: np.ndarray  # bool: not z > 0 (NaN included)
    rows: np.ndarray  # arange(n)


def _workspace(n: int, h: int) -> _Workspace:
    return _Workspace(np.empty((n, h)), np.empty((n, h)), np.empty((n, h)),
                      np.empty((n, h), dtype=bool), np.arange(n))


def loss_and_grads(model: Checkpoint, X: np.ndarray, y: np.ndarray,
                   work: _Workspace | None = None):
    """Mean softmax cross-entropy and analytic gradients per tensor.

    `work` holds the n x h intermediates; without one, fresh buffers are
    allocated. The returned gradients never alias it.
    """
    w0 = model.values("layer0.weight")
    b0 = model.values("layer0.bias")
    w1 = model.values("layer1.weight")
    n = len(y)
    if work is None:
        work = _workspace(n, w0.shape[0])
    z, hidden, d_z, inactive, rows = work
    np.matmul(X, w0.T, out=z)
    z += b0
    np.maximum(z, 0.0, out=hidden)
    logits = hidden @ w1.T + model.values("layer1.bias")
    probs = softmax(logits)
    with np.errstate(divide="ignore"):
        # a zero probability yields inf loss, reported as divergence upstream
        loss = float(-np.mean(np.log(probs[rows, y])))
    g = probs.copy()
    g[rows, y] -= 1.0
    g /= n
    np.matmul(g, w1, out=d_z)
    np.greater(z, 0.0, out=inactive)
    np.logical_not(inactive, out=inactive)
    np.copyto(d_z, 0.0, where=inactive)
    grads = {
        "layer0.bias": d_z.sum(axis=0),
        "layer0.weight": d_z.T @ X,
        "layer1.bias": g.sum(axis=0),
        "layer1.weight": g.T @ hidden,
    }
    return loss, grads


def train(model: Checkpoint, data: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Full-batch gradient descent; returns a new checkpoint, input untouched.

    The step's n x h buffers are allocated once per call, never shared
    between calls, so concurrent calls from several threads are safe.
    """
    if data.split != "train":
        raise ValueError(f"training requires a train split, got {data.split!r}")
    params = {name: model.values(name).copy() for name in sorted(model.names())}
    # read-only views of the arrays that each epoch updates in place
    current = Checkpoint({n: Tensor("F64", v.view()) for n, v in params.items()})
    X = np.asarray(data.X, dtype=np.float64)
    work = _workspace(len(data.y), params["layer0.weight"].shape[0])
    for epoch in range(cfg.epochs):
        loss, grads = loss_and_grads(current, X, data.y, work)
        if not np.isfinite(loss):
            raise DivergenceError(epoch)
        for name, grad in grads.items():
            grad *= cfg.learning_rate
            params[name] -= grad
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
