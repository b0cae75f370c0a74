"""Two-layer ReLU classifier with full-batch gradient descent, all float64.

Checkpoints use the fixed tensor names layer0.weight [h,d], layer0.bias
[h], layer1.weight [c,h], layer1.bias [c] so they flow through the same
archive, merge, and diff machinery as any other checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
    """Softmax along the last axis, shifted by a column-by-column max. A max does not
    round and exp(±0.0) is 1.0, so all but NaN payloads match `logits.max(axis=-1)`."""
    top = reduce(np.maximum, (logits[..., j] for j in range(logits.shape[-1])))
    e = np.exp(logits - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def _workspace(k: int, n: int, h: int) -> list[np.ndarray]:
    """The three k x n x h buffers of one stacked step, reused across epochs:
    hidden (first the pre-activation z), d_z, and the ReLU mask as uint64,
    all ones where hidden > 0 (exactly where z > 0, NaN and ±0.0 too), else zero."""
    return [np.empty((k, n, h)) for _ in range(2)] + [np.empty((k, n, h), dtype=np.uint64)]


def _step(params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray, work: list[np.ndarray]):
    """Mean softmax cross-entropy per model and analytic gradients per
    tensor for a stack of k models that share one dataset.

    `params` maps each tensor name to a (k, ...) array, and `work` holds at least k
    slices. Every matmul is stacked, so BLAS runs one gemm per slice, and every sum
    runs along one slice's axis in the order of a single model's step: each slice's
    bits equal its solo step's. ReLU runs in place in `hidden`, so the mask is
    `hidden > 0`. The returned gradients never alias `work`.
    """
    w0, w1 = params["layer0.weight"], params["layer1.weight"]
    k, n, rows = len(w0), len(y), np.arange(len(y))
    hidden, d_z, keep = (buf[:k] for buf in work)
    X = np.asarray(X, dtype=np.float64)
    np.matmul(X, w0.transpose(0, 2, 1), out=hidden)
    hidden += params["layer0.bias"][:, None]
    np.maximum(hidden, 0.0, out=hidden)
    probs = softmax(hidden @ w1.transpose(0, 2, 1) + params["layer1.bias"][:, None])
    with np.errstate(divide="ignore"):
        # a zero probability yields inf loss, reported as divergence upstream;
        # the gather comes out column-major, and a row-major copy keeps each
        # slice's mean in the pairwise order of a single model's
        losses = -np.mean(np.log(probs[:, rows, y].copy()), axis=1)
    g = probs
    g[:, rows, y] -= 1.0
    g /= n
    np.matmul(g, w1, out=d_z)
    # the ReLU mask as a bit AND: +0.0 where z is not > 0, d_z kept elsewhere
    np.greater(hidden, 0.0, out=keep)
    np.negative(keep, out=keep)
    bits = d_z.view(np.uint64)
    np.bitwise_and(bits, keep, out=bits)
    grads = {
        "layer0.bias": d_z.sum(axis=1),
        "layer0.weight": d_z.transpose(0, 2, 1) @ X,
        "layer1.bias": g.sum(axis=1),
        "layer1.weight": g.transpose(0, 2, 1) @ hidden,
    }
    return losses, grads


def loss_and_grads(model: Checkpoint, X: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy and analytic gradients per tensor: the
    training step on a stack of one."""
    params = {name: model.values(name)[None] for name in TENSOR_NAMES}
    losses, grads = _step(params, X, y, _workspace(1, len(y), params["layer0.weight"].shape[1]))
    return float(losses[0]), {name: grad[0] for name, grad in grads.items()}


def train_stack(models: list[Checkpoint], data: Dataset, cfg: TrainConfig) -> list[Checkpoint]:
    """Full-batch gradient descent of several models on one dataset, as
    one stack through `_step`; returns new checkpoints, inputs untouched.
    Each result is bit-equal to `train` of its model alone.

    A model whose loss turns non-finite is dropped with every later one,
    and the earlier ones train on. At the end `DivergenceError` is raised
    for the first model that diverged, at its own epoch, as a loop over
    `train` would raise. The buffers are never shared between calls, so
    concurrent calls are safe.
    """
    if data.split != "train":
        raise ValueError(f"training requires a train split, got {data.split!r}")
    if not models:
        return []
    params = {name: np.stack([m.values(name) for m in models])
              for name in sorted(models[0].names())}
    k, h = params["layer0.weight"].shape[:2]
    work, diverged = _workspace(k, len(data.y), h), None
    for epoch in range(cfg.epochs):
        losses, grads = _step({name: p[:k] for name, p in params.items()}, data.X, data.y, work)
        bad = np.flatnonzero(~np.isfinite(losses))
        if len(bad):
            k, diverged = bad[0], epoch
            if not k:
                break
        for name, grad in grads.items():
            grad = grad[:k]
            grad *= cfg.learning_rate
            params[name][:k] -= grad
    if diverged is not None:
        raise DivergenceError(diverged)
    return [Checkpoint({name: Tensor("F64", p[i]) for name, p in params.items()})
            for i in range(len(models))]


def train(model: Checkpoint, data: Dataset, cfg: TrainConfig) -> Checkpoint:
    """Full-batch gradient descent; returns a new checkpoint, input untouched."""
    return train_stack([model], data, cfg)[0]


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
