"""Seeded synthetic datasets standing in for monolingual and mixed corpora.

Class k of the L1 population is centered at +2*e_{k mod d}; L2 mirrors it
at -2*e_{k mod d}. A mixed sample is a convex combination of one draw
from each population with the same label, alpha ~ uniform(0.3, 0.7).
Draw order per sample: alpha (mixed only), then d gaussians per
constituent, each constituent's from its own 2*ceil(d/2) uniforms (for
odd d the final sin is dropped), exactly as per-sample `uniform` and
`gaussians(d)` calls would draw them. A dataset's uniforms are drawn
in blocks of whole samples (`SplitMix64.uniform_block`) and turned into
gaussians by the same `box_muller` that `gaussians` uses, so the bits
do not depend on the block size. Additive gaussian noise sigma = 0.5;
labels are balanced round-robin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64, box_muller

NOISE_SIGMA = 0.5
ALPHA_LO, ALPHA_HI = 0.3, 0.7
CLASS_SCALE = 2.0
_BLOCK = 1 << 13  # uniforms per draw; bounds the temporaries, not the bits

KINDS = ("L1", "L2", "mixed")


@dataclass
class ModelSpec:
    input_dim: int
    hidden_dim: int
    class_count: int

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.class_count) < 1:
            raise ValueError("input_dim, hidden_dim, class_count must all be >= 1")


@dataclass
class Dataset:
    X: np.ndarray  # n x d float64
    y: np.ndarray  # n int64 labels in [0, c)
    split: str = "train"

    def __len__(self) -> int:
        return len(self.y)


def _class_means(kind: str, labels: np.ndarray, d: int) -> np.ndarray:
    means = np.zeros((len(labels), d))
    means[np.arange(len(labels)), labels % d] = CLASS_SCALE if kind == "L1" else -CLASS_SCALE
    return means


def gen_dataset(kind: str, n: int, spec: ModelSpec, seed: int,
                split: str = "train") -> Dataset:
    if kind not in KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    c, d = spec.class_count, spec.input_dim
    if n < c:
        raise ValueError(f"need n >= class_count, got n={n} < c={c}")
    rng = SplitMix64(seed)
    X = np.empty((n, d))
    y = np.arange(n, dtype=np.int64) % c  # balanced round-robin
    width = 2 * ((d + 1) // 2)  # uniforms per constituent
    per_sample = 1 + 2 * width if kind == "mixed" else width
    rows = max(1, _BLOCK // per_sample)
    for lo in range(0, n, rows):
        labels = y[lo:lo + rows]
        u = rng.uniform_block(len(labels) * per_sample).reshape(len(labels), per_sample)
        if kind == "mixed":
            alpha = ALPHA_LO + (ALPHA_HI - ALPHA_LO) * u[:, :1]
            g = box_muller(u[:, 1:])
            x1 = _class_means("L1", labels, d) + NOISE_SIGMA * g[:, :d]
            x2 = _class_means("L2", labels, d) + NOISE_SIGMA * g[:, width:width + d]
            X[lo:lo + rows] = alpha * x1 + (1.0 - alpha) * x2
        else:
            X[lo:lo + rows] = _class_means(kind, labels, d) + NOISE_SIGMA * box_muller(u)[:, :d]
    return Dataset(X, y, split)


def concat(a: Dataset, b: Dataset, split: str = "train") -> Dataset:
    return Dataset(np.concatenate([a.X, b.X]), np.concatenate([a.y, b.y]), split)
