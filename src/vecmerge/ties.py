"""TIES merging: trim by magnitude, elect per-parameter signs, disjoint mean.

Trimming is per-tensor. Per-vector weights enter both the sign election
and the disjoint weighted mean, which keeps the single-vector,
density-1 case an exact reduction to plain scaled vector addition.
An elected sign of 0 (exact cancellation) always yields a merged entry
of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_store import Checkpoint
from .tv import MergeError, TaskVector, tv_merge

DEFAULT_DENSITY = 0.2
DEFAULT_LAMBDA = 1.0


@dataclass
class TiesConfig:
    density: float = DEFAULT_DENSITY
    weights: list[float] = field(default_factory=list)
    lam: float = DEFAULT_LAMBDA

    def validate(self, n_vectors: int) -> None:
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if len(self.weights) != n_vectors:
            raise ValueError(f"{len(self.weights)} weights for {n_vectors} vectors")
        if any(w <= 0 or not np.isfinite(w) for w in self.weights):
            raise ValueError("weights must be positive and finite")
        if not np.isfinite(self.lam):
            raise ValueError(f"non-finite lambda {self.lam}")


@dataclass
class SignMap:
    """Per-tensor elected-sign arrays with entries in {-1, 0, +1}."""

    signs: dict[str, np.ndarray] = field(default_factory=dict)


def trim(tv: TaskVector, density: float) -> TaskVector:
    """Keep the ceil(density*numel) largest-|value| entries per tensor.

    Selection is a linear-time partition threshold: entries above it are
    kept, and entries equal to it fill the remaining slots in ascending
    flattened index order, so ties keep the smaller index. Non-finite
    deltas raise MergeError at every density, since they have no rank.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    out = TaskVector(extras=dict(tv.extras), ignored=list(tv.ignored),
                     origin=f"trim({tv.origin}, density={density})")
    for name, d in tv.deltas.items():
        flat = d.reshape(-1)
        n = flat.size
        mag = np.abs(flat)
        if n and not np.isfinite(mag.max()):
            raise MergeError(f"tensor {name!r}: non-finite delta cannot be trimmed")
        k = math.ceil(density * n)
        if k == n:
            out.deltas[name] = d
            continue
        threshold = np.partition(mag, n - k)[n - k]
        keep = mag > threshold
        room = k - int(np.count_nonzero(keep))
        keep[np.flatnonzero(mag == threshold)[:room]] = True
        kept = np.where(keep, flat, 0.0).reshape(d.shape)
        kept.setflags(write=False)
        out.deltas[name] = kept
    return out


def _union_shapes(tvs: list[TaskVector]) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for tv in tvs:
        for name, d in tv.deltas.items():
            if name in shapes and shapes[name] != d.shape:
                raise MergeError(
                    f"tensor {name!r}: shape conflict {shapes[name]} vs {d.shape}")
            shapes[name] = d.shape
    return shapes


def elect_signs(trimmed: list[TaskVector], weights: list[float]) -> SignMap:
    """gamma = sign(sum_t w_t * tau_t) per element; sign(0) elects 0."""
    if len(trimmed) != len(weights):
        raise ValueError(f"{len(weights)} weights for {len(trimmed)} vectors")
    shapes = _union_shapes(trimmed)
    signmap = SignMap()
    for name, shape in shapes.items():
        total = np.zeros(shape, dtype=np.float64)
        for tv, w in zip(trimmed, weights):
            if name in tv.deltas:
                total += float(w) * tv.deltas[name]
        signmap.signs[name] = np.sign(total).astype(np.int8)
    return signmap


def disjoint_merge(trimmed: list[TaskVector], weights: list[float],
                   signs: SignMap) -> TaskVector:
    """Weighted mean over contributions agreeing with the elected sign.

    merged_p = sum_{t in A_p} w_t tau_tp / sum_{t in A_p} w_t with
    A_p = {t : sign(tau_tp) = gamma_p}; elected sign 0 or empty A_p
    gives 0.
    """
    if len(trimmed) != len(weights):
        raise ValueError(f"{len(weights)} weights for {len(trimmed)} vectors")
    shapes = _union_shapes(trimmed)
    out = TaskVector(origin=f"ties disjoint merge of {len(trimmed)} vectors")
    for name, shape in shapes.items():
        gamma = signs.signs[name]
        num = np.zeros(shape, dtype=np.float64)
        den = np.zeros(shape, dtype=np.float64)
        for tv, w in zip(trimmed, weights):
            if name not in tv.deltas:
                continue
            d = tv.deltas[name]
            # sign(d) == gamma != 0 exactly when d * gamma > 0 (gamma is -1/0/+1)
            agree = d * gamma > 0
            num += np.where(agree, float(w) * d, 0.0)
            den += agree * float(w)
        merged = np.divide(num, den, out=np.zeros(shape, dtype=np.float64), where=den != 0)
        merged.setflags(write=False)
        out.deltas[name] = merged
    return out


def ties_merge(base: Checkpoint, tvs: list[TaskVector], config: TiesConfig,
               threads: int = 1):
    """Full TIES pipeline; returns (merged checkpoint, InterferenceReport)."""
    from .reports import interference_stats  # cycle: reports reuses trim/elect

    if not tvs:
        raise MergeError("ties_merge requires at least one task vector")
    config.validate(len(tvs))
    trimmed = [trim(tv, config.density) for tv in tvs]
    signs = elect_signs(trimmed, config.weights)
    merged = disjoint_merge(trimmed, config.weights, signs)
    # extras survive the pipeline for re-attachment by the merge
    for tv in tvs:
        for name, t in tv.extras.items():
            merged.extras.setdefault(name, t)
    out = tv_merge(base, [(merged, config.lam)], threads=threads)
    report = interference_stats(tvs, config.density)
    return out, report
