"""TIES merging: trim by magnitude, elect per-parameter signs, disjoint mean.

Trimming is per-tensor. Per-vector weights enter both the sign election
and the disjoint weighted mean, which keeps the single-vector,
density-1 case an exact reduction to plain scaled vector addition.
An elected sign of 0 (exact cancellation) always yields a merged entry
of 0.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor_store import Checkpoint
from .tv import MergeError, TaskVector, tv_merge

DEFAULT_DENSITY = 0.2
DEFAULT_LAMBDA = 1.0


def _check_weights(weights: list[float], n_vectors: int) -> None:
    if len(weights) != n_vectors:
        raise ValueError(f"{len(weights)} weights for {n_vectors} vectors")
    if any(w <= 0 or not np.isfinite(w) for w in weights):
        raise ValueError("weights must be positive and finite")


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


def elect_signs(trimmed: list[TaskVector], weights: list[float]) -> dict[str, np.ndarray]:
    """gamma = sign(sum_t w_t * tau_t) per element, as int8 arrays in
    {-1, 0, +1} by tensor name; sign(0) elects 0."""
    _check_weights(weights, len(trimmed))
    shapes = _union_shapes(trimmed)
    signs = {}
    for name, shape in shapes.items():
        total = np.zeros(shape, dtype=np.float64)
        for tv, w in zip(trimmed, weights):
            if name in tv.deltas:
                total += float(w) * tv.deltas[name]
        signs[name] = np.sign(total).astype(np.int8)
    return signs


def disjoint_merge(trimmed: list[TaskVector], weights: list[float],
                   signs: dict[str, np.ndarray]) -> TaskVector:
    """Weighted mean over contributions agreeing with the elected sign.

    merged_p = sum_{t in A_p} w_t tau_tp / sum_{t in A_p} w_t with
    A_p = {t : sign(tau_tp) = gamma_p}; elected sign 0 or empty A_p
    gives 0.
    """
    _check_weights(weights, len(trimmed))
    shapes = _union_shapes(trimmed)
    out = TaskVector(origin=f"ties disjoint merge of {len(trimmed)} vectors")
    for name, shape in shapes.items():
        gamma = signs[name]
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


def ties_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
               density: float = DEFAULT_DENSITY, lam: float = DEFAULT_LAMBDA,
               threads: int = 1) -> Checkpoint:
    """Full TIES pipeline over (vector, weight) pairs: trim, elect signs,
    disjoint mean, then base + lam * merged."""
    if not weighted:
        raise MergeError("ties_merge requires at least one task vector")
    if not np.isfinite(lam):
        raise ValueError(f"non-finite lambda {lam}")
    trimmed = [trim(tv, density) for tv, _ in weighted]
    weights = [w for _, w in weighted]
    merged = disjoint_merge(trimmed, weights, elect_signs(trimmed, weights))
    # extras survive the pipeline for re-attachment by the merge
    for tv, _ in weighted:
        for name, t in tv.extras.items():
            merged.extras.setdefault(name, t)
    return tv_merge(base, [(merged, lam)], threads=threads)
