"""Independent numpy references for the benchmark's correctness checks.

They restate the documented semantics (float64 accumulation, one
round-to-nearest-even cast per narrowing step, TIES trim/elect/disjoint
mean with the lower-index tie rule) without calling vecmerge, so the
benchmark can tell a fast wrong answer from a fast right one.
"""

from __future__ import annotations

import math

import numpy as np


def f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Round float32 values to bfloat16 bit patterns, ties to even.

    The inputs the benchmark makes are finite, so NaN handling is not needed.
    """
    u = np.ascontiguousarray(values, dtype="<f4").view(np.uint32).astype(np.uint64)
    lsb = (u >> 16) & 1
    return ((u + 0x7FFF + lsb) >> 16).astype(np.uint16)


def bf16_bits_to_f64(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.uint32) << 16).view(np.float32).astype(np.float64)


def cast_bits(acc: np.ndarray, dtype: str) -> np.ndarray:
    """Narrow a float64 accumulator to F32 or BF16 storage (BF16 as bits)."""
    f32 = acc.astype(np.float32)
    if dtype == "F32":
        return f32
    if dtype == "BF16":
        return f32_to_bf16_bits(f32)
    raise ValueError(f"unsupported output dtype {dtype}")


def trim_mask(flat: np.ndarray, density: float) -> np.ndarray:
    """Mask of the ceil(density*n) largest |values|; ties keep lower indices.

    Uses a partition threshold, not a sort, so it shares no code path
    with the program's trim.
    """
    n = flat.size
    k = math.ceil(density * n)
    keep = np.zeros(n, dtype=bool)
    if k == 0:
        return keep
    mag = np.abs(flat)
    threshold = np.partition(mag, n - k)[n - k]
    keep = mag > threshold
    room = k - int(np.count_nonzero(keep))
    keep[np.flatnonzero(mag == threshold)[:room]] = True
    return keep


def ties_delta(deltas: list[np.ndarray], weights: list[float], density: float) -> np.ndarray:
    """Per-element TIES merge of flat float64 deltas (before lambda).

    gamma = sign(sum_t w_t trim(tau_t)); merged = weighted mean of the
    trimmed entries whose sign equals gamma; gamma = 0 gives 0.
    """
    trimmed = [np.where(trim_mask(d, density), d, 0.0) for d in deltas]
    total = np.zeros_like(trimmed[0])
    for t, w in zip(trimmed, weights):
        total += w * t
    gamma = np.sign(total)
    num = np.zeros_like(total)
    den = np.zeros_like(total)
    for t, w in zip(trimmed, weights):
        agree = (np.sign(t) == gamma) & (gamma != 0)
        num += np.where(agree, w * t, 0.0)
        den += np.where(agree, w, 0.0)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)
