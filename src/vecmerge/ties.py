"""TIES merging: trim by magnitude, elect per-parameter signs, disjoint mean.

Trimming is per-tensor, and so are the sign election and the disjoint
mean, so `ties_merge` makes each tensor alone when it is written, as
`tv_merge` does, trimming into buffers each thread keeps, and holds no
whole trimmed vector, nor a whole extracted one: each `LazyDelta` of the
tensor is made in the thread that makes the tensor. Per-vector weights
enter both the sign election and the disjoint weighted mean, which keeps
the single-vector, density-1 case an exact reduction to plain scaled
vector addition.
An elected sign of 0 (exact cancellation) always yields a merged entry
of 0, and so does a NaN weighted total, which finite deltas reach when
their weighted products overflow to inf and -inf.

The kernels select entries by bit masks, not branches: a mask is all
ones where an entry is kept and all zeros elsewhere, and ANDing a
float64's bits with it keeps the float or makes it +0.0. They work a
chunk at a time in scratch that each call allocates once, so they hold
no state between calls and threads may call them at once. `trim` reads
a delta that views a mapped archive by position (see read_chunk), so no
kernel touches a page of the map.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .dtypes import decode
from .tensor_store import _CHUNK as _READ_CHUNK
from .tensor_store import Checkpoint, LazyCheckpoint, Tensor, read_chunk
from .tv import LazyDelta, MergeError, TaskVector, _lazy_merge

DEFAULT_DENSITY = 0.2
DEFAULT_LAMBDA = 1.0

# elements per chunk: the disjoint mean's six chunk-long float64 operands
# (768 KiB) stay in a 2 MiB L2 cache, where 64K-element chunks did not
_CHUNK = 1 << 14

_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)  # every bit of a float64 but its sign
_MAX_FINITE = np.uint64(0x7FEF_FFFF_FFFF_FFFF)  # the magnitude bits of the largest float64
_LEAST_SUBNORMAL = np.float64(5e-324)


def _check_weights(weights: list[float], n_vectors: int) -> None:
    if len(weights) != n_vectors:
        raise ValueError(f"{len(weights)} weights for {n_vectors} vectors")
    if any(w <= 0 or not math.isfinite(w) for w in weights):
        raise ValueError("weights must be positive and finite")


def _flat(d: np.ndarray) -> np.ndarray:
    """A delta as a 1-d float64 array, a view unless it must be copied."""
    return np.ascontiguousarray(d, dtype=np.float64).reshape(-1)


def _chunk_scratch(shapes, *dtypes) -> list[np.ndarray]:
    """A call's scratch: one buffer per dtype, as long as a chunk or the
    largest tensor, whichever is shorter."""
    size = min(_CHUNK, max((math.prod(shape) for shape in shapes), default=0))
    return [np.empty(size, dtype) for dtype in dtypes]


def _check_density(density: float) -> None:
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")


def _check_trimmable(tvs: list[TaskVector], density: float) -> None:
    """Raise as trimming each of `tvs` in turn would: for the density, then
    for the first non-finite delta in vector order. A delta is checked on
    the stored arrays it is made from: a stored delta, or both sides of a
    `LazyDelta`, each array read once per call. A side narrower than F64 is
    at most 3.4e38, far below half an ulp of the largest float64, so its
    difference with any finite value is finite. Only a `LazyDelta` of two
    F64 sides may overflow (1.7e308 - -1.7e308 is inf), so it alone is
    made, a chunk at a time. Arrays are read a chunk at a time by position
    (see read_chunk); a chunk whose sum is finite holds no NaN or inf, so
    only the others are checked entry by entry."""
    _check_density(density)
    size = min(_READ_CHUNK, max((d.size for tv in tvs for d in tv.deltas.values()), default=0))
    scratch: dict[np.dtype, np.ndarray] = {}
    seen: dict[int, bool] = {}  # id of a stored delta or Tensor the vectors hold -> finite

    def finite(chunk: np.ndarray) -> bool:
        if chunk.dtype == np.uint16:
            chunk = decode(chunk, "BF16")
        return math.isfinite(np.add.reduce(chunk)) or bool(np.isfinite(chunk).all())

    def all_finite(stored: np.ndarray | Tensor) -> bool:
        if id(stored) not in seen:
            flat = stored.data.reshape(-1) if isinstance(stored, Tensor) else _flat(stored)
            if flat.dtype not in scratch:
                scratch[flat.dtype] = np.empty(size, flat.dtype)
            buffer = scratch[flat.dtype]
            seen[id(stored)] = all(
                finite(read_chunk(flat, start, buffer[:min(size, flat.size - start)]))
                for start in range(0, flat.size, _READ_CHUNK))
        return seen[id(stored)]

    def check(name: str, ok: bool) -> None:
        if not ok:
            raise MergeError(f"tensor {name!r}: non-finite delta cannot be trimmed")

    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow, and inf - inf is NaN
        for tv in tvs:
            for name, d in tv.deltas.items():
                if isinstance(d, LazyDelta) and d.finetuned.dtype == d.base.dtype == "F64":
                    d.make(lambda start, chunk: check(name, finite(chunk)))
                else:
                    sides = (d.base, d.finetuned) if isinstance(d, LazyDelta) else (d,)
                    check(name, all(map(all_finite, sides)))


def trim(tv: TaskVector, density: float, out: np.ndarray | None = None) -> TaskVector:
    """Keep the ceil(density*numel) largest-|value| entries per tensor.

    Selection is a linear-time partition threshold: entries above it are
    kept, and entries equal to it fill the remaining slots in ascending
    flattened index order, so ties keep the smaller index. Non-finite
    deltas raise MergeError at every density, since they have no rank.

    Entries are ranked by their magnitude bits, `bits & 0x7FF...F` as
    uint64, whose order is that of |value| for finite floats. The trimmed
    tensors lie one after another in `out`, a contiguous 1-d float64
    buffer, or in a new one: it holds the partition, then the trimmed
    entries, a kept one with its bits (-0.0 included) and a dropped one as
    +0.0. Each delta is read by position (see read_chunk), whole into the
    buffer to rank it and a chunk at a time to select, so a trim touches no
    mapped page.
    """
    _check_density(density)
    size = sum(d.size for d in tv.deltas.values())
    if out is None:
        out = np.empty(size)
    elif not (out.dtype == np.float64 and out.ndim == 1 and out.flags.c_contiguous
              and out.size >= size):
        raise ValueError(f"out must be a contiguous 1-d float64 buffer of {size} or more entries")
    trimmed = TaskVector(extras=dict(tv.extras), ignored=list(tv.ignored))
    source = np.empty(min(_CHUNK, max((d.size for d in tv.deltas.values()), default=0)))
    offset = 0
    for name, d in tv.deltas.items():
        flat, n = _flat(d), d.size
        k = math.ceil(density * n)
        kept = out[offset:offset + n].view(np.uint64)
        offset += n
        np.bitwise_and(read_chunk(flat, 0, kept.view(np.float64)).view(np.uint64), _MAGNITUDE,
                       out=kept)
        if k < n:
            kept.partition(n - k)  # the k largest, so the greatest of all, sit from n - k on
            threshold = kept[n - k]
            if kept[:n - k].max() < threshold:  # no tie across the cut: keep all >= threshold
                cut, room = threshold - np.uint64(1), 0
            else:  # the lowest-index ties fill the slots left above the threshold
                cut, room = threshold, k - int(np.count_nonzero(kept[n - k + 1:] > threshold))
        if n and kept[n - k:].max() > _MAX_FINITE:
            raise MergeError(f"tensor {name!r}: non-finite delta cannot be trimmed")
        for start in range(0, n, _CHUNK):
            part = kept[start:start + _CHUNK]
            src = read_chunk(flat, start, source[:part.size]).view(np.uint64)
            if k == n:  # every entry is kept
                np.copyto(part, src)
                continue
            np.bitwise_and(src, _MAGNITUDE, out=part)
            tied = np.flatnonzero(part == threshold)[:room] if room else []
            room -= len(tied)
            np.greater(part, cut, out=part)
            part[tied] = 1
            np.negative(part, out=part)
            np.bitwise_and(part, src, out=part)
        kept = kept.view(np.float64).reshape(d.shape)
        kept.setflags(write=False)
        trimmed.deltas[name] = kept
    return trimmed


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
    {-1, 0, +1} by tensor name. A total of 0 or NaN elects 0: the sign is
    (total > 0) - (total < 0), never a cast of a float."""
    _check_weights(weights, len(trimmed))
    shapes = _union_shapes(trimmed)
    total, term, below = _chunk_scratch(shapes.values(), np.float64, np.float64, np.bool_)
    signs = {}
    # products that overflow may sum to inf - inf = NaN, which elects 0
    with np.errstate(over="ignore", invalid="ignore"):
        for name, shape in shapes.items():
            (first, w0), *rest = [(_flat(tv.deltas[name]), float(w))
                                  for tv, w in zip(trimmed, weights) if name in tv.deltas]
            sign = np.empty(first.size, np.int8)
            for start in range(0, sign.size, _CHUNK):
                stop = min(start + _CHUNK, sign.size)
                acc, t, lt = total[:stop - start], term[:stop - start], below[:stop - start]
                # starting from w0 * d0, not 0.0 + w0 * d0, can only leave a
                # -0.0 total where it would be +0.0, and both elect 0
                np.multiply(first[start:stop], w0, out=acc)
                for d, w in rest:
                    acc += np.multiply(d[start:stop], w, out=t)
                s = sign[start:stop]
                np.greater(acc, 0.0, out=s.view(np.bool_))
                np.subtract(s, np.less(acc, 0.0, out=lt).view(np.int8), out=s)
            signs[name] = sign.reshape(shape)
    return signs


def disjoint_merge(trimmed: list[TaskVector], weights: list[float],
                   signs: dict[str, np.ndarray]) -> TaskVector:
    """Weighted mean over contributions agreeing with the elected sign.

    merged_p = sum_{t in A_p} w_t tau_tp / sum_{t in A_p} w_t with
    A_p = {t : sign(tau_tp) = gamma_p}; elected sign 0 or empty A_p
    gives 0. Both sums run in vector order from +0.0. `signs` needs an
    entry of each tensor's shape, or MergeError is raised.
    """
    _check_weights(weights, len(trimmed))
    shapes = _union_shapes(trimmed)
    for name, shape in shapes.items():
        if name not in signs:
            raise MergeError(f"tensor {name!r}: no elected signs")
        if np.shape(signs[name]) != shape:
            raise MergeError(
                f"tensor {name!r}: signs of shape {np.shape(signs[name])} for shape {shape}")
    gamma, den, term, agree = _chunk_scratch(
        shapes.values(), np.float64, np.float64, np.float64, np.uint64)
    term_bits = term.view(np.uint64)
    out = TaskVector()
    # weighted products may overflow to inf, and inf / inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for name, shape in shapes.items():
            elected = np.asarray(signs[name]).reshape(-1)
            terms = [(_flat(tv.deltas[name]), float(w), np.float64(w).view(np.uint64))
                     for tv, w in zip(trimmed, weights) if name in tv.deltas]
            merged = np.empty(elected.size)
            for start in range(0, merged.size, _CHUNK):
                stop = min(start + _CHUNK, merged.size)
                m = stop - start
                num, g, dn, t, a = merged[start:stop], gamma[:m], den[:m], term[:m], agree[:m]
                np.copyto(g, elected[start:stop])
                num.fill(0.0)
                dn.fill(0.0)
                for d, w, w_bits in terms:
                    part = d[start:stop]
                    # sign(d) == gamma != 0 exactly when d * gamma > 0 (gamma is -1/0/+1)
                    np.greater(np.multiply(part, g, out=t), 0.0, out=a)
                    np.negative(a, out=a)
                    num += np.bitwise_and(np.multiply(part, w, out=t).view(np.uint64), a,
                                          out=term_bits[:m]).view(np.float64)
                    dn += np.bitwise_and(a, w_bits, out=a).view(np.float64)
                # den is 0 only where no vector agrees, and num is +0.0 there;
                # raising den to the least subnormal makes those quotients +0.0
                # without a 0/0 and leaves every other den as it is
                np.maximum(dn, _LEAST_SUBNORMAL, out=dn)
                np.divide(num, dn, out=num)
            merged = merged.reshape(shape)
            merged.setflags(write=False)
            out.deltas[name] = merged
    return out


def ties_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
               density: float = DEFAULT_DENSITY, lam: float = DEFAULT_LAMBDA,
               threads: int = 1) -> LazyCheckpoint:
    """Full TIES pipeline over (vector, weight) pairs: base + lam * the
    disjoint mean of the trimmed vectors under their elected signs, lazily,
    as `tv_merge` gives it. The operands are checked now (see
    _check_trimmable). Each tensor is trimmed, elected and merged when it
    is made, in buffers that each thread keeps, one per vector as long as
    the largest tensor, from its deltas, each `LazyDelta` made in that
    thread."""
    if not weighted:
        raise MergeError("ties_merge requires at least one task vector")
    if not np.isfinite(lam):
        raise ValueError(f"non-finite lambda {lam}")
    tvs, weights = [tv for tv, _ in weighted], [w for _, w in weighted]
    _check_trimmable(tvs, density)
    _check_weights(weights, len(tvs))
    _union_shapes(tvs)
    largest = max((d.size for tv in tvs for d in tv.deltas.values()), default=0)
    held = threading.local()

    def combine(name: str, deltas: list[tuple[np.ndarray, float]]) -> list:
        if not hasattr(held, "buffers"):
            # rows of one allocation: freed, it lifts glibc's trim threshold above one
            # tensor's temporaries, where tensor-sized buffers of their own left the
            # temporaries' pages to be handed back and faulted in again at every tensor
            held.buffers = list(np.empty((len(tvs), largest)))
        trimmed = [trim(TaskVector({name: d}), density, out=buffer)
                   for (d, _), buffer in zip(deltas, held.buffers)]
        tensor_weights = [w for _, w in deltas]
        merged = disjoint_merge(trimmed, tensor_weights,
                                elect_signs(trimmed, tensor_weights)).deltas[name]
        return [(merged, float(lam))]

    return _lazy_merge(base, weighted, threads, combine)
