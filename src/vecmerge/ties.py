"""TIES merging: trim by magnitude, elect per-parameter signs, disjoint mean.

Trimming is per-tensor, and so are the sign election and the disjoint
mean, so `ties_merge` makes each tensor alone when it is written, as
`tv_merge` does, in buffers each thread keeps, one per vector: each
delta of the tensor, a `LazyDelta` read from its two stored sides too,
is read once into its buffer and trimmed in place, and the disjoint mean
is written over the first buffer. So a merge holds no whole trimmed or
extracted vector, and no whole delta. Per-vector weights
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
import sys
import threading

import numpy as np

from .tensor_store import _CHUNK as _READ_CHUNK
from .tensor_store import Checkpoint, LazyCheckpoint, read_chunk, read_chunks
from .tv import LazyDelta, MergeError, TaskVector, _lazy_merge

DEFAULT_DENSITY = 0.2
DEFAULT_LAMBDA = 1.0

# elements per chunk: the disjoint mean's six chunk-long float64 operands
# (768 KiB) stay in a 2 MiB L2 cache, where 64K-element chunks did not
_CHUNK = 1 << 14

_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)  # every bit of a float64 but its sign
_MAX_FINITE = np.uint64(0x7FEF_FFFF_FFFF_FFFF)  # the magnitude bits of the largest float64
_LEAST_SUBNORMAL = np.float64(5e-324)
_HIGH = 1 if sys.byteorder == "little" else 0  # a float64's high word, as two uint32
_KEY_SHIFT = np.uint64(32)  # a magnitude's key: its high word, the top 31 bits but the sign
_KEY_BITS = np.uint32(0x7FFF_FFFF)
_SIGN32 = np.uint32(0x8000_0000)
_MAX_FINITE_KEY = np.uint32(_MAX_FINITE >> _KEY_SHIFT)


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
    read as the delta. All are read a chunk at a time by position (see
    read_chunks); a chunk whose sum is finite holds no NaN or inf, so only
    the others are checked entry by entry."""
    _check_density(density)
    seen: dict[int, bool] = {}  # id of a delta or stored array the vectors hold -> finite

    def finite(chunk: np.ndarray) -> bool:
        if chunk.dtype == np.uint16:  # BF16 bits: inf and NaN are 0x7F80-0x7FFF, 0xFF80-0xFFFF
            return chunk.view(np.int16).max() < 0x7F80 and chunk.max() < 0xFF80
        return math.isfinite(np.add.reduce(chunk)) or bool(np.isfinite(chunk).all())

    def all_finite(stored: np.ndarray | LazyDelta) -> bool:
        if id(stored) not in seen:
            seen[id(stored)] = all(finite(chunk) for _, chunk in read_chunks(stored))
        return seen[id(stored)]

    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow, and inf - inf is NaN
        for tv in tvs:
            for name, d in tv.deltas.items():
                sides = ((d.base.data, d.finetuned.data) if isinstance(d, LazyDelta)
                         and not d.finetuned.dtype == d.base.dtype == "F64" else (d,))
                if not all(map(all_finite, sides)):
                    raise MergeError(f"tensor {name!r}: non-finite delta cannot be trimmed")


def _buffer(out: np.ndarray | None, size: int) -> np.ndarray:
    """`out` if it is a contiguous 1-d float64 buffer of `size` or more
    entries, else ValueError; a new buffer without `out`."""
    if out is None:
        return np.empty(size)
    if not (out.dtype == np.float64 and out.ndim == 1 and out.flags.c_contiguous
            and out.size >= size):
        raise ValueError(f"out must be a contiguous 1-d float64 buffer of {size} or more entries")
    return out


def _magnitudes(bits: np.ndarray, mag: np.ndarray):
    """(chunk, its magnitude bits in `mag`) over the chunks of `bits`."""
    for start in range(0, bits.size, mag.size):
        part = bits[start:start + mag.size]
        yield part, np.bitwise_and(part, _MAGNITUDE, out=mag[:part.size])


def _largest(fill, n: int, k: int, step: int) -> tuple[np.uint32, int, bool, np.uint32]:
    """(the k-th largest's complement, how many of the k largest are
    larger, whether a value equal to it is left out, the largest's
    complement) of more than k uint32 values, which fill(start, out) writes
    as complements (~value, so the largest lead) into `out` for each start
    in range(0, n, step), at most `step` a call, returning how many. The k
    largest so far are kept by a partition of a buffer of k + step."""
    held = np.empty(min(n, k + step), np.uint32)
    count, dropped = 0, []  # the least complement left out at each partition
    for start in range(0, n, step):
        count += fill(start, held[count:])
        if count > k:
            held[:count].partition(k - 1)
            dropped.append(held[k:count].min())
            count = k
    kept, least = held[:k], held[k - 1]  # set by the last partition
    return least, int(np.count_nonzero(kept < least)), min(dropped) == least, kept.min()


def _cut(bits: np.ndarray, k: int, mag: np.ndarray) -> tuple[np.uint64, int, bool]:
    """(cut, room, finite): the k < n largest magnitudes of float64 `bits`
    are those above `cut` and the first `room` equal to it; `finite` tells
    whether all are finite. A magnitude is ranked by its high word but the
    sign (its key, the top 31 bits) in runs of max(k, chunk) (see
    _largest). Only where an entry of the cut's key is left out are the low
    words of that key's entries ranked the same way."""
    high, low = bits.view(np.uint32)[_HIGH::2], bits.view(np.uint32)[1 - _HIGH::2]
    n, step = bits.size, max(k, mag.size)

    def keys(start: int, out: np.ndarray) -> int:  # as complements: 0x7FFF_FFFF - key
        run = out[:high[start:start + step].size]
        np.invert(np.bitwise_or(high[start:start + step], _SIGN32, out=run), out=run)
        return run.size

    least, above, shared, top = _largest(keys, n, k, step)
    key, finite = _KEY_BITS - least, top >= _KEY_BITS - _MAX_FINITE_KEY
    cut = np.uint64(key) << _KEY_SHIFT
    if shared:  # the low words of the cut key's entries decide

        def lows(start: int, out: np.ndarray) -> int:
            run = slice(start, start + step)
            words = np.invert(low[run][np.bitwise_and(high[run], _KEY_BITS) == key])
            out[:words.size] = words
            return words.size

        least, higher, shared, _ = _largest(lows, n, k - above, step)
        cut |= np.uint64(np.invert(least))
        if shared:  # the lowest-index ties fill the slots left above the threshold
            return cut, k - above - higher, finite
    return cut - np.uint64(1), 0, finite


def trim(tv: TaskVector, density: float, out: np.ndarray | None = None) -> TaskVector:
    """Keep the ceil(density*numel) largest-|value| entries per tensor.

    Entries above the k-th largest magnitude are kept, and entries equal to
    it fill the remaining slots in ascending flattened index order, so ties
    keep the smaller index. Non-finite deltas raise MergeError at every
    density, since they have no rank.

    Entries are ranked by their magnitude bits, `bits & 0x7FF...F` as
    uint64, whose order is that of |value| for finite floats. The trimmed
    tensors lie one after another in `out`, a contiguous 1-d float64
    buffer, or in a new one. Each delta, a `LazyDelta` too, is read once,
    by position (see read_chunk), into its place there, and trimmed in
    place: a kept entry keeps its bits (-0.0 included), a dropped one
    becomes +0.0. The cut is found without a copy of the tensor (see
    _cut): the top halves of its magnitudes, then, where the cut splits
    the entries of one top half, their low halves, are ranked in a buffer
    of k + max(k, chunk) 4-byte entries. So a trim touches no mapped page
    and holds `out`, that buffer and chunk scratch.
    """
    _check_density(density)
    out = _buffer(out, sum(d.size for d in tv.deltas.values()))
    trimmed = TaskVector(extras=dict(tv.extras), ignored=list(tv.ignored))
    largest = max((d.size for d in tv.deltas.values()), default=0)
    mag = np.empty(max(1, min(_READ_CHUNK, largest)), np.uint64)  # a chunk of magnitudes
    offset = 0
    for name, d in tv.deltas.items():
        n, k = d.size, math.ceil(density * d.size)
        row = out[offset:offset + n]
        offset += n
        np.copyto(row, read_chunk(d.ravel(), 0, row))
        bits = row.view(np.uint64)
        if k < n:
            cut, room, finite = _cut(bits, k, mag)
        else:  # kept whole
            finite = all(m.max() <= _MAX_FINITE for _, m in _magnitudes(bits, mag))
        if not finite:
            raise MergeError(f"tensor {name!r}: non-finite delta cannot be trimmed")
        if k < n:
            for part, m in _magnitudes(bits, mag):
                tied = np.flatnonzero(m == cut)[:room] if room else []
                room -= len(tied)
                np.greater(m, cut, out=m)
                m[tied] = 1
                np.negative(m, out=m)
                np.bitwise_and(part, m, out=part)
        kept = row.reshape(d.shape)
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
                   signs: dict[str, np.ndarray], out: np.ndarray | None = None) -> TaskVector:
    """Weighted mean over contributions agreeing with the elected sign.

    merged_p = sum_{t in A_p} w_t tau_tp / sum_{t in A_p} w_t with
    A_p = {t : sign(tau_tp) = gamma_p}; elected sign 0 or empty A_p
    gives 0. Both sums run in vector order from +0.0. `signs` needs an
    entry of each tensor's shape, or MergeError is raised. The merged
    tensors lie one after another in `out`, as `trim` lays them out, or in
    a new buffer. `out` may be the buffer trimmed[0]'s tensors lie in, at
    the same places: each chunk of every vector is read before that chunk
    of the mean is written.
    """
    _check_weights(weights, len(trimmed))
    shapes = _union_shapes(trimmed)
    for name, shape in shapes.items():
        if name not in signs:
            raise MergeError(f"tensor {name!r}: no elected signs")
        if np.shape(signs[name]) != shape:
            raise MergeError(
                f"tensor {name!r}: signs of shape {np.shape(signs[name])} for shape {shape}")
    out = _buffer(out, sum(math.prod(shape) for shape in shapes.values()))
    total, gamma, den, term, agree = _chunk_scratch(
        shapes.values(), np.float64, np.float64, np.float64, np.float64, np.uint64)
    term_bits = term.view(np.uint64)
    result = TaskVector()
    offset = 0
    # weighted products may overflow to inf, and inf / inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for name, shape in shapes.items():
            elected = np.asarray(signs[name]).reshape(-1)
            terms = [(_flat(tv.deltas[name]), float(w), np.float64(w).view(np.uint64))
                     for tv, w in zip(trimmed, weights) if name in tv.deltas]
            merged = out[offset:offset + elected.size]
            offset += elected.size
            for start in range(0, merged.size, _CHUNK):
                stop = min(start + _CHUNK, merged.size)
                m = stop - start
                num, g, dn, t, a = total[:m], gamma[:m], den[:m], term[:m], agree[:m]
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
                np.divide(num, dn, out=merged[start:stop])
            merged = merged.reshape(shape)
            merged.setflags(write=False)
            result.deltas[name] = merged
    return result


def ties_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
               density: float = DEFAULT_DENSITY, lam: float = DEFAULT_LAMBDA,
               threads: int = 1) -> LazyCheckpoint:
    """Full TIES pipeline over (vector, weight) pairs: base + lam * the
    disjoint mean of the trimmed vectors under their elected signs, lazily,
    as `tv_merge` gives it. The operands are checked now (see
    _check_trimmable). Each tensor is trimmed, elected and merged when it
    is made, in buffers that each thread keeps, one per vector as long as
    the largest tensor: each delta, a `LazyDelta` too, is read once into
    its buffer and trimmed there, and the disjoint mean is written over
    the first vector's trimmed entries."""
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

    def combine(name: str, deltas: list[tuple[np.ndarray | LazyDelta, float]]) -> list:
        if not hasattr(held, "buffers"):
            # rows of one allocation: freed, it lifts glibc's trim threshold above one
            # tensor's temporaries, where tensor-sized buffers of their own left the
            # temporaries' pages to be handed back and faulted in again at every tensor
            held.buffers = list(np.empty((len(tvs), largest)))
        trimmed = [trim(TaskVector({name: d}), density, out=buffer)
                   for (d, _), buffer in zip(deltas, held.buffers)]
        tensor_weights = [w for _, w in deltas]
        merged = disjoint_merge(trimmed, tensor_weights, elect_signs(trimmed, tensor_weights),
                                out=held.buffers[0]).deltas[name]
        return [(merged, float(lam))]

    return _lazy_merge(base, weighted, threads, combine)
