"""Dtype registry and bit-reproducible conversions for archive tensors.

A tensor is held in its stored form: the archive encoding as a numpy
array, little-endian F64/F32/F16 floats, and BF16 (no numpy dtype) as
uint16 bits. `decode` gives its values, BF16 as exact float32. Merge
kernels `widen` it to float64 and `narrow` float64 back, rounding once;
BF16 converts in the float64 scratch `work` they pass, so no chunk allocates.
"""

from __future__ import annotations

import numpy as np

_STORAGE = {
    "F64": np.dtype("<f8"),
    "F32": np.dtype("<f4"),
    "F16": np.dtype("<f2"),
    "BF16": np.dtype("<u2"),
}

DTYPE_SIZES = {name: stored.itemsize for name, stored in _STORAGE.items()}


def storage_dtype(dtype: str) -> np.dtype:
    if dtype not in _STORAGE:
        raise ValueError(f"unknown dtype {dtype!r}")
    return _STORAGE[dtype]


def dtype_size(dtype: str) -> int:
    return storage_dtype(dtype).itemsize


def _f32_to_bf16_bits(values: np.ndarray, out: np.ndarray | None = None,
                      work: np.ndarray | None = None) -> np.ndarray:
    """Round `values` to float32, then to bfloat16 bit patterns, each
    round-to-nearest-even, into `out` or else a new array. Both steps run in
    `work`, float64 scratch as long as `values` (a new one without it): the
    float32 in its first half, the uint32 rounding in its second. The sum
    u + 0x7FFF + lsb wraps in uint32 only for u > 0xFFFF8000, which are all
    NaN patterns, and the NaN branch overwrites those."""
    halves = (np.empty(values.size) if work is None else work[:values.size]).view(np.uint32)
    u, r = np.split(halves, 2)
    np.copyto(u.view(np.float32).reshape(values.shape), values, casting="unsafe")
    np.right_shift(u, 16, out=r)
    r &= 1
    r += u
    r += 0x7FFF
    r >>= 16
    if u.view(np.int32).max(initial=0) > 0x7F800000 or u.max(initial=0) > 0xFF800000:
        nan = np.isnan(u.view(np.float32))  # keep NaNs NaN: set the quiet bit, drop the rounding
        r[nan] = (u[nan] >> 16) | 0x0040
    out = np.empty(values.shape, np.uint16) if out is None else out
    np.copyto(out, r.reshape(out.shape), casting="unsafe")
    return out


def _bf16_bits_to_f32(bits: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """BF16 bits as exact float32, built in the first bits.nbytes * 2
    bytes of contiguous `work`, or else in a new array."""
    u = np.empty(bits.size, np.uint32) if work is None else work.view(np.uint32)[:bits.size]
    np.copyto(u.reshape(bits.shape), bits)
    u <<= 16
    return u.view(np.float32).reshape(bits.shape)


def encode(data: np.ndarray, dtype: str) -> np.ndarray:
    """A tensor's archive bytes, from its stored form, as a contiguous
    array. Data that needs no change is returned as it is, not copied; a
    BF16 NaN gets its quiet bit set, as rounding from float32 leaves it.
    Two reductions screen BF16 data for NaNs (0x7F81-0x7FFF, 0xFF81-0xFFFF),
    so NaN-free data costs no allocation."""
    data = np.ascontiguousarray(data)
    if dtype == "BF16" and data.size and (data.view(np.int16).max() > 0x7F80
                                          or data.max() > 0xFF80):
        nan = (data & 0x7FFF) > 0x7F80
        data = np.where(nan, data | 0x0040, data).astype("<u2")
    return data


def stored_view(buf, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only view of raw little-endian bytes in `dtype`'s stored form.

    It is never copied, so it may be misaligned; numpy computes on it with
    the same results, more slowly.
    """
    out = np.frombuffer(buf, dtype=_STORAGE[dtype]).reshape(shape)
    out.setflags(write=False)
    return out


def decode(data: np.ndarray, dtype: str, work: np.ndarray | None = None) -> np.ndarray:
    """A tensor's values from its stored form, read-only: BF16 as exact
    float32 (built in `work` if given), misaligned data as an aligned copy,
    and anything else as it is."""
    if dtype == "BF16":
        out = _bf16_bits_to_f32(data, work)
    elif data.flags.aligned:
        return data
    else:
        out = data.copy()
    out.setflags(write=False)
    return out


def widen(data: np.ndarray, out: np.ndarray | None = None,
          work: np.ndarray | None = None) -> np.ndarray:
    """A stored form as float64 (uint16 data is BF16 bits, decoded in `work`
    if given), written into `out` if given; else float64 data as it is."""
    if data.dtype == np.uint16:
        data = _bf16_bits_to_f32(data, work)
    if out is None:
        return np.asarray(data, dtype=np.float64)
    np.copyto(out, data)
    return out


def narrow(acc: np.ndarray, dtype: str, out: np.ndarray | None = None,
           work: np.ndarray | None = None) -> np.ndarray:
    """Round float64 `acc` to `dtype`'s stored form, into `out` if given or
    else a new array, and return it.

    Rounding is round-to-nearest-even at every narrowing step; BF16 goes
    through float32, as `cast_values` does, in scratch `work` if given.
    """
    if out is None:
        out = np.empty(acc.shape, _STORAGE[dtype])
    if dtype == "BF16":
        _f32_to_bf16_bits(acc, out, work)
    else:
        np.copyto(out, acc, casting="unsafe")
    return out


def cast_values(values: np.ndarray, dtype: str) -> np.ndarray:
    """Cast arbitrary float values to `dtype`'s values, as `decode` gives
    them: for BF16, a float32 array holding exact bfloat16 values.

    Rounding is round-to-nearest-even at every narrowing step. The package
    rounds through `narrow` and never calls this. It stays as the plain
    reference that tests compare `narrow` with, and perfbench traces it by
    name.
    """
    values = np.asarray(values)
    if dtype == "BF16":
        return _bf16_bits_to_f32(_f32_to_bf16_bits(values))
    return values.astype(_STORAGE[dtype])
