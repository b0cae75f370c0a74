"""Dtype registry and bit-reproducible conversions for archive tensors.

A tensor is held in one form, its stored form: the archive encoding as a
numpy array, little-endian F64/F32/F16 floats, and BF16 (which has no
numpy dtype) as its uint16 bit patterns. `decode` gives a tensor's
values, BF16 as exact float32. Merge kernels `widen` the stored form to
float64 and `narrow` float64 back to it, rounding once.
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

_MEMORY_DTYPE = {
    "F64": np.float64,
    "F32": np.float32,
    "F16": np.float16,
    "BF16": np.float32,
}


def storage_dtype(dtype: str) -> np.dtype:
    if dtype not in _STORAGE:
        raise ValueError(f"unknown dtype {dtype!r}")
    return _STORAGE[dtype]


def dtype_size(dtype: str) -> int:
    return storage_dtype(dtype).itemsize


def _f32_to_bf16_bits(arr32: np.ndarray) -> np.ndarray:
    """Round float32 to bfloat16 bit patterns (round-to-nearest-even).

    The sum u + 0x7FFF + lsb wraps in uint32 only for u > 0xFFFF8000,
    which are all NaN patterns, and the NaN branch overwrites those.
    """
    u = np.ascontiguousarray(arr32, dtype="<f4").view(np.uint32)
    r = u >> 16
    r &= 1  # in place: each 256 KiB temporary of a merge chunk costs page faults
    r += u
    r += 0x7FFF
    r >>= 16
    rounded = r.astype(np.uint16)
    nan = np.isnan(arr32)
    if nan.any():
        # keep NaNs NaN: set the quiet bit, drop the rounding result
        rounded = np.where(nan, ((u >> 16) | 0x0040).astype(np.uint16), rounded)
    return rounded


def _bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    u = bits.astype(np.uint32)
    u <<= 16
    return u.view(np.float32)


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


def decode(data: np.ndarray, dtype: str) -> np.ndarray:
    """A tensor's values from its stored form, read-only: BF16 as exact
    float32, misaligned data as an aligned copy, and anything else as it is.
    """
    if dtype == "BF16":
        out = _bf16_bits_to_f32(data)
    elif data.flags.aligned:
        return data
    else:
        out = data.copy()
    out.setflags(write=False)
    return out


def widen(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A stored form as float64 (uint16 data is BF16 bits). Written into
    `out` if given; without `out`, float64 data is returned as it is."""
    if data.dtype == np.uint16:
        data = _bf16_bits_to_f32(data)
    if out is None:
        return np.asarray(data, dtype=np.float64)
    np.copyto(out, data)
    return out


def narrow(acc: np.ndarray, dtype: str, out: np.ndarray | None = None) -> np.ndarray:
    """Round float64 `acc` to `dtype`'s stored form, into `out` if given or
    else a new array, and return it.

    Rounding is round-to-nearest-even at every narrowing step; BF16 goes
    through float32, as `cast_values` does.
    """
    if out is None:
        out = np.empty(acc.shape, _STORAGE[dtype])
    if dtype == "BF16":
        out[...] = _f32_to_bf16_bits(acc.astype(np.float32))
    else:
        np.copyto(out, acc, casting="unsafe")
    return out


def all_finite(data: np.ndarray) -> bool:
    """Whether a stored form holds no NaN or ±inf."""
    if data.dtype == np.uint16:
        return not ((data & 0x7F80) == 0x7F80).any()
    return bool(np.isfinite(data).all())


def cast_values(values: np.ndarray, dtype: str, allow_nonfinite: bool = True) -> np.ndarray:
    """Cast arbitrary float values to `dtype`'s values, as `decode` gives
    them: for BF16, a float32 array holding exact bfloat16 values.

    Rounding is round-to-nearest-even at every narrowing step. The package
    rounds through `narrow` and never calls this. It stays as the plain
    reference that tests compare `narrow` with, and perfbench traces it by
    name.
    """
    values = np.asarray(values)
    if not allow_nonfinite and not np.isfinite(values).all():
        raise ValueError(f"non-finite value cannot be cast to {dtype} (allow_nonfinite=False)")
    if dtype == "BF16":
        return _bf16_bits_to_f32(_f32_to_bf16_bits(values.astype(np.float32))).reshape(values.shape)
    return values.astype(_MEMORY_DTYPE[dtype])
