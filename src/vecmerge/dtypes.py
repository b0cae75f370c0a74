"""Dtype registry and bit-reproducible conversions for archive tensors.

In-memory representation: F64/F32/F16 map onto the native numpy dtypes.
BF16 has no numpy dtype, so BF16 tensors are held as float32 arrays whose
values are exactly representable in bfloat16; encode/decode is then exact.
"""

from __future__ import annotations

import numpy as np

DTYPE_SIZES = {"F64": 8, "F32": 4, "F16": 2, "BF16": 2}

_NUMPY_STORAGE = {
    "F64": np.dtype("<f8"),
    "F32": np.dtype("<f4"),
    "F16": np.dtype("<f2"),
}

_MEMORY_DTYPE = {
    "F64": np.float64,
    "F32": np.float32,
    "F16": np.float16,
    "BF16": np.float32,
}


def dtype_size(dtype: str) -> int:
    if dtype not in DTYPE_SIZES:
        raise ValueError(f"unknown dtype {dtype!r}")
    return DTYPE_SIZES[dtype]


def memory_dtype(dtype: str):
    if dtype not in _MEMORY_DTYPE:
        raise ValueError(f"unknown dtype {dtype!r}")
    return _MEMORY_DTYPE[dtype]


def _f32_to_bf16_bits(arr32: np.ndarray) -> np.ndarray:
    """Round float32 to bfloat16 bit patterns (round-to-nearest-even).

    The sum u + 0x7FFF + lsb wraps in uint32 only for u > 0xFFFF8000,
    which are all NaN patterns, and the NaN branch overwrites those.
    """
    u = np.ascontiguousarray(arr32, dtype="<f4").view(np.uint32)
    r = (u >> 16) & 1
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
    return (bits.astype(np.uint32) << 16).view(np.float32)


def encode(values: np.ndarray, dtype: str) -> bytes:
    """Serialize an in-memory tensor to little-endian raw bytes."""
    if dtype == "BF16":
        return _f32_to_bf16_bits(np.asarray(values, dtype=np.float32).ravel()).astype("<u2").tobytes()
    return np.ascontiguousarray(values, dtype=_NUMPY_STORAGE[dtype]).tobytes()


def decode(buf, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """Deserialize raw little-endian bytes into the in-memory representation.

    F64/F32/F16 results are views of `buf` unless its data is misaligned
    for the dtype, in which case they are aligned copies.
    """
    if dtype == "BF16":
        bits = np.frombuffer(buf, dtype="<u2")
        out = _bf16_bits_to_f32(bits).reshape(shape)  # the shift already copies
    else:
        out = np.frombuffer(buf, dtype=_NUMPY_STORAGE[dtype]).reshape(shape)
        if not out.flags.aligned:
            out = out.copy()
    out.setflags(write=False)
    return out


def cast_values(values: np.ndarray, dtype: str, allow_nonfinite: bool = True) -> np.ndarray:
    """Cast arbitrary float values to `dtype`'s in-memory representation.

    Rounding is round-to-nearest-even at every narrowing step. For BF16 the
    result is a float32 array holding exact bfloat16 values.
    """
    values = np.asarray(values)
    if not allow_nonfinite and not np.isfinite(values).all():
        raise ValueError(f"non-finite value cannot be cast to {dtype} (allow_nonfinite=False)")
    if dtype == "BF16":
        return _bf16_bits_to_f32(_f32_to_bf16_bits(values.astype(np.float32))).reshape(values.shape)
    return values.astype(_MEMORY_DTYPE[dtype])
