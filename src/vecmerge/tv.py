"""Task-vector extraction and scaled vector-addition merging.

All arithmetic accumulates in float64 regardless of storage dtype; the
rounding back to the output's dtype happens exactly once per element.
One kernel, `_merge_tensor`, merges and extracts (fine-tuned + -1 *
base, kept as float64). It goes through the operands' stored forms in
cache-sized chunks, read by position where the file is mapped (see
`read_chunk`), so temporaries stay small whatever the tensor size and no
mapped page is touched. A merge (`tv_merge`) is a `LazyCheckpoint`: the
writer takes each rounded chunk from the kernel's scratch to its offset
in the file, so threads merge whole tensors in any order and hold only
their scratch; `materialize()` keeps a merge in memory instead.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dtypes import decode, narrow, storage_dtype, widen
from .tensor_store import (ArchiveError, Checkpoint, LazyCheckpoint, Tensor, read_archive,
                           read_chunk)

TASK_VECTOR_KIND = "task_vector"
KIND_KEY = "vecmerge.kind"

_CHUNK = 1 << 16  # elements per accumulation chunk: 512 KiB of float64

MISMATCH_MODES = ("error", "ignore", "copy_from_finetuned")


class MergeError(ValueError):
    """Incompatible operands for a merge operation."""


@dataclass
class TaskVector:
    """Per-tensor float64 deltas (fine-tuned minus base).

    `extras` carries fine-tuned-only tensors (e.g. task heads) under the
    copy_from_finetuned policy, for verbatim re-attachment on apply.
    `ignored` lists tensors dropped under the ignore policy.
    """

    deltas: dict[str, np.ndarray] = field(default_factory=dict)
    extras: dict[str, Tensor] = field(default_factory=dict)
    ignored: list[str] = field(default_factory=list)
    origin: str = "constructed"

    def names(self) -> list[str]:
        return sorted(self.deltas)

    def to_checkpoint(self) -> Checkpoint:
        tensors = {name: Tensor("F64", d) for name, d in self.deltas.items()}
        return Checkpoint(tensors, {KIND_KEY: TASK_VECTOR_KIND, "vecmerge.origin": self.origin})

    @staticmethod
    def from_checkpoint(ckpt: Checkpoint) -> "TaskVector":
        """F64 deltas stay views of the checkpoint's data, misaligned or not."""
        return TaskVector.from_arrays({name: widen(ckpt[name].data) for name in ckpt.names()})

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray]) -> "TaskVector":
        deltas = {}
        for name, a in arrays.items():
            d = np.asarray(a, dtype=np.float64)
            d.setflags(write=False)
            deltas[name] = d
        return TaskVector(deltas=deltas)


def is_task_vector_archive(ckpt: Checkpoint) -> bool:
    return bool(ckpt.metadata) and ckpt.metadata.get(KIND_KEY) == TASK_VECTOR_KIND


def extract_task_vector(base: Checkpoint, finetuned: Checkpoint,
                        policy: str = "error") -> TaskVector:
    """delta = finetuned - base over the shared name/shape intersection.

    Tensors present in only one checkpoint, or with differing shapes, are
    handled per `policy`: error aborts, ignore drops them, and
    copy_from_finetuned carries fine-tuned-side tensors as extras.
    """
    if policy not in MISMATCH_MODES:
        raise ValueError(f"unknown mismatch policy {policy!r}")
    shared = [n for n in finetuned.names()
              if n in base and base[n].shape == finetuned[n].shape]
    if not shared:
        raise MergeError("no shared tensors with matching shapes between base and finetuned")
    mismatched = sorted(
        set(base.names()).symmetric_difference(finetuned.names())
        | {n for n in finetuned.names() if n in base and base[n].shape != finetuned[n].shape})
    if mismatched and policy == "error":
        raise MergeError(f"mismatched tensors (policy=error): {', '.join(mismatched)}")

    tv = TaskVector(origin=f"extract(base={len(base)} tensors, finetuned={len(finetuned)} tensors)")
    for name in shared:
        tv.deltas[name] = _merge_tensor(finetuned[name], [(base[name].data, -1.0)], "F64").data
    if policy == "copy_from_finetuned":
        for name in mismatched:
            if name in finetuned:
                tv.extras[name] = finetuned[name]
            else:
                tv.ignored.append(name)
    else:
        tv.ignored = mismatched
    return tv


def load_task_vector(path, base: Checkpoint | None = None, policy: str = "error") -> TaskVector:
    """Read a stored task vector archive.

    Any other archive is taken as a fine-tuned checkpoint whose vector is
    extracted against `base` under `policy`; without a base it is rejected.
    """
    ckpt = read_archive(path)
    if is_task_vector_archive(ckpt):
        return TaskVector.from_checkpoint(ckpt)
    if base is None:
        raise ArchiveError(f"{path} is not a stored task vector archive")
    return extract_task_vector(base, ckpt, policy=policy)


def scale(tv: TaskVector, lam: float) -> TaskVector:
    """Multiply every delta by `lam` (float64). lam=-1 negates the vector.

    The merges fold their weights into one accumulation and never call
    this. It stays as the plain reference that tests compare them with,
    and perfbench traces it by name.
    """
    if not np.isfinite(lam):
        raise ValueError(f"non-finite scale factor {lam}")
    out = TaskVector(extras=dict(tv.extras), ignored=list(tv.ignored))
    for name, d in tv.deltas.items():
        s = d * float(lam)
        s.setflags(write=False)
        out.deltas[name] = s
    return out


def _merge_tensor(base: Tensor, deltas: list[tuple[np.ndarray, float]], dtype: str,
                  put: Callable[[int, np.ndarray], None] | None = None) -> Tensor | None:
    """base + sum(lam*delta) in float64, chunk by chunk, each read into
    per-call scratch (see read_chunk), rounded once to `dtype`'s stored
    form: into a new Tensor, returned, or, given `put`, into scratch handed
    on as put(start, chunk). A delta is float64 or a stored form. Every NaN
    is written as the positive quiet NaN of `dtype`, since sign and payload
    follow numpy's loop choice and so the chunk length and CPU. Overflow
    and NaN are results, not warnings, in pool threads too."""
    src = base.data.reshape(-1)
    n = min(src.size, _CHUNK)
    out = np.empty(src.size if put is None else n, dtype=storage_dtype(dtype))
    stored = np.empty(n, src.dtype)
    acc = None if out.dtype == np.float64 else np.empty(n)  # float64 sums in `out` itself
    term = np.empty(n)
    flat = [(d.reshape(-1), np.float64(lam),
             term if d.dtype == np.float64 else np.empty(n, d.dtype)) for d, lam in deltas]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, _CHUNK):
            k = min(_CHUNK, src.size - start)
            dst = out[start:start + k] if put is None else out[:k]
            part = widen(read_chunk(src, start, stored[:k]), dst if acc is None else acc[:k])
            for delta, lam, scratch in flat:
                chunk = read_chunk(delta, start, scratch[:k])
                if chunk.dtype == np.uint16:
                    chunk = decode(chunk, "BF16")
                if abs(lam) == 1.0:  # +-1 scales exactly, and x + -y rounds as x - y
                    (np.add if lam > 0 else np.subtract)(part, chunk, out=part)
                else:  # a float64 lam widens the chunk; one read into term scales in place
                    part += np.multiply(chunk, lam, out=term[:k])
            part[np.isnan(part)] = np.nan
            if acc is not None:
                narrow(part, dtype, dst)
            if put is not None:
                put(start, dst)
    return None if put is not None else Tensor(dtype, out.reshape(base.shape))


def apply(base: Checkpoint, tv: TaskVector) -> Checkpoint:
    """out = base + tv, cast back per-tensor to the base dtype; untouched
    tensors are copied bit-exactly, and extras appended verbatim."""
    return tv_merge(base, [(tv, 1.0)]).materialize()


def tv_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
             threads: int = 1) -> LazyCheckpoint:
    """Scaled vector addition, out = base + sum(lam_i * tv_i), accumulated
    once in float64 and cast once per tensor. The operands are checked now;
    each tensor is merged when it is written or `materialize()`d, up to
    `threads` at once in any order, so a written merge holds only scratch."""
    if not weighted:
        raise MergeError("tv_merge requires at least one (vector, weight) pair")
    for _, lam in weighted:
        if not np.isfinite(lam):
            raise ValueError(f"non-finite merge weight {lam}")
    per_name: dict[str, list[tuple[np.ndarray, float]]] = {}
    extras: dict[str, Tensor] = {}
    for tv, lam in weighted:
        for name, d in tv.deltas.items():
            if name not in base:
                raise MergeError(f"task vector tensor {name!r} missing from base")
            if base[name].shape != d.shape:
                raise MergeError(
                    f"tensor {name!r}: shape mismatch base {base[name].shape} vs delta {d.shape}")
            per_name.setdefault(name, []).append((d, float(lam)))
        for name, t in tv.extras.items():
            if name not in base:
                extras.setdefault(name, t)
    layout = {**base.layout, **{name: (t.dtype, t.shape) for name, t in extras.items()}}

    def make(name: str, put) -> Tensor | None:
        if name not in per_name:
            return base[name] if name in base else extras[name]
        return _merge_tensor(base[name], per_name[name], base[name].dtype, put)

    return LazyCheckpoint(layout, make, dict(base.metadata) if base.metadata else None, threads)
