"""Task-vector extraction and scaled vector-addition merging.

All arithmetic accumulates in float64 regardless of storage dtype; a
merge rounds each element once, to its base tensor's dtype. A writer's
`dtype_policy` other than "keep" (a recipe's `dtype`) casts that rounded
result, so where the policy's dtype is not the base's, an element is
rounded twice, not once to the dtype written. One kernel,
`_merge_tensor`, merges, a cache-sized chunk at a time, each operand
read by position where the file is mapped (see `read_chunk`), so
temporaries stay small whatever the tensor size and no mapped page is
touched. A merge (`tv_merge`) and a vector's archive
(`TaskVector.to_checkpoint`) are `LazyCheckpoint`s whose makers hand
each chunk on as it is made, so threads make whole tensors in any order
and hold only their scratch. A vector extracted from a fine-tuned
checkpoint holds `LazyDelta`s, read as the difference of their two
stored sides (see `read_chunk`), so no whole extracted vector is held.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dtypes import narrow, storage_dtype, widen
from .tensor_store import (_CHUNK, ArchiveError, Checkpoint, LazyCheckpoint, Tensor,
                           read_archive, read_chunk, read_chunks)

TASK_VECTOR_KIND = "task_vector"
KIND_KEY = "vecmerge.kind"

MISMATCH_MODES = ("error", "ignore", "copy_from_finetuned")


class MergeError(ValueError):
    """Incompatible operands for a merge operation."""


@dataclass(frozen=True)
class LazyDelta:
    """The float64 delta of a fine-tuned tensor against its base tensor,
    unread: it holds the two tensors and knows its shape, size and dtype.
    `read_chunk` reads any run of it from the two stored sides, and numpy,
    as it is an array-like, reads it whole, anew at each call."""

    finetuned: Tensor
    base: Tensor
    dtype = np.dtype(np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.finetuned.shape

    @property
    def size(self) -> int:
        return self.finetuned.data.size

    def ravel(self, order: str = "C") -> "LazyDelta":
        """Itself: `read_chunk` reads it flat, in C order."""
        return self

    def __array__(self, dtype=None, copy=None) -> np.ndarray:  # numpy casts to `dtype`
        return read_chunk(self, 0, np.empty(self.size)).reshape(self.shape)


@dataclass
class TaskVector:
    """Per-tensor float64 deltas (fine-tuned minus base), each an array or
    a `LazyDelta`, which is read from its two sides where it is used.

    `extras` carries fine-tuned-only tensors (e.g. task heads) under the
    copy_from_finetuned policy, for verbatim re-attachment on apply.
    `ignored` lists the other mismatched tensors, which are dropped.
    """

    deltas: dict[str, np.ndarray | LazyDelta] = field(default_factory=dict)
    extras: dict[str, Tensor] = field(default_factory=dict)
    ignored: list[str] = field(default_factory=list)
    origin: str = "constructed"

    def names(self) -> list[str]:
        return sorted(self.deltas)

    @property
    def metadata(self) -> dict[str, str]:
        return {KIND_KEY: TASK_VECTOR_KIND, "vecmerge.origin": self.origin}

    def to_checkpoint(self) -> LazyCheckpoint:
        """The deltas as F64 tensors, each read a chunk at a time as it is
        written (see read_chunks), so a written vector holds no delta."""
        def make(name: str, put) -> None:
            for start, chunk in read_chunks(self.deltas[name]):
                put(start, chunk)

        return LazyCheckpoint({name: ("F64", d.shape) for name, d in self.deltas.items()}, make,
                              self.metadata)

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


def extract(base: Checkpoint, finetuned: Checkpoint, policy: str = "error") -> TaskVector:
    """finetuned - base over the shared name/shape intersection, as a task
    vector whose deltas are `LazyDelta`s. Other tensors go per `policy`:
    error aborts, ignore drops them, and copy_from_finetuned makes the
    fine-tuned-only ones extras and drops a reshaped one, as a merge keeps
    the base's."""
    if policy not in MISMATCH_MODES:
        raise ValueError(f"unknown mismatch policy {policy!r}")
    shared = [n for n in finetuned.names()
              if n in base and base[n].shape == finetuned[n].shape]
    if not shared:
        raise MergeError("no shared tensors with matching shapes between base and finetuned")
    mismatched = sorted({*base.names(), *finetuned.names()} - set(shared))
    if mismatched and policy == "error":
        raise MergeError(f"mismatched tensors (policy=error): {', '.join(mismatched)}")
    extras = ({n: finetuned[n] for n in mismatched if n not in base}
              if policy == "copy_from_finetuned" else {})
    tv = TaskVector({n: LazyDelta(finetuned[n], base[n]) for n in shared}, extras=extras,
                    ignored=[n for n in mismatched if n not in extras],
                    origin=f"extract(base={len(base)} tensors, finetuned={len(finetuned)} tensors)")
    return tv


def extract_task_vector(base: Checkpoint, finetuned: Checkpoint,
                        policy: str = "error") -> TaskVector:
    """`extract`'s task vector, with its deltas in memory."""
    tv = extract(base, finetuned, policy)
    tv.deltas = {name: t.data for name, t in tv.to_checkpoint().materialize().items()}
    return tv


def load_task_vector(path, base: Checkpoint | None = None, policy: str = "error") -> TaskVector:
    """Read a stored task vector archive.

    Any other archive is taken as a fine-tuned checkpoint whose vector is
    extracted against `base` under `policy`, as `extract` makes it: each
    delta is a `LazyDelta`, read where it is used. Without a base it is
    rejected.
    """
    ckpt = read_archive(path)
    if is_task_vector_archive(ckpt):
        return TaskVector.from_checkpoint(ckpt)
    if base is None:
        raise ArchiveError(f"{path} is not a stored task vector archive")
    return extract(base, ckpt, policy)


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
        s = np.multiply(d, float(lam))
        s.setflags(write=False)
        out.deltas[name] = s
    return out


def _merge_tensor(base: Tensor, deltas: list[tuple[np.ndarray | LazyDelta, float]], dtype: str,
                  put: Callable[[int, np.ndarray], None]) -> None:
    """base + sum(lam*delta) in float64, chunk by chunk, each operand read
    into per-call scratch (see read_chunk), rounded once to `dtype`'s
    stored form in scratch handed on as put(start, chunk). A delta is a
    float64 array or a `LazyDelta`. Every NaN is written as the positive
    quiet NaN of `dtype`, since sign and payload follow numpy's loop choice
    and so the chunk length and CPU. Overflow and NaN are results, not
    warnings, in pool threads too."""
    src = base.data.reshape(-1)
    n = min(src.size, _CHUNK)
    out = np.empty(n, dtype=storage_dtype(dtype))
    stored = np.empty(n, src.dtype)
    acc = None if out.dtype == np.float64 else np.empty(n)  # float64 sums in `out` itself
    term = np.empty(n)
    flat = [(d.ravel(), np.float64(lam)) for d, lam in deltas]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, _CHUNK):
            k = min(_CHUNK, src.size - start)
            part = widen(read_chunk(src, start, stored[:k]), out[:k] if acc is None else acc[:k])
            for delta, lam in flat:
                chunk = read_chunk(delta, start, term[:k])
                if abs(lam) == 1.0:  # +-1 scales exactly, and x + -y rounds as x - y
                    (np.add if lam > 0 else np.subtract)(part, chunk, out=part)
                else:  # one read into term scales in place
                    part += np.multiply(chunk, lam, out=term[:k])
            part[np.isnan(part)] = np.nan
            if acc is not None:
                narrow(part, dtype, out[:k])
            put(start, out[:k])


def apply(base: Checkpoint, tv: TaskVector) -> Checkpoint:
    """out = base + tv, cast back per-tensor to the base dtype; untouched
    tensors are copied bit-exactly, and extras appended verbatim."""
    return tv_merge(base, [(tv, 1.0)]).materialize()


def tv_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
             threads: int = 1) -> LazyCheckpoint:
    """Scaled vector addition, out = base + sum(lam_i * tv_i), accumulated
    once in float64 and cast once per tensor. The operands are checked now;
    each tensor is merged when it is written or `materialize()`d, up to
    `threads` at once in any order, so a written merge holds only scratch,
    a `LazyDelta` read into it a chunk at a time."""
    if not weighted:
        raise MergeError("tv_merge requires at least one (vector, weight) pair")
    for _, lam in weighted:
        if not np.isfinite(lam):
            raise ValueError(f"non-finite merge weight {lam}")
    return _lazy_merge(base, weighted, threads)


def _lazy_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]], threads: int = 1,
                combine: Callable | None = None) -> LazyCheckpoint:
    """The base with each tensor that a vector holds merged by `_merge_tensor`
    from its [(delta, weight)] in vector order, or from what combine(name,
    those pairs) makes of them, and each extra the base lacks appended.
    Every delta is checked against the base now; a `LazyDelta` is read in
    the thread that makes its tensor, as it is merged."""
    per_name: dict[str, list[tuple[np.ndarray | LazyDelta, float]]] = {}
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
        deltas = per_name[name]
        if combine is not None:
            deltas = combine(name, deltas)
        return _merge_tensor(base[name], deltas, base[name].dtype, put)

    return LazyCheckpoint(layout, make, dict(base.metadata) if base.metadata else None, threads)
