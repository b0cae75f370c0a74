"""Task-vector extraction and scaled vector-addition merging.

All arithmetic accumulates in float64 regardless of storage dtype; the
rounding back to the base tensor's dtype happens exactly once per output
element. Tensors are processed in cache-sized chunks, each decoded
straight from the base's stored form, so merge temporaries stay small
whatever the tensor size, and a merge made for writing (`tv_merge_lazy`)
holds only the few tensors in flight.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dtypes import narrow, storage_dtype, widen
from .tensor_store import ArchiveError, Checkpoint, LazyCheckpoint, Tensor, read_archive, release

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
    def from_checkpoint(ckpt: Checkpoint, origin: str = "loaded from archive") -> "TaskVector":
        """F64 deltas stay views of the checkpoint's data, misaligned or not."""
        return TaskVector.from_arrays({name: widen(ckpt[name].data) for name in ckpt.names()},
                                      origin=origin)

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray], origin: str = "constructed") -> "TaskVector":
        deltas = {}
        for name, a in arrays.items():
            d = np.asarray(a, dtype=np.float64)
            d.setflags(write=False)
            deltas[name] = d
        return TaskVector(deltas=deltas, origin=origin)


def is_task_vector_archive(ckpt: Checkpoint) -> bool:
    return bool(ckpt.metadata) and ckpt.metadata.get(KIND_KEY) == TASK_VECTOR_KIND


def _operand(t: Tensor) -> np.ndarray:
    """A tensor's values as a ufunc operand: BF16 decoded, any other stored
    form as it is, since a ufunc casts it, misaligned or not, in small
    buffers faster than a full aligned copy is made."""
    return t.values if t.dtype == "BF16" else t.data


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
        d = np.subtract(_operand(finetuned[name]), _operand(base[name]), dtype=np.float64)
        d.setflags(write=False)
        tv.deltas[name] = d
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
        return TaskVector.from_checkpoint(ckpt, origin=f"loaded from {path}")
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
    out = TaskVector(extras=dict(tv.extras), ignored=list(tv.ignored),
                     origin=f"scale({tv.origin}, {lam})")
    for name, d in tv.deltas.items():
        s = d * float(lam)
        s.setflags(write=False)
        out.deltas[name] = s
    return out


def _merge_tensor(base: Tensor, deltas: list[tuple[np.ndarray, float]]) -> Tensor:
    """base + sum(lam*delta) in float64, chunk by chunk, rounded once to
    the base's stored form; each delta's mapped pages are released as the
    chunks pass them. Every NaN is written as the positive quiet NaN of
    the stored dtype, whatever sign and payload the sum gave it, since
    those follow numpy's loop choice and so the chunk length and CPU."""
    src = base.data.reshape(-1)
    flat = [(delta.reshape(-1), lam) for delta, lam in deltas]
    out = np.empty(src.size, dtype=storage_dtype(base.dtype))
    acc = np.empty(min(src.size, _CHUNK))
    term = np.empty_like(acc)
    for start in range(0, src.size, _CHUNK):
        stop = min(start + _CHUNK, src.size)
        part = widen(src[start:stop], acc[:stop - start])
        for delta, lam in flat:
            part += np.multiply(delta[start:stop], lam, out=term[:stop - start])
            release(delta, stop)
        part[np.isnan(part)] = np.nan
        narrow(part, base.dtype, out[start:stop])
    return Tensor(base.dtype, out.reshape(base.shape))


def apply(base: Checkpoint, tv: TaskVector, threads: int = 1) -> Checkpoint:
    """out = base + tv, cast back per-tensor to the base dtype.

    Tensors untouched by tv are copied bit-exactly; extras are appended
    verbatim.
    """
    return tv_merge(base, [(tv, 1.0)], threads=threads)


def _in_order(fn: Callable, items: list, sizes: list[int], threads: int) -> Iterator:
    """fn over items, yielded in order. At most `threads` calls run at once,
    and the next item is started only while the sizes of those started
    and not yet yielded sum to under `threads` times the largest size."""
    if threads <= 1:
        yield from map(fn, items)
        return
    budget = threads * max(sizes, default=0)
    queue = deque(zip(items, sizes))
    window = deque()
    held = 0
    with ThreadPoolExecutor(max_workers=threads) as pool:

        def fill():
            nonlocal held
            while queue and (not window or held < budget):
                item, size = queue.popleft()
                window.append((pool.submit(fn, item), size))
                held += size

        try:
            fill()
            while window:
                future, size = window.popleft()
                held -= size
                result = future.result()
                fill()  # before yielding, so the pool works while the caller uses result
                yield result
        finally:
            for future, _ in window:
                future.cancel()


def tv_merge_lazy(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
                  threads: int = 1) -> LazyCheckpoint:
    """tv_merge for writing: the operands are checked now, and each tensor
    is merged only when it is read, in name order.

    At most `threads` tensors are merged at once, and merging runs ahead
    of the reader by under `threads` times the largest tensor's elements,
    so small tensors between large ones do not leave threads idle. The
    mapped pages of each vector are released as the merge's chunks pass
    them, and those of the base once its tensor is merged.
    """
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
    layout = {name: (t.dtype, t.shape) for name, t in (*base.items(), *extras.items())}

    def one(name: str) -> tuple[str, Tensor]:
        if name not in per_name:
            return name, base[name] if name in base else extras[name]
        tensor = _merge_tensor(base[name], per_name[name])
        release(base[name].data)
        return name, tensor

    names = sorted(layout)
    sizes = [base[n].data.size if n in per_name else 0 for n in names]
    return LazyCheckpoint(layout, lambda: _in_order(one, names, sizes, threads),
                          dict(base.metadata) if base.metadata else None)


def tv_merge(base: Checkpoint, weighted: list[tuple[TaskVector, float]],
             threads: int = 1) -> Checkpoint:
    """Scaled vector addition: out = base + sum(lam_i * tv_i).

    Accumulation happens once in float64 across all vectors, followed by
    a single cast per tensor (never iterated casting).
    """
    return tv_merge_lazy(base, weighted, threads=threads).materialize()
