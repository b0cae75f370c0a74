"""Bit-exact reader/writer/validator for the tensor-archive format.

Layout: 8-byte little-endian unsigned header length N, then N bytes of
UTF-8 JSON `{name: {"dtype", "shape", "data_offsets"}}` (plus an optional
"__metadata__" string map), then the raw little-endian data region.

The writer is canonical: tensors are serialized in lexicographic name
order with offsets packed contiguously from 0, so equal checkpoints
produce byte-equal archives.

Files are read through a read-only memory map, and F64/F32/F16 tensors
whose data is aligned are views of it; a checkpoint's `release(name)`
drops the mapped pages of a tensor it no longer needs. Files are written
one tensor at a time to a temp file that is then renamed into place, and
a `LazyCheckpoint` makes each tensor only when the writer reaches it.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import stat
import weakref
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .dtypes import DTYPE_SIZES, cast_values, decode, dtype_size, encode

METADATA_KEY = "__metadata__"
MAX_DIMS = 32  # numpy 1.x's limit; numpy 2 allows 64
MAX_HEADER_BYTES = 100_000_000  # the safetensors limit
_MAX_NBYTES = int(np.iinfo(np.intp).max)


class ArchiveError(ValueError):
    """Malformed or inconsistent tensor archive."""


@dataclass(frozen=True)
class TensorSpec:
    name: str
    dtype: str
    shape: tuple[int, ...]
    data_offsets: tuple[int, int]

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.numel * dtype_size(self.dtype)


@dataclass(frozen=True)
class Tensor:
    """One named tensor: archive dtype tag plus in-memory values."""

    dtype: str
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.values.shape)


def _keep_pages(name: str) -> None:
    """The release of a checkpoint that maps no file: there is nothing to drop."""


@dataclass
class Checkpoint:
    """Immutable-by-convention ordered map of named tensors.

    `release(name)` tells the checkpoint that tensor `name` will not be
    read again soon; a mapped checkpoint drops its pages (see read_archive).
    """

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] | None = None
    release: Callable[[str], None] = field(default=_keep_pages, repr=False, compare=False)

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __len__(self) -> int:
        return len(self.tensors)

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def values(self, name: str) -> np.ndarray:
        return self.tensors[name].values

    def specs(self) -> list[tuple[str, str, tuple[int, ...]]]:
        """(name, dtype, shape) of every tensor, in name order."""
        return [(name, self[name].dtype, self[name].shape) for name in self.names()]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        """(name, tensor) pairs in name order."""
        return ((name, self[name]) for name in self.names())

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray], dtype: str = "F64",
                    metadata: dict[str, str] | None = None) -> "Checkpoint":
        tensors = {name: Tensor(dtype, cast_values(np.asarray(a, dtype=np.float64), dtype))
                   for name, a in arrays.items()}
        return Checkpoint(tensors, metadata)


@dataclass
class LazyCheckpoint:
    """A checkpoint whose tensors are made one at a time, as they are read.

    `layout` maps each name to its (dtype, shape), known before any
    tensor is made, so an archive header can be written first. `produce()`
    yields (name, Tensor) pairs in name order, making each tensor once.
    """

    layout: dict[str, tuple[str, tuple[int, ...]]]
    produce: Callable[[], Iterator[tuple[str, Tensor]]]
    metadata: dict[str, str] | None = None

    def __len__(self) -> int:
        return len(self.layout)

    def names(self) -> list[str]:
        return sorted(self.layout)

    def specs(self) -> list[tuple[str, str, tuple[int, ...]]]:
        return [(name, *self.layout[name]) for name in self.names()]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return self.produce()

    def materialize(self) -> Checkpoint:
        return Checkpoint(dict(self.produce()), self.metadata)


@dataclass
class ValidationReport:
    tensor_count: int = 0
    total_bytes: int = 0
    dtype_counts: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "dtype_counts": dict(sorted(self.dtype_counts.items())),
            "tensor_count": self.tensor_count,
            "total_bytes": self.total_bytes,
            "valid": self.valid,
            "violations": list(self.violations),
        }


def _parse_header(raw: bytes | memoryview,
                  duplicates: list[str] | None = None) -> tuple[dict, dict | None, int]:
    """Split off the JSON header: (tensor entries, metadata, data-region start).

    A repeated key raises, unless a `duplicates` list is given to collect
    the messages instead.
    """
    def pairs_hook(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                message = f"duplicate tensor name {key!r} in header"
                if duplicates is None:
                    raise ArchiveError(message)
                duplicates.append(message)
            out[key] = value
        return out

    if len(raw) < 8:
        raise ArchiveError(f"truncated input: {len(raw)} bytes, need at least 8 for header length")
    n = int.from_bytes(raw[:8], "little")
    if n > MAX_HEADER_BYTES:
        raise ArchiveError(f"header length {n} exceeds the limit of {MAX_HEADER_BYTES} bytes")
    if len(raw) < 8 + n:
        raise ArchiveError(f"truncated input: header length {n} exceeds remaining {len(raw) - 8} bytes")
    try:
        header = json.loads(str(raw[8:8 + n], "utf-8"), object_pairs_hook=pairs_hook)
    except ArchiveError:
        raise
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer over Python's digit limit, or
        # nesting deeper than the recursion limit
        raise ArchiveError(f"malformed JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ArchiveError("malformed JSON header: top level must be an object")
    metadata = header.pop(METADATA_KEY, None)
    if metadata is not None and (
            not isinstance(metadata, dict)
            or any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items())):
        raise ArchiveError(f"{METADATA_KEY} must be a string-to-string map")
    return header, metadata, 8 + n


def _spec_from_entry(name: str, entry) -> TensorSpec:
    if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "data_offsets"}:
        raise ArchiveError(f"tensor {name!r}: header entry must have exactly dtype/shape/data_offsets")
    dtype = entry["dtype"]
    if dtype not in DTYPE_SIZES:
        raise ArchiveError(f"tensor {name!r}: unknown dtype {dtype!r}")
    shape = entry["shape"]
    if not isinstance(shape, list) or any(not isinstance(s, int) or s < 0 for s in shape):
        raise ArchiveError(f"tensor {name!r}: shape must be a list of non-negative integers")
    # a zero-element shape passes the byte-range checks whatever its other
    # dims, so bound it here; every tensor is widened to float64 for merging
    if (len(shape) > MAX_DIMS
            or math.prod(s for s in shape if s) * DTYPE_SIZES["F64"] > _MAX_NBYTES):
        raise ArchiveError(f"tensor {name!r}: shape {shape} cannot be represented in memory")
    offs = entry["data_offsets"]
    if (not isinstance(offs, list) or len(offs) != 2
            or any(not isinstance(o, int) or o < 0 for o in offs) or offs[1] < offs[0]):
        raise ArchiveError(f"tensor {name!r}: data_offsets must be [begin, end] with 0 <= begin <= end")
    return TensorSpec(name, dtype, tuple(shape), (offs[0], offs[1]))


def _check_specs(specs: list[TensorSpec], data_len: int) -> None:
    for spec in specs:
        if not spec.name or spec.name == METADATA_KEY:
            raise ArchiveError(f"invalid tensor name {spec.name!r}")
        begin, end = spec.data_offsets
        if end - begin != spec.nbytes:
            raise ArchiveError(
                f"tensor {spec.name!r}: byte range [{begin}, {end}) holds {end - begin} bytes "
                f"but numel {spec.numel} x {dtype_size(spec.dtype)} requires {spec.nbytes}")
        if end > data_len:
            raise ArchiveError(
                f"tensor {spec.name!r}: out-of-bounds byte range [{begin}, {end}) "
                f"in data region of {data_len} bytes")
    ordered = sorted(specs, key=lambda s: s.data_offsets)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.data_offsets[0] < prev.data_offsets[1]:
            raise ArchiveError(
                f"tensor {cur.name!r}: byte range [{cur.data_offsets[0]}, {cur.data_offsets[1]}) "
                f"overlaps {prev.name!r} ending at offset {prev.data_offsets[1]}")


def _open_archive(path):
    """The bytes of an archive file, as a memoryview of a read-only map.

    Empty and non-regular files (pipes, /dev/stdin) cannot be mapped and
    are read whole. Slice the memoryview, never the map: slicing an mmap
    copies.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            return memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
        return fh.read()


def _page_release(raw, start: int, specs: list[TensorSpec]) -> Callable[[str], None]:
    """A release(name) that drops the mapped pages lying wholly inside a
    tensor's bytes; a later read of them faults them back in from the file.

    It holds the map weakly, so it never keeps alive a map that no tensor
    views.
    """
    if not isinstance(raw, memoryview) or not hasattr(mmap, "MADV_DONTNEED"):
        return _keep_pages
    mapped = weakref.ref(raw.obj)
    ranges = {s.name: (start + s.data_offsets[0], start + s.data_offsets[1]) for s in specs}

    def release(name: str) -> None:
        mm = mapped()
        if mm is None or name not in ranges:
            return
        begin, end = ranges[name]
        lo = -(-begin // mmap.PAGESIZE) * mmap.PAGESIZE
        hi = end // mmap.PAGESIZE * mmap.PAGESIZE
        if hi > lo:
            mm.madvise(mmap.MADV_DONTNEED, lo, hi - lo)

    return release


def read_archive(path_or_bytes) -> Checkpoint:
    """Parse an archive from a path or a bytes object into a Checkpoint.

    The pages of tensors decoded into copies are released at once.
    """
    if isinstance(path_or_bytes, (bytes, bytearray, memoryview)):
        raw = bytes(path_or_bytes)
    else:
        raw = _open_archive(path_or_bytes)
    header, metadata, start = _parse_header(raw)
    specs = [_spec_from_entry(name, entry) for name, entry in header.items()]
    _check_specs(specs, len(raw) - start)

    release = _page_release(raw, start, specs)
    region = np.frombuffer(raw, dtype=np.uint8)
    tensors = {}
    for spec in specs:
        begin, end = spec.data_offsets
        values = decode(raw[start + begin:start + end], spec.dtype, spec.shape)
        if not np.may_share_memory(values, region):
            release(spec.name)
        tensors[spec.name] = Tensor(spec.dtype, values)
    return Checkpoint(tensors, dict(metadata) if metadata else None, release)


def _serialize(checkpoint: Checkpoint | LazyCheckpoint, dtype_policy: str,
               allow_nonfinite: bool):
    """Yield an archive's bytes: the header, then one encoded tensor at a time.

    The header needs only each tensor's dtype and shape; each tensor is
    taken from the checkpoint just before it is encoded.
    """
    if dtype_policy != "keep" and dtype_policy not in DTYPE_SIZES:
        raise ValueError(f"invalid dtype policy {dtype_policy!r}")

    specs = checkpoint.specs()
    header: dict[str, dict] = {}
    if checkpoint.metadata:
        header[METADATA_KEY] = dict(sorted(checkpoint.metadata.items()))
    offset = 0
    for name, dtype, shape in specs:
        if not name or name == METADATA_KEY:
            raise ArchiveError(f"invalid tensor name {name!r}")
        stored = dtype if dtype_policy == "keep" else dtype_policy
        nbytes = math.prod(shape) * dtype_size(stored)
        header[name] = {
            "dtype": stored,
            "shape": list(shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes

    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    yield len(header_bytes).to_bytes(8, "little") + header_bytes
    for (name, dtype, shape), (got, tensor) in zip(specs, checkpoint.items(), strict=True):
        if (got, tensor.dtype, tensor.shape) != (name, dtype, shape):
            raise ValueError(f"tensor {got!r} {tensor.dtype} {list(tensor.shape)} was made "
                             f"where the header holds {name!r} {dtype} {list(shape)}")
        stored = header[name]["dtype"]
        values = tensor.values
        if stored != dtype:
            values = cast_values(values.astype(np.float64), stored, allow_nonfinite=allow_nonfinite)
        elif not allow_nonfinite and not np.isfinite(values).all():
            raise ValueError(f"tensor {name!r}: non-finite value with allow_nonfinite=False")
        yield encode(values, stored)


def write_archive(checkpoint: Checkpoint | LazyCheckpoint, dtype_policy: str = "keep",
                  allow_nonfinite: bool = True) -> bytes:
    """Serialize a Checkpoint canonically; `dtype_policy` is "keep" or a dtype name."""
    return b"".join(_serialize(checkpoint, dtype_policy, allow_nonfinite))


def _create_temp(path) -> tuple[str, int]:
    """Create a new file beside `path` under a unique name; (name, fd).

    The file gets the mode open() would give it, 0o666 & ~umask, where
    tempfile.mkstemp would make it 0o600; O_EXCL keeps names unique.
    """
    while True:
        tmp = f"{os.fspath(path)}.tmp.{os.urandom(6).hex()}"
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def save_archive(checkpoint: Checkpoint | LazyCheckpoint, path, dtype_policy: str = "keep",
                 allow_nonfinite: bool = True) -> None:
    """Write atomically: stream to a temp file, then rename into place.

    A LazyCheckpoint's tensors are made while the file is written, so at
    most a few of them are held at once.
    """
    tmp, fd = _create_temp(path)
    try:
        with open(fd, "wb") as fh:
            fh.writelines(_serialize(checkpoint, dtype_policy, allow_nonfinite))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def validate_archive(path) -> ValidationReport:
    """Inspect an archive, reporting format violations instead of raising."""
    report = ValidationReport()
    raw = _open_archive(path)
    try:
        header, _, start = _parse_header(raw, duplicates=report.violations)
    except ArchiveError as exc:
        report.violations.append(str(exc))
        return report

    data_len = len(raw) - start
    specs = []
    for name, entry in header.items():
        try:
            spec = _spec_from_entry(name, entry)
            _check_specs([spec], data_len)
        except ArchiveError as exc:
            report.violations.append(str(exc))
            continue
        specs.append(spec)

    report.tensor_count = len(specs)
    report.total_bytes = sum(s.nbytes for s in specs)
    for spec in specs:
        report.dtype_counts[spec.dtype] = report.dtype_counts.get(spec.dtype, 0) + 1

    ordered = sorted(specs, key=lambda s: s.data_offsets)
    cursor = 0
    for spec in ordered:
        begin, end = spec.data_offsets
        if begin < cursor:
            report.violations.append(
                f"tensor {spec.name!r}: byte range [{begin}, {end}) overlaps preceding tensor")
        elif begin > cursor:
            report.violations.append(
                f"non-contiguous data: gap of {begin - cursor} bytes before tensor {spec.name!r}")
        cursor = max(cursor, end)
    if cursor != data_len:
        report.violations.append(
            f"non-contiguous data: {data_len - cursor} trailing bytes after last tensor")
    return report
