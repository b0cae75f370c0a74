"""Bit-exact reader/writer/validator for the tensor-archive format.

Layout: 8-byte little-endian unsigned header length N, then N bytes of
UTF-8 JSON `{name: {"dtype", "shape", "data_offsets"}}` (plus an optional
"__metadata__" string map), then the raw little-endian data region.

The writer is canonical: tensors in lexicographic name order, offsets
packed from 0, so equal checkpoints give byte-equal archives. The header
fixes each tensor's offset, so tensors are written by position into a
temp file, then renamed into place; a `LazyCheckpoint`'s are made while
it is written, in any order, each chunk written as it is made.

Every tensor holds one form, its stored form: the archive encoding, with
BF16 as uint16 bits (see dtypes). Its `values` are a decoded view, made
anew at each read and never cached. Files are mapped read-only, and
nothing is copied at read: each tensor's data is a view of the map or of
the bytes read, which may be misaligned. The merge kernel, the writer,
`extract`, `diff`, `cosine` and the TIES kernels (`trim`, so
`interference` and `ties`) read mapped data chunk by chunk with
`read_chunk`, a positioned read, so they hold no mapped page, and raise
ArchiveError on a file truncated after it was read. `read_chunk` reads a
fine-tuned tensor's delta (a `LazyDelta`) from its two stored tensors
in the same way, so no kernel makes the delta whole. Only `values` still
reads the map; such a file kills the process with SIGBUS. `_layout`
alone decides what is valid: the reader raises its first problem, and
`validate_archive` lists them all, then gaps and trailing bytes.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import stat
import threading
import weakref
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dtypes import (DTYPE_SIZES, decode, dtype_size, encode, narrow, storage_dtype,
                     stored_view, widen)

METADATA_KEY = "__metadata__"
MAX_DIMS = 32  # numpy 1.x's limit; numpy 2 allows 64
MAX_HEADER_BYTES = 100_000_000  # the safetensors limit
_MAX_NBYTES = int(np.iinfo(np.intp).max)
_CHUNK = 1 << 16  # elements per chunk of a merge, a whole-tensor copy or a report sum


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
    """One named tensor: its archive dtype tag and `data`, its stored form
    (uint16 bits for BF16, and possibly misaligned when mapped from a
    file). `values` decodes `data` anew at each read, caching nothing."""

    dtype: str
    data: np.ndarray

    def __post_init__(self):
        stored = storage_dtype(self.dtype)
        if self.data.dtype != stored:
            raise TypeError(f"{self.dtype} tensor data must be {stored}, not {self.data.dtype}")
        self.data.setflags(write=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def values(self) -> np.ndarray:
        return decode(self.data, self.dtype)


@dataclass
class Checkpoint:
    """Immutable-by-convention ordered map of named tensors."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    metadata: dict[str, str] | None = None

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

    @property
    def layout(self) -> dict[str, tuple[str, tuple[int, ...]]]:
        """Each tensor's (dtype, shape), by name, as a LazyCheckpoint holds it."""
        return {name: (t.dtype, t.shape) for name, t in self.tensors.items()}

    def items(self) -> Iterator[tuple[str, Tensor]]:
        """(name, tensor) pairs in name order."""
        return ((name, self[name]) for name in self.names())

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray], dtype: str = "F64",
                    metadata: dict[str, str] | None = None) -> "Checkpoint":
        tensors = {name: Tensor(dtype, narrow(np.asarray(a, dtype=np.float64), dtype))
                   for name, a in arrays.items()}
        return Checkpoint(tensors, metadata)


@dataclass
class LazyCheckpoint:
    """A checkpoint whose tensors are made only when they are written.

    `layout` maps each name to its (dtype, shape), so the header, and each
    tensor's place in the file, is fixed before any tensor is made.
    `make(name, put)` returns tensor `name` whole, or hands its stored
    elements to `put(start, data)` in 1-d pieces that go at flat index
    `start` and returns None. The writer and `materialize`, which copies
    the pieces into a new array, make each tensor once, up to `threads` at
    once, in any order, and check it against the layout alike (see _make)."""

    layout: dict[str, tuple[str, tuple[int, ...]]]
    make: Callable[[str, Callable[[int, np.ndarray], None]], Tensor | None]
    metadata: dict[str, str] | None = None
    threads: int = 1

    def __len__(self) -> int:
        return len(self.layout)

    def names(self) -> list[str]:
        return sorted(self.layout)

    def materialize(self) -> Checkpoint:
        def made(name: str) -> Tensor:
            dtype, shape = self.layout[name]
            data = np.empty(math.prod(shape), storage_dtype(dtype))
            tensor = _make(self, name, lambda at, piece: np.copyto(data[at:at + piece.size], piece))
            return Tensor(dtype, data.reshape(shape)) if tensor is None else tensor

        names = self.names()
        return Checkpoint(dict(zip(names, _each(made, names, self.threads))), self.metadata)


def _make(checkpoint: LazyCheckpoint, name: str,
          place: Callable[[int, np.ndarray], None]) -> Tensor | None:
    """checkpoint.make(name, put), each piece checked as put gets it before
    place(at, piece) takes it: a piece of another dtype or past the end, a
    whole tensor unlike the layout or a tensor left short raise ValueError."""
    dtype, shape = checkpoint.layout[name]
    size, made = math.prod(shape), 0

    def unlike(what: str) -> ValueError:
        return ValueError(f"tensor {name!r} was made as {what} "
                          f"where the header holds {name!r} {dtype} {list(shape)}")

    def put(at: int, piece: np.ndarray) -> None:
        nonlocal made
        if piece.dtype != storage_dtype(dtype) or not 0 <= at <= size - piece.size:
            raise unlike(f"{piece.dtype} elements [{at}, {at + piece.size})")
        place(at, piece)
        made += piece.size

    tensor = checkpoint.make(name, put)
    if tensor is not None and (tensor.dtype, tensor.shape) != (dtype, shape):
        raise unlike(f"{tensor.dtype} {list(tensor.shape)}")
    if tensor is None and made != size:
        raise unlike(f"{made} elements")
    return tensor


def _each(fn: Callable, items: list, threads: int) -> list:
    """[fn(item) for item in items], up to `threads` calls at once in a pool
    (none at 1). A failure cancels the calls not yet started and is raised
    once the running ones have ended."""
    if threads <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class _Object(dict):
    """A JSON object of a header; `repeated` lists each repeat of a key."""

    repeated: tuple[str, ...] = ()


def _object(pairs) -> _Object:
    out = _Object(pairs)  # the last value of a repeated key wins
    if len(out) < len(pairs):
        seen: set[str] = set()
        out.repeated = tuple(k for k, _ in pairs if k in seen or seen.add(k))
    return out


def _parse_header(raw: memoryview, problems: list[str]) -> tuple[dict, dict | None, int]:
    """Split off the JSON header: (tensor entries, metadata, data-region start).

    A key repeated at the top level or in the metadata is appended to
    `problems`; any other break raises. Repeats inside a tensor entry stay
    on the entry's `repeated`.
    """
    if len(raw) < 8:
        raise ArchiveError(f"truncated input: {len(raw)} bytes, need at least 8 for header length")
    n = int.from_bytes(raw[:8], "little")
    if n > MAX_HEADER_BYTES:
        raise ArchiveError(f"header length {n} exceeds the limit of {MAX_HEADER_BYTES} bytes")
    if len(raw) < 8 + n:
        raise ArchiveError(f"truncated input: header length {n} exceeds remaining {len(raw) - 8} bytes")
    try:
        header = json.loads(str(raw[8:8 + n], "utf-8"), object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer over Python's digit limit, or
        # nesting deeper than the recursion limit
        raise ArchiveError(f"malformed JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ArchiveError("malformed JSON header: top level must be an object")
    problems.extend(f"duplicate key {k!r} in header" if k == METADATA_KEY
                    else f"duplicate tensor name {k!r} in header" for k in header.repeated)
    metadata = header.pop(METADATA_KEY, None)
    if metadata is not None and (
            not isinstance(metadata, dict)
            or any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items())):
        raise ArchiveError(f"{METADATA_KEY} must be a string-to-string map")
    problems.extend(f"duplicate key {k!r} in {METADATA_KEY}"
                    for k in getattr(metadata, "repeated", ()))
    return header, metadata, 8 + n


def _spec_from_entry(name: str, entry, data_len: int) -> TensorSpec:
    if not name:
        raise ArchiveError(f"invalid tensor name {name!r}")
    if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "data_offsets"}:
        raise ArchiveError(f"tensor {name!r}: header entry must have exactly dtype/shape/data_offsets")
    dtype = entry["dtype"]
    if not isinstance(dtype, str) or dtype not in DTYPE_SIZES:
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
    spec = TensorSpec(name, dtype, tuple(shape), (offs[0], offs[1]))
    begin, end = spec.data_offsets
    if end - begin != spec.nbytes:
        raise ArchiveError(
            f"tensor {name!r}: byte range [{begin}, {end}) holds {end - begin} bytes "
            f"but numel {spec.numel} x {dtype_size(dtype)} requires {spec.nbytes}")
    if end > data_len:
        raise ArchiveError(
            f"tensor {name!r}: out-of-bounds byte range [{begin}, {end}) "
            f"in data region of {data_len} bytes")
    return spec


def _layout(raw: memoryview, problems: list[str]) -> tuple[list[TensorSpec], dict | None,
                                                           memoryview | None]:
    """(specs of the well-formed entries, metadata, data region, or None
    if the header is unreadable), appending every break of the format to
    `problems` in the order met: the header's, each entry's, overlaps."""
    try:
        header, metadata, start = _parse_header(raw, problems)
    except ArchiveError as exc:
        problems.append(str(exc))
        return [], None, None
    data = raw[start:]
    specs = []
    for name, entry in header.items():
        problems.extend(f"tensor {name!r}: duplicate key {k!r} in header entry"
                        for k in getattr(entry, "repeated", ()))
        try:
            specs.append(_spec_from_entry(name, entry, len(data)))
        except ArchiveError as exc:
            problems.append(str(exc))
    reach = None  # the range that ends furthest among those before
    for spec in sorted(specs, key=lambda s: s.data_offsets):
        begin, end = spec.data_offsets
        if reach and begin < reach.data_offsets[1]:
            problems.append(
                f"tensor {spec.name!r}: byte range [{begin}, {end}) "
                f"overlaps {reach.name!r} ending at offset {reach.data_offsets[1]}")
        if not reach or end > reach.data_offsets[1]:
            reach = spec
    return specs, metadata, data


class _ArchiveMap(mmap.mmap):
    """A map made by _open_archive, at memory `address`, with `fd`, its own
    descriptor of the file: the only kind `read_chunk` reads by position."""


def _open_archive(path) -> memoryview:
    """The bytes of an archive file, as a memoryview of a read-only map.

    Empty and non-regular files (pipes, /dev/stdin) cannot be mapped and
    are read whole. Slice the memoryview, never the map: slicing an mmap
    copies.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not (stat.S_ISREG(info.st_mode) and info.st_size):
            return memoryview(fh.read())
        mapped = _ArchiveMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        mapped.fd = os.dup(fh.fileno())
    weakref.finalize(mapped, os.close, mapped.fd)
    mapped.address = np.frombuffer(mapped, np.uint8).ctypes.data
    return memoryview(mapped)


def read_chunk(array, start: int, out: np.ndarray) -> np.ndarray:
    """Elements [start, start + out.size) of 1-d stored form `array`: `out`
    (contiguous) read full of them from the file by position, touching no
    page of the map, if `array` views a map read_archive made and has out's
    dtype; else its own view of them (in memory, over bytes, a caller's map).
    A `LazyDelta` (see tv), flat in C order, fills `out` (float64) with
    widen(finetuned) - base, a chunk at a time from the two sides, each
    read so (see _read_delta)."""
    if not isinstance(array, np.ndarray):
        return _read_delta(array, start, out)
    view = array.base
    while isinstance(view, np.ndarray):
        view = view.base
    mapped = getattr(view, "obj", None)  # a memoryview's exporter
    if not (isinstance(mapped, _ArchiveMap) and array.flags.c_contiguous
            and array.dtype == out.dtype and hasattr(os, "preadv")):
        return array[start:start + out.size]
    offset = array.ctypes.data - mapped.address + start * array.itemsize
    done = os.preadv(mapped.fd, [out], offset)
    while done < out.nbytes:  # a read may stop short, as Linux caps one at ~2 GiB
        got = os.preadv(mapped.fd, [out.view(np.uint8)[done:]], offset + done)
        if not got:
            raise ArchiveError(f"archive truncated after it was read: byte {offset + done} is gone")
        done += got
    return out


def read_chunks(array) -> Iterator[tuple[int, np.ndarray]]:
    """(start, the chunk there) over flat stored form `array`, a `LazyDelta`
    too, each read by `read_chunk` into one scratch that the next reuses."""
    flat = array.ravel()
    scratch = np.empty(min(flat.size, _CHUNK), flat.dtype)
    for start in range(0, flat.size, _CHUNK):
        yield start, read_chunk(flat, start, scratch[:flat.size - start])


def _read_delta(delta, start: int, out: np.ndarray) -> np.ndarray:
    """The one definition of a delta's bits, read by extract archives,
    np.asarray, `trim`, the merge and the reports: both sides' elements
    [start, start + out.size), walked together by `read_chunks`, the
    fine-tuned chunk widened into `out` less the decoded base chunk, BF16
    decoded in one scratch per call. Each NaN is written as the positive
    quiet NaN, which extract archives and np.asarray get here alone."""
    end = start + out.size
    finetuned = delta.finetuned.data.reshape(-1)[start:end]
    base = delta.base.data.reshape(-1)[start:end]
    bf16 = "BF16" in (delta.finetuned.dtype, delta.base.dtype)  # an unused scratch still costs faults
    work = np.empty(min(out.size, _CHUNK), np.uint32) if bf16 else None  # either side's BF16 bits
    with np.errstate(over="ignore", invalid="ignore"):  # 1.7e308 - -1.7e308 is inf
        for (at, fine), (_, stored) in zip(read_chunks(finetuned), read_chunks(base)):
            part = widen(fine, out[at:at + fine.size], work)
            np.subtract(part, decode(stored, delta.base.dtype, work), out=part)
            part[np.isnan(part)] = np.nan
    return out


def read_archive(path_or_bytes) -> Checkpoint:
    """Parse an archive from a path or a bytes object into a Checkpoint.

    Only the header is read. Each tensor's data is a view of the file's
    map, or of the bytes, so each read of its `values` decodes it again.
    """
    if isinstance(path_or_bytes, (bytes, bytearray, memoryview)):
        raw = memoryview(bytes(path_or_bytes))
    else:
        raw = _open_archive(path_or_bytes)
    problems: list[str] = []
    specs, metadata, data = _layout(raw, problems)
    if problems:
        raise ArchiveError(problems[0])
    tensors = {}
    for spec in specs:
        begin, end = spec.data_offsets
        tensors[spec.name] = Tensor(spec.dtype, stored_view(data[begin:end], spec.dtype, spec.shape))
    return Checkpoint(tensors, dict(metadata) if metadata else None)


def _write(checkpoint: Checkpoint | LazyCheckpoint, dtype_policy: str,
           fh: io.RawIOBase | io.BytesIO) -> None:
    """Write an archive into `fh` by position: the header, from dtypes and
    shapes alone, then each tensor at its own offset, in pieces as it is
    made, from whatever thread makes it. A whole tensor is copied chunk by
    chunk (see read_chunks), so a mapped one is read by position."""
    if dtype_policy != "keep" and dtype_policy not in DTYPE_SIZES:
        raise ValueError(f"invalid dtype policy {dtype_policy!r}")
    header: dict[str, dict] = {}
    if checkpoint.metadata:
        header[METADATA_KEY] = dict(sorted(checkpoint.metadata.items()))
    layout = dict(sorted(checkpoint.layout.items()))
    offset = 0
    for name, (dtype, shape) in layout.items():
        if not name or name == METADATA_KEY:
            raise ArchiveError(f"invalid tensor name {name!r}")
        stored = dtype if dtype_policy == "keep" else dtype_policy
        nbytes = math.prod(shape) * dtype_size(stored)
        header[name] = {"dtype": stored, "shape": list(shape),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    start = 8 + len(header_bytes)
    lazy = isinstance(checkpoint, LazyCheckpoint)
    positioned = hasattr(os, "pwrite") and isinstance(fh, io.FileIO)
    seeking = threading.Lock()  # keeps each seek with its write

    def write_at(data: np.ndarray, offset: int) -> None:
        done = 0
        while done < data.size:  # a write may stop short
            if positioned:
                got = os.pwrite(fh.fileno(), data[done:], offset + done)
            else:
                with seeking:
                    fh.seek(offset + done)
                    got = fh.write(data[done:])
            if not got:
                raise OSError(f"write at byte {offset + done} made no progress")
            done += got

    def make(name: str) -> None:
        dtype, stored = layout[name][0], header[name]["dtype"]

        def place(at: int, data: np.ndarray) -> None:
            piece = encode(data if stored == dtype else narrow(widen(data), stored), stored)
            write_at(piece.view(np.uint8),
                     start + header[name]["data_offsets"][0] + at * dtype_size(stored))

        tensor = _make(checkpoint, name, place) if lazy else checkpoint[name]
        for at, chunk in read_chunks(tensor.data) if tensor is not None else ():
            place(at, chunk)

    write_at(np.frombuffer(len(header_bytes).to_bytes(8, "little") + header_bytes, np.uint8), 0)
    _each(make, list(layout), checkpoint.threads if lazy else 1)


def write_archive(checkpoint: Checkpoint | LazyCheckpoint, dtype_policy: str = "keep") -> bytes:
    """Serialize a Checkpoint canonically; `dtype_policy` is "keep" or a dtype name."""
    out = io.BytesIO()
    _write(checkpoint, dtype_policy, out)
    return out.getvalue()


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


def save_archive(checkpoint: Checkpoint | LazyCheckpoint, path, dtype_policy: str = "keep") -> None:
    """Write atomically: place each tensor in a temp file, then rename it
    into place. A LazyCheckpoint's tensors are made while the file is
    written, each written as it is made, so none waits for another."""
    tmp, fd = _create_temp(path)
    try:
        with open(fd, "wb", buffering=0) as fh:
            _write(checkpoint, dtype_policy, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def validate_archive(path) -> dict:
    """Inspect an archive, listing the reader's problems, then gaps and trailing bytes."""
    violations: list[str] = []
    specs, _, data = _layout(_open_archive(path), violations)
    dtype_counts: dict[str, int] = {}
    cursor = 0
    for spec in sorted(specs, key=lambda s: s.data_offsets):
        dtype_counts[spec.dtype] = dtype_counts.get(spec.dtype, 0) + 1
        begin, end = spec.data_offsets
        if begin > cursor:
            violations.append(
                f"non-contiguous data: gap of {begin - cursor} bytes before tensor {spec.name!r}")
        cursor = max(cursor, end)
    if data is not None and cursor != len(data):
        violations.append(
            f"non-contiguous data: {len(data) - cursor} trailing bytes after last tensor")
    return {"dtype_counts": dict(sorted(dtype_counts.items())), "tensor_count": len(specs),
            "total_bytes": sum(s.nbytes for s in specs), "valid": not violations,
            "violations": violations}
