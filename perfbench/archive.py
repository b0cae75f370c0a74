"""Minimal reader and streaming writer for the vecmerge archive format.

The benchmark builds its inputs and checks the program's outputs with
this module rather than with vecmerge's own reader and writer, so a
defect in the program's I/O cannot hide itself.

Layout: 8-byte little-endian header length N, N bytes of JSON
`{name: {"dtype", "shape", "data_offsets"}, "__metadata__": {...}}`,
then the raw little-endian data region.
"""

from __future__ import annotations

import json
import math

import numpy as np

METADATA_KEY = "__metadata__"

# BF16 is kept as its raw uint16 bit pattern; comparisons are on bits.
STORAGE = {"F64": np.dtype("<f8"), "F32": np.dtype("<f4"),
           "F16": np.dtype("<f2"), "BF16": np.dtype("<u2")}


def write(path, specs, produce, metadata=None) -> int:
    """Write an archive one tensor at a time; returns the file size.

    `specs` maps name -> (dtype, shape); `produce(name)` returns the
    tensor's values already in the storage dtype of `STORAGE`.
    """
    header = {}
    if metadata:
        header[METADATA_KEY] = dict(sorted(metadata.items()))
    offset = 0
    names = sorted(specs)
    for name in names:
        dtype, shape = specs[name]
        nbytes = math.prod(shape) * STORAGE[dtype].itemsize
        header[name] = {"dtype": dtype, "shape": list(shape),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    raw_header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(raw_header).to_bytes(8, "little"))
        fh.write(raw_header)
        for name in names:
            dtype, shape = specs[name]
            values = np.ascontiguousarray(produce(name), dtype=STORAGE[dtype])
            if values.size != math.prod(shape):
                raise ValueError(f"{name}: produced {values.size} values for shape {shape}")
            fh.write(values.tobytes())
    return 8 + len(raw_header) + offset


class Archive:
    """A parsed archive over a bytes buffer or a read-only file mapping."""

    def __init__(self, buf):
        n = int.from_bytes(bytes(buf[:8]), "little")
        header = json.loads(bytes(buf[8:8 + n]).decode("utf-8"))
        self.metadata = header.pop(METADATA_KEY, None) or {}
        self.entries = header
        self._data = memoryview(buf)[8 + n:]

    @classmethod
    def open(cls, path, mmap: bool = False) -> "Archive":
        if mmap:
            return cls(np.memmap(path, dtype=np.uint8, mode="r"))
        with open(path, "rb") as fh:
            return cls(fh.read())

    def names(self) -> list[str]:
        return sorted(self.entries)

    def dtype(self, name: str) -> str:
        return self.entries[name]["dtype"]

    def array(self, name: str) -> np.ndarray:
        """Flat read-only view of one tensor in its storage dtype."""
        entry = self.entries[name]
        begin, end = entry["data_offsets"]
        return np.frombuffer(self._data[begin:end], dtype=STORAGE[entry["dtype"]])
