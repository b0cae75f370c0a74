import gc
import json
import mmap
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vecmerge
from vecmerge import (ArchiveError, Checkpoint, LazyCheckpoint, TaskVector, Tensor,
                      read_archive, save_archive, tv_merge, validate_archive,
                      write_archive)
from vecmerge import tensor_store as store_mod
from vecmerge import tv as tv_mod
from vecmerge.cli import main
from vecmerge.dtypes import _f32_to_bf16_bits, cast_values, dtype_size, encode, narrow, widen
from vecmerge.tensor_store import MAX_HEADER_BYTES, read_chunk
from vecmerge.tv import extract_task_vector, load_task_vector

from helpers import DTYPES, random_checkpoint, reference_tv_merge_bits


def make_archive(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header, separators=(",", ":")).encode()
    return len(blob).to_bytes(8, "little") + blob + data


def padded_archive(header: dict, data: bytes, misalign: int) -> bytes:
    """Like make_archive, with the data region starting `misalign` bytes
    past an 8-byte boundary (JSON allows trailing spaces in the header)."""
    blob = json.dumps(header, separators=(",", ":")).encode()
    blob += b" " * ((misalign - len(blob)) % 8)
    return len(blob).to_bytes(8, "little") + blob + data


# the largest page-cache folio one page-table entry maps (2 MiB with 4 KiB
# pages); touching one page of a folio may map all of it
FOLIO = mmap.PAGESIZE * (mmap.PAGESIZE // 8)


def mapped_rss(path) -> int | None:
    """Resident bytes of this process's maps of `path`, or None where
    /proc/self/smaps is missing."""
    try:
        lines = Path("/proc/self/smaps").read_text().splitlines()
    except OSError:
        return None
    target, total, inside = str(Path(path).resolve()), 0, False
    for line in lines:
        fields = line.split()
        if "-" in fields[0] and ":" not in fields[0]:  # a mapping's first line
            inside = len(fields) >= 6 and fields[5] == target
        elif inside and fields[0] == "Rss:":
            total += int(fields[1]) * 1024
    return total


class TestReadArchive:
    def test_single_f32_tensor(self):
        raw = make_archive(
            {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}},
            struct.pack("<ff", 1.0, 2.0))
        ckpt = read_archive(raw)
        assert ckpt.names() == ["w"]
        assert ckpt["w"].dtype == "F32"
        np.testing.assert_array_equal(ckpt.values("w"), [1.0, 2.0])

    def test_empty_archive(self):
        ckpt = read_archive(make_archive({}, b""))
        assert len(ckpt) == 0
        assert ckpt.metadata is None

    def test_out_of_bounds_range(self):
        raw = make_archive(
            {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, b"\x00" * 4)
        with pytest.raises(ArchiveError, match="out-of-bounds byte range"):
            read_archive(raw)

    def test_truncated_input(self):
        with pytest.raises(ArchiveError, match="truncated"):
            read_archive(b"\x01\x02")
        with pytest.raises(ArchiveError, match="truncated"):
            read_archive((100).to_bytes(8, "little") + b"{}")

    def test_malformed_json(self):
        raw = b"\x03" + b"\x00" * 7 + b"nop"
        with pytest.raises(ArchiveError, match="malformed JSON"):
            read_archive(raw)

    def test_unknown_dtype(self, tmp_path, capsys):
        for dtype in ("I8", ["F32"], {"F32": "F32"}):  # non-strings are unhashable
            raw = make_archive(
                {"w": {"dtype": dtype, "shape": [4], "data_offsets": [0, 4]}}, b"\x00" * 4)
            with pytest.raises(ArchiveError, match="unknown dtype"):
                read_archive(raw)
            path = tmp_path / "a.st"
            path.write_bytes(raw)
            assert main(["inspect", str(path)]) == 1
            assert "unknown dtype" in json.loads(capsys.readouterr().out)["violations"][0]

    def test_overlapping_ranges(self):
        raw = make_archive(
            {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
             "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]}},
            b"\x00" * 12)
        with pytest.raises(ArchiveError, match="overlaps"):
            read_archive(raw)

    def test_numel_size_mismatch(self):
        raw = make_archive(
            {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}, b"\x00" * 8)
        with pytest.raises(ArchiveError, match="requires 12"):
            read_archive(raw)

    @pytest.mark.parametrize("header, message", [
        ([], "malformed JSON header: top level must be an object"),
        ({"": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
         "invalid tensor name ''"),
        ({"w": {"dtype": "F32", "shape": [-1], "data_offsets": [0, 4]}},
         "tensor 'w': shape must be a list of non-negative integers"),
        ({"w": {"dtype": "F32", "shape": [1.0], "data_offsets": [0, 4]}},
         "tensor 'w': shape must be a list of non-negative integers"),
        ({"w": {"dtype": "F32", "shape": [1], "data_offsets": [4, 0]}},
         "tensor 'w': data_offsets must be [begin, end] with 0 <= begin <= end"),
        ({"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4, 4]}},
         "tensor 'w': data_offsets must be [begin, end] with 0 <= begin <= end"),
    ], ids=["top-level-list", "empty-name", "negative-dim", "float-dim", "reversed-offsets",
            "three-offsets"])
    def test_malformed_header_entry(self, header, message):
        with pytest.raises(ArchiveError) as err:
            read_archive(make_archive(header, b"\x00" * 4))
        assert str(err.value) == message

    def test_duplicate_name(self):
        blob = b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"w":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
        raw = len(blob).to_bytes(8, "little") + blob + b"\x00" * 8
        with pytest.raises(ArchiveError, match="duplicate tensor name"):
            read_archive(raw)

    @pytest.mark.parametrize("blob, message", [
        (b'{"w":{"dtype":"F32","dtype":"F32","shape":[1],"data_offsets":[0,4]}}',
         "tensor 'w': duplicate key 'dtype' in header entry"),
        (b'{"__metadata__":{"k":"a","k":"b"},"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}',
         "duplicate key 'k' in __metadata__"),
    ], ids=["tensor-entry", "metadata"])
    def test_repeated_key_below_top_level_named_where_it_is(self, tmp_path, capsys,
                                                             blob, message):
        raw = len(blob).to_bytes(8, "little") + blob + b"\x00" * 4
        with pytest.raises(ArchiveError) as info:
            read_archive(raw)
        assert str(info.value) == message
        path = tmp_path / "a.st"
        path.write_bytes(raw)
        assert main(["inspect", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [message]

    def test_repeated_metadata_is_not_a_tensor_name(self, tmp_path, capsys):
        blob = (b'{"__metadata__":{"k":"a"},"__metadata__":{"k":"b"},'
                b'"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}')
        raw = len(blob).to_bytes(8, "little") + blob + b"\x00" * 4
        message = "duplicate key '__metadata__' in header"
        with pytest.raises(ArchiveError) as info:
            read_archive(raw)
        assert str(info.value) == message
        path = tmp_path / "a.st"
        path.write_bytes(raw)
        assert main(["inspect", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [message]

    def test_scalar_shape(self):
        raw = make_archive(
            {"s": {"dtype": "F64", "shape": [], "data_offsets": [0, 8]}},
            struct.pack("<d", 3.5))
        ckpt = read_archive(raw)
        assert ckpt.values("s").shape == ()
        assert float(ckpt.values("s")) == 3.5

    def test_metadata_passthrough(self):
        raw = make_archive({"__metadata__": {"k": "v"}}, b"")
        assert read_archive(raw).metadata == {"k": "v"}

    def test_path_input(self, tmp_path):
        p = tmp_path / "a.st"
        p.write_bytes(make_archive({}, b""))
        assert len(read_archive(p)) == 0


class TestMappedRead:
    def test_aligned_f64_is_read_without_copying(self, tmp_path):
        values = np.arange(1 << 20, dtype="<f8")
        raw = padded_archive(
            {"w": {"dtype": "F64", "shape": [values.size], "data_offsets": [0, values.nbytes]}},
            values.tobytes(), 0)
        path = tmp_path / "a.st"
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            ckpt = read_archive(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * len(raw), f"read peak {peak} bytes for a {len(raw)}-byte file"
        np.testing.assert_array_equal(ckpt.values("w"), values)

    @pytest.mark.parametrize("misalign", [1, 2, 5])
    @pytest.mark.parametrize("dtype,storage", [("F64", "<f8"), ("F32", "<f4"), ("F16", "<f2")])
    def test_misaligned_data_reads_back_aligned(self, tmp_path, dtype, storage, misalign):
        rng = np.random.default_rng(misalign)
        a = rng.normal(size=3).astype(storage)
        b = rng.normal(size=(4, 5)).astype(storage)
        raw = padded_archive(
            {"a": {"dtype": dtype, "shape": [3], "data_offsets": [0, a.nbytes]},
             "b": {"dtype": dtype, "shape": [4, 5], "data_offsets": [a.nbytes, a.nbytes + b.nbytes]}},
            a.tobytes() + b.tobytes(), misalign)
        path = tmp_path / "a.st"
        path.write_bytes(raw)
        for ckpt in (read_archive(path), read_archive(raw)):
            for name, want in (("a", a), ("b", b)):
                got = ckpt.values(name)
                assert got.flags.aligned and not got.flags.writeable
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.st"
        path.write_bytes(b"")
        with pytest.raises(ArchiveError, match="truncated input: 0 bytes"):
            read_archive(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(4), n_tensors=8, max_numel=4096)
        blob = write_archive(ckpt)
        fifo = tmp_path / "pipe.st"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        again = read_archive(fifo)
        writer.join(timeout=10)
        assert write_archive(again) == blob

    def test_merge_in_place_matches_fresh_output(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        base = Checkpoint.from_arrays(
            {"w": rng.normal(size=(32, 32)), "norm": rng.normal(size=32)}, "F32")
        save_archive(base, tmp_path / "base.st")
        save_archive(TaskVector.from_arrays({"w": rng.normal(size=(32, 32))}).to_checkpoint(),
                     tmp_path / "tv.st")
        argv = ["merge", "tv", "--base", str(tmp_path / "base.st"),
                "--vector", str(tmp_path / "tv.st"), "--weight", "0.3", "--out"]
        assert main(argv + [str(tmp_path / "fresh.st")]) == 0
        assert main(argv + [str(tmp_path / "base.st")]) == 0
        capsys.readouterr()
        assert (tmp_path / "base.st").read_bytes() == (tmp_path / "fresh.st").read_bytes()

    def test_mapped_input_survives_replacement(self, tmp_path):
        values = np.arange(4096, dtype="<f8")
        path = tmp_path / "a.st"
        path.write_bytes(padded_archive(
            {"w": {"dtype": "F64", "shape": [4096], "data_offsets": [0, values.nbytes]}},
            values.tobytes(), 0))
        old = read_archive(path)
        assert not old.values("w").flags.owndata  # a view of the map
        save_archive(Checkpoint.from_arrays({"w": -values}), path)
        np.testing.assert_array_equal(old.values("w"), values)
        np.testing.assert_array_equal(read_archive(path).values("w"), -values)

    @staticmethod
    def encoded_archive(tmp_path, dtype, misalign):
        """An 8 MiB archive whose one tensor's data is BF16 bits or misaligned."""
        values = np.arange(1 << 22, dtype="<u2") if dtype == "BF16" else np.arange(1 << 20)
        path = tmp_path / "a.st"
        path.write_bytes(padded_archive(
            {"w": {"dtype": dtype, "shape": [values.size], "data_offsets": [0, values.nbytes]}},
            values.tobytes(), misalign))
        return path, values

    @pytest.mark.parametrize("dtype,misalign", [("BF16", 0), ("F64", 3)])
    def test_read_leaves_the_map_unread(self, tmp_path, dtype, misalign):
        path, values = self.encoded_archive(tmp_path, dtype, misalign)
        tracemalloc.start()
        try:
            ckpt = read_archive(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * values.nbytes, f"read peak {peak} bytes: a tensor was copied"
        resident = mapped_rss(path)
        if resident is None:
            pytest.skip("needs /proc/self/smaps")
        # the header's page and its fault-around, or the folio holding them
        assert resident <= FOLIO + 16 * mmap.PAGESIZE, \
            f"{resident} of {values.nbytes} bytes resident"
        assert not ckpt["w"].data.flags.owndata  # a view of the map, not a copy
        assert ckpt["w"].data.tobytes() == values.tobytes()  # the stored form, not decoded

    @pytest.mark.parametrize("dtype,misalign", [("BF16", 0), ("F64", 3)])
    def test_read_from_bytes_copies_nothing(self, tmp_path, dtype, misalign):
        path, values = self.encoded_archive(tmp_path, dtype, misalign)
        raw = path.read_bytes()
        tracemalloc.start()
        try:
            ckpt = read_archive(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * len(raw), f"read peak {peak} bytes: a tensor was copied"
        data = ckpt["w"].data
        assert not data.flags.owndata
        assert data.tobytes() == values.tobytes()

    def test_bytes_keep_the_archives_alignment(self):
        values = np.arange(5.0)
        blob = write_archive(Checkpoint.from_arrays({"w": values}))
        assert int.from_bytes(blob[:8], "little") % 8  # the data region starts misaligned
        ckpt = read_archive(blob)
        assert not ckpt["w"].data.flags.aligned
        np.testing.assert_array_equal(ckpt.values("w"), values)

    def test_kernels_read_a_callers_own_map_through_its_view(self, tmp_path):
        """A copy-on-write map holds writes the file lacks: reading the
        file by position would lose them."""
        n = 1 << 17
        path = tmp_path / "raw.bin"
        path.write_bytes(bytes(8 * 2 * n))
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        written = np.frombuffer(mapped, "<f8")  # writable: its pages are private copies
        written[:] = np.arange(2 * n)
        base = Checkpoint({"w": Tensor("F64", written[:n])})
        tv = TaskVector.from_arrays({"w": written[n:]})
        merged = tv_merge(base, [(tv, 0.5)]).materialize()
        np.testing.assert_array_equal(written, np.arange(2 * n))
        np.testing.assert_array_equal(merged.values("w"), np.arange(n) + 0.5 * np.arange(n, 2 * n))
        delta = extract_task_vector(base, Checkpoint({"w": Tensor("F64", written[n:])}))
        np.testing.assert_array_equal(delta.deltas["w"], np.full(n, float(n)))

    @pytest.mark.parametrize("dtype,misalign", [("BF16", 0), ("F64", 3), ("F64", 0)])
    def test_dropping_the_checkpoint_unmaps_the_file(self, tmp_path, dtype, misalign):
        path, _ = self.encoded_archive(tmp_path, dtype, misalign)
        ckpt = read_archive(path)
        if mapped_rss(path) is None:
            pytest.skip("needs /proc/self/smaps")
        decoded = ckpt.values("w")
        assert str(path.resolve()) in Path("/proc/self/maps").read_text()
        del ckpt
        gc.collect()
        if dtype == "F64" and not misalign:  # an aligned tensor's values view the map
            assert not decoded.flags.owndata
            del decoded
            gc.collect()
        assert str(path.resolve()) not in Path("/proc/self/maps").read_text()

    def test_kernels_never_map_in_a_data_page(self, tmp_path, monkeypatch):
        """Merge and extract read mapped operands by position: at every
        chunk read and after the op, each file has at most its header page
        and that page's fault-around resident, as after read_archive."""
        rng = np.random.default_rng(8)
        n = 1 << 21
        save_archive(Checkpoint.from_arrays({"w": rng.normal(size=n)}, "BF16"),
                     tmp_path / "base.st")
        save_archive(Checkpoint.from_arrays({"w": rng.normal(size=n)}, "F32"), tmp_path / "ft.st")
        save_archive(TaskVector.from_arrays({"w": rng.normal(size=n)}).to_checkpoint(),
                     tmp_path / "tv.st")
        paths = [tmp_path / name for name in ("base.st", "ft.st", "tv.st")]
        if mapped_rss(paths[0]) is None:
            pytest.skip("needs /proc/self/smaps")
        base, ft, stored = (read_archive(path.read_bytes()) for path in paths)
        want = (write_archive(tv_merge(base, [(TaskVector.from_checkpoint(stored), 0.5)])),
                extract_task_vector(base, ft).deltas["w"].tobytes())
        seen = []

        def observed(array, start, out):
            seen.append(max(mapped_rss(path) for path in paths))
            return read_chunk(array, start, out)

        monkeypatch.setattr(tv_mod, "read_chunk", observed)
        monkeypatch.setattr(store_mod, "read_chunk", observed)
        base, ft = read_archive(paths[0]), read_archive(paths[1])
        tv = load_task_vector(paths[2])
        assert not tv.deltas["w"].flags.aligned  # a view of vecmerge's own misaligned data
        got = (write_archive(tv_merge(base, [(tv, 0.5)])),
               extract_task_vector(base, ft).deltas["w"].tobytes())
        assert got == want
        # a chunk: the merge reads its two operands, extract the delta and its two sides
        assert len(seen) == 5 * n // tv_mod._CHUNK
        bound = FOLIO + 16 * mmap.PAGESIZE  # the header's page and its fault-around
        seen.extend(mapped_rss(path) for path in paths)  # after the op, the maps still open
        assert max(seen) <= bound, f"{max(seen)} bytes of a mapped operand resident"
        assert all(str(path.resolve()) in Path("/proc/self/maps").read_text() for path in paths)


CHUNK = tv_mod._CHUNK


def merge_and_extract(paths_or_bytes) -> bytes:
    """The bytes of a TV merge of base and vector, then of the vector
    extracted from base and fine-tuned: the two kernels that read archives."""
    base, ft, tv = (read_archive(p) for p in paths_or_bytes)
    merged = write_archive(tv_merge(base, [(TaskVector.from_checkpoint(tv), 0.3)]))
    return merged + write_archive(extract_task_vector(base, ft).to_checkpoint())


class TestPositionedReads:
    @pytest.fixture(params=DTYPES)
    def operands(self, request, tmp_path):
        """base (of each dtype), fine-tuned and vector archives of 2 chunks
        and 3 elements, whose data offsets the metadata's length shifts."""
        rng = np.random.default_rng(16)
        n = 2 * CHUNK + 3
        arrays = [{"w": rng.normal(size=n), "b": rng.normal(size=5)} for _ in range(3)]
        ckpts = [Checkpoint.from_arrays(arrays[0], request.param, {"k": "v"}),
                 Checkpoint.from_arrays(arrays[1], "F32", {"k": "vv"}),
                 TaskVector.from_arrays(arrays[2]).to_checkpoint()]
        paths = [tmp_path / f"{i}.st" for i in range(3)]
        for ckpt, path in zip(ckpts, paths):
            save_archive(ckpt, path)
        return paths, merge_and_extract([path.read_bytes() for path in paths])

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from(DTYPES), misalign=st.integers(0, 7),
           size=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]),
           data=st.data())
    def test_read_chunk_gives_the_views_bytes(self, tmp_path_factory, dtype, misalign, size,
                                              data):
        start = data.draw(st.integers(0, size), label="start")
        count = data.draw(st.integers(0, size - start), label="count")
        raw = np.random.default_rng(size).bytes(size * dtype_size(dtype))
        path = tmp_path_factory.mktemp("read") / "a.st"
        path.write_bytes(padded_archive(
            {"w": {"dtype": dtype, "shape": [size], "data_offsets": [0, len(raw)]}},
            raw, misalign))
        array = read_archive(path)["w"].data
        out = np.empty(count, array.dtype)
        got = read_chunk(array, start, out)
        assert got is out  # read from the file, not through the map
        assert got.tobytes() == array[start:start + count].tobytes()

    def test_read_chunk_gives_other_arrays_their_view(self):
        array = np.arange(10.0)
        got = read_chunk(array, 3, np.empty(4))
        assert np.shares_memory(got, array) and got.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_read_chunk_into_another_dtype_gives_the_view(self, tmp_path):
        save_archive(Checkpoint.from_arrays({"w": np.arange(6.0)}, "F32"), tmp_path / "a.st")
        array = read_archive(tmp_path / "a.st")["w"].data
        got = read_chunk(array, 2, np.empty(3))  # a float64 scratch cannot take float32 bytes
        assert np.shares_memory(got, array) and got.tolist() == [2.0, 3.0, 4.0]

    def test_short_reads_give_the_same_bytes(self, operands, monkeypatch):
        paths, want = operands
        preadv, sizes = os.preadv, []

        def short(fd, buffers, offset):
            got = preadv(fd, [memoryview(buffers[0]).cast("B")[:4093]], offset)
            sizes.append(got)
            return got

        monkeypatch.setattr(os, "preadv", short)
        assert merge_and_extract(paths) == want
        assert len(sizes) > 3 * 2 * CHUNK // 4093 and max(sizes) == 4093

    def test_without_preadv_the_view_gives_the_same_bytes(self, operands, monkeypatch):
        paths, want = operands
        monkeypatch.delattr(os, "preadv")
        assert merge_and_extract(paths) == want


TRUNCATE = """
import os, sys
import numpy as np
from vecmerge import Checkpoint, TaskVector, extract_task_vector, read_archive, save_archive
from vecmerge import cosine, diff_stats, interference_stats, ties_merge, trim, tv_merge
from vecmerge import cli
from vecmerge.tv import load_task_vector

case, root = sys.argv[1], sys.argv[2]
n = 1 << 20
names = ("w", "x") if case == "unmerged" else ("w",)  # the vector has no "x"
base = Checkpoint.from_arrays({name: np.zeros(n) for name in names}, "F32")
save_archive(base, root + "/base.st")
save_archive(TaskVector.from_arrays({"w": np.ones(n)}).to_checkpoint(), root + "/tv.st")
save_archive(Checkpoint.from_arrays({"w": np.ones(n)}, "F32"), root + "/ft.st")
base = read_archive(root + "/base.st")
if case == "merge":
    operand = load_task_vector(root + "/tv.st")
    os.truncate(root + "/tv.st", 4096 + 8 * n // 2)
    tv_merge(base, [(operand, 0.5)]).materialize()
elif case == "unmerged":  # the writer copies "x", in the second half of the base file
    operand = load_task_vector(root + "/tv.st")
    os.truncate(root + "/base.st", 4096 + 4 * n + 4 * n // 2)
    save_archive(tv_merge(base, [(operand, 0.5)]), root + "/out.st")
elif case in ("cosine", "ties", "interference", "trim"):  # TIES at density 1 keeps all
    operand = load_task_vector(root + "/tv.st")
    os.truncate(root + "/tv.st", 4096 + 8 * n // 2)
    if case == "cosine":
        cosine(operand, operand)
    elif case == "ties":
        ties_merge(base, [(operand, 1.0)], 1.0).materialize()
    elif case == "interference":
        interference_stats([operand], 1.0)
    else:
        trim(operand, 0.2)
elif case == "cli-extract":  # the CLI reads the fine-tuned archive, which is then cut
    def read_then_truncate(path):
        ckpt = read_archive(path)
        if path.endswith("ft.st"):
            os.truncate(path, 4096 + 4 * n // 2)
        return ckpt
    cli.read_archive = read_then_truncate
    sys.exit(cli.main(["extract", "--base", root + "/base.st", "--finetuned", root + "/ft.st",
                       "--out", root + "/tv_out.st"]))
elif case == "cli-run":  # the recipe's fine-tuned source is cut after it was read
    import json
    from vecmerge import tv as tv_mod
    def read_then_truncate(path):
        ckpt = read_archive(path)
        if str(path).endswith("ft.st"):
            os.truncate(path, 4096 + 4 * n // 2)
        return ckpt
    tv_mod.read_archive = read_then_truncate
    with open(root + "/recipe.json", "w") as fh:
        json.dump({"base": root + "/base.st", "method": "tv", "output": root + "/out.st",
                   "vectors": [{"source": root + "/ft.st", "weight": 0.5}]}, fh)
    sys.exit(cli.main(["run", "--recipe", root + "/recipe.json"]))
else:
    operand = read_archive(root + "/ft.st")
    os.truncate(root + "/ft.st", 4096 + 4 * n // 2)
    (diff_stats if case == "diff" else extract_task_vector)(base, operand)
"""


@pytest.mark.parametrize("case", ["merge", "extract", "unmerged", "diff", "cosine", "ties",
                                  "interference", "trim", "cli-extract", "cli-run"])
def test_an_archive_truncated_after_reading_raises_not_a_signal(tmp_path, case):
    """Data read through the map past a truncated file's end kills the
    process with SIGBUS; a positioned read finds the end and raises. `run`
    keeps a fine-tuned source mapped through the merge, and exits 3."""
    env = dict(os.environ, PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", TRUNCATE, case, str(tmp_path)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == (3 if case == "cli-run" else 1), \
        f"exit {child.returncode}: {child.stderr}"
    raised = "error" if case.startswith("cli") else "vecmerge.tensor_store.ArchiveError"
    assert child.stderr.splitlines()[-1].startswith(
        f"{raised}: archive truncated after it was read: byte ")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_read_holds_one_descriptor_while_its_checkpoint_lives(tmp_path, capsys):
    def open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    rng = np.random.default_rng(3)
    save_archive(Checkpoint.from_arrays({"w": rng.normal(size=64)}, "F32"), tmp_path / "base.st")
    for i in range(2):
        save_archive(Checkpoint.from_arrays({"w": rng.normal(size=64)}, "F32"),
                     tmp_path / f"ft{i}.st")
    before = open_fds()
    ckpt = read_archive(tmp_path / "base.st")
    assert open_fds() > before  # the map's descriptor, and the one kept for positioned reads
    del ckpt
    gc.collect()
    assert open_fds() == before
    (tmp_path / "recipe.json").write_text(json.dumps({
        "base": str(tmp_path / "base.st"), "method": "ties", "density": 0.5,
        "lambda": {"grid": [0.1 * (i + 1) for i in range(10)]},
        "vectors": [{"source": str(tmp_path / f"ft{i}.st"), "weight": 1.0} for i in range(2)],
        "output": str(tmp_path / "out.st")}))
    assert main(["run", "--recipe", str(tmp_path / "recipe.json"), "--sweep"]) == 0
    assert len(json.loads(capsys.readouterr().out)["outcomes"]) == 10
    assert open_fds() == before


class TestSaveArchive:
    @pytest.mark.parametrize("policy", ["keep", "BF16"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_file_bytes_equal_write_archive(self, tmp_path, dtype, policy):
        ckpt = random_checkpoint(np.random.default_rng(8), n_tensors=5, dtypes=[dtype])
        ckpt.metadata = {"k": "v", "a": "b"}
        path = tmp_path / "out.st"
        save_archive(ckpt, path, dtype_policy=policy)
        assert path.read_bytes() == write_archive(ckpt, dtype_policy=policy)

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "out.st"
        save_archive(Checkpoint(), path)
        assert path.read_bytes() == write_archive(Checkpoint())

    def test_pre_encoded_bytes_are_written_as_they_are(self):
        data = np.frombuffer(bytes(3) + np.arange(5.0).tobytes(), "<f8", offset=3)
        ckpt = Checkpoint({"w": Tensor("F64", data)})
        blob = write_archive(ckpt)
        assert blob.endswith(np.arange(5.0).tobytes())
        # a BF16 NaN is written quiet, as rounding from float32 writes it
        signalling = Checkpoint({"w": Tensor("BF16", np.array([0x7F81, 0x3F80], "<u2"))})
        assert write_archive(signalling).endswith(np.array([0x7FC1, 0x3F80], "<u2").tobytes())
        assert write_archive(signalling) == write_archive(
            Checkpoint({"w": Tensor("BF16", np.array([0x7FC1, 0x3F80], "<u2"))}))

    @staticmethod
    def lazy_merge():
        rng = np.random.default_rng(17)
        sizes = {"a": 3000, "b": 70_000, "c": 5}  # "b" crosses a chunk; no vector has "c"
        base = Checkpoint({n: Tensor(dtype, narrow(rng.normal(size=sizes[n]), dtype))
                           for n, dtype in zip(sizes, ("F32", "BF16", "F16"))})
        tv = TaskVector.from_arrays({n: rng.normal(size=sizes[n]) for n in "ab"})
        return tv_merge(base, [(tv, 0.3)], threads=2)

    def test_short_writes_give_the_same_bytes(self, tmp_path, monkeypatch):
        want = write_archive(self.lazy_merge())
        pwrite, sizes = os.pwrite, []

        def short(fd, data, offset):
            got = pwrite(fd, memoryview(data).cast("B")[:1000], offset)
            sizes.append(got)
            return got

        monkeypatch.setattr(os, "pwrite", short)
        save_archive(self.lazy_merge(), tmp_path / "out.st")
        assert (tmp_path / "out.st").read_bytes() == want
        assert max(sizes) == 1000 and len(sizes) > len(want) // 1000

    def test_a_write_that_makes_no_progress_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "out.st"
        path.write_bytes(b"old bytes")
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
        with pytest.raises(OSError, match="made no progress"):
            save_archive(self.lazy_merge(), path)
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st"]

    def test_without_pwrite_the_bytes_are_the_same(self, tmp_path, monkeypatch):
        want = write_archive(self.lazy_merge())
        monkeypatch.delattr(os, "pwrite")
        save_archive(self.lazy_merge(), tmp_path / "out.st")
        assert (tmp_path / "out.st").read_bytes() == want

    def test_concurrent_saves_to_one_path(self, tmp_path):
        path = tmp_path / "out.st"
        both_open = threading.Barrier(2, timeout=30)

        def lazy(fill, gate):
            layout = {f"t{i}": ("F32", (1 << 16,)) for i in range(4)}

            def make(name, put):
                i = int(name[1:])
                if i == 1:
                    gate()
                return Tensor("F32", np.full(1 << 16, fill + i, dtype=np.float32))

            return LazyCheckpoint(layout, make, {"fill": str(fill)})

        fills = (1.0, -1.0)
        wanted = {write_archive(lazy(fill, lambda: None)) for fill in fills}
        # each save waits until both temp files are open and partly written
        ckpts = [lazy(fill, both_open.wait) for fill in fills]
        errors = []

        def save(ckpt):
            try:
                save_archive(ckpt, path)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=save, args=(c,)) for c in ckpts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in wanted
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st"]
        with open(tmp_path / "plain", "wb"):
            pass
        assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode


class TestInterruptedWrite:
    @staticmethod
    def lazy(fail_at=None, bad_shape_at=None):
        layout = {name: ("F32", (1000,)) for name in "abcd"}

        def make(name, put):
            i = "abcd".index(name)
            if i == fail_at:
                raise RuntimeError("tensor could not be made")
            shape = 999 if i == bad_shape_at else 1000
            return Tensor("F32", np.zeros(shape, dtype=np.float32))

        return LazyCheckpoint(layout, make)

    def test_failure_while_a_tensor_is_made_keeps_destination(self, tmp_path):
        path = tmp_path / "out.st"
        path.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError, match="could not be made"):
            save_archive(self.lazy(fail_at=2), path)
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st"]

    def test_tensor_unlike_its_header_entry_keeps_destination(self, tmp_path):
        path = tmp_path / "out.st"
        path.write_bytes(b"old bytes")
        with pytest.raises(ValueError, match="where the header holds 'c'"):
            save_archive(self.lazy(bad_shape_at=2), path)
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st"]

    def test_pre_encoded_tensor_unlike_its_header_entry_keeps_destination(self, tmp_path):
        layout = {"a": ("BF16", (4,)), "b": ("BF16", (4,))}
        made = {"a": Tensor("BF16", np.zeros(4, "<u2")),
                "b": Tensor("BF16", np.zeros(3, "<u2"))}
        path = tmp_path / "out.st"
        path.write_bytes(b"old bytes")
        with pytest.raises(ValueError, match="where the header holds 'b'"):
            save_archive(LazyCheckpoint(layout, lambda name, put: made[name]), path)
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st"]

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_killed_merge_keeps_destination(self, tmp_path):
        rng = np.random.default_rng(12)
        shapes = {f"w{i}": (256,) for i in range(4)}
        save_archive(Checkpoint.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()},
                                            "F32"), tmp_path / "base.st")
        save_archive(TaskVector.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()})
                     .to_checkpoint(), tmp_path / "tv.st")
        out = tmp_path / "out.st"
        out.write_bytes(b"old bytes")
        # The merge kernel stalls, so the kill lands while the temp file is written.
        script = ("import sys, time\n"
                  "import vecmerge.tv\n"
                  "vecmerge.tv._merge_tensor = lambda *args: time.sleep(600)\n"
                  "from vecmerge.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-c", script, "merge", "tv", "--base", str(tmp_path / "base.st"),
             "--vector", str(tmp_path / "tv.st"), "--weight", "0.5", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob("out.st.tmp.*")):
                assert child.poll() is None, "the merge exited before writing"
                assert time.monotonic() < deadline, "no temp file appeared"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert out.read_bytes() == b"old bytes"


class TestWriteArchive:
    def test_exact_bytes_single_tensor(self):
        ckpt = Checkpoint({"w": Tensor("F32", np.array([1.0, 2.0], dtype=np.float32))})
        expected = make_archive(
            {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}},
            struct.pack("<ff", 1.0, 2.0))
        assert write_archive(ckpt) == expected

    def test_empty_checkpoint_bytes(self):
        assert write_archive(Checkpoint()) == bytes.fromhex("0200000000000000") + b"{}"

    def test_bf16_round_to_nearest_even(self):
        ckpt = Checkpoint.from_arrays({"w": [1.0000001]}, "F32")
        blob = write_archive(ckpt, dtype_policy="BF16")
        data = blob[8 + int.from_bytes(blob[:8], "little"):]
        assert data == (0x3F80).to_bytes(2, "little")

    def test_bf16_oracle_lattice(self):
        # independent oracle: nearest bfloat16 lattice point, even tie-break
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 10, 200), [1.0000001, 0.1, -3.14159]])
        for v in values.astype(np.float32):
            blob = write_archive(Checkpoint({"x": Tensor("F32", np.array([v]))}),
                                 dtype_policy="BF16")
            got = int.from_bytes(blob[-2:], "little")
            candidates = range(0, 1 << 16)
            # brute force over the few nearest lattice points via bit neighborhood
            base_bits = np.float32(v).view(np.uint32) >> np.uint32(16)
            near = {int(base_bits) + d for d in (-2, -1, 0, 1, 2)} & set(candidates)

            def val(bits):
                return float(np.uint32(bits << 16).view(np.float32))

            best = min(near, key=lambda b: (abs(val(b) - float(v)), b & 1))
            assert abs(val(got) - float(v)) <= abs(val(best) - float(v))

    def test_lexicographic_order_and_packing(self):
        ckpt = Checkpoint({
            "b": Tensor("F32", np.zeros(2, dtype=np.float32)),
            "a": Tensor("F64", np.zeros(3)),
        })
        blob = write_archive(ckpt)
        header = json.loads(blob[8:8 + int.from_bytes(blob[:8], "little")])
        assert list(header) == ["a", "b"]
        assert header["a"]["data_offsets"] == [0, 24]
        assert header["b"]["data_offsets"] == [24, 32]

    def test_bad_dtype_policy(self):
        with pytest.raises(ValueError, match="^invalid dtype policy 'I8'$"):
            write_archive(Checkpoint(), dtype_policy="I8")

    @pytest.mark.parametrize("name", ["", "__metadata__"])
    def test_reserved_tensor_name(self, name):
        with pytest.raises(ArchiveError, match=f"^invalid tensor name '{name}'$"):
            write_archive(Checkpoint({name: Tensor("F64", np.zeros(1))}))

    @pytest.mark.parametrize("first, piece, made", [
        (0, np.zeros(4), "float64 elements [0, 4)"),
        (2, np.zeros(4, "<f4"), "float32 elements [2, 6)"),
        (0, np.zeros(3, "<f4"), "3 elements"),
    ], ids=["wrong-dtype", "past-the-end", "too-few"])
    def test_pieces_unlike_the_header(self, first, piece, made):
        """The writer and materialize check a maker's pieces alike."""
        def make(name, put):
            put(first, piece)

        lazy = LazyCheckpoint({"w": ("F32", (4,))}, make)
        for run in (write_archive, LazyCheckpoint.materialize):
            with pytest.raises(ValueError) as err:
                run(lazy)
            assert str(err.value) == \
                f"tensor 'w' was made as {made} where the header holds 'w' F32 [4]"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_materialize_fills_tensors_from_pieces_in_any_order(self, threads):
        """A maker that only calls put, last piece first, materializes to the
        bits the writer writes, a zero-size tensor included."""
        rng = np.random.default_rng(3)
        tensors = {"a": Tensor("BF16", narrow(rng.normal(size=(3, 5)), "BF16")),
                   "b": Tensor("F64", rng.normal(size=7)),
                   "c": Tensor("F64", np.zeros((2, 0)))}

        def make(name, put):
            flat = tensors[name].data.reshape(-1)
            cut = flat.size // 2
            put(cut, flat[cut:])
            put(0, flat[:cut])

        lazy = LazyCheckpoint({name: (t.dtype, t.shape) for name, t in tensors.items()}, make,
                              threads=threads)
        made, written = lazy.materialize(), read_archive(write_archive(lazy))
        assert made.names() == written.names() == sorted(tensors)
        for name, tensor in made.items():
            assert (tensor.dtype, tensor.shape) == (written[name].dtype, written[name].shape)
            assert tensor.data.tobytes() == written[name].data.tobytes()

    def test_metadata_serialized_first(self):
        ckpt = Checkpoint({"w": Tensor("F64", np.zeros(1))}, metadata={"k": "v"})
        blob = write_archive(ckpt)
        header = json.loads(blob[8:8 + int.from_bytes(blob[:8], "little")])
        assert list(header)[0] == "__metadata__"
        assert read_archive(blob).metadata == {"k": "v"}


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_round_trip_each_dtype(self, dtype):
        rng = np.random.default_rng(7)
        ckpt = random_checkpoint(rng, n_tensors=4, dtypes=[dtype])
        again = read_archive(write_archive(ckpt))
        for name in ckpt.names():
            assert again[name].dtype == dtype
            np.testing.assert_array_equal(again.values(name), ckpt.values(name))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed):
        ckpt = random_checkpoint(np.random.default_rng(seed))
        blob = write_archive(ckpt)
        again = read_archive(blob)
        assert write_archive(again) == blob
        for name in ckpt.names():
            np.testing.assert_array_equal(again.values(name), ckpt.values(name))

    def test_write_is_pure_function_of_value(self):
        rng = np.random.default_rng(3)
        ckpt = random_checkpoint(rng, n_tensors=5)
        reordered = Checkpoint(dict(reversed(list(ckpt.tensors.items()))), ckpt.metadata)
        assert write_archive(ckpt) == write_archive(reordered)

    def test_header_has_no_float_payload(self):
        ckpt = random_checkpoint(np.random.default_rng(11))
        blob = write_archive(ckpt)
        header = json.loads(blob[8:8 + int.from_bytes(blob[:8], "little")])
        for entry in header.values():
            assert set(entry) == {"dtype", "shape", "data_offsets"}
            assert all(isinstance(s, int) for s in entry["shape"])


def _prefixed(blob: bytes) -> bytes:
    return len(blob).to_bytes(8, "little") + blob


class TestHostileHeader:
    # json.loads raises RecursionError and a digit-limit ValueError on these
    CASES = {
        "deep_nesting": _prefixed(b'{"a":' + b"[" * 100_000),
        "huge_integer": _prefixed(
            b'{"w":{"dtype":"F32","shape":[' + b"9" * 5000 + b'],"data_offsets":[0,4]}}')
        + b"\x00" * 4,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reader_raises_archive_error(self, tmp_path, case):
        raw = self.CASES[case]
        path = tmp_path / "hostile.st"
        path.write_bytes(raw)
        for source in (raw, path):
            with pytest.raises(ArchiveError, match="malformed JSON header"):
                read_archive(source)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_inspect_reports_invalid(self, tmp_path, capsys, case):
        path = tmp_path / "hostile.st"
        path.write_bytes(self.CASES[case])
        assert main(["inspect", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"]
        assert report["violations"][0].startswith("malformed JSON header")

    def test_header_length_over_cap(self, tmp_path, capsys):
        raw = (MAX_HEADER_BYTES + 1).to_bytes(8, "little")
        path = tmp_path / "cap.st"
        path.write_bytes(raw)
        for source in (raw, path):
            with pytest.raises(ArchiveError, match="exceeds the limit of 100000000 bytes"):
                read_archive(source)
        assert main(["inspect", str(path)]) == 1
        assert not json.loads(capsys.readouterr().out)["valid"]
        # at the cap, the length is checked against the file instead
        with pytest.raises(ArchiveError, match="truncated input"):
            read_archive(MAX_HEADER_BYTES.to_bytes(8, "little"))


class TestValidateArchive:
    def write(self, tmp_path, blob):
        p = tmp_path / "a.st"
        p.write_bytes(blob)
        return p

    def test_well_formed(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(5), n_tensors=2)
        report = validate_archive(self.write(tmp_path, write_archive(ckpt)))
        assert report["valid"]
        assert report["tensor_count"] == 2

    def test_duplicate_name_violation(self, tmp_path):
        blob = b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}'
        raw = len(blob).to_bytes(8, "little") + blob + b"\x00" * 4
        report = validate_archive(self.write(tmp_path, raw))
        assert any("duplicate tensor name" in v for v in report["violations"])

    def test_gap_violation(self, tmp_path):
        raw = make_archive(
            {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
             "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]}},
            b"\x00" * 12)
        report = validate_archive(self.write(tmp_path, raw))
        assert any("non-contiguous data" in v for v in report["violations"])

    def test_non_string_metadata_violation(self, tmp_path):
        raw = make_archive(
            {"__metadata__": {"k": 1},
             "w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
            b"\x00" * 4)
        with pytest.raises(ArchiveError, match="string-to-string"):
            read_archive(raw)
        assert not validate_archive(self.write(tmp_path, raw))["valid"]

    def test_trailing_bytes_without_tensors_violation(self, tmp_path):
        raw = make_archive({"__metadata__": {"k": "v"}}, b"\x00" * 16)
        report = validate_archive(self.write(tmp_path, raw))
        assert report["violations"] == ["non-contiguous data: 16 trailing bytes after last tensor"]

    @pytest.mark.parametrize("shape", [[0, 10 ** 20], [0, 2 ** 62, 2 ** 62]])
    def test_unrepresentable_empty_shape(self, tmp_path, shape):
        raw = make_archive({"w": {"dtype": "F32", "shape": shape, "data_offsets": [0, 0]}}, b"")
        with pytest.raises(ArchiveError, match="cannot be represented"):
            read_archive(raw)
        assert not validate_archive(self.write(tmp_path, raw))["valid"]

    _FUZZ_SEED = write_archive(Checkpoint.from_arrays(
        {"a": [1.0, -2.0], "b": [[0.5]]}, "F32", metadata={"k": "v"}))
    # edits favour JSON syntax and half the examples keep the full length,
    # so many mutants parse and reach the per-tensor checks
    _JSON_BYTES = list(b'0123456789-.eE{}[]:,"_ abdfnlrstu\\\x00\xff')
    _B_OFFSETS = _FUZZ_SEED.index(b"[8,12]")

    @given(edits=st.lists(st.tuples(st.integers(0, len(_FUZZ_SEED) - 1),
                                    st.one_of(st.sampled_from(_JSON_BYTES), st.integers(0, 255))),
                          max_size=4),
           cut=st.one_of(st.just(0), st.integers(0, len(_FUZZ_SEED))))
    # b's range [8,12) becomes [4,8), inside a's [0,8)
    @example(edits=[(_B_OFFSETS + 1, ord("4")), (_B_OFFSETS + 3, ord("8")),
                    (_B_OFFSETS + 4, ord("]")), (_B_OFFSETS + 5, ord(" "))], cut=0)
    @settings(max_examples=300, deadline=None)
    def test_flags_whatever_the_reader_rejects(self, tmp_path_factory, edits, cut):
        raw = bytearray(self._FUZZ_SEED)
        for pos, byte in edits:
            raw[pos] = byte
        raw = bytes(raw[:len(raw) - cut])
        path = tmp_path_factory.getbasetemp() / "fuzz.st"
        path.write_bytes(raw)
        try:
            read_archive(raw)
        except ArchiveError as exc:
            assert validate_archive(path)["violations"][:1] == [str(exc)]

    # runs of the tokens that reach json's recursion and digit limits
    _RUN_TOKENS = [b"[", b"{", b'{"a":', b"9"]
    _HEADER_LEN = int.from_bytes(_FUZZ_SEED[:8], "little")

    @given(edits=st.lists(
               st.tuples(st.integers(0, _HEADER_LEN), st.booleans(),
                         st.one_of(st.sampled_from(_JSON_BYTES).map(lambda b: bytes([b])),
                                   st.builds(lambda token, k: token * k,
                                             st.sampled_from(_RUN_TOKENS), st.integers(1, 6000)))),
               max_size=4),
           fix_length=st.booleans())
    @example(edits=[(_FUZZ_SEED.index(b"[") - 8, True, b"[" * 2000)], fix_length=True)
    @example(edits=[(_FUZZ_SEED.index(b"[") - 7, True, b"9" * 5000)], fix_length=True)
    @settings(max_examples=300, deadline=None)
    def test_reader_raises_only_archive_error(self, tmp_path_factory, edits, fix_length):
        """Edits insert into (or overwrite) the JSON header; the length
        prefix is either rewritten to cover them or left stale."""
        header = bytearray(self._FUZZ_SEED[8:8 + self._HEADER_LEN])
        for pos, insert, chunk in edits:
            header[pos:pos if insert else pos + len(chunk)] = chunk
        length = len(header) if fix_length else self._HEADER_LEN
        raw = length.to_bytes(8, "little") + bytes(header) + self._FUZZ_SEED[8 + self._HEADER_LEN:]
        path = tmp_path_factory.getbasetemp() / "hostile-fuzz.st"
        path.write_bytes(raw)
        report = validate_archive(path)
        try:
            read_archive(raw)
        except ArchiveError as exc:
            assert report["violations"][:1] == [str(exc)]

    def test_report_shape(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(9), n_tensors=3)
        report = validate_archive(self.write(tmp_path, write_archive(ckpt)))
        d = report
        assert set(d) == {"dtype_counts", "tensor_count", "total_bytes", "valid", "violations"}


class TestTensor:
    @pytest.mark.parametrize("dtype, data", [
        ("BF16", np.ones(2, np.float32)),
        ("F32", np.ones(2, np.float64)),
        ("F16", np.ones(2, np.uint16)),
    ], ids=["BF16-float32", "F32-float64", "F16-uint16"])
    def test_data_not_in_the_stored_form_is_rejected(self, dtype, data):
        with pytest.raises(TypeError, match=f"{dtype} tensor data must be"):
            Tensor(dtype, data)

    def test_unknown_dtype_is_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype 'F8'"):
            Tensor("F8", np.ones(2))
        with pytest.raises(ValueError, match="unknown dtype 'F8'"):
            dtype_size("F8")

    def test_misaligned_read_only_view_is_kept_uncopied(self):
        data = np.frombuffer(bytes(3) + np.arange(5.0).tobytes(), "<f8", offset=3)
        assert not data.flags.aligned and not data.flags.writeable
        tensor = Tensor("F64", data)
        assert tensor.data is data
        values = tensor.values
        assert values.flags.aligned and values is not tensor.values  # decoded at each read
        np.testing.assert_array_equal(values, np.arange(5.0))


# float64 values rounded into each source dtype of the policy test: zeros,
# subnormals, non-finite values and finite values past a narrower range
_EDGE_VALUES = [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan,
                5e-324, -1e-310,  # F64 subnormals
                1e-45, -1e-40,  # F32 and BF16 subnormals
                6e-8, -3e-5,  # F16 subnormals
                7e4, -65520.0,  # past F16's largest finite value
                3.4028235e38,  # F32's largest finite value, past BF16's
                1e300, -1e39]  # past F32's
_SIGNALLING = {"F64": [0x7FF0000000000001, 0xFFF4000000000000], "F32": [0x7F800001, 0xFFA00000],
               "F16": [0x7C01, 0xFD00], "BF16": [0x7F81, 0xFFA0]}
_BITS = {"F64": "<u8", "F32": "<u4", "F16": "<u2", "BF16": "<u2"}
_STORED = {"F64": "<f8", "F32": "<f4", "F16": "<f2", "BF16": "<u2"}


def reference_bits(values, dtype) -> np.ndarray:
    """The bit patterns of float64 `values` cast to `dtype` by cast_values."""
    cast = cast_values(np.asarray(values, dtype=np.float64), dtype)
    return (_f32_to_bf16_bits(cast) if dtype == "BF16" else cast).view(_BITS[dtype])


class TestDtypePolicy:
    @staticmethod
    def elements(dtype):
        width = 8 * np.dtype(_BITS[dtype]).itemsize
        edge = [int(b) for b in reference_bits(_EDGE_VALUES, dtype)] + _SIGNALLING[dtype]
        return st.one_of(st.sampled_from(edge), st.integers(0, 2 ** width - 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in casts
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_policy_writes_the_reference_cast(self, tmp_path_factory, data):
        """A tensor cast by the policy is written as cast_values casts its
        values; one already in the policy's dtype is written as it is
        stored, a BF16 NaN with its quiet bit set."""
        source = data.draw(st.sampled_from(DTYPES), label="source")
        policy = data.draw(st.sampled_from(DTYPES), label="policy")
        bits = np.array(data.draw(st.lists(self.elements(source), max_size=12)), _BITS[source])
        values = (bits.astype("<u4") << 16).view("<f4") if source == "BF16" else bits.view(
            _STORED[source])
        if policy != source:
            want = reference_bits(values, policy)
        elif source == "BF16":
            want = np.where((bits & 0x7FFF) > 0x7F80, bits | 0x40, bits)
        else:
            want = bits

        ckpt = Checkpoint({"w": Tensor(source, bits.view(_STORED[source]))})
        if data.draw(st.booleans(), label="read back from a misaligned archive"):
            header = {"w": {"dtype": source, "shape": [bits.size],
                            "data_offsets": [0, bits.nbytes]}}
            path = tmp_path_factory.getbasetemp() / "policy.st"
            path.with_suffix(".tmp").write_bytes(
                padded_archive(header, bits.tobytes(), data.draw(st.sampled_from([1, 3, 5, 7]))))
            os.replace(path.with_suffix(".tmp"), path)  # an earlier map keeps its file
            ckpt = read_archive(path)
            assert bits.size == 0 or not ckpt["w"].data.flags.aligned
        blob = write_archive(ckpt, dtype_policy=policy)
        assert blob[8 + int.from_bytes(blob[:8], "little"):] == want.tobytes()


class TestBF16Round:
    def test_matches_uint64_oracle_on_every_high_half(self):
        high = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
        low = np.array([0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF], dtype=np.uint32)
        u = (high[:, None] | low[None, :]).reshape(-1)
        for pattern in (0x00000000, 0x80000000,  # +-0
                        0x7F800000, 0xFF800000,  # +-inf
                        0x7F7FFFFF, 0xFF7FFFFF,  # +-max finite, rounds to inf
                        0x3F808000, 0x3F818000,  # ties to even, down and up
                        0x7FC00000, 0xFFC00000,  # quiet NaN
                        0x7F800001, 0xFF800001,  # signalling NaN, payload in the low half
                        0x7FA00000, 0xFFFFFFFF):  # signalling NaN, all-ones NaN
            assert pattern in u
        f = u.view(np.float32)
        want = ((u.astype(np.uint64) + 0x7FFF + ((u >> 16) & 1)) >> 16).astype(np.uint16)
        want = np.where(np.isnan(f), ((u >> 16) | 0x0040).astype(np.uint16), want)
        np.testing.assert_array_equal(_f32_to_bf16_bits(f), want)


def oracle_bf16_bits(values) -> np.ndarray:
    """The bfloat16 bits of float64 `values` rounded to nearest even through
    float32, by uint64 arithmetic over whole arrays; a NaN keeps its high
    half with the quiet bit set."""
    f = np.asarray(values, np.float64).astype(np.float32)
    u = f.view(np.uint32).astype(np.uint64)
    bits = (u + 0x7FFF + ((u >> 16) & 1)) >> 16
    return np.where(np.isnan(f), (u >> 16) | 0x40, bits).astype(np.uint16)


def _f64_bits(f32_bits: int) -> int:
    """The float64 bit pattern of a finite float32 one, widened exactly."""
    f32 = np.array([f32_bits], np.uint32).view(np.float32)
    return int(f32.astype(np.float64).view(np.uint64)[0])


_F64_EDGES = [int(b) for b in np.array([
    np.inf, -np.inf, 3.4028235e38, -3.39e38, 3.3895314e38, 1e39, -1e300,  # past BF16's max
    0.0, -0.0, 5e-324, 1e-45, -1e-40, 9.2e-41, -2e-39]).view(np.uint64)] + [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FFABCDE12345678, 0xFFFFFFFFFFFFFFFF,  # quiet NaN
    0x7FF0000000000001, 0xFFF4000000000000, 0x7FF7FFFFFFFFFFFF, 0xFFF0012300000000]  # signalling
_F64_PATTERNS = st.one_of(
    st.sampled_from(_F64_EDGES),
    st.integers(0, 0xFFFF).filter(lambda h: h & 0x7F80 != 0x7F80)  # float32 ties, both ways
    .map(lambda h: _f64_bits(h << 16 | 0x8000)),
    st.integers(0, 2 ** 32 - 1).filter(lambda b: b & 0x7F800000 != 0x7F800000).map(_f64_bits),
    st.integers(0, 2 ** 64 - 1))


class TestBF16Scratch:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in casts, inf - inf
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_scratch_conversions_give_the_reference_bits(self, tmp_path_factory, data):
        """narrow and widen give the oracle's BF16 bits in a caller's stale
        scratch as in their own, as cast_values and _f32_to_bf16_bits do,
        and a BF16 `merge tv` of such values gives them at every chunk
        length and thread count."""
        x = np.array(data.draw(st.lists(_F64_PATTERNS, max_size=24)), np.uint64).view(np.float64)
        want = oracle_bf16_bits(x)
        exact = (want.astype(np.uint32) << 16).view(np.float32)
        work = np.full(x.size + data.draw(st.integers(0, 3), label="spare"), np.nan)
        out = np.empty(x.size, np.uint16)
        assert narrow(x, "BF16", out, work) is out and out.tobytes() == want.tobytes()
        assert narrow(x, "BF16").tobytes() == want.tobytes()
        assert _f32_to_bf16_bits(x.astype(np.float32)).tobytes() == want.tobytes()
        assert cast_values(x, "BF16").tobytes() == exact.tobytes()
        for scratch in (work, None):
            widened = widen(want, np.empty(x.size), scratch)
            assert widened.tobytes() == exact.astype(np.float64).tobytes()

        weight = data.draw(st.sampled_from([1.0, -1.0, 0.3, 2.5]), label="weight")
        y = x[::-1].copy()
        ref = reference_tv_merge_bits(exact, "BF16", [(y, weight)])
        ref += reference_tv_merge_bits(exact[::-1], "BF16", [(x, weight)])
        root = tmp_path_factory.mktemp("bf16")
        save_archive(Checkpoint({"v": Tensor("BF16", want),
                                 "w": Tensor("BF16", want[::-1].copy())}), root / "base.st")
        save_archive(TaskVector.from_arrays({"v": y, "w": x}).to_checkpoint(), root / "tv.st")
        argv = ["merge", "tv", "--base", str(root / "base.st"), "--vector", str(root / "tv.st"),
                "--weight", repr(weight), "--out", str(root / "out.st"), "--threads"]
        chunk = data.draw(st.integers(1, 9), label="_CHUNK")
        for threads in ("1", "2"):
            with mock.patch.object(store_mod, "_CHUNK", chunk):
                assert main(argv + [threads]) == 0
            blob = (root / "out.st").read_bytes()
            assert blob[8 + int.from_bytes(blob[:8], "little"):] == ref, (threads, chunk)


def test_encode_quiets_each_bf16_nan_and_changes_nothing_else():
    bits = np.arange(1 << 16, dtype=np.uint32).astype("<u2")
    nan = (bits & 0x7FFF) > 0x7F80
    got = encode(bits, "BF16")
    assert np.array_equal(got[nan], bits[nan] | 0x0040)
    assert np.array_equal(got[~nan], bits[~nan])
    free = bits[~nan]
    assert encode(free, "BF16") is free  # NaN-free data is not copied
    for pattern in bits[nan]:  # each NaN alone among the largest non-NaN patterns
        one = np.array([0x7F80, pattern, 0xFF80], "<u2")
        assert encode(one, "BF16").tolist() == [0x7F80, pattern | 0x0040, 0xFF80]


class TestCastValues:
    def test_f16_cast_is_native(self):
        v = np.array([1.0 + 2 ** -12], dtype=np.float64)
        assert cast_values(v, "F16")[0] == np.float16(v[0])

    def test_bf16_nan_stays_nan(self):
        out = cast_values(np.array([np.nan], dtype=np.float64), "BF16")
        assert np.isnan(out[0])
