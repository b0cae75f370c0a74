import json
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecmerge import (ArchiveError, Checkpoint, TaskVector, Tensor, read_archive,
                      save_archive, validate_archive, write_archive)
from vecmerge.cli import main
from vecmerge.dtypes import _f32_to_bf16_bits, cast_values

from helpers import DTYPES, random_checkpoint


def make_archive(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header, separators=(",", ":")).encode()
    return len(blob).to_bytes(8, "little") + blob + data


def padded_archive(header: dict, data: bytes, misalign: int) -> bytes:
    """Like make_archive, with the data region starting `misalign` bytes
    past an 8-byte boundary (JSON allows trailing spaces in the header)."""
    blob = json.dumps(header, separators=(",", ":")).encode()
    blob += b" " * ((misalign - len(blob)) % 8)
    return len(blob).to_bytes(8, "little") + blob + data


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

    def test_unknown_dtype(self):
        raw = make_archive(
            {"w": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}, b"\x00" * 4)
        with pytest.raises(ArchiveError, match="unknown dtype"):
            read_archive(raw)

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

    def test_duplicate_name(self):
        blob = b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"w":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
        raw = len(blob).to_bytes(8, "little") + blob + b"\x00" * 8
        with pytest.raises(ArchiveError, match="duplicate tensor name"):
            read_archive(raw)

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

    @pytest.mark.parametrize("policy", ["keep", "BF16"])
    def test_nonfinite_last_tensor_keeps_destination(self, tmp_path, policy):
        path = tmp_path / "out.st"
        path.write_bytes(b"old bytes")
        ckpt = Checkpoint({"a": Tensor("F32", np.zeros(1000, dtype=np.float32)),
                           "z": Tensor("F32", np.array([1.0, np.nan], dtype=np.float32))})
        with pytest.raises(ValueError, match="non-finite"):
            save_archive(ckpt, path, dtype_policy=policy, allow_nonfinite=False)
        assert path.read_bytes() == b"old bytes"
        assert list(tmp_path.glob("*.tmp.*")) == []


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

    def test_nonfinite_policy(self):
        ckpt = Checkpoint({"w": Tensor("F32", np.array([np.inf], dtype=np.float32))})
        write_archive(ckpt)  # allowed by default
        with pytest.raises(ValueError, match="non-finite"):
            write_archive(ckpt, allow_nonfinite=False)

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


class TestValidateArchive:
    def write(self, tmp_path, blob):
        p = tmp_path / "a.st"
        p.write_bytes(blob)
        return p

    def test_well_formed(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(5), n_tensors=2)
        report = validate_archive(self.write(tmp_path, write_archive(ckpt)))
        assert report.valid
        assert report.tensor_count == 2

    def test_duplicate_name_violation(self, tmp_path):
        blob = b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}'
        raw = len(blob).to_bytes(8, "little") + blob + b"\x00" * 4
        report = validate_archive(self.write(tmp_path, raw))
        assert any("duplicate tensor name" in v for v in report.violations)

    def test_gap_violation(self, tmp_path):
        raw = make_archive(
            {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
             "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]}},
            b"\x00" * 12)
        report = validate_archive(self.write(tmp_path, raw))
        assert any("non-contiguous data" in v for v in report.violations)

    def test_non_string_metadata_violation(self, tmp_path):
        raw = make_archive(
            {"__metadata__": {"k": 1},
             "w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
            b"\x00" * 4)
        with pytest.raises(ArchiveError, match="string-to-string"):
            read_archive(raw)
        assert not validate_archive(self.write(tmp_path, raw)).valid

    def test_trailing_bytes_without_tensors_violation(self, tmp_path):
        raw = make_archive({"__metadata__": {"k": "v"}}, b"\x00" * 16)
        report = validate_archive(self.write(tmp_path, raw))
        assert report.violations == ["non-contiguous data: 16 trailing bytes after last tensor"]

    @pytest.mark.parametrize("shape", [[0, 10 ** 20], [0, 2 ** 62, 2 ** 62]])
    def test_unrepresentable_empty_shape(self, tmp_path, shape):
        raw = make_archive({"w": {"dtype": "F32", "shape": shape, "data_offsets": [0, 0]}}, b"")
        with pytest.raises(ArchiveError, match="cannot be represented"):
            read_archive(raw)
        assert not validate_archive(self.write(tmp_path, raw)).valid

    _FUZZ_SEED = write_archive(Checkpoint.from_arrays(
        {"a": [1.0, -2.0], "b": [[0.5]]}, "F32", metadata={"k": "v"}))
    # edits favour JSON syntax and half the examples keep the full length,
    # so many mutants parse and reach the per-tensor checks
    _JSON_BYTES = list(b'0123456789-.eE{}[]:,"_ abdfnlrstu\\\x00\xff')

    @given(edits=st.lists(st.tuples(st.integers(0, len(_FUZZ_SEED) - 1),
                                    st.one_of(st.sampled_from(_JSON_BYTES), st.integers(0, 255))),
                          max_size=4),
           cut=st.one_of(st.just(0), st.integers(0, len(_FUZZ_SEED))))
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
        except ArchiveError:
            assert not validate_archive(path).valid

    def test_report_shape(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(9), n_tensors=3)
        report = validate_archive(self.write(tmp_path, write_archive(ckpt)))
        d = report.to_dict()
        assert set(d) == {"dtype_counts", "tensor_count", "total_bytes", "valid", "violations"}


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


class TestCastValues:
    def test_f16_cast_is_native(self):
        v = np.array([1.0 + 2 ** -12], dtype=np.float64)
        assert cast_values(v, "F16")[0] == np.float16(v[0])

    def test_bf16_nan_stays_nan(self):
        out = cast_values(np.array([np.nan], dtype=np.float64), "BF16")
        assert np.isnan(out[0])
