import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecmerge import (ArchiveError, Checkpoint, Tensor, read_archive,
                      validate_archive, write_archive)
from vecmerge.dtypes import cast_values

from helpers import DTYPES, random_checkpoint


def make_archive(header: dict, data: bytes) -> bytes:
    blob = json.dumps(header, separators=(",", ":")).encode()
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


class TestCastValues:
    def test_f16_cast_is_native(self):
        v = np.array([1.0 + 2 ** -12], dtype=np.float64)
        assert cast_values(v, "F16")[0] == np.float16(v[0])

    def test_bf16_nan_stays_nan(self):
        out = cast_values(np.array([np.nan], dtype=np.float64), "BF16")
        assert np.isnan(out[0])
