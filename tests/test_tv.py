import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecmerge import (Checkpoint, LazyCheckpoint, MergeError, TaskVector, Tensor, apply,
                      cosine, disjoint_merge, elect_signs, extract_task_vector,
                      interference_stats, read_archive, save_archive, scale, ties_merge, trim,
                      tv_merge, write_archive)
from vecmerge import tensor_store as store_mod
from vecmerge import tv as tv_mod
from vecmerge.tv import is_task_vector_archive

from vecmerge.dtypes import dtype_size, narrow

from helpers import DTYPES, random_checkpoint, reference_extract, reference_tv_merge_bits


def ckpt(arrays, dtype="F64"):
    return Checkpoint.from_arrays(arrays, dtype)


class TestExtract:
    def test_elementwise_subtraction(self):
        tv = extract_task_vector(ckpt({"w": [1.0, 2.0]}), ckpt({"w": [1.5, 1.0]}))
        np.testing.assert_array_equal(tv.deltas["w"], [0.5, -1.0])

    def test_identity_gives_zero(self):
        base = ckpt({"w": [1.0, 2.0], "b": [3.0]})
        tv = extract_task_vector(base, base)
        for name in tv.names():
            assert not tv.deltas[name].any()

    def test_policy_ignore_reports_extra(self):
        base = ckpt({"w": [1.0]})
        ft = ckpt({"w": [2.0], "head.weight": [5.0]})
        tv = extract_task_vector(base, ft, policy="ignore")
        assert tv.names() == ["w"]
        assert tv.ignored == ["head.weight"]

    def test_policy_error_aborts(self):
        with pytest.raises(MergeError, match="head.weight"):
            extract_task_vector(ckpt({"w": [1.0]}),
                                ckpt({"w": [2.0], "head.weight": [5.0]}))

    def test_policy_copy_carries_extras(self):
        base = ckpt({"w": [1.0]})
        ft = ckpt({"w": [2.0], "head.weight": [5.0]})
        tv = extract_task_vector(base, ft, policy="copy_from_finetuned")
        assert sorted(tv.extras) == ["head.weight"]
        out = apply(base, tv)
        np.testing.assert_array_equal(out.values("head.weight"), [5.0])

    def test_policy_copy_ignores_a_reshaped_tensor_the_merge_keeps_from_the_base(self):
        base = ckpt({"w": [1.0, 2.0, 3.0], "head": [4.0, 5.0]})
        ft = ckpt({"w": [2.0, 2.0, 1.0], "head": [6.0, 7.0, 8.0, 9.0], "new": [10.0]})
        tv = extract_task_vector(base, ft, policy="copy_from_finetuned")
        assert sorted(tv.extras) == ["new"]
        assert tv.ignored == ["head"]
        out = apply(base, tv)
        assert out.names() == ["head", "new", "w"]
        assert out["head"].data.tobytes() == base["head"].data.tobytes()
        assert out["new"].data.tobytes() == ft["new"].data.tobytes()
        assert out["w"].data.tobytes() == ft["w"].data.tobytes()

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="^unknown mismatch policy 'keep'$"):
            extract_task_vector(ckpt({"w": [1.0]}), ckpt({"w": [2.0]}), policy="keep")

    def test_empty_intersection(self):
        with pytest.raises(MergeError, match="no shared tensors"):
            extract_task_vector(ckpt({"a": [1.0]}), ckpt({"b": [1.0]}), policy="ignore")

    def test_shape_mismatch_is_policy_handled(self):
        base = ckpt({"w": [1.0], "v": [1.0, 2.0]})
        ft = ckpt({"w": [2.0], "v": [1.0]})
        tv = extract_task_vector(base, ft, policy="ignore")
        assert tv.names() == ["w"]
        assert tv.ignored == ["v"]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_widen_then_subtract_bits(self, data):
        values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-40, -6e-8, 1e300, np.inf,
                                            -np.inf, np.nan]),
                           st.floats(allow_nan=False, allow_infinity=False, width=32))
        base, ft = Checkpoint(), Checkpoint()
        for i in range(data.draw(st.integers(1, 3))):
            shape = data.draw(st.sampled_from([(), (0,), (1,), (5,), (3, 4), (33,)]))
            for side in (base, ft):
                dtype = data.draw(st.sampled_from(DTYPES))
                flat = data.draw(st.lists(values, min_size=math.prod(shape),
                                          max_size=math.prod(shape)))
                with np.errstate(over="ignore", invalid="ignore"):
                    data_ = narrow(np.array(flat, dtype=np.float64).reshape(shape), dtype)
                side.tensors[f"t{i}"] = Tensor(dtype, data_)
        if data.draw(st.booleans(), label="through archives"):  # stored forms, misaligned views
            base, ft = (read_archive(write_archive(c)) for c in (base, ft))
        got = extract_task_vector(base, ft)
        want = reference_extract(base, ft)
        assert sorted(got.deltas) == sorted(want)
        for name, d in got.deltas.items():
            assert d.dtype == np.float64 and d.shape == want[name].shape
            assert d.tobytes() == want[name].tobytes(), name


class TestLazyDelta:
    def test_public_functions_take_an_unmade_vector(self, tmp_path):
        """load_task_vector extracts a fine-tuned source as LazyDeltas, made
        where they are read: every public function that takes a vector
        gives, bit for bit, what it gives on the deltas made whole."""
        rng = np.random.default_rng(24)
        shapes = {"b": (70001,), "w": (5, 7)}  # "b" crosses a merge chunk
        save_archive(Checkpoint({n: Tensor(dtype, narrow(rng.normal(size=shapes[n]), dtype))
                                 for n, dtype in (("b", "BF16"), ("w", "F32"))}),
                     tmp_path / "base.st")
        for k in range(2):
            save_archive(ckpt({n: rng.normal(size=s) for n, s in shapes.items()}, "F32"),
                         tmp_path / f"ft{k}.st")
        base = read_archive(tmp_path / "base.st")
        lazy = [tv_mod.load_task_vector(tmp_path / f"ft{k}.st", base) for k in range(2)]
        made = [extract_task_vector(base, read_archive(tmp_path / f"ft{k}.st")) for k in range(2)]
        assert all(isinstance(d, tv_mod.LazyDelta) for tv in lazy for d in tv.deltas.values())
        assert lazy[0].deltas["b"].shape == (70001,) and lazy[0].deltas["b"].size == 70001

        def bits(tv):
            return {n: np.asarray(d).tobytes() for n, d in tv.deltas.items()}

        assert [bits(tv) for tv in lazy] == [bits(tv) for tv in made]
        assert bits(trim(lazy[0], 0.3)) == bits(trim(made[0], 0.3))
        signs = elect_signs(lazy, [1.0, 2.0])
        assert ({n: s.tobytes() for n, s in signs.items()}
                == {n: s.tobytes() for n, s in elect_signs(made, [1.0, 2.0]).items()})
        assert (bits(disjoint_merge(lazy, [1.0, 2.0], signs))
                == bits(disjoint_merge(made, [1.0, 2.0], signs)))
        assert cosine(*lazy) == cosine(*made)
        assert bits(scale(lazy[1], -0.3)) == bits(scale(made[1], -0.3))
        assert write_archive(lazy[0].to_checkpoint()) == write_archive(made[0].to_checkpoint())
        assert interference_stats(lazy, 0.3) == interference_stats(made, 0.3)
        for threads in (1, 2):
            assert (write_archive(tv_merge(base, [(lazy[0], 0.5), (lazy[1], -1.0)], threads))
                    == write_archive(tv_merge(base, [(made[0], 0.5), (made[1], -1.0)])))
            assert (write_archive(ties_merge(base, [(lazy[0], 1.0), (lazy[1], 2.0)], 0.3,
                                             threads=threads))
                    == write_archive(ties_merge(base, [(made[0], 1.0), (made[1], 2.0)], 0.3)))

    @settings(max_examples=80, deadline=None)
    @given(finetuned=st.sampled_from(DTYPES), base=st.sampled_from(DTYPES),
           mapped=st.tuples(st.booleans(), st.booleans()), extreme=st.booleans(),
           size=st.sampled_from([0, 1, store_mod._CHUNK - 1, store_mod._CHUNK,
                                 store_mod._CHUNK + 1, 2 * store_mod._CHUNK + 3]),
           data=st.data())
    def test_read_chunk_gives_the_reference_bits(self, tmp_path_factory, finetuned, base,
                                                 mapped, extreme, size, data):
        """read_chunk reads any run of a LazyDelta from its two stored sides,
        mapped or in memory, a chunk at a time, into the caller's float64
        buffer, with the bits of the widen-then-subtract reference: two F64
        sides that overflow give +-inf, and a NaN is the positive quiet NaN."""
        start = data.draw(st.integers(0, size), label="start")
        count = data.draw(st.integers(0, size - start), label="count")
        rng = np.random.default_rng(size)
        values = rng.normal(size=(2, size))
        if extreme:
            values[0, ::3], values[1, ::3] = 1.7e308, -1.7e308  # F64 - F64 overflows to inf
            values[0, 1::3], values[1, 1::3] = -1.7e308, 1.7e308
            values[0, 2::7], values[1, 5::11] = np.nan, -np.inf
        root = tmp_path_factory.mktemp("lazy")
        sides = []
        for side, (dtype, on_map) in enumerate(zip((finetuned, base), mapped)):
            with np.errstate(over="ignore"):  # 1.7e308 narrows to inf
                tensor = Tensor(dtype, narrow(values[side], dtype))
            if on_map:
                save_archive(Checkpoint({"w": tensor}), root / f"{side}.st")
                tensor = read_archive(root / f"{side}.st")["w"]
            sides.append(tensor)
        delta = tv_mod.LazyDelta(*sides)
        out = np.full(count, 7.0)
        got = store_mod.read_chunk(delta, start, out)
        assert delta.dtype == np.float64 and got is out
        with np.errstate(over="ignore"):  # 1.7e308 - -1.7e308 is inf
            want = reference_extract(Checkpoint({"w": sides[1]}), Checkpoint({"w": sides[0]}))["w"]
        assert got.tobytes() == want[start:start + count].tobytes()

    @pytest.mark.parametrize("magnitude", [1.0, 1e300])  # 1e300 takes the rescaled path
    def test_cosine_holds_one_tensor_of_an_unmade_vector(self, magnitude):
        """cosine makes the two deltas of one tensor at a time, at each pass,
        so its peak is that tensor's pair, not two whole extracted vectors."""
        n, names = 1 << 18, "abcdef"  # 2 MiB of float64 per delta, 24 MiB for both vectors
        rng = np.random.default_rng(5)
        base = Checkpoint({name: Tensor("F64", np.zeros(n)) for name in names})
        lazy = [tv_mod.extract(base, Checkpoint({name: Tensor("F64", magnitude * rng.normal(size=n))
                                                 for name in names})) for _ in range(2)]
        tracemalloc.start()
        try:
            result = cosine(*lazy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == cosine(*(TaskVector({k: np.asarray(d) for k, d in tv.deltas.items()})
                                  for tv in lazy))
        scratch = 8 * 8 * store_mod._CHUNK  # making one delta and summing a pair, by chunk
        assert peak < 2 * 8 * n + scratch, \
            f"peak {peak / 2**20:.1f} MiB holds more than one tensor's pair and scratch"

    def test_a_written_vector_holds_scratch_not_its_deltas(self, tmp_path):
        """to_checkpoint makes each LazyDelta as the writer writes it, so
        saving an unmade vector holds the kernel's scratch, not one whole
        delta, and writes the bytes of the vector made whole."""
        n, names = 1 << 18, "abcdef"  # 2 MiB of float64 per delta, 12 MiB for the vector
        rng = np.random.default_rng(6)
        for stem in ("base", "ft"):
            save_archive(Checkpoint({name: Tensor("F32", rng.normal(size=n).astype(np.float32))
                                     for name in names}), tmp_path / f"{stem}.st")
        base = read_archive(tmp_path / "base.st")
        lazy = tv_mod.load_task_vector(tmp_path / "ft.st", base)
        tracemalloc.start()
        try:
            save_archive(lazy.to_checkpoint(), tmp_path / "tv.st")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        made = extract_task_vector(base, read_archive(tmp_path / "ft.st"))
        assert (tmp_path / "tv.st").read_bytes() == write_archive(made.to_checkpoint())
        assert peak < 8 * n, f"peak {peak / 2**20:.2f} MiB holds a whole delta"


class TestScaleAdd:
    def test_scale(self):
        tv = TaskVector.from_arrays({"w": [0.5, -1.0]})
        np.testing.assert_array_equal(scale(tv, 2.0).deltas["w"], [1.0, -2.0])
        np.testing.assert_array_equal(scale(tv, 0.0).deltas["w"], [0.0, 0.0])
        np.testing.assert_array_equal(scale(tv, -1.0).deltas["w"], [-0.5, 1.0])

    def test_scale_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            scale(TaskVector.from_arrays({"w": [1.0]}), float("nan"))


class TestApply:
    def test_basic(self):
        out = apply(ckpt({"w": [1.0, 2.0]}), TaskVector.from_arrays({"w": [0.5, -1.0]}))
        np.testing.assert_array_equal(out.values("w"), [1.5, 1.0])

    def test_zero_tv_identity(self):
        base = ckpt({"w": [1.0, 2.0]}, "F32")
        out = apply(base, TaskVector.from_arrays({"w": [0.0, 0.0]}))
        np.testing.assert_array_equal(out.values("w"), base.values("w"))
        assert out["w"].dtype == "F32"

    def test_untouched_tensor_bit_identical(self):
        base = random_checkpoint(np.random.default_rng(1), n_tensors=3)
        name = base.names()[0]
        tv = TaskVector.from_arrays({name: np.ones(base[name].shape)})
        out = apply(base, tv)
        for other in base.names()[1:]:
            assert out.tensors[other] is base.tensors[other]

    def test_missing_name(self):
        with pytest.raises(MergeError, match="missing from base"):
            apply(ckpt({"w": [1.0]}), TaskVector.from_arrays({"v": [1.0]}))

    def test_shape_mismatch(self):
        with pytest.raises(MergeError, match="shape mismatch"):
            apply(ckpt({"w": [1.0]}), TaskVector.from_arrays({"w": [1.0, 2.0]}))


class TestTvMerge:
    def test_single_weighted_vector(self):
        out = tv_merge(ckpt({"w": [1.0, 2.0]}),
                       [(TaskVector.from_arrays({"w": [0.5, -1.0]}), 2.0)]).materialize()
        np.testing.assert_array_equal(out.values("w"), [2.0, 0.0])

    def test_zero_weights_identity(self):
        base = random_checkpoint(np.random.default_rng(2))
        tv = TaskVector.from_arrays(
            {n: np.ones(base[n].shape) for n in base.names()})
        out = tv_merge(base, [(tv, 0.0), (tv, 0.0)])
        assert write_archive(out) == write_archive(base)

    def test_two_vector_combination(self):
        out = tv_merge(ckpt({"w": [0.0, 0.0]}),
                       [(TaskVector.from_arrays({"w": [1.0, 0.0]}), 0.3),
                        (TaskVector.from_arrays({"w": [0.0, 2.0]}), 0.5)]).materialize()
        np.testing.assert_array_equal(out.values("w"), [0.3, 1.0])

    def test_linearity(self):
        rng = np.random.default_rng(3)
        base = ckpt({"w": rng.normal(size=16)}, "F32")
        tv = TaskVector.from_arrays({"w": rng.normal(size=16)})
        a, b = 0.3, 0.45
        split = tv_merge(base, [(tv, a), (tv, b)]).materialize().values("w")
        joint = tv_merge(base, [(tv, a + b)]).materialize().values("w")
        ulp = np.spacing(np.abs(joint).astype(np.float32))
        assert np.all(np.abs(split - joint) <= 2 * ulp)

    def test_threads_match_serial(self):
        base = random_checkpoint(np.random.default_rng(8), n_tensors=6)
        tv = TaskVector.from_arrays(
            {n: np.random.default_rng(9).normal(size=base[n].shape)
             for n in base.names()})
        serial = tv_merge(base, [(tv, 0.7)], threads=1)
        parallel = tv_merge(base, [(tv, 0.7)], threads=4)
        assert write_archive(serial) == write_archive(parallel)


class TestLazyMerge:
    def operands(self):
        rng = np.random.default_rng(21)
        base = random_checkpoint(rng, n_tensors=12, max_numel=4000, dtypes=["F32", "BF16"])
        tvs = [TaskVector.from_arrays({n: rng.normal(size=base[n].shape) for n in base.names()})
               for _ in range(2)]
        tvs[1].extras["zz.head"] = Tensor("F16", np.ones(3, dtype=np.float16))
        return base, [(tvs[0], 0.3), (tvs[1], -0.6)]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_each_tensor_is_merged_once(self, tmp_path, monkeypatch, threads):
        base, pairs = self.operands()
        want = write_archive(tv_merge(base, pairs))
        name_of = {id(base[n]): n for n in base.names()}
        lock = threading.Lock()
        merged, workers, live, peak = [], set(), [0], [0]
        kernel = tv_mod._merge_tensor

        def counted(tensor, *args):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
                workers.add(threading.get_ident())
            time.sleep(0.002)  # gives the other threads time to start theirs
            try:
                return kernel(tensor, *args)
            finally:
                with lock:
                    live[0] -= 1
                    merged.append(name_of[id(tensor)])

        pools = []

        class Pool(store_mod.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tv_mod, "_merge_tensor", counted)
        monkeypatch.setattr(store_mod, "ThreadPoolExecutor", Pool)
        lazy = tv_merge(base, pairs, threads=threads)
        assert len(lazy) == len(base) + 1 and lazy.names()[-1] == "zz.head"
        assert merged == []  # nothing is merged before the writer reads it
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            save_archive(lazy, tmp_path / "out.st")
        finally:
            sys.setswitchinterval(interval)
        assert (tmp_path / "out.st").read_bytes() == want
        assert sorted(merged) == base.names()  # each tensor once
        assert peak[0] <= threads
        if threads == 1:
            assert pools == [] and workers == {threading.get_ident()}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_writing_a_merge_holds_its_scratch_not_its_tensors(self, tmp_path, threads):
        """Each merged chunk goes from the kernel's scratch to the file, so
        the traced peak is the scratch of the merges running at once."""
        n = 4 << 20  # 8 MiB of BF16 per merged tensor
        rng = np.random.default_rng(13)
        base = Checkpoint({name: Tensor("BF16", narrow(rng.normal(size=n), "BF16"))
                           for name in ("a", "b")})
        tv = TaskVector.from_arrays({name: rng.normal(size=n) for name in ("a", "b")})
        one_chunk = Tensor("BF16", base["a"].data[:tv_mod._CHUNK])
        tracemalloc.start()
        try:  # the scratch of one merge: that of a tensor one chunk long, handed to a no-op put
            tv_mod._merge_tensor(one_chunk, [(tv.deltas["a"][:tv_mod._CHUNK], 0.3)], "BF16",
                                 lambda start, chunk: None)
            scratch = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            save_archive(tv_merge(base, [(tv, 0.3)], threads=threads), tmp_path / "out.st")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.st").read_bytes() == write_archive(tv_merge(base, [(tv, 0.3)]))
        assert peak < 2 * n, f"peak {peak / 2**20:.1f} MiB holds a whole merged tensor"
        assert peak < threads * scratch + 2**20, \
            f"peak {peak / 2**20:.2f} MiB over {threads} x {scratch / 2**20:.2f} MiB + 1 MiB"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_merges_are_lazy_and_materialize_to_the_same_bytes(self, threads):
        base, pairs = self.operands()
        pairs = [(tv, abs(w)) for tv, w in pairs]  # TIES weights are positive
        for merged in (tv_merge(base, pairs, threads=threads),
                       ties_merge(base, pairs, 0.5, 0.7, threads=threads)):
            assert isinstance(merged, LazyCheckpoint)
            assert write_archive(merged.materialize()) == write_archive(merged)

    def test_operands_are_checked_before_any_tensor(self):
        base, pairs = self.operands()
        name = base.names()[0]
        bad = TaskVector.from_arrays({name: np.zeros(base[name].values.size + 1)})
        with pytest.raises(MergeError, match="shape mismatch"):
            tv_merge(base, [*pairs, (bad, 1.0)])
        with pytest.raises(MergeError, match="missing from base"):
            tv_merge(base, [(TaskVector.from_arrays({"nope": [1.0]}), 1.0)])
        with pytest.raises(ValueError, match="non-finite merge weight"):
            tv_merge(base, [(pairs[0][0], float("nan"))])
        with pytest.raises(MergeError,
                           match=r"^tv_merge requires at least one \(vector, weight\) pair$"):
            tv_merge(base, [])

    def test_kernel_failure_reaches_the_writer(self, tmp_path, monkeypatch):
        base, pairs = self.operands()
        lock = threading.Lock()
        calls, live = [], [0]

        def failing(tensor, *args):
            with lock:
                calls.append(1)
                live[0] += 1
                failed = len(calls) == 3
            try:
                if failed:
                    raise RuntimeError("kernel failed")
                time.sleep(0.02)  # still running when the third call fails
                return tensor
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(tv_mod, "_merge_tensor", failing)
        path = tmp_path / "out.st"
        path.write_bytes(b"old bytes")
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="kernel failed"):
            save_archive(tv_merge(base, pairs, threads=2), path)
        assert live == [0]  # the other worker's merge ended before the error came out
        assert set(threading.enumerate()) == before  # and its thread with it
        assert path.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.st"]


class TestChunking:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, overflow in casts
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_chunk_size_never_changes_bytes(self, data):
        any_float = st.floats(allow_nan=True, allow_infinity=True)
        dtype = data.draw(st.sampled_from(DTYPES))
        n = data.draw(st.integers(0, 50))
        base_data = narrow(np.array(data.draw(st.lists(
            st.floats(-1e4, 1e4), min_size=n, max_size=n)), dtype=np.float64), dtype)
        weighted = [(np.array(data.draw(st.lists(any_float, min_size=n, max_size=n)),
                              dtype=np.float64),
                     data.draw(st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-4, 4))))
                    for _ in range(data.draw(st.integers(1, 3)))]
        base = Checkpoint({"w": Tensor(dtype, base_data),
                           "x": Tensor("F32", np.ones(3, np.float32))})
        want = reference_tv_merge_bits(base.values("w"), dtype, weighted)
        pairs = [(TaskVector.from_arrays({"w": d}), w) for d, w in weighted]
        if data.draw(st.booleans(), label="through archives"):  # stored forms, misaligned views
            base = read_archive(write_archive(base))
            pairs = [(TaskVector.from_checkpoint(read_archive(write_archive(tv.to_checkpoint()))),
                      w) for tv, w in pairs]
        chunk = data.draw(st.integers(1, 9), label="_CHUNK")
        for threads in (1, 2):
            with mock.patch.object(tv_mod, "_CHUNK", chunk):
                blob = write_archive(tv_merge(base, pairs, threads=threads))
            start = 8 + int.from_bytes(blob[:8], "little")
            assert blob[start:start + len(want)] == want, (threads, chunk)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf x 0, inf - inf
    @pytest.mark.parametrize("chunk", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("dtype, nan_bits", [
        ("F64", 0x7FF8000000000000), ("F32", 0x7FC00000), ("F16", 0x7E00), ("BF16", 0x7FC0)])
    def test_every_nan_is_the_positive_quiet_nan(self, dtype, nan_bits, chunk):
        n = 15
        deltas = np.zeros((4, n))
        deltas[0, 10], deltas[1, 10] = np.inf, np.nan  # both x 0.0: the NaN sum's sign
        deltas[2, 3] = -np.nan                          # follows numpy's loop
        deltas[2, 5], deltas[3, 5] = np.inf, -np.inf
        weighted = list(zip(deltas, [0.0, 0.0, 1.0, 1.0]))
        base = Checkpoint({"w": Tensor(dtype, narrow(np.zeros(n), dtype))})
        pairs = [(TaskVector.from_arrays({"w": d}), w) for d, w in weighted]
        with mock.patch.object(tv_mod, "_CHUNK", chunk):
            blob = write_archive(tv_merge(base, pairs))
        want = np.zeros(n, f"<u{dtype_size(dtype)}")
        want[[3, 5, 10]] = nan_bits
        start = 8 + int.from_bytes(blob[:8], "little")
        assert blob[start:] == want.tobytes()
        assert reference_tv_merge_bits(np.zeros(n), dtype, weighted) == want.tobytes()


class TestInversion:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_apply_extract_inverts_f32(self, seed):
        rng = np.random.default_rng(seed)
        base = random_checkpoint(rng, dtypes=["F32"])
        ft = Checkpoint(
            {n: base.tensors[n].__class__(
                "F32", (base.values(n) + rng.normal(size=base[n].shape)).astype(np.float32))
             for n in base.names()})
        out = apply(base, extract_task_vector(base, ft))
        for name in base.names():
            got = out.values(name).astype(np.float64)
            want = ft.values(name).astype(np.float64)
            denom = np.where(want == 0.0, 1.0, np.abs(want))
            assert np.max(np.abs(got - want) / denom, initial=0.0) <= 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_apply_extract_exact_f64(self, seed):
        rng = np.random.default_rng(seed)
        base = random_checkpoint(rng, dtypes=["F64"])
        ft = Checkpoint(
            {n: base.tensors[n].__class__(
                "F64", base.values(n) + rng.normal(size=base[n].shape))
             for n in base.names()})
        out = apply(base, extract_task_vector(base, ft))
        for name in base.names():
            np.testing.assert_array_equal(out.values(name), ft.values(name))


class TestStorage:
    def test_task_vector_round_trips_as_archive(self):
        tv = TaskVector.from_arrays({"w": [0.5, -1.0], "v": [3.0]})
        blob = write_archive(tv.to_checkpoint())
        loaded = read_archive(blob)
        assert is_task_vector_archive(loaded)
        again = TaskVector.from_checkpoint(loaded)
        for name in tv.names():
            np.testing.assert_array_equal(again.deltas[name], tv.deltas[name])
