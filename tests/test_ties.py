import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vecmerge.reports as reports_mod
import vecmerge.ties as ties_mod
from vecmerge import (Checkpoint, MergeError, TaskVector, apply,
                      disjoint_merge, elect_signs, extract_task_vector, interference_stats,
                      read_archive, save_archive, scale, tv_merge, ties_merge, trim,
                      write_archive)
from vecmerge.cli import main
from vecmerge.tv import LazyDelta, load_task_vector
from vecmerge.recipes import DEFAULT_GRID

from helpers import (DTYPES, naive_ties_vector, naive_trim, reference_disjoint_merge,
                     reference_elect_signs, reference_interference_stats, reference_trim)


def tv_of(values):
    return TaskVector.from_arrays({"w": values})


class TestTrim:
    def test_half_density(self):
        out = trim(tv_of([0.1, -3.0, 2.0, 0.05]), 0.5)
        np.testing.assert_array_equal(out.deltas["w"], [0.0, -3.0, 2.0, 0.0])

    def test_density_one_unchanged(self):
        tv = tv_of([0.1, -3.0, 2.0])
        np.testing.assert_array_equal(trim(tv, 1.0).deltas["w"], tv.deltas["w"])

    def test_tie_break_lowest_index(self):
        out = trim(tv_of([1.0, -1.0, 1.0]), 1 / 3)
        np.testing.assert_array_equal(out.deltas["w"], [1.0, 0.0, 0.0])

    def test_density_out_of_range(self):
        for density in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="density"):
                trim(tv_of([1.0]), density)

    @pytest.mark.parametrize("density", [0.5, 1.0])
    def test_out_receives_the_tensors_one_after_another(self, density):
        tv = TaskVector.from_arrays({"a": [0.1, -3.0, 2.0, 0.05], "b": [[-0.0, 4.0], [1.0, -5.0]]})
        buffer = np.full(9, np.nan)
        got = trim(tv, density, out=buffer)
        want = trim(tv, density)
        for name, offset in (("a", 0), ("b", 4)):
            assert _same_bits(got.deltas[name], want.deltas[name])
            assert np.shares_memory(got.deltas[name], buffer[offset:offset + 4])
        assert np.isnan(buffer[8])
        for bad in (np.empty(7), np.empty(8, np.float32), np.empty((2, 4)), np.empty(16)[::2]):
            with pytest.raises(ValueError, match="8 or more entries"):
                trim(tv, density, out=bad)

    def test_exact_sparsity(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=37)
        for density in (0.1, 0.25, 0.5, 0.9):
            out = trim(tv_of(values), density)
            assert np.count_nonzero(out.deltas["w"]) == math.ceil(density * 37)

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(1, 30)))
            density = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            got = trim(tv_of(values), density).deltas["w"]
            np.testing.assert_array_equal(got, naive_trim(values, density))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_matches_naive_bits(self, data):
        # few distinct integer magnitudes (with both zeros) put many ties at
        # the threshold, where the lower-index rule decides what is kept
        shape = data.draw(st.one_of(st.tuples(st.integers(1, 2000)),
                                    st.tuples(st.integers(1, 44), st.integers(1, 44))))
        magnitudes = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        elements = st.sampled_from([sign * float(m) for m in magnitudes for sign in (1.0, -1.0)])
        values = data.draw(arrays(np.float64, shape, elements=elements))
        density = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        got = trim(tv_of(values), density).deltas["w"].reshape(-1)
        want = np.array(naive_trim(values, density), dtype=np.float64)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def _trimmed_or_error(trimming, tv, density):
        try:
            return trimming(tv, density).deltas["w"].reshape(-1).view(np.uint64).tolist()
        except MergeError as exc:
            return str(exc)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_runs_of_keys_match_the_reference(self, data):
        """trim ranks a tensor's keys (the top 31 bits of its magnitudes) in
        runs of max(k, chunk scratch) that join the k largest so far, and
        ranks the low words of the cut key's entries only where one of them
        is left out. With a 64-entry scratch, tensors of up to 700
        entries take from one run to many: against reference_trim, bit for
        bit, with ties forced across the cut, keys shared by magnitudes that
        differ in their low bits, one magnitude throughout, +-0.0 and
        subnormals, and NaN or inf raising the reference's text."""
        n = data.draw(st.integers(0, 700), label="n")
        pool = data.draw(st.sampled_from([
            [0.5, 1.0, 2.0],  # few magnitudes: ties across the cut
            [1.0, 1.0 + 2**-40, 1.0 + 2**-52, 1.0 - 2**-53],  # one key, several magnitudes
            [3.0],  # one magnitude throughout
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308],  # zeros and subnormals
        ]), label="pool")
        elements = st.sampled_from([sign * m for m in pool for sign in (1.0, -1.0)])
        if data.draw(st.booleans(), label="continuous"):
            values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=n)
        else:
            values = data.draw(arrays(np.float64, n, elements=elements), label="values")
        if n and data.draw(st.booleans(), label="non-finite"):
            values[data.draw(st.integers(0, n - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        density = data.draw(st.floats(0.0, 1.0, exclude_min=True), label="density")
        tv = tv_of(values)
        with mock.patch.object(ties_mod, "_READ_CHUNK", data.draw(st.sampled_from([64, 1 << 16]))):
            got = self._trimmed_or_error(trim, tv, density)
        assert got == self._trimmed_or_error(reference_trim, tv, density)

    @pytest.mark.parametrize("kind", ["normal", "ties", "equal"])
    @pytest.mark.parametrize("density", [0.05, 0.2, 0.7])
    def test_tensors_above_the_chunk_scratch_match_the_reference(self, kind, density):
        n = 3 * ties_mod._READ_CHUNK + 5
        rng = np.random.default_rng(26)
        values = {"normal": rng.normal(size=n), "ties": np.round(rng.normal(size=n), 2),
                  "equal": np.where(rng.random(n) < 0.5, -0.25, 0.25)}[kind]
        tv = tv_of(values)
        assert (self._trimmed_or_error(trim, tv, density)
                == self._trimmed_or_error(reference_trim, tv, density))


class TestNonFinite:
    """Non-finite deltas have no magnitude rank: TIES rejects them, TV passes them on."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def bad(self, request):
        return tv_of([0.5, request.param, -1.0, 2.0, 0.25])

    @pytest.mark.parametrize("density", [0.2, 1.0])
    def test_ties_rejects(self, bad, density):
        good = tv_of([1.0, 1.0, 1.0, 1.0, 1.0])
        base = Checkpoint.from_arrays({"w": np.zeros(5)})
        with pytest.raises(MergeError, match="non-finite"):
            trim(bad, density)
        with pytest.raises(MergeError, match="non-finite"):
            ties_merge(base, [(good, 1.0), (bad, 1.0)], density, 1.0)
        with pytest.raises(MergeError, match="non-finite"):
            interference_stats([good, bad], density)

    @pytest.mark.parametrize("density", ["0.2", "1.0"])
    def test_cli_merge_ties_exits_1(self, bad, density, tmp_path, capsys):
        save_archive(Checkpoint.from_arrays({"w": np.zeros(5)}, "F32"), tmp_path / "base.st")
        save_archive(bad.to_checkpoint(), tmp_path / "tv.st")
        code = main(["merge", "ties", "--base", str(tmp_path / "base.st"),
                     "--vector", str(tmp_path / "tv.st"), "--weight", "1.0",
                     "--density", density, "--out", str(tmp_path / "out.st")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "non-finite" in err
        assert not (tmp_path / "out.st").exists()

    def test_the_first_non_finite_tensor_in_vector_order_is_named(self, tmp_path, capsys,
                                                                   monkeypatch):
        """Vector 0 is non-finite in 'b' and vector 1 in 'a'. Each vector is
        checked whole, in order, before any tensor is trimmed or made."""
        base = Checkpoint.from_arrays({"a": np.zeros(3), "b": np.zeros(3)}, "F32")
        tvs = [TaskVector.from_arrays({"a": [1.0, 2.0, 3.0], "b": [1.0, np.inf, 3.0]}),
               TaskVector.from_arrays({"a": [np.nan, 2.0, 3.0], "b": [1.0, 2.0, 3.0]})]
        message = "tensor 'b': non-finite delta cannot be trimmed"
        trimmed = []
        for module in (ties_mod, reports_mod):
            monkeypatch.setattr(module, "trim", lambda *args, **kwargs: trimmed.append(args))
        with pytest.raises(MergeError, match=f"^{message}$"):
            ties_merge(base, [(tv, 1.0) for tv in tvs], 0.5, 1.0)
        with pytest.raises(MergeError, match=f"^{message}$"):
            interference_stats(tvs, 0.5)
        assert trimmed == []
        save_archive(base, tmp_path / "base.st")
        argv = ["merge", "ties", "--base", str(tmp_path / "base.st"), "--out",
                str(tmp_path / "out.st")]
        for k, tv in enumerate(tvs):
            save_archive(tv.to_checkpoint(), tmp_path / f"tv{k}.st")
            argv += ["--vector", str(tmp_path / f"tv{k}.st"), "--weight", "1.0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base.st", "tv0.st", "tv1.st"]

    @pytest.mark.parametrize("case", ["vector_order", "base_inf", "f64_overflow", "bf16", "mixed"])
    def test_fine_tuned_sources_raise_before_any_tensor_is_made(self, case, tmp_path, capsys,
                                                                monkeypatch):
        """Deltas extracted from fine-tuned checkpoints, unmade until merged,
        are checked as made ones are: ties_merge, interference_stats and a
        TIES `run` raise the text the materialized deltas raise, naming the
        first non-finite delta in vector order, before any tensor is
        trimmed or written. BF16 sides and an F64 source over an F32 base
        are checked on their stored arrays, an F64 pair on its difference."""
        ft_dtype, base_dtype = {"f64_overflow": ("F64", "F64"), "bf16": ("BF16", "BF16"),
                                "mixed": ("F64", "F32")}.get(case, ("F32", "F32"))
        base = {"a": [0.0, 1.0, 2.0], "b": [0.0, -1.0, 2.0]}
        fts = [{"a": [1.0, 2.0, 3.0], "b": [1.0, np.nan, 3.0]},  # vector 0 fails at 'b'
               {"a": [np.inf, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}]  # vector 1 at 'a'
        name = "b"
        if case == "base_inf":
            base["a"][2] = np.inf
            fts[0]["b"][1] = fts[1]["a"][0] = 0.5
            name = "a"
        elif case == "f64_overflow":  # finite, but 1.7e308 - -1.7e308 is inf
            base["b"][1], fts[0]["b"][1], fts[1]["a"][0] = -1.7e308, 1.7e308, 0.5
        save_archive(Checkpoint.from_arrays(base, base_dtype), tmp_path / "base.st")
        for k, arrays in enumerate(fts):
            save_archive(Checkpoint.from_arrays(arrays, ft_dtype), tmp_path / f"ft{k}.st")
        base_ckpt = read_archive(tmp_path / "base.st")
        paths = [tmp_path / f"ft{k}.st" for k in range(2)]
        tvs = [load_task_vector(p, base_ckpt) for p in paths]
        assert all(isinstance(d, LazyDelta) for tv in tvs for d in tv.deltas.values())
        message = f"tensor {name!r}: non-finite delta cannot be trimmed"
        made = [extract_task_vector(base_ckpt, read_archive(p)) for p in paths]
        with pytest.raises(MergeError, match=f"^{message}$"):
            interference_stats(made, 0.5)  # the whole deltas raise the same text

        trimmed = []
        for module in (ties_mod, reports_mod):
            monkeypatch.setattr(module, "trim", lambda *args, **kwargs: trimmed.append(args))
        with pytest.raises(MergeError, match=f"^{message}$"):
            ties_merge(base_ckpt, [(tv, 1.0) for tv in tvs], 0.5, 1.0)
        with pytest.raises(MergeError, match=f"^{message}$"):
            interference_stats(tvs, 0.5)
        assert trimmed == []

        (tmp_path / "recipe.json").write_text(json.dumps({
            "base": str(tmp_path / "base.st"), "method": "ties", "density": 0.5,
            "vectors": [{"source": str(p), "weight": 1.0} for p in paths],
            "output": str(tmp_path / "out.st")}))
        assert main(["run", "--recipe", str(tmp_path / "recipe.json")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "base.st", "ft0.st", "ft1.st", "recipe.json"]

    def test_tv_merge_passes_through(self, bad):
        base = Checkpoint.from_arrays({"w": np.ones(5)})
        out = tv_merge(base, [(bad, 1.0)]).materialize()
        np.testing.assert_array_equal(out.values("w"), 1.0 + bad.deltas["w"])


class TestElectSigns:
    def test_weighted_sum_signs(self):
        signs = elect_signs([tv_of([1.0, -2.0, 0.0, 0.0]),
                             tv_of([2.0, 1.0, 0.0, 0.0])], [1.0, 1.0])
        np.testing.assert_array_equal(signs["w"], [1, -1, 0, 0])

    def test_single_vector(self):
        signs = elect_signs([tv_of([3.0, -0.5, 0.0])], [2.0])
        np.testing.assert_array_equal(signs["w"], [1, -1, 0])

    def test_exact_cancellation(self):
        signs = elect_signs([tv_of([1.0]), tv_of([-1.0])], [1.0, 1.0])
        np.testing.assert_array_equal(signs["w"], [0])

    def test_missing_names_contribute_zero(self):
        a = TaskVector.from_arrays({"w": [1.0], "v": [-2.0]})
        b = TaskVector.from_arrays({"w": [-3.0]})
        signs = elect_signs([a, b], [1.0, 1.0])
        np.testing.assert_array_equal(signs["w"], [-1])
        np.testing.assert_array_equal(signs["v"], [-1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, weights, want", [
        ([[np.nan]], [1.0], [0]),
        ([[1e308], [-1e308]], [10.0, 10.0], [0]),  # inf - inf
        ([[1e308, 1.0], [1e308, -20.0]], [10.0, 1.0], [1, -1]),  # inf + 1e308
    ], ids=["nan-delta", "overflow-to-nan", "overflow-to-inf"])
    def test_nan_total_elects_zero_without_a_warning(self, values, weights, want):
        signs = elect_signs([tv_of(v) for v in values], weights)
        assert signs["w"].dtype == np.int8
        np.testing.assert_array_equal(signs["w"], want)


class TestDisjointMerge:
    def test_hand_case(self):
        vs = [tv_of([1.0, -2.0, 0.0, 0.0]), tv_of([2.0, 1.0, 0.0, 0.0])]
        signs = elect_signs(vs, [1.0, 1.0])
        out = disjoint_merge(vs, [1.0, 1.0], signs)
        np.testing.assert_array_equal(out.deltas["w"], [1.5, -2.0, 0.0, 0.0])

    def test_singleton_mean(self):
        v = trim(tv_of([0.4, -2.0, 0.1]), 0.5)
        out = disjoint_merge([v], [1.0], elect_signs([v], [1.0]))
        np.testing.assert_array_equal(out.deltas["w"], v.deltas["w"])

    def test_all_zero(self):
        v = tv_of([0.0, 0.0])
        out = disjoint_merge([v, v], [1.0, 1.0], elect_signs([v, v], [1.0, 1.0]))
        assert not out.deltas["w"].any()

    def test_signs_of_another_shape_raise(self):
        v = tv_of([1.0, -2.0, 3.0])
        with pytest.raises(MergeError, match=r"tensor 'w': signs of shape \(1,\) for shape \(3,\)"):
            disjoint_merge([v], [1.0], {"w": np.ones(1, np.int8)})

    def test_missing_signs_raise(self):
        v = TaskVector.from_arrays({"w": [1.0], "v": [2.0]})
        with pytest.raises(MergeError, match="tensor 'v': no elected signs"):
            disjoint_merge([v], [1.0], {"w": np.ones(1, np.int8)})

    def test_sign_consistency(self):
        rng = np.random.default_rng(2)
        vs = [tv_of(rng.normal(size=40)) for _ in range(3)]
        weights = [1.0, 2.0, 0.5]
        signs = elect_signs(vs, weights)
        merged = disjoint_merge(vs, weights, signs)
        nz = merged.deltas["w"] != 0
        np.testing.assert_array_equal(
            np.sign(merged.deltas["w"])[nz], signs["w"][nz])

    def test_out_may_be_the_buffer_of_the_first_trimmed_vector(self):
        """ties_merge writes the disjoint mean over the first vector's trimmed
        entries: each chunk of every vector is read before that chunk of the
        mean is written, so the bytes are a fresh output's."""
        rng = np.random.default_rng(26)
        shapes = {"a": (3 * ties_mod._CHUNK + 7,), "b": (5, 3)}
        tvs = [TaskVector.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()})
               for _ in range(3)]
        buffer = np.empty(sum(math.prod(s) for s in shapes.values()))
        trimmed = [trim(tvs[0], 0.3, out=buffer)] + [trim(tv, 0.3) for tv in tvs[1:]]
        weights = [1.0, 0.5, 2.0]
        signs = elect_signs(trimmed, weights)
        want = {n: d.tobytes() for n, d in disjoint_merge(trimmed, weights, signs).deltas.items()}
        got = disjoint_merge(trimmed, weights, signs, out=buffer).deltas
        assert {n: d.tobytes() for n, d in got.items()} == want
        assert all(np.shares_memory(d, buffer) for d in got.values())
        with pytest.raises(ValueError, match=f"{buffer.size} or more entries"):
            disjoint_merge(trimmed, weights, signs, out=buffer[1:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_elect_and_disjoint_reject_bad_weights(bad):
    vs = [tv_of([1.0, -2.0, 0.5]), tv_of([2.0, 1.0, -0.5])]
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        elect_signs(vs, [1.0, bad])
    signs = elect_signs(vs, [1.0, 1.0])
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        disjoint_merge(vs, [1.0, bad], signs)


@pytest.mark.filterwarnings("error")
def test_full_cancellation_warns_nothing():
    # every position cancels, so every den is 0
    a, b = tv_of([1.0, -2.0, 0.5, 0.0]), tv_of([-1.0, 2.0, -0.5, 0.0])
    signs = elect_signs([a, b], [1.0, 1.0])
    assert not signs["w"].any()
    merged = disjoint_merge([a, b], [1.0, 1.0], signs)
    assert not merged.deltas["w"].view(np.uint64).any()  # +0.0 everywhere
    base = Checkpoint.from_arrays({"w": [1.0, 2.0, 3.0, 4.0]})
    out = ties_merge(base, [(a, 1.0), (b, 1.0)], 1.0, 1.0)
    assert write_archive(out) == write_archive(base)
    assert interference_stats([a, b], 1.0)["global"]["zero_sign_count"] == 4


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0, 2.5,
            1e308, -1e308]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == np.ascontiguousarray(want).tobytes())


class TestKernelsMatchReferences:
    """trim, elect_signs, disjoint_merge and interference_stats equal the
    whole-tensor references in tests/helpers.py bit for bit, at any chunk
    length."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bits(self, data):
        shapes = data.draw(st.lists(st.sampled_from([(), (0,), (3, 0), (1,), (2,), (7,), (13,),
                                                     (4, 5), (41,)]), min_size=1, max_size=3))
        elements = st.one_of(st.sampled_from(_SPECIAL),  # ±0.0, subnormals, overflow with w
                             st.integers(-3, 3).map(float),  # ties at the threshold
                             st.floats(allow_nan=False, allow_infinity=False))
        tvs = []
        for _ in range(data.draw(st.integers(1, 4), label="vectors")):
            present = [i for i in range(len(shapes)) if i == 0 or data.draw(st.booleans())]
            tvs.append(TaskVector.from_arrays(
                {f"t{i}": data.draw(arrays(np.float64, shapes[i], elements=elements))
                 for i in present}))
        if data.draw(st.booleans(), label="through archives"):  # misaligned F64 views
            tvs = [TaskVector.from_checkpoint(read_archive(write_archive(tv.to_checkpoint())))
                   for tv in tvs]
        weights = [data.draw(st.one_of(st.sampled_from([1.0, 0.5, 10.0, 1e-300, 3e300]),
                                       st.floats(0.01, 100.0))) for _ in tvs]
        density = data.draw(st.one_of(st.sampled_from([0.2, 1.0]),
                                      st.floats(0.0, 1.0, exclude_min=True)))
        chunk = data.draw(st.sampled_from([1, 2, 3, 8, 64]), label="_CHUNK")

        with mock.patch.object(ties_mod, "_CHUNK", chunk):
            trimmed = [trim(tv, density) for tv in tvs]
            signs = elect_signs(trimmed, weights)
            merged = disjoint_merge(trimmed, weights, signs)
            report = interference_stats(tvs, density)
        for got, want in zip(trimmed, [reference_trim(tv, density) for tv in tvs]):
            assert got.deltas.keys() == want.deltas.keys()
            assert all(_same_bits(got.deltas[n], want.deltas[n]) for n in got.deltas)
        want_signs = reference_elect_signs(trimmed, weights)
        assert signs.keys() == want_signs.keys()
        assert all(_same_bits(signs[n], want_signs[n]) for n in signs)
        want_merged = reference_disjoint_merge(trimmed, weights, signs)
        assert merged.deltas.keys() == want_merged.deltas.keys()
        assert all(_same_bits(merged.deltas[n], want_merged.deltas[n]) for n in merged.deltas)
        assert (json.dumps(report, sort_keys=True)
                == json.dumps(reference_interference_stats(tvs, density), sort_keys=True))


class TestAllocationCeiling:
    """Peak traced allocation of each kernel on 3 vectors of one
    2**20-element tensor, in units of that tensor as float64, output
    included. The whole-tensor kernels peaked at 2.125 (trim), 2.125
    (elect), 4.125 (disjoint) and 5.125 (interference). Each ceiling is at
    most that, and half a tensor above the chunked kernel's own peak, so
    one more full-size temporary breaks it: trim reads into its output and
    ranks keys in a buffer of k + max(k, chunk) 4-byte entries (1.29), and
    interference holds one buffer per vector and their signs (3.75)."""

    N = 1 << 20

    @pytest.fixture(scope="class")
    def vectors(self):
        rng = np.random.default_rng(9)
        tvs = [tv_of(rng.normal(size=self.N)) for _ in range(3)]
        trimmed = [trim(tv, 0.2) for tv in tvs]
        return tvs, trimmed, elect_signs(trimmed, [1.0, 0.5, 2.0])

    @pytest.mark.parametrize("kernel, ceiling", [
        ("trim", 1.5), ("elect", 0.75), ("disjoint", 1.75), ("interference", 4.25)])
    def test_peak(self, vectors, kernel, ceiling):
        tvs, trimmed, signs = vectors
        weights = [1.0, 0.5, 2.0]
        run = {"trim": lambda: trim(tvs[0], 0.2),
               "elect": lambda: elect_signs(trimmed, weights),
               "disjoint": lambda: disjoint_merge(trimmed, weights, signs),
               "interference": lambda: interference_stats(tvs, 0.2)}[kernel]
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result
        assert peak / (8 * self.N) <= ceiling


class TestTiesMerge:
    def test_full_pipeline_hand_case(self):
        base = Checkpoint.from_arrays({"w": [0.0, 0.0, 0.0, 0.0]})
        t1 = tv_of([1.0, -2.0, 0.5, 0.0])
        t2 = tv_of([2.0, 1.0, -0.4, 0.3])
        out = ties_merge(base, [(t1, 1.0), (t2, 1.0)], density=0.5, lam=1.0).materialize()
        np.testing.assert_array_equal(out.values("w"), [1.5, -2.0, 0.0, 0.0])

    def test_reduction_to_tv(self):
        rng = np.random.default_rng(3)
        base = Checkpoint.from_arrays({"w": rng.normal(size=16)}, "F32")
        tv = tv_of(rng.normal(size=16))
        for lam in (0.25, 1.0, 2.0):
            got = ties_merge(base, [(tv, 1.0)], 1.0, lam).materialize()
            want = tv_merge(base, [(tv, lam)]).materialize()
            g = got.values("w")
            w = want.values("w")
            assert np.all(np.abs(g.astype(np.float64) - w.astype(np.float64))
                          <= 2 * np.spacing(np.abs(w)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lambda_fold_matches_scale_then_apply(self, dtype):
        rng = np.random.default_rng(12)
        base = Checkpoint.from_arrays({"a": rng.normal(size=(6, 5)), "b": rng.normal(size=9)},
                                      dtype)
        tvs = [TaskVector.from_arrays({"a": rng.normal(size=(6, 5)), "b": rng.normal(size=9)})
               for _ in range(3)]
        weights, density = [1.0, 0.5, 2.0], 0.4
        trimmed = [trim(tv, density) for tv in tvs]
        merged = disjoint_merge(trimmed, weights, elect_signs(trimmed, weights))
        for lam in DEFAULT_GRID + [-0.7]:
            got = ties_merge(base, list(zip(tvs, weights)), density, lam)
            assert write_archive(got) == write_archive(apply(base, scale(merged, lam)))

    def test_threads_give_the_same_bytes_over_tensors_of_many_sizes(self):
        """Each pool thread trims into its own buffers, one per vector as long
        as the largest tensor, whichever tensors the vectors hold."""
        rng = np.random.default_rng(22)
        shapes = {"a": (300,), "b": (17, 40), "c": (5000,), "d": (0,), "e": (64, 64), "f": (1,)}
        held = [set(shapes), set(shapes) - {"c"}, set(shapes) - {"a", "e"}]
        base = Checkpoint.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()}, "F32")
        tvs = [TaskVector.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()
                                       if n in names}) for names in held]
        weights, density, lam = [1.0, 0.5, 2.0], 0.3, 0.7
        trimmed = [reference_trim(tv, density) for tv in tvs]
        merged = reference_disjoint_merge(trimmed, weights,
                                          reference_elect_signs(trimmed, weights))
        want = write_archive(tv_merge(base, [(merged, lam)]))
        for threads in (1, 2, 4):
            got = ties_merge(base, list(zip(tvs, weights)), density, lam, threads=threads)
            assert write_archive(got) == want

    def test_lambda_zero_identity(self):
        base = Checkpoint.from_arrays({"w": [1.0, -2.0]}, "F16")
        out = ties_merge(base, [(tv_of([5.0, 5.0]), 1.0)], 0.5, 0.0)
        assert write_archive(out) == write_archive(base)

    def test_permutation_equivariance(self):
        # dyadic values make every sum exact, so permutations match bit-for-bit
        rng = np.random.default_rng(4)
        base = Checkpoint.from_arrays({"w": np.zeros(24)})
        vs = [tv_of(rng.integers(-2 ** 16, 2 ** 16, size=24) / 1024.0) for _ in range(4)]
        weights = [1.0, 2.0, 0.5, 4.0]
        ref = ties_merge(base, list(zip(vs, weights)), 0.5, 1.0).materialize()
        for perm in itertools.permutations(range(4)):
            out = ties_merge(base, [(vs[i], weights[i]) for i in perm], 0.5, 1.0).materialize()
            np.testing.assert_array_equal(out.values("w"), ref.values("w"))

    def test_config_validation(self):
        base = Checkpoint.from_arrays({"w": [0.0]})
        with pytest.raises(ValueError, match="density"):
            ties_merge(base, [(tv_of([1.0]), 1.0)], 0.0, 1.0)
        with pytest.raises(ValueError, match="weights"):
            ties_merge(base, [(tv_of([1.0]), -1.0)], 0.5, 1.0)
        with pytest.raises(ValueError, match="non-finite lambda"):
            ties_merge(base, [(tv_of([1.0]), 1.0)], 0.5, float("nan"))
        with pytest.raises(ValueError, match="1 weights for 2"):
            elect_signs([tv_of([1.0]), tv_of([2.0])], [1.0])
        with pytest.raises(MergeError, match="^ties_merge requires at least one task vector$"):
            ties_merge(base, [], 0.5, 1.0)

    def test_vectors_that_disagree_on_a_shape(self):
        with pytest.raises(MergeError, match=r"^tensor 'w': shape conflict \(1,\) vs \(2,\)$"):
            elect_signs([tv_of([1.0]), tv_of([1.0, 2.0])], [1.0, 1.0])


class TestOracleEquivalence:
    def test_random_instances_match_naive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            numel = int(rng.integers(1, 65))
            n_vec = int(rng.integers(1, 5))
            density = float(rng.choice([0.25, 0.5, 1.0]))
            vectors = [rng.normal(size=numel) for _ in range(n_vec)]
            weights = [float(rng.uniform(0.1, 3.0)) for _ in range(n_vec)]
            lam = float(rng.uniform(0.0, 2.0))
            base_vals = rng.normal(size=numel)

            base = Checkpoint.from_arrays({"w": base_vals})
            tvs = [tv_of(v) for v in vectors]
            out = ties_merge(base, list(zip(tvs, weights)), density, lam).materialize()
            signs = elect_signs([trim(t, density) for t in tvs], weights)

            merged_ref, gamma_ref = naive_ties_vector(vectors, weights, density)
            expected = base_vals + lam * np.array(merged_ref)
            np.testing.assert_allclose(out.values("w"), expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(signs["w"], gamma_ref)
