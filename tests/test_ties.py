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

import vecmerge.ties as ties_mod
from vecmerge import (Checkpoint, MergeError, TaskVector, apply,
                      disjoint_merge, elect_signs, interference_stats, read_archive,
                      save_archive, scale, tv_merge, ties_merge, trim, write_archive)
from vecmerge.cli import main
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
    one more full-size temporary breaks it."""

    N = 1 << 20

    @pytest.fixture(scope="class")
    def vectors(self):
        rng = np.random.default_rng(9)
        tvs = [tv_of(rng.normal(size=self.N)) for _ in range(3)]
        trimmed = [trim(tv, 0.2) for tv in tvs]
        return tvs, trimmed, elect_signs(trimmed, [1.0, 0.5, 2.0])

    @pytest.mark.parametrize("kernel, ceiling", [
        ("trim", 1.5), ("elect", 0.75), ("disjoint", 1.75), ("interference", 5.125)])
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
