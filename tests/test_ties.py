import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vecmerge import (Checkpoint, MergeError, TaskVector, TiesConfig, apply,
                      disjoint_merge, elect_signs, interference_stats, save_archive,
                      scale, tv_merge, ties_merge, trim, write_archive)
from vecmerge.cli import main
from vecmerge.recipes import DEFAULT_GRID

from helpers import DTYPES, naive_ties_vector, naive_trim


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
            ties_merge(base, [good, bad], TiesConfig(density, [1.0, 1.0], 1.0))
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
        out = tv_merge(base, [(bad, 1.0)])
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


class TestTiesMerge:
    def test_full_pipeline_hand_case(self):
        base = Checkpoint.from_arrays({"w": [0.0, 0.0, 0.0, 0.0]})
        t1 = tv_of([1.0, -2.0, 0.5, 0.0])
        t2 = tv_of([2.0, 1.0, -0.4, 0.3])
        out = ties_merge(base, [t1, t2], TiesConfig(density=0.5, weights=[1.0, 1.0], lam=1.0))
        np.testing.assert_array_equal(out.values("w"), [1.5, -2.0, 0.0, 0.0])

    def test_reduction_to_tv(self):
        rng = np.random.default_rng(3)
        base = Checkpoint.from_arrays({"w": rng.normal(size=16)}, "F32")
        tv = tv_of(rng.normal(size=16))
        for lam in (0.25, 1.0, 2.0):
            got = ties_merge(base, [tv], TiesConfig(1.0, [1.0], lam))
            want = tv_merge(base, [(tv, lam)])
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
            got = ties_merge(base, tvs, TiesConfig(density, weights, lam))
            assert write_archive(got) == write_archive(apply(base, scale(merged, lam)))

    def test_lambda_zero_identity(self):
        base = Checkpoint.from_arrays({"w": [1.0, -2.0]}, "F16")
        out = ties_merge(base, [tv_of([5.0, 5.0])], TiesConfig(0.5, [1.0], 0.0))
        assert write_archive(out) == write_archive(base)

    def test_permutation_equivariance(self):
        # dyadic values make every sum exact, so permutations match bit-for-bit
        rng = np.random.default_rng(4)
        base = Checkpoint.from_arrays({"w": np.zeros(24)})
        vs = [tv_of(rng.integers(-2 ** 16, 2 ** 16, size=24) / 1024.0) for _ in range(4)]
        weights = [1.0, 2.0, 0.5, 4.0]
        ref = ties_merge(base, vs, TiesConfig(0.5, weights, 1.0))
        for perm in itertools.permutations(range(4)):
            out = ties_merge(base, [vs[i] for i in perm],
                             TiesConfig(0.5, [weights[i] for i in perm], 1.0))
            np.testing.assert_array_equal(out.values("w"), ref.values("w"))

    def test_config_validation(self):
        base = Checkpoint.from_arrays({"w": [0.0]})
        with pytest.raises(ValueError, match="density"):
            ties_merge(base, [tv_of([1.0])], TiesConfig(0.0, [1.0], 1.0))
        with pytest.raises(ValueError, match="weights"):
            ties_merge(base, [tv_of([1.0])], TiesConfig(0.5, [-1.0], 1.0))
        with pytest.raises(ValueError, match="1 weights for 2"):
            ties_merge(base, [tv_of([1.0]), tv_of([2.0])], TiesConfig(0.5, [1.0], 1.0))


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
            out = ties_merge(base, tvs, TiesConfig(density, weights, lam))
            signs = elect_signs([trim(t, density) for t in tvs], weights)

            merged_ref, gamma_ref = naive_ties_vector(vectors, weights, density)
            expected = base_vals + lam * np.array(merged_ref)
            np.testing.assert_allclose(out.values("w"), expected, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(signs["w"], gamma_ref)
