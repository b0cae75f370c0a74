import json
import math

import numpy as np
import pytest

from vecmerge import (Checkpoint, MergeError, TaskVector, cosine, diff_stats,
                      interference_stats)

from helpers import random_checkpoint


def tv_of(values):
    return TaskVector.from_arrays({"w": values})


class TestDiffStats:
    def test_identical_checkpoints(self):
        ckpt = random_checkpoint(np.random.default_rng(0), n_tensors=3)
        report = diff_stats(ckpt, ckpt)
        assert report["global"]["l2_norm"] == 0.0
        assert report["global"]["max_abs"] == 0.0
        assert report["global"]["equal_fraction"] == 1.0

    def test_three_four_five(self):
        a = Checkpoint.from_arrays({"w": [0.0, 0.0]})
        b = Checkpoint.from_arrays({"w": [3.0, 4.0]})
        report = diff_stats(a, b)
        assert report["global"]["l2_norm"] == 5.0
        assert report["global"]["max_abs"] == 4.0
        assert report["global"]["equal_fraction"] == 0.0

    def test_disjoint_is_error(self):
        with pytest.raises(MergeError, match="no shared tensors"):
            diff_stats(Checkpoint.from_arrays({"a": [1.0]}),
                       Checkpoint.from_arrays({"b": [1.0]}))

    def test_non_shared_listed(self):
        a = Checkpoint.from_arrays({"w": [1.0], "only_a": [2.0]})
        b = Checkpoint.from_arrays({"w": [1.0], "only_b": [3.0]})
        report = diff_stats(a, b)
        assert report["only_in_a"] == ["only_a"]
        assert report["only_in_b"] == ["only_b"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norms_whose_sums_of_squares_overflow_are_rescaled(self):
        a = Checkpoint.from_arrays({"w": [1e200, 3.0]})
        b = Checkpoint.from_arrays({"w": [0.0, 3.0]})
        report = diff_stats(a, b)
        assert report["global"]["l2_norm"] == 1e200
        assert report["per_tensor"]["w"]["l2_norm"] == 1e200
        # no tensor's sum overflows, but their total does
        a = Checkpoint.from_arrays({"u": [1e154, 1e154], "v": [-1e154]})
        b = Checkpoint.from_arrays({"u": [0.0, 0.0], "v": [0.0]})
        report = diff_stats(a, b)
        assert report["per_tensor"]["v"]["l2_norm"] == 1e154
        assert report["global"]["l2_norm"] == pytest.approx(math.sqrt(3) * 1e154, rel=1e-15)
        # a difference beyond the float64 range itself still reads inf
        a = Checkpoint.from_arrays({"w": [1e308, -1e308]})
        b = Checkpoint.from_arrays({"w": [-1e308, 1e308]})
        assert diff_stats(a, b)["global"]["l2_norm"] == math.inf

    def test_json_stable(self):
        ckpt = random_checkpoint(np.random.default_rng(1))
        blob = json.dumps(diff_stats(ckpt, ckpt), indent=2, sort_keys=True)
        assert json.loads(blob) == json.loads(blob)
        assert blob == json.dumps(diff_stats(ckpt, ckpt), indent=2, sort_keys=True)


class TestInterference:
    def test_hand_agreement_count(self):
        report = interference_stats(
            [tv_of([1.0, -2.0, 0.0, 0.0]), tv_of([2.0, 1.0, 0.0, 0.0])], 0.5)
        assert report["global"]["sign_agreement"]["0-1"] == 0.5

    def test_identical_vectors_agree(self):
        v = tv_of([1.0, -2.0, 3.0, -4.0])
        report = interference_stats([v, v], 0.5)
        assert report["global"]["sign_agreement"]["0-1"] == 1.0

    def test_negated_vectors_disagree(self):
        v = tv_of([1.0, -2.0, 3.0, -4.0])
        report = interference_stats([v, tv_of(-v.deltas["w"])], 0.5)
        assert report["global"]["sign_agreement"]["0-1"] == 0.0

    def test_trim_mass_fraction(self):
        report = interference_stats([tv_of([3.0, 1.0])], 0.5)
        assert report["global"]["trimmed_mass"] == [0.75]

    def test_single_vector_no_pairs(self):
        report = interference_stats([tv_of([1.0, 2.0])], 1.0)
        assert report["global"]["sign_agreement"] == {}
        assert len(report["global"]["trimmed_mass"]) == 1

    def test_fractions_in_unit_interval(self):
        rng = np.random.default_rng(2)
        tvs = [tv_of(rng.normal(size=30)) for _ in range(4)]
        report = interference_stats(tvs, 0.25)["global"]
        for frac in report["trimmed_mass"] + list(report["sign_agreement"].values()):
            assert 0.0 <= frac <= 1.0

    def test_adjacent_pairs_only_when_many(self):
        rng = np.random.default_rng(3)
        tvs = [tv_of(rng.normal(size=8)) for _ in range(9)]
        report = interference_stats(tvs, 1.0)
        assert sorted(report["global"]["sign_agreement"]) == [f"{i}-{i+1}" for i in range(8)]

    def test_invalid_density(self):
        with pytest.raises(ValueError, match="density"):
            interference_stats([tv_of([1.0])], 0.0)

    def test_no_vectors(self):
        with pytest.raises(MergeError) as err:
            interference_stats([], 0.5)
        assert str(err.value) == "interference_stats requires at least one task vector"


class TestCosine:
    def test_self_similarity(self):
        v = tv_of([1.0, 2.0, -3.0])
        assert cosine(v, v) == 1.0

    def test_negation(self):
        v = tv_of([1.0, 2.0, -3.0])
        assert cosine(v, tv_of(-v.deltas["w"])) == -1.0

    def test_orthogonal(self):
        assert cosine(tv_of([1.0, 0.0]), tv_of([0.0, 1.0])) == 0.0

    @pytest.mark.parametrize("b, message", [
        ({"v": [1.0]}, "no shared tensors between task vectors"),
        ({"w": [1.0, 2.0]}, "tensor 'w': shape conflict"),
    ], ids=["no-shared-name", "shape-conflict"])
    def test_incomparable_vectors(self, b, message):
        with pytest.raises(MergeError) as err:
            cosine(tv_of([1.0]), TaskVector.from_arrays(b))
        assert str(err.value) == message

    def test_zero_vector_error(self):
        with pytest.raises(MergeError, match="undefined cosine"):
            cosine(tv_of([0.0]), tv_of([1.0]))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = TaskVector.from_arrays({"w": rng.normal(size=20), "v": rng.normal(size=5)})
        b = TaskVector.from_arrays({"w": rng.normal(size=20), "v": rng.normal(size=5)})
        assert abs(cosine(a, b) - cosine(b, a)) <= 1e-12
        from vecmerge import scale
        assert abs(cosine(scale(a, 7.5), b) - cosine(a, b)) <= 1e-12

    def test_concatenation_over_shared_names(self):
        a = TaskVector.from_arrays({"w": [1.0], "v": [0.0], "a_only": [9.0]})
        b = TaskVector.from_arrays({"w": [1.0], "v": [0.0], "b_only": [9.0]})
        assert cosine(a, b) == 1.0
