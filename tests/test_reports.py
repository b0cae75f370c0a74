import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vecmerge
from vecmerge import (Checkpoint, MergeError, TaskVector, cosine, diff_stats,
                      interference_stats, save_archive)
from vecmerge.reports import _pairwise
from vecmerge.tensor_store import _CHUNK
from vecmerge.tv import load_task_vector

from helpers import blas_core_types, random_checkpoint, reference_interference_stats


def tv_of(values):
    return TaskVector.from_arrays({"w": values})


@given(n=st.integers(0, 3 * _CHUNK), seed=st.integers(0, 2**32 - 1))
@example(n=0, seed=0)
@example(n=1, seed=1)
@example(n=8, seed=2)
@example(n=_CHUNK - 1, seed=3)
@example(n=_CHUNK, seed=4)
@example(n=_CHUNK + 1, seed=5)
@example(n=2 * _CHUNK + 7, seed=6)
@example(n=(1 << 22) + 9, seed=7)
@settings(max_examples=25, deadline=None)
def test_the_chunked_sum_is_numpys_pairwise_sum_bit_for_bit(n, seed):
    """The reports' sums split a range as numpy's own pairwise sum does, so
    a numpy that sums another way fails here, not in a report's last bit."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 2.0 ** rng.integers(-40, 40, size=n)
    assert float(_pairwise([x], lambda c: (c,))[0]).hex() == float(np.add.reduce(x)).hex()


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

    def test_infinities_at_one_position_give_a_nan_delta_without_a_warning(self):
        report = diff_stats(Checkpoint.from_arrays({"w": [math.inf, 1.0]}),
                            Checkpoint.from_arrays({"w": [math.inf, 2.0]}))
        assert report["global"]["equal_fraction"] == 0.5
        assert math.isnan(report["global"]["l2_norm"])
        assert math.isnan(report["per_tensor"]["w"]["max_abs"])

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

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_fortran_ordered_deltas_match_the_reference(self, density):
        """At density 1 the kept mass is the delta's own, summed in its memory
        order as np.sum sums it, though trim lays the kept entries out in C
        order; here the two orders round to different last bits."""
        rng = np.random.default_rng(7)
        tvs = [tv_of(np.asfortranarray(rng.normal(size=(300, 700))
                                       * 10.0 ** rng.integers(-6, 6, size=(300, 700))))
               for _ in range(2)]
        assert (json.dumps(interference_stats(tvs, density), sort_keys=True)
                == json.dumps(reference_interference_stats(tvs, density), sort_keys=True))

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


COSINE = """
import sys
from vecmerge import cosine
from vecmerge.tv import load_task_vector
print(float.hex(cosine(load_task_vector(sys.argv[1]), load_task_vector(sys.argv[2]))))
"""


def test_cosine_bits_on_every_blas_core_type(tmp_path):
    """cosine sums its products as np.add.reduce does, in this process and
    in children that force each OpenBLAS kernel family, where a BLAS dot
    product gives another last bit on each."""
    rng = np.random.default_rng(11)
    paths = [tmp_path / f"tv{i}.st" for i in range(2)]
    for path in paths:
        arrays = {"w": rng.normal(size=(1 << 20) + 3), "b": rng.normal(size=(9, 11))}
        save_archive(TaskVector.from_arrays(arrays).to_checkpoint(), path)
    a, b = (load_task_vector(path) for path in paths)
    sums = np.zeros(3)
    for name in ("b", "w"):
        x, y = a.deltas[name].reshape(-1), b.deltas[name].reshape(-1)
        sums += [np.add.reduce(x * y), np.add.reduce(x * x), np.add.reduce(y * y)]
    want = float.hex(float(np.clip(sums[0] / math.sqrt(sums[1] * sums[2]), -1.0, 1.0)))
    assert float.hex(cosine(a, b)) == want
    for core in blas_core_types():
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", COSINE, *map(str, paths)], env=env,
                               capture_output=True, text=True, check=True, timeout=300)
        assert child.stdout.strip() == want, core
