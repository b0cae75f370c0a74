import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vecmerge
from vecmerge import Checkpoint, Tensor, extract_task_vector, scale, tv_merge, apply
from vecmerge.bench import (BenchSizes, Dataset, DivergenceError, ModelSpec,
                            SplitMix64, TrainConfig, derive_stream, forward,
                            gen_dataset, init_model, loss_and_grads, macro_f1,
                            predict, run_bench, train, train_stack)
from vecmerge.bench import data as bench_data
from vecmerge.bench import scenarios as bench_scenarios
from vecmerge.bench.model import _step, _workspace, softmax
from vecmerge.bench.scenarios import SCENARIOS, _SeedContext
from vecmerge.cli import main

from helpers import (blas_core_types, naive_gaussians, naive_gen_dataset, naive_loss_and_grads,
                     naive_train)


SMALL = BenchSizes(input_dim=6, hidden_dim=8, class_count=3, n_target=30,
                   n_aux=120, n_base=120, n_dev=30, n_test=30)
FAST = TrainConfig(learning_rate=0.05, epochs=15)


def reference_stream(seed, count):
    """Inline reimplementation of the documented PRNG pipeline."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) & mask)
    return out


class TestPrng:
    def test_published_seed0_vector(self):
        # first outputs of splitmix64 with state 0, widely published
        s = SplitMix64(0)
        assert [s.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_matches_inline_reference(self):
        for seed in (1, 42, 2 ** 63, 0xDEADBEEF):
            s = SplitMix64(seed)
            assert [s.next_u64() for _ in range(20)] == reference_stream(seed, 20)

    def test_uniform_formula(self):
        raw = reference_stream(42, 1)[0]
        assert SplitMix64(42).uniform() == (raw >> 11) * 2.0 ** -53

    def test_gaussian_box_muller_oracle(self):
        raw = reference_stream(42, 2)
        u1 = (raw[0] >> 11) * 2.0 ** -53
        u2 = (raw[1] >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        expect = [r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2)]
        assert SplitMix64(42).gaussians(2) == expect
        # pinned first gaussian for seed 42, from the oracle above
        assert SplitMix64(42).gaussians(1)[0] == pytest.approx(
            0.4147197504315306, abs=0.0)

    def test_identical_seeds_identical_streams(self):
        a, b = SplitMix64(987), SplitMix64(987)
        assert a.gaussians(11) == b.gaussians(11)

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError, match="^need m >= 0, got -1$"):
            SplitMix64(0).uniform_block(-1)

    @given(seed=st.integers(0, 2 ** 64 - 1), m=st.integers(0, 300))
    @settings(max_examples=100, deadline=None)
    def test_uniform_block_matches_sequential_draws(self, seed, m):
        block, seq = SplitMix64(seed), SplitMix64(seed)
        got = block.uniform_block(m)
        want = np.array([seq.uniform() for _ in range(m)])
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert block.state == seq.state
        assert block.next_u64() == seq.next_u64()

    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 41))
    @settings(max_examples=100, deadline=None)
    def test_gaussians_match_naive_bits(self, seed, n):
        block, seq = SplitMix64(seed), SplitMix64(seed)
        got, want = block.gaussians(n), naive_gaussians(seq, n)
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        assert block.state == seq.state

    def test_derive_stream_deterministic(self):
        assert derive_stream(5, 2) == derive_stream(5, 2)
        assert derive_stream(5, 2) != derive_stream(5, 3)
        assert derive_stream(5, 2) != derive_stream(6, 2)


class TestGenDataset:
    spec = ModelSpec(6, 8, 3)

    def test_round_robin_labels(self):
        data = gen_dataset("L1", 3, self.spec, seed=0)
        assert list(data.y) == [0, 1, 2]

    def test_determinism(self):
        a = gen_dataset("mixed", 12, self.spec, seed=9)
        b = gen_dataset("mixed", 12, self.spec, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_n_less_than_c_rejected(self):
        with pytest.raises(ValueError, match="n >= class_count"):
            gen_dataset("L1", 2, self.spec, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown dataset kind 'L3'$"):
            gen_dataset("L3", 3, self.spec, seed=0)

    @pytest.mark.parametrize("dims", [(0, 8, 3), (6, 0, 3), (6, 8, 0)])
    def test_zero_dim_rejected(self, dims):
        with pytest.raises(ValueError,
                           match="^input_dim, hidden_dim, class_count must all be >= 1$"):
            ModelSpec(*dims)

    def test_documented_draw_order(self):
        # sample 0, class 0, kind L1: mean +2*e0 plus sigma * first d gaussians
        data = gen_dataset("L1", 3, self.spec, seed=7)
        g = SplitMix64(7).gaussians(6)
        expect = np.array([2.0, 0, 0, 0, 0, 0]) + 0.5 * np.array(g)
        np.testing.assert_array_equal(data.X[0], expect)

    def test_mixed_draw_order(self):
        data = gen_dataset("mixed", 3, self.spec, seed=7)
        rng = SplitMix64(7)
        alpha = 0.3 + 0.4 * rng.uniform()
        x1 = np.array([2.0, 0, 0, 0, 0, 0]) + 0.5 * np.array(rng.gaussians(6))
        x2 = np.array([-2.0, 0, 0, 0, 0, 0]) + 0.5 * np.array(rng.gaussians(6))
        np.testing.assert_array_equal(data.X[0], alpha * x1 + (1 - alpha) * x2)

    @given(d=st.integers(1, 20), c=st.integers(1, 7), extra=st.integers(0, 120),
           kind=st.sampled_from(["L1", "L2", "mixed"]), seed=st.integers(0, 2 ** 64 - 1),
           block=st.integers(1, 400))
    @example(d=17, c=3, extra=100, kind="mixed", seed=0, block=8192)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_bits_whatever_the_block(self, d, c, extra, kind, seed, block):
        n = c + extra
        want_X, want_y = naive_gen_dataset(kind, n, d, c, seed)
        with mock.patch.object(bench_data, "_BLOCK", block):
            data = gen_dataset(kind, n, ModelSpec(d, 4, c), seed)
        assert data.X.view(np.uint64).tolist() == want_X.view(np.uint64).tolist()
        np.testing.assert_array_equal(data.y, want_y)

    def test_population_means_mirror(self):
        big1 = gen_dataset("L1", 900, self.spec, seed=1)
        big2 = gen_dataset("L2", 900, self.spec, seed=1)
        m1 = big1.X[big1.y == 0].mean(axis=0)
        m2 = big2.X[big2.y == 0].mean(axis=0)
        assert m1[0] == pytest.approx(2.0, abs=0.2)
        assert m2[0] == pytest.approx(-2.0, abs=0.2)


class TestInitModel:
    def test_biases_zero(self):
        model = init_model(ModelSpec(4, 5, 3), seed=1)
        assert not model.values("layer0.bias").any()
        assert not model.values("layer1.bias").any()

    def test_bit_identical_across_calls(self):
        a = init_model(ModelSpec(4, 5, 3), seed=1)
        b = init_model(ModelSpec(4, 5, 3), seed=1)
        for name in a.names():
            np.testing.assert_array_equal(a.values(name), b.values(name))

    def test_first_weight_from_prng(self):
        model = init_model(ModelSpec(4, 5, 3), seed=7)
        assert model.values("layer0.weight")[0, 0] == 0.1 * SplitMix64(7).gaussians(1)[0]

    def test_tensor_names_and_shapes(self):
        model = init_model(ModelSpec(4, 5, 3), seed=0)
        assert model.names() == ["layer0.bias", "layer0.weight",
                                 "layer1.bias", "layer1.weight"]
        assert model.values("layer0.weight").shape == (5, 4)
        assert model.values("layer1.weight").shape == (3, 5)


class TestForward:
    def test_zero_model_zero_logits(self):
        model = Checkpoint({
            "layer0.weight": Tensor("F64", np.zeros((5, 4))),
            "layer0.bias": Tensor("F64", np.zeros(5)),
            "layer1.weight": Tensor("F64", np.zeros((3, 5))),
            "layer1.bias": Tensor("F64", np.zeros(3)),
        })
        assert not forward(model, np.ones((7, 4))).any()

    def test_hand_case(self):
        model = Checkpoint({
            "layer0.weight": Tensor("F64", np.array([[1.0]])),
            "layer0.bias": Tensor("F64", np.zeros(1)),
            "layer1.weight": Tensor("F64", np.array([[2.0], [-1.0]])),
            "layer1.bias": Tensor("F64", np.zeros(2)),
        })
        np.testing.assert_array_equal(forward(model, [[3.0]]), [[6.0, -3.0]])

    def test_shape_mismatch(self):
        model = init_model(ModelSpec(4, 5, 3), 0)
        with pytest.raises(ValueError, match="incompatible"):
            forward(model, np.ones((2, 7)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(size=(50, 7)) * 20)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @given(lead=st.sampled_from([(), (4,), (3, 5)]), c=st.integers(1, 9), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_softmax_matches_the_max_form_bits(self, lead, c, data):
        special = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 700.0, -750.0])
        size = math.prod(lead) * c
        values = data.draw(st.lists(st.one_of(special, st.floats(width=64)),
                                    min_size=size, max_size=size))
        logits = np.array(values).reshape(*lead, c)
        with np.errstate(all="ignore"):
            got = softmax(logits)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            want = e / e.sum(axis=-1, keepdims=True)
        # a NaN's sign and payload are whatever numpy's max loops pass on; with
        # only the default quiet NaN in the input, the raw bits agree too
        canonical = [_bits(np.where(np.isnan(a), np.nan, a)) for a in (got, want)]
        assert canonical[0] == canonical[1]
        nans = logits[np.isnan(logits)]
        if _bits(nans) == _bits(np.full(len(nans), np.nan)):
            assert _bits(got) == _bits(want)


class TestTrain:
    spec = ModelSpec(5, 6, 3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"learning_rate": -0.1}, "invalid learning rate -0.1"),
        ({"learning_rate": float("nan")}, "invalid learning rate nan"),
        ({"epochs": -1}, "invalid epoch count -1"),
    ], ids=["lr-negative", "lr-nan", "epochs-negative"])
    def test_bad_config_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            TrainConfig(**kwargs)
        assert str(err.value) == message

    def dataset(self, seed=0, n=30):
        return gen_dataset("L1", n, self.spec, seed)

    def test_zero_epochs_identity(self):
        model = init_model(self.spec, 1)
        out = train(model, self.dataset(), TrainConfig(0.1, 0))
        for name in model.names():
            np.testing.assert_array_equal(out.values(name), model.values(name))

    def test_zero_lr_identity(self):
        model = init_model(self.spec, 1)
        out = train(model, self.dataset(), TrainConfig(0.0, 10))
        for name in model.names():
            np.testing.assert_array_equal(out.values(name), model.values(name))

    def test_input_untouched(self):
        model = init_model(self.spec, 1)
        before = {n: model.values(n).copy() for n in model.names()}
        train(model, self.dataset(), TrainConfig(0.1, 5))
        for name in model.names():
            np.testing.assert_array_equal(model.values(name), before[name])

    def test_one_step_matches_hand_gradient(self):
        model = Checkpoint({
            "layer0.weight": Tensor("F64", np.array([[1.0]])),
            "layer0.bias": Tensor("F64", np.zeros(1)),
            "layer1.weight": Tensor("F64", np.array([[2.0], [-1.0]])),
            "layer1.bias": Tensor("F64", np.zeros(2)),
        })
        x, y = 3.0, 0
        data = Dataset(np.array([[x]]), np.array([y]))
        eta = 0.1
        out = train(model, data, TrainConfig(eta, 1))
        # hand gradient: p = softmax([6, -3]); g = p - onehot(0)
        p = np.exp([6.0, -3.0]) / np.exp([6.0, -3.0]).sum()
        g = p - np.array([1.0, 0.0])
        hidden = max(x * 1.0, 0.0)
        np.testing.assert_allclose(
            out.values("layer1.weight"),
            np.array([[2.0], [-1.0]]) - eta * np.outer(g, [hidden]), atol=1e-15)
        np.testing.assert_allclose(out.values("layer1.bias"), -eta * g, atol=1e-15)
        d_hidden = g @ np.array([[2.0], [-1.0]])
        np.testing.assert_allclose(
            out.values("layer0.weight"), [[1.0 - eta * d_hidden[0] * x]], atol=1e-15)

    def test_divergence_reports_epoch(self):
        model = init_model(self.spec, 1)
        with pytest.raises(DivergenceError):
            train(model, self.dataset(), TrainConfig(1e6, 50))

    @given(d=st.integers(1, 7), h=st.integers(1, 9), c=st.integers(1, 4),
           extra=st.integers(0, 40), kind=st.sampled_from(["L1", "mixed"]),
           seed=st.integers(0, 2 ** 32 - 1), lr=st.sampled_from([0.0, 0.03, 0.5]),
           epochs=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_bits(self, d, h, c, extra, kind, seed, lr, epochs):
        spec = ModelSpec(d, h, c)
        model = init_model(spec, seed)
        data = gen_dataset(kind, c + extra, spec, seed + 1)
        params = {n: model.values(n) for n in model.names()}
        loss, grads = loss_and_grads(model, data.X, data.y)
        want_loss, want_grads = naive_loss_and_grads(params, data.X, data.y)
        assert np.float64(loss).view(np.uint64) == np.float64(want_loss).view(np.uint64)
        for name, g in grads.items():
            assert g.view(np.uint64).tolist() == want_grads[name].view(np.uint64).tolist()
        want, diverged = naive_train(params, data.X, data.y, lr, epochs)
        assert diverged is None
        out = train(model, data, TrainConfig(lr, epochs))
        for name in out.names():
            assert out.values(name).view(np.uint64).tolist() == want[name].view(np.uint64).tolist()

    def test_nan_pre_activations_match_naive_bits(self):
        model = init_model(self.spec, 1)
        w0 = model.values("layer0.weight").copy()
        w0[2, 0] = np.nan
        w0[4] = np.inf
        model = Checkpoint({**model.tensors, "layer0.weight": Tensor("F64", w0)})
        data = self.dataset()
        params = {n: model.values(n) for n in model.names()}
        with np.errstate(invalid="ignore"):
            loss, grads = loss_and_grads(model, data.X, data.y)
            want_loss, want_grads = naive_loss_and_grads(params, data.X, data.y)
        assert np.isnan(loss) and np.isnan(want_loss)
        for name, g in grads.items():
            assert g.view(np.uint64).tolist() == want_grads[name].view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_divergence_epoch_matches_naive(self, seed):
        model = init_model(self.spec, seed)
        data = self.dataset(seed=seed)
        params = {n: model.values(n) for n in model.names()}
        _, epoch = naive_train(params, data.X, data.y, 1e6, 50)
        assert epoch is not None
        with pytest.raises(DivergenceError) as info:
            train(model, data, TrainConfig(1e6, 50))
        assert info.value.epoch == epoch

    def test_concurrent_calls_share_no_buffers(self):
        # more threads than cores and a short switch interval, so calls
        # with equal and with different n interleave inside their epochs;
        # four of six share n, so two of them start back to back
        jobs = [(init_model(self.spec, i), self.dataset(seed=i, n=n))
                for i, n in enumerate([20, 37, 37, 37, 37, 54])]
        cfg = TrainConfig(0.1, 200)
        alone = [train(model, data, cfg) for model, data in jobs]
        results = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def work(i):
            start.wait(timeout=60)
            results[i] = train(*jobs[i], cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, alone):
            for name in want.names():
                assert got.values(name).tobytes() == want.values(name).tobytes()

    def test_requires_train_split(self):
        model = init_model(self.spec, 1)
        data = gen_dataset("L1", 10, self.spec, 0, split="dev")
        with pytest.raises(ValueError, match="train split"):
            train(model, data, TrainConfig(0.1, 1))

    def test_loss_monotone_first_epochs(self):
        for seed in (0, 1, 2):
            model = init_model(self.spec, seed)
            data = self.dataset(seed=seed, n=60)
            losses = []
            current = model
            for _ in range(6):
                loss, _ = loss_and_grads(current, data.X, data.y)
                losses.append(loss)
                current = train(current, data, TrainConfig(0.05, 1))
            assert all(b < a for a, b in zip(losses, losses[1:]))


def _scaled(model, factor):
    return Checkpoint({n: Tensor("F64", model.values(n) * factor) for n in model.names()})


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


class TestTrainStack:
    spec = ModelSpec(5, 6, 3)

    @given(d=st.integers(1, 7), h=st.integers(1, 9), c=st.integers(1, 4),
           extra=st.integers(0, 40), k=st.integers(1, 12),
           kind=st.sampled_from(["L1", "mixed"]), seed=st.integers(0, 2 ** 32 - 1),
           lr=st.sampled_from([0.0, 0.03, 0.5]), epochs=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_each_slice_matches_naive_bits(self, d, h, c, extra, k, kind, seed, lr, epochs):
        # pins what per-slice bit-equality rests on: a stacked matmul runs
        # one gemm per slice, and sums along axis 1 keep the 2-D order
        spec = ModelSpec(d, h, c)
        models = [init_model(spec, seed + i) for i in range(k)]
        data = gen_dataset(kind, c + extra, spec, seed + 1)
        params = [{n: m.values(n) for n in m.names()} for m in models]
        stacked = {n: np.stack([p[n] for p in params]) for n in params[0]}
        losses, grads = _step(stacked, data.X, data.y, _workspace(k, len(data.y), h))
        for i, p in enumerate(params):
            want_loss, want_grads = naive_loss_and_grads(p, data.X, data.y)
            assert _bits(losses[i]) == _bits(want_loss)
            for name, g in grads.items():
                assert _bits(g[i]) == _bits(want_grads[name])
        out = train_stack(models, data, TrainConfig(lr, epochs))
        assert len(out) == k
        for got, p in zip(out, params):
            want, diverged = naive_train(p, data.X, data.y, lr, epochs)
            assert diverged is None
            for name in got.names():
                assert _bits(got.values(name)) == _bits(want[name])

    def test_nan_slice_leaves_the_others_bit_equal(self):
        data = gen_dataset("L1", 30, self.spec, 0)
        models = [init_model(self.spec, i) for i in range(5)]
        w0 = models[2].values("layer0.weight").copy()
        w0[2, 0] = np.nan
        w0[4] = np.inf
        models[2] = Checkpoint({**models[2].tensors, "layer0.weight": Tensor("F64", w0)})
        stacked = {n: np.stack([m.values(n) for m in models]) for n in models[0].names()}
        with np.errstate(invalid="ignore"):
            losses, grads = _step(stacked, data.X, data.y, _workspace(5, 30, 6))
            for i, model in enumerate(models):
                solo_loss, solo_grads = loss_and_grads(model, data.X, data.y)
                params = {n: model.values(n) for n in model.names()}
                want_loss, want_grads = naive_loss_and_grads(params, data.X, data.y)
                assert _bits(losses[i]) == _bits(solo_loss) == _bits(want_loss)
                for name, g in grads.items():
                    assert _bits(g[i]) == _bits(solo_grads[name]) == _bits(want_grads[name])
            with pytest.raises(DivergenceError) as info:
                train_stack(models, data, TrainConfig(0.1, 5))
        assert info.value.epoch == 0
        assert np.isnan(losses[2]) and np.isfinite(np.delete(losses, 2)).all()

    def test_stacked_non_finite_pre_activations_match_naive_bits(self):
        # the mask is taken from hidden after relu: NaN, +-inf and zero
        # pre-activations in every slice of a stack of three
        data = gen_dataset("L1", 30, self.spec, 0)
        models = [init_model(self.spec, i) for i in range(3)]
        stacked = {n: np.stack([m.values(n) for m in models]) for n in models[0].names()}
        stacked["layer0.weight"][:, 5] = 0.0
        stacked["layer0.bias"][:, 5] = -0.0
        stacked["layer0.weight"][0, 2, 0] = np.nan
        stacked["layer0.bias"][1, 3] = -np.inf
        stacked["layer0.bias"][2, [1, 4]] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            losses, grads = _step(stacked, data.X, data.y, _workspace(3, 30, 6))
            for i in range(3):
                params = {n: p[i] for n, p in stacked.items()}
                want_loss, want_grads = naive_loss_and_grads(params, data.X, data.y)
                assert _bits(losses[i]) == _bits(want_loss)
                for name, g in grads.items():
                    assert _bits(g[i]) == _bits(want_grads[name])
        assert np.isnan(losses[[0, 2]]).all() and np.isfinite(losses[1])
        assert (grads["layer0.bias"][1, [3, 5]] == 0).all()

    @pytest.mark.parametrize("order", [
        ("ok", "late", "ok", "early", "ok"),
        ("early", "late", "ok"),
    ], ids=["earlier-slice-diverges-later", "first-slice-diverges-first"])
    def test_divergence_matches_sequential_loop(self, order):
        # at this learning rate, model "late" diverges at epoch 9 and
        # "early" at epoch 1; "ok" models never do
        pick = {"ok": (0, 1.0), "late": (1, 10.0), "early": (0, 30.0)}
        models = [_scaled(init_model(self.spec, pick[kind][0]), pick[kind][1])
                  for kind in order]
        data = gen_dataset("L1", 30, self.spec, 0)
        cfg = TrainConfig(10.0, 40)
        with np.errstate(all="ignore"):
            epochs = {}
            for kind, model in zip(order, models):
                try:
                    train(model, data, cfg)
                except DivergenceError as exc:
                    epochs[kind] = exc.epoch
            assert epochs == {"late": 9, "early": 1}
            want = epochs[next(kind for kind in order if kind != "ok")]
            with pytest.raises(DivergenceError) as info:
                train_stack(models, data, cfg)
        assert info.value.epoch == want

    def test_empty_stack(self):
        assert train_stack([], gen_dataset("L1", 10, self.spec, 0), FAST) == []


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            d, h, c = (int(rng.integers(2, 7)) for _ in range(3))
            spec = ModelSpec(d, h, max(c, 2))
            model = init_model(spec, int(rng.integers(1 << 31)))
            data = gen_dataset("mixed", 20, spec, int(rng.integers(1 << 31)))
            _, grads = loss_and_grads(model, data.X, data.y)
            for name in model.names():
                values = model.values(name)
                flat = values.reshape(-1)
                coords = rng.choice(flat.size, size=min(10, flat.size), replace=False)
                for idx in coords:
                    step = 1e-5

                    def loss_at(delta):
                        perturbed = flat.copy()
                        perturbed[idx] += delta
                        m = Checkpoint({
                            n: (Tensor("F64", perturbed.reshape(values.shape))
                                if n == name else model.tensors[n])
                            for n in model.names()})
                        return loss_and_grads(m, data.X, data.y)[0]

                    numeric = (loss_at(step) - loss_at(-step)) / (2 * step)
                    analytic = grads[name].reshape(-1)[idx]
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    assert abs(numeric - analytic) / denom < 1e-4


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_hand_confusion_matrix(self):
        assert macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2) == pytest.approx(
            (2 / 3 + 0.8) / 2, abs=1e-12)

    def test_absent_class_scores_zero(self):
        # class 2 never appears; its F1 of 0 still enters the mean
        assert macro_f1([0, 1], [0, 1], 3) == pytest.approx(2 / 3, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            macro_f1([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            macro_f1([0, 3], [0, 1], 2)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 4, size=60)
        preds = rng.integers(0, 4, size=60)
        base = macro_f1(preds, truth, 4)
        perm = np.array([2, 0, 3, 1])
        assert macro_f1(perm[preds], perm[truth], 4) == pytest.approx(base, abs=1e-12)


class TestArgmaxInvariance:
    def test_uniform_final_layer_scaling(self):
        spec = ModelSpec(6, 8, 3)
        model = train(init_model(spec, 3), gen_dataset("L1", 60, spec, 4),
                      TrainConfig(0.05, 20))
        scaled = Checkpoint({
            n: (Tensor("F64", model.values(n) * 2.0) if n.startswith("layer1")
                else model.tensors[n])
            for n in model.names()})
        tau = extract_task_vector(model, scaled)
        assert tau.names() == ["layer0.bias", "layer0.weight",
                               "layer1.bias", "layer1.weight"]
        X = gen_dataset("mixed", 40, spec, 5).X
        base_preds = predict(model, X)
        for a in (0.5, 1.0, 3.0):
            out = apply(model, scale(tau, a))
            np.testing.assert_array_equal(predict(out, X), base_preds)


class TestScenarios:
    def test_reports_identical_across_runs(self):
        a = run_bench(["full_ft"], [0, 1], SMALL, FAST)["scenarios"]["full_ft"]
        b = run_bench(["full_ft"], [0, 1], SMALL, FAST)["scenarios"]["full_ft"]
        assert (json.dumps(a, indent=2, sort_keys=True)
                == json.dumps(b, indent=2, sort_keys=True))

    def test_lambda_zero_merge_equals_full_ft(self):
        ctx = _SeedContext(0, SMALL, FAST)
        merged = tv_merge(ctx.base, [(ctx.aux_vector, 0.0)]).materialize()
        a = train(merged, ctx.target_train, FAST)
        b = train(ctx.base, ctx.target_train, FAST)
        for name in a.names():
            np.testing.assert_array_equal(a.values(name), b.values(name))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_bench(["bogus"], [0], SMALL, FAST)

    @pytest.mark.parametrize("names, seeds, message", [
        (["full_ft", "bogus"], [0, 1, 2], "unknown scenario 'bogus'"),
        (["full_ft"], [], "at least one seed"),
    ])
    def test_bad_arguments_build_no_context(self, monkeypatch, names, seeds, message):
        built = []
        monkeypatch.setattr(bench_scenarios, "_SeedContext", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=message):
            run_bench(names, seeds, SMALL, FAST)
        with pytest.raises(ValueError, match=message):
            run_bench(names[-1:], seeds, SMALL, FAST)
        assert built == []

    def test_one_seed_context_is_alive_at_a_time(self, monkeypatch):
        alive, most = weakref.WeakSet(), []

        class Counted(_SeedContext):
            def __init__(self, *args):
                alive.add(self)
                most.append(len(alive))
                super().__init__(*args)

        monkeypatch.setattr(bench_scenarios, "_SeedContext", Counted)
        report = run_bench(SCENARIOS, [0, 1, 2], SMALL, FAST)
        assert most == [1, 1, 1]
        assert [len(rep["per_seed_f1"]) for rep in report["scenarios"].values()] == [3] * 5

    @pytest.mark.parametrize("failing", [None, "seq_ft"])
    def test_errors_surface_in_seed_major_order(self, monkeypatch, failing):
        ran = []

        def context(seed, sizes, cfg):
            if seed == 1:
                raise RuntimeError("context of seed 1")
            return seed

        def pipeline(name, seed):
            ran.append((seed, name))
            if name == failing:
                raise RuntimeError(f"{name} of seed {seed}")
            return 0.5, None

        monkeypatch.setattr(bench_scenarios, "_SeedContext", context)
        monkeypatch.setattr(bench_scenarios, "_run_pipeline", pipeline)
        with pytest.raises(RuntimeError) as err:
            run_bench(SCENARIOS, [0, 1], SMALL, FAST)
        if failing:
            assert str(err.value) == "seq_ft of seed 0"
            assert ran == [(0, "full_ft"), (0, "seq_ft")]
        else:
            assert str(err.value) == "context of seed 1"
            assert ran == [(0, name) for name in SCENARIOS]

    def test_a_scenarios_report_does_not_depend_on_the_others(self):
        alone = run_bench(["ties_merge_ft"], [1], SMALL, FAST)["scenarios"]["ties_merge_ft"]
        together = run_bench(["full_ft", "ties_merge_ft"], [1], SMALL, FAST)["scenarios"]
        assert alone == together["ties_merge_ft"]

    def test_run_bench_shape_and_determinism(self):
        res = run_bench(["full_ft", "tv_merge_ft"], [0, 1], SMALL, FAST)
        assert set(res["scenarios"]) == {"full_ft", "tv_merge_ft"}
        assert "seed" not in res["train_config"]
        assert all("seed" not in rep["train_config"] for rep in res["scenarios"].values())
        again = run_bench(["full_ft", "tv_merge_ft"], [0, 1], SMALL, FAST)
        assert json.dumps(res, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_sweep_selection_recorded(self):
        rep = run_bench(["tv_merge_ft"], [0], SMALL, FAST)["scenarios"]["tv_merge_ft"]
        assert rep["selected"] and "lambda" in rep["selected"][0]


def test_report_bytes_on_every_blas_core_type(tmp_path, capsys):
    """The bench report is byte-identical whichever OpenBLAS kernels run:
    the default in this process, forced core types in child processes."""
    args = ["bench", "--scenario", "tv_merge_ft", "--seeds", "1", "--out"]
    assert main(args + [str(tmp_path / "default.json")]) == 0
    capsys.readouterr()
    want = hashlib.sha256((tmp_path / "default.json").read_bytes()).hexdigest()
    for core in blas_core_types():
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
        out = tmp_path / f"{core}.json"
        subprocess.run([sys.executable, "-m", "vecmerge.cli", *args, str(out)], env=env,
                       check=True, capture_output=True, timeout=300)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, core


def test_report_bytes_at_one_and_two_blas_threads(tmp_path):
    """The bench report is byte-identical whether OpenBLAS runs one thread
    or two, so OPENBLAS_NUM_THREADS=1 saves its spin-waits and changes no
    byte."""
    args = ["bench", "--scenario", "tv_merge_ft", "--seeds", "1", "--out"]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
        reports.append(tmp_path / f"threads{threads}.json")
        subprocess.run([sys.executable, "-m", "vecmerge.cli", *args, str(reports[-1])], env=env,
                       check=True, capture_output=True, timeout=300)
    assert reports[0].read_bytes() == reports[1].read_bytes()
