"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass.
"""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vecmerge
from vecmerge import (Checkpoint, LazyCheckpoint, TaskVector, Tensor,
                      apply, elect_signs, expand_sweep, extract_task_vector,
                      parse_recipe, read_archive, save_archive, select_best, ties_merge,
                      trim, tv_merge, write_archive)
from vecmerge.bench import SCENARIOS, run_bench
from vecmerge.bench.model import init_model, loss_and_grads
from vecmerge.bench.data import ModelSpec, gen_dataset
from vecmerge.dtypes import narrow

from helpers import naive_ties_vector, random_checkpoint


def ok(number, label):
    print(f"CRITERION {number} ({label}): PASS")


def test_criterion_1_format_round_trip():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        ckpt = random_checkpoint(rng, n_tensors=int(rng.integers(1, 21)),
                                 max_numel=4096)
        blob = write_archive(ckpt)
        again = read_archive(blob)
        assert write_archive(again) == blob
        for name in ckpt.names():
            assert again[name].dtype == ckpt[name].dtype
            np.testing.assert_array_equal(again.values(name), ckpt.values(name))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"round-trip took {elapsed:.2f}s"
    ok(1, "format round-trip")


def test_criterion_2_tv_inversion():
    rng = np.random.default_rng(1002)
    for _ in range(50):
        base = random_checkpoint(rng, dtypes=["F32"])
        ft = Checkpoint({n: Tensor("F32", (base.values(n)
                                           + rng.normal(size=base[n].shape)).astype(np.float32))
                         for n in base.names()})
        out = apply(base, extract_task_vector(base, ft))
        for name in base.names():
            got = out.values(name).astype(np.float64)
            want = ft.values(name).astype(np.float64)
            denom = np.where(want == 0.0, 1.0, np.abs(want))
            assert np.max(np.abs(got - want) / denom, initial=0.0) <= 1e-6
    base64 = random_checkpoint(rng, dtypes=["F64"])
    ft64 = Checkpoint({n: Tensor("F64", base64.values(n) + rng.normal(size=base64[n].shape))
                       for n in base64.names()})
    out64 = apply(base64, extract_task_vector(base64, ft64))
    for name in base64.names():
        np.testing.assert_array_equal(out64.values(name), ft64.values(name))
    ok(2, "task-vector inversion")


def test_criterion_3_lambda_zero_identity():
    rng = np.random.default_rng(1003)
    for _ in range(10):
        base = random_checkpoint(rng)
        tv = TaskVector.from_arrays(
            {n: rng.normal(size=base[n].shape) for n in base.names()})
        canonical = write_archive(base)
        merged_tv = tv_merge(base, [(tv, 0.0), (tv, 0.0)])
        assert write_archive(merged_tv) == canonical
        merged_ties = ties_merge(base, [(tv, 1.0)], 0.5, 0.0)
        assert write_archive(merged_ties) == canonical
    ok(3, "lambda-zero identity")


def _random_ties_instance(rng):
    numel = int(rng.integers(1, 65))
    n_vec = int(rng.integers(1, 5))
    density = float(rng.choice([0.25, 0.5, 1.0]))
    vectors = [rng.normal(size=numel) for _ in range(n_vec)]
    weights = [float(rng.uniform(0.1, 3.0)) for _ in range(n_vec)]
    lam = float(rng.uniform(0.0, 2.0))
    base_vals = rng.normal(size=numel)
    return base_vals, vectors, weights, density, lam


def _run_ties_instance(base_vals, vectors, weights, density, lam, threads=1):
    base = Checkpoint.from_arrays({"w": base_vals})
    tvs = [TaskVector.from_arrays({"w": v}) for v in vectors]
    out = ties_merge(base, list(zip(tvs, weights)), density, lam, threads=threads)
    signs = elect_signs([trim(t, density) for t in tvs], weights)
    return out, signs


def test_criterion_4_ties_oracle_equivalence():
    rng = np.random.default_rng(1004)
    for _ in range(500):
        base_vals, vectors, weights, density, lam = _random_ties_instance(rng)
        out, signs = _run_ties_instance(base_vals, vectors, weights, density, lam)
        merged_ref, gamma_ref = naive_ties_vector(vectors, weights, density)
        expected = base_vals + lam * np.array(merged_ref)
        np.testing.assert_allclose(out.materialize().values("w"), expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(signs["w"], gamma_ref)
    # pinned hand case
    out, _ = _run_ties_instance(
        np.zeros(4), [np.array([1.0, -2.0, 0.5, 0.0]), np.array([2.0, 1.0, -0.4, 0.3])],
        [1.0, 1.0], 0.5, 1.0)
    np.testing.assert_array_equal(out.materialize().values("w"), [1.5, -2.0, 0.0, 0.0])
    ok(4, "TIES oracle equivalence")


def test_criterion_5_reduction_law():
    rng = np.random.default_rng(1005)
    for _ in range(50):
        base = random_checkpoint(rng)
        tv = TaskVector.from_arrays(
            {n: rng.normal(size=base[n].shape) for n in base.names()})
        lam = float(rng.uniform(-2.0, 2.0))
        if lam == 0.0:
            lam = 1.0
        got = ties_merge(base, [(tv, 1.0)], 1.0, lam).materialize()
        want = tv_merge(base, [(tv, lam)]).materialize()
        for name in base.names():
            g = got.values(name).astype(np.float64)
            w = want.values(name).astype(np.float64)
            ulp = np.spacing(np.abs(want.values(name)).astype(np.float64))
            assert np.all(np.abs(g - w) <= 2 * ulp)
    ok(5, "density-1 single-vector reduction to TV")


def test_criterion_6_sweep_and_selection():
    doc = {"base": "b.st", "method": "tv",
           "vectors": [{"source": "a.st", "weight": {"grid": "default"}},
                       {"source": "b.st", "weight": {"grid": [0.2, 0.5, 1.0]}}],
           "output": "o.st"}
    expanded = expand_sweep(parse_recipe(json.dumps(doc)))
    assert len(expanded) == 30
    assert all(not r.grids() for r in expanded)
    rows = [({"lambda": 0.2}, 0.61), ({"lambda": 0.4}, 0.63), ({"lambda": 0.6}, 0.63)]
    assert select_best(rows) == {"lambda": 0.4}
    ok(6, "sweep expansion and selection")


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(1007)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        h = int(rng.integers(2, 10))
        c = int(rng.integers(2, 5))
        spec = ModelSpec(d, h, c)
        model = init_model(spec, int(rng.integers(1 << 31)))
        data = gen_dataset("mixed", 16, spec, int(rng.integers(1 << 31)))
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
    ok(7, "analytic gradient correctness")


SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def bench_runs():
    runs = {}
    start = time.perf_counter()
    runs["a"] = run_bench(list(SCENARIOS), SEEDS)
    runs["elapsed"] = time.perf_counter() - start
    runs["b"] = run_bench(list(SCENARIOS), SEEDS)
    return runs


def test_criterion_8_merge_advantage(bench_runs):
    """Every scenario's scores equal the pinned ones exactly, and the means
    order as the paper reports: both merges above CPT->FT (seq_ft), which
    is above plain fine-tuning."""
    with open("tests/fixtures/bench_expected.json") as fh:
        pinned = json.load(fh)
    scen = bench_runs["a"]["scenarios"]
    for name in SCENARIOS:
        for key in ("per_seed_f1", "mean_f1"):
            assert scen[name][key] == pinned[name][key], f"{name}.{key}"
    mean = {name: pinned[name]["mean_f1"] for name in SCENARIOS}
    assert min(mean["tv_merge_ft"], mean["ties_merge_ft"]) > mean["seq_ft"] > mean["full_ft"], mean
    assert bench_runs["elapsed"] < 60.0
    ok(8, "qualitative merge-then-fine-tune advantage")


def _big_instance():
    rng = np.random.default_rng(1009)
    shapes = {f"block{i}": (2_500_000,) for i in range(4)}  # 10M params total
    base = Checkpoint({n: Tensor("F32", rng.normal(size=s).astype(np.float32))
                       for n, s in shapes.items()})
    tvs = [TaskVector.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()})
           for _ in range(2)]
    return base, tvs


def test_criterion_9_throughput():
    base, tvs = _big_instance()
    ckpt_bytes = sum(t.values.size * 4 for t in base.tensors.values())
    start = time.perf_counter()
    merged = tv_merge(base, [(tvs[0], 0.5), (tvs[1], 0.25)]).materialize()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"merge took {elapsed:.2f}s"
    assert len(merged) == 4

    tracemalloc.start()
    tv_merge(base, [(tvs[0], 0.5), (tvs[1], 0.25)]).materialize()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 3 * ckpt_bytes, f"peak {peak / 1e6:.0f}MB >= 3x checkpoint"
    ok(9, "10M-parameter merge throughput and memory")


_LAYERS = {f"layer{i:02d}": (512, 1024) for i in range(16)}  # 8M params
_STORAGE = {"F32": "<f4", "F64": "<f8"}
_TV_META = {"vecmerge.kind": "task_vector"}

# Runs argv[1:] and prints its exit code and its own peak RSS in KiB.
_CHILD_PEAK = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _layer(seed, name, dtype):
    rng = np.random.default_rng([seed, int(name[5:])])
    return rng.normal(size=_LAYERS[name]).astype(_STORAGE[dtype])


def _write_aligned(path, dtype, seed, metadata=None):
    """An archive whose data region starts 8-byte aligned (the header is
    padded with spaces), so every F32/F64 tensor is read as a view."""
    header, offset = ({"__metadata__": metadata} if metadata else {}), 0
    for name, shape in sorted(_LAYERS.items()):
        nbytes = math.prod(shape) * np.dtype(_STORAGE[dtype]).itemsize
        header[name] = {"dtype": dtype, "shape": list(shape),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    blob = json.dumps(header, separators=(",", ":")).encode()
    blob += b" " * (-len(blob) % 8)
    with open(path, "wb") as fh:
        fh.write(len(blob).to_bytes(8, "little") + blob)
        for name in sorted(_LAYERS):
            fh.write(_layer(seed, name, dtype).tobytes())


def _write_plain(path, dtype, seed, metadata=None):
    """An archive from vecmerge's own writer; its F32/F64 data is
    misaligned, so the reader keeps every tensor in its stored form."""
    layout = {name: (dtype, shape) for name, shape in _LAYERS.items()}
    save_archive(LazyCheckpoint(
        layout, lambda name, put: Tensor(dtype, _layer(seed, name, dtype)), metadata), path)
    with open(path, "rb") as fh:
        assert (8 + int.from_bytes(fh.read(8), "little")) % 4 != 0


def _child_peak(argv: list) -> int:
    """Peak RSS in bytes of a `vecmerge <argv>` child, from its own wait4
    rusage. A fresh small interpreter starts it, because a child forked
    from this grown process would begin with this process's peak."""
    env = dict(os.environ, PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _CHILD_PEAK, sys.executable, "-m",
                           "vecmerge.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    code, kib = map(int, done.stdout.split())
    assert code == 0
    return kib * 1024


def _merge_tv_argv(base, vectors, out) -> list:
    argv = ["merge", "tv", "--base", base, "--out", out]
    for path in vectors:
        argv += ["--vector", path, "--weight", "0.5"]
    return argv


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("write,bound", [(_write_aligned, 1.0), (_write_plain, 1.75),
                                         (_write_plain, 1.0)],
                         ids=["aligned_views", "misaligned_copies", "misaligned_views"])
def test_criterion_9_merge_tv_child_memory(tmp_path, write, bound):
    """`merge tv` streams: its peak tracks the tensors in flight, not the
    checkpoint, and stays below the inputs' size whether or not their
    data is aligned, since nothing is copied whole at read."""
    base, vectors = tmp_path / "base.st", [tmp_path / "tau0.st", tmp_path / "tau1.st"]
    write(base, "F32", 0)
    for k, path in enumerate(vectors, 1):
        write(path, "F64", k, _TV_META)
    inputs = sum(os.path.getsize(p) for p in [base, *vectors])
    peak = _child_peak(_merge_tv_argv(base, vectors, tmp_path / "merged.st"))
    assert peak < bound * inputs, \
        f"peak {peak / 2**20:.0f} MiB >= {bound} x {inputs / 2**20:.0f} MiB of inputs"
    ok(9, f"merge tv child peak {peak / 2**20:.0f} MiB for {inputs / 2**20:.0f} MiB of inputs")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_bf16_merge_holds_no_more_than_an_f32_merge(tmp_path):
    """`merge tv --threads 2` widens and rounds a BF16 base in the kernel's
    own scratch, so it peaks within 0.5 MiB of the same merge into an F32
    base of the same shapes."""
    vectors = [tmp_path / "tau1.st", tmp_path / "tau2.st"]
    for k, path in enumerate(vectors, 1):
        _write_plain(path, "F64", k, _TV_META)
    peaks = {}
    for dtype in ("BF16", "F32"):
        layout = {name: (dtype, shape) for name, shape in _LAYERS.items()}
        save_archive(LazyCheckpoint(layout, lambda name, put: Tensor(
            dtype, narrow(_layer(0, name, "F32"), dtype))), tmp_path / "base.st")
        peaks[dtype] = _child_peak(_merge_tv_argv(tmp_path / "base.st", vectors,
                                                  tmp_path / "merged.st") + ["--threads", "2"])
    assert peaks["BF16"] < peaks["F32"] + 2**19, \
        f"BF16 peak {peaks['BF16'] / 2**20:.2f} MiB against F32 {peaks['F32'] / 2**20:.2f} MiB"


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """Archives from vecmerge's own writer: a base and two fine-tuned F32
    checkpoints and two stored F64 vectors, of 8M params each, TIES and TV
    recipes over the fine-tuned ones, and the peak of a `merge tv` of the
    vectors into the base."""
    root = tmp_path_factory.mktemp("reports")
    _write_plain(root / "base.st", "F32", 0)
    _write_plain(root / "ft.st", "F32", 3)
    _write_plain(root / "ft2.st", "F32", 4)
    for k in (1, 2):
        _write_plain(root / f"tau{k}.st", "F64", k, _TV_META)
    for method in ("ties", "tv"):
        (root / f"{method}.json").write_text(json.dumps({
            "base": str(root / "base.st"), "method": method, "output": str(root / f"{method}.st"),
            "vectors": [{"source": str(root / ft), "weight": 1.0} for ft in ("ft.st", "ft2.st")]}))
    peak = _child_peak(_merge_tv_argv(root / "base.st", [root / "tau1.st", root / "tau2.st"],
                                      root / "merged.st"))
    return root, peak


_TENSOR = max(math.prod(shape) for shape in _LAYERS.values())  # entries of the largest


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("command,margin", [
    ("diff {r}/base.st {r}/ft.st", 10 * 2**20),
    ("cosine {r}/tau1.st {r}/tau2.st", 10 * 2**20),
    ("extract --base {r}/base.st --finetuned {r}/ft.st --out {r}/extracted.st", 10 * 2**20),
    ("merge ties --base {r}/base.st --vector {r}/tau1.st --weight 1.0 --vector {r}/tau2.st "
     "--weight 0.5 --out {r}/ties.st", (2 + 2) * 8 * _TENSOR),
    ("interference --vector {r}/tau1.st --vector {r}/tau2.st", (2 + 2) * 8 * _TENSOR),
    ("run --recipe {r}/ties.json", (2 + 2) * 8 * _TENSOR),
    ("run --recipe {r}/tv.json", 10 * 2**20)],
    ids=["diff", "cosine", "extract", "merge-ties", "interference", "run-ties", "run-tv"])
def test_reports_and_extract_hold_scratch_not_tensors(report_inputs, command, margin):
    """diff, cosine and extract read by position into chunk scratch, and
    extract writes each delta as it is made, so each peaks within 10 MiB
    of `merge tv` on the same inputs, not at the size of a tensor. TIES
    works one tensor at a time and reads by position too: `merge ties` and
    `interference` hold one buffer per vector as long as the largest
    tensor, and about two more, so they peak within (vectors + 2) float64
    copies of that tensor of `merge tv`. `run` reads a fine-tuned source's
    delta from its two sides: TV a chunk at a time, so within 10 MiB of
    `merge tv`, and TIES once into each trim buffer, which the report's
    buffers precede, so within (vectors + 2) copies too."""
    root, merge_peak = report_inputs
    peak = _child_peak(command.format(r=root).split())
    assert peak < merge_peak + margin, \
        f"peak {peak / 2**20:.1f} MiB against merge tv {merge_peak / 2**20:.1f} MiB"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_ties_sweep_over_fine_tuned_sources_holds_its_buffers(tmp_path):
    """A TIES `run --sweep` over three F32 fine-tuned sources reads each
    delta once, into the trim buffer of its vector, trims it there and
    writes the disjoint mean over the first: it peaks within (vectors + 2)
    float64 copies of the largest tensor (400 x 400) of a `merge tv` of the
    same vectors, stored, into the same base."""
    layout = {"w0": (400, 400), "w1": (400, 400), **{f"b{i}": (1024,) for i in range(8)}}
    rng = np.random.default_rng(26)
    base = {n: rng.normal(size=s).astype(np.float32) for n, s in layout.items()}
    save_archive(Checkpoint({n: Tensor("F32", a) for n, a in base.items()}), tmp_path / "base.st")
    sources, vectors = [tmp_path / f"ft{j}.st" for j in range(3)], []
    for j, source in enumerate(sources):
        save_archive(Checkpoint({n: Tensor("F32", a + np.float32(0.01) * rng.normal(
            size=a.shape).astype(np.float32)) for n, a in base.items()}), source)
        vectors.append(tmp_path / f"tau{j}.st")
        save_archive(extract_task_vector(read_archive(tmp_path / "base.st"),
                                         read_archive(source)).to_checkpoint(), vectors[-1])
    recipe = tmp_path / "sweep.json"
    recipe.write_text(json.dumps({
        "base": str(tmp_path / "base.st"), "method": "ties", "density": 0.2,
        "lambda": {"grid": [0.5, 1.0]}, "output": str(tmp_path / "merged.st"),
        "vectors": [{"source": str(source), "weight": 1.0} for source in sources]}))
    merge_peak = _child_peak(_merge_tv_argv(tmp_path / "base.st", vectors, tmp_path / "tv.st"))
    peak = _child_peak(["run", "--recipe", recipe, "--sweep"])
    largest = 8 * 400 * 400
    assert peak < merge_peak + (3 + 2) * largest, \
        f"peak {peak / 2**20:.2f} MiB against merge tv {merge_peak / 2**20:.2f} MiB"


def test_criterion_10_determinism(bench_runs):
    # criterion 4 instances: byte-identical across consecutive runs and threads
    rng_a = np.random.default_rng(1010)
    rng_b = np.random.default_rng(1010)
    for _ in range(25):
        inst_a = _random_ties_instance(rng_a)
        inst_b = _random_ties_instance(rng_b)
        out_a1, _ = _run_ties_instance(*inst_a, threads=1)
        out_a2, _ = _run_ties_instance(*inst_a, threads=1)
        out_b4, _ = _run_ties_instance(*inst_b, threads=4)
        blob = write_archive(out_a1)
        assert write_archive(out_a2) == blob
        assert write_archive(out_b4) == blob

    # criterion 8 bench: identical across runs
    key = lambda r: json.dumps(r, sort_keys=True)
    assert key(bench_runs["a"]) == key(bench_runs["b"])

    # criterion 9 merge: identical across runs and thread counts
    base, tvs = _big_instance()
    pairs = [(tvs[0], 0.5), (tvs[1], 0.25)]
    first = write_archive(tv_merge(base, pairs, threads=1))
    assert write_archive(tv_merge(base, pairs, threads=1)) == first
    assert write_archive(tv_merge(base, pairs, threads=4)) == first
    ok(10, "determinism across runs and thread counts")
