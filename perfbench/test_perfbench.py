"""Tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import reference
import measure
from launcher import Launcher
from spans import Tracer
from workloads import TiesSweep, ToyBench, TvMergeLarge

sys.path.insert(0, str(measure.ROOT / "tests"))
from helpers import naive_ties_vector  # noqa: E402


class TinyTies(TiesSweep):
    def _specs(self):
        return {"blocks.00.matrix": ("F32", (8, 8)), "blocks.00.bias": ("F32", (5,))}


class TinyTv(TvMergeLarge):
    def _specs(self, dtype=None):
        return {"layers.00.weight": (dtype or "BF16", (6, 4)),
                "layers.00.norm0": (dtype or "F32", (3,))}


@pytest.fixture(scope="module")
def cli():
    return measure.import_program()


def _generate(workload, where: Path, seed: int):
    root, out = where / "in", where / "out"
    root.mkdir(parents=True)
    out.mkdir()
    workload.generate(seed, root, out)
    return root, out


def _run_cli(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("workload", [TinyTies(), TinyTv()], ids=lambda w: w.name)
def test_same_seed_gives_identical_input_bytes(tmp_path, workload):
    a, _ = _generate(workload, tmp_path / "a", seed=3)
    b, _ = _generate(workload, tmp_path / "b", seed=3)
    c, _ = _generate(workload, tmp_path / "c", seed=4)
    files = sorted(p.name for p in a.glob("*.safetensors"))
    assert files
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()


@pytest.mark.parametrize("workload", [TinyTies(), TinyTv()], ids=lambda w: w.name)
def test_check_fails_on_one_flipped_output_byte(tmp_path, cli, workload):
    root, out = _generate(workload, tmp_path, seed=5)
    assert _run_cli(cli, workload.argv(root, out)) == 0
    expected = workload.reference(root)
    failure, params = workload.check(expected, out)
    assert failure is None and params > 0

    victim = sorted(out.glob("*.safetensors"))[0]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x01  # last data byte of the last tensor
    victim.write_bytes(bytes(raw))
    failure, _ = workload.check(expected, out)
    assert failure is not None


def test_toy_check_fails_on_one_flipped_output_byte(tmp_path):
    toy = ToyBench()
    expected = json.loads((measure.ROOT / toy.fixture).read_text())
    report = {"seeds": expected["seeds"],
              "sizes": {"input_dim": 16, "hidden_dim": 32, "class_count": 3},
              "scenarios": {name: {"per_seed_f1": v["per_seed_f1"], "mean_f1": v["mean_f1"],
                                   "selected": []}
                            for name, v in expected.items() if name != "seeds"}}
    text = json.dumps(report)
    (tmp_path / "bench.json").write_text(text)
    assert toy.check(expected, tmp_path)[0] is None

    digit = text.index(repr(expected["full_ft"]["mean_f1"])) + 5
    flipped = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1:]
    (tmp_path / "bench.json").write_text(flipped)
    assert toy.check(expected, tmp_path)[0] is not None


def _snapshot() -> dict:
    """Every vecmerge module attribute and class attribute, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "vecmerge" or name.startswith("vecmerge.")):
            for attr, value in vars(module).items():
                seen[f"{name}:{attr}"] = value
                if inspect.isclass(value):
                    seen.update({f"{name}:{attr}.{k}": v for k, v in vars(value).items()})
    return seen


def _unwrap(value):
    return value.__func__ if isinstance(value, staticmethod) else value


def test_tracer_binds_every_named_function(tmp_path, cli):
    originals = {}
    for label, module, qualname, _, _ in layers.TARGETS:
        *path, attr = qualname.split(".")
        owner = sys.modules[module]
        for part in path:
            owner = getattr(owner, part)
        originals[label] = _unwrap(inspect.getattr_static(owner, attr))
    before = _snapshot()
    root, out = _generate(TinyTies(), tmp_path, seed=7)

    tracer = Tracer()
    tracer.bind(layers.TARGETS)
    try:
        assert tracer.absent == []
        assert sorted(tracer.bound) == sorted(originals)
        during = {key: _unwrap(value) for key, value in _snapshot().items()}
        for label, original in originals.items():
            replaced = [key for key, value in before.items() if _unwrap(value) is original]
            assert replaced, label
            assert all(during[key] is not original for key in replaced), label
        assert _run_cli(sys.modules["vecmerge.cli"], TinyTies().argv(root, out)) == 0
    finally:
        tracer.unbind()
    after = _snapshot()
    assert all(after[key] is value for key, value in before.items())

    labels = {span[0] for span in tracer.spans}
    assert {"cli.main", "ties.trim", "tensor_store.read_archive", "dtypes.encode"} <= labels
    root_span = next(s for s in tracer.spans if s[0] == "cli.main")
    values = layers.layer_values(tracer, root_span[3] - root_span[2])
    assert values["trace.span_errors"] == 0
    assert values["trace.accounted_share"] == pytest.approx(1.0, rel=1e-9)
    assert values["tensor_store.read_calls"] == 40  # 4 archives re-read at each of 10 points
    assert values["ties.trim_useful_ratio"] == pytest.approx(3 / 60)


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    launcher = Launcher()
    try:
        ballast = np.ones(200 * 2**20 // 8)  # the parent grows after the fork
        result = launcher.run([sys.executable, "-c", "pass"], {}, str(tmp_path / "log"), 30)
    finally:
        launcher.close()
    assert ballast.sum() > 0
    assert result["returncode"] == 0
    assert 0 < result["rss_mb"] < 100


def test_overlapping_children_share_the_time_they_cover():
    tracer = Tracer()
    parent = ["parent", None, 0.0, 10.0]
    tracer.spans += [parent, ["a", parent, 1.0, 5.0], ["b", parent, 3.0, 7.0]]
    selfs, errors = tracer.self_times()
    assert errors == 0
    assert selfs == pytest.approx({"parent": 4.0, "a": 3.0, "b": 3.0})


def test_ties_reference_matches_naive_oracle():
    rng = np.random.default_rng(11)
    vectors = [rng.integers(-3, 4, size=37).astype(np.float64) * 0.5 for _ in range(3)]
    weights = [1.0, 2.0, 0.5]
    for density in (0.1, 0.3, 1.0):
        merged, _ = naive_ties_vector([list(v) for v in vectors], weights, density)
        assert np.array_equal(reference.ties_delta(vectors, weights, density), merged)
