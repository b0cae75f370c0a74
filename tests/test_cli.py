import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vecmerge
from vecmerge import (Checkpoint, TaskVector, Tensor, apply, read_archive, save_archive,
                      ties_merge, write_archive)
from vecmerge import tv as tv_mod
from vecmerge.cli import main
from vecmerge.tv import load_task_vector
from vecmerge.dtypes import narrow


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    base = Checkpoint.from_arrays({"w": rng.normal(size=6), "b": rng.normal(size=2)}, "F32")
    tv = TaskVector.from_arrays({"w": rng.normal(size=6), "b": rng.normal(size=2)})
    save_archive(base, tmp_path / "base.st")
    save_archive(tv.to_checkpoint(), tmp_path / "tv.st")
    save_archive(apply(base, tv), tmp_path / "ft.st")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_valid_archive(self, workspace, capsys):
        code, out, _ = run(capsys, "inspect", workspace / "base.st")
        assert code == 0
        report = json.loads(out)
        assert report["valid"] and report["tensor_count"] == 2

    def test_invalid_archive(self, tmp_path, capsys):
        bad = tmp_path / "bad.st"
        blob = b'{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,8]}}'
        bad.write_bytes(len(blob).to_bytes(8, "little") + blob + b"\x00" * 8)
        code, out, _ = run(capsys, "inspect", bad)
        assert code == 1
        assert not json.loads(out)["valid"]


class TestExtractAndMerge:
    def test_extract_then_merge_tv(self, workspace, capsys):
        code, out, _ = run(capsys, "extract", "--base", workspace / "base.st",
                           "--finetuned", workspace / "ft.st",
                           "--out", workspace / "tau.st")
        assert code == 0 and json.loads(out)["deltas"] == 2
        code, _, _ = run(capsys, "merge", "tv", "--base", workspace / "base.st",
                         "--vector", workspace / "tau.st", "--weight", "1.0",
                         "--out", workspace / "merged.st")
        assert code == 0
        got = read_archive(workspace / "merged.st")
        want = read_archive(workspace / "ft.st")
        for name in want.names():
            np.testing.assert_allclose(got.values(name), want.values(name), rtol=1e-6)

    def test_extract_metadata_text(self, workspace, capsys):
        code, _, _ = run(capsys, "extract", "--base", workspace / "base.st",
                         "--finetuned", workspace / "ft.st", "--out", workspace / "tau.st")
        blob = (workspace / "tau.st").read_bytes()
        header = blob[8:8 + int.from_bytes(blob[:8], "little")].decode()
        assert code == 0 and header.startswith(
            '{"__metadata__":{"vecmerge.kind":"task_vector",'
            '"vecmerge.origin":"extract(base=2 tensors, finetuned=2 tensors)"},"b":')

    def test_merge_ties_with_report(self, workspace, capsys):
        code, _, _ = run(capsys, "merge", "ties", "--base", workspace / "base.st",
                         "--vector", workspace / "tv.st", "--weight", "1.0",
                         "--vector", workspace / "tv.st", "--weight", "1.0",
                         "--density", "0.5", "--lambda", "1.0",
                         "--out", workspace / "merged.st",
                         "--report", workspace / "report.json")
        assert code == 0
        report = json.loads((workspace / "report.json").read_text())
        assert report["density"] == 0.5
        assert report["global"]["sign_agreement"]["0-1"] == 1.0

    @pytest.mark.parametrize("method", ["tv", "ties"])
    def test_merge_needs_a_weight_per_vector(self, workspace, capsys, method):
        code, out, err = run(capsys, "merge", method, "--base", workspace / "base.st",
                             "--vector", workspace / "tv.st", "--vector", workspace / "tv.st",
                             "--weight", "1.0", "--out", workspace / "merged.st")
        assert (code, out, err) == (1, "", "error: 2 vectors but 1 weights\n")
        assert not (workspace / "merged.st").exists()

    def test_merge_rejects_non_task_vector(self, workspace, capsys):
        code, _, err = run(capsys, "merge", "tv", "--base", workspace / "base.st",
                           "--vector", workspace / "ft.st", "--weight", "1.0",
                           "--out", workspace / "merged.st")
        assert code == 1 and "not a stored task vector" in err

    BAD_TIES_OPTIONS = pytest.mark.parametrize("option, value, message", [
        ("--lambda", "nan", "non-finite lambda nan"),
        ("--density", "0", "density must be in (0, 1], got 0.0"),
        ("--density", "1.5", "density must be in (0, 1], got 1.5"),
        ("--weight", "-1", "weights must be positive and finite"),
    ], ids=["lambda-nan", "density-0", "density-1.5", "weight-negative"])

    @BAD_TIES_OPTIONS
    def test_merge_ties_bad_option_exit_1(self, workspace, capsys, option, value, message):
        args = {"--weight": "1.0", "--density": "0.5", "--lambda": "1.0", option: value}
        code, out, err = run(capsys, "merge", "ties", "--base", workspace / "base.st",
                             "--vector", workspace / "tv.st",
                             *[x for item in args.items() for x in item],
                             "--out", workspace / "merged.st")
        assert code == 1 and out == "" and err == f"error: {message}\n"
        assert not (workspace / "merged.st").exists()

    @BAD_TIES_OPTIONS
    def test_merge_ties_bad_option_with_report_exit_1(self, workspace, capsys, option, value,
                                                      message):
        """The report is made before the merge, and written only after it."""
        args = {"--weight": "1.0", "--density": "0.5", "--lambda": "1.0", option: value}
        code, out, err = run(capsys, "merge", "ties", "--base", workspace / "base.st",
                             "--vector", workspace / "tv.st",
                             *[x for item in args.items() for x in item],
                             "--out", workspace / "merged.st",
                             "--report", workspace / "report.json")
        assert code == 1 and out == "" and err == f"error: {message}\n"
        assert not (workspace / "merged.st").exists()
        assert not (workspace / "report.json").exists()

    @pytest.mark.parametrize("how", ["merge", "run"])
    def test_ties_writes_every_tensor_from_the_kernel(self, workspace, capsys, monkeypatch,
                                                      how):
        """TIES output goes chunk by chunk from the merge kernel to the file:
        every output tensor reaches `_merge_tensor` with a `put`."""
        base = read_archive(workspace / "base.st")
        tv = load_task_vector(workspace / "tv.st")
        want = write_archive(ties_merge(base, [(tv, 1.0), (tv, 2.0)], 0.5, 0.7))
        kernel, calls = tv_mod._merge_tensor, []

        def spy(tensor, deltas, dtype, put=None):
            calls.append(put is not None)
            return kernel(tensor, deltas, dtype, put)

        monkeypatch.setattr(tv_mod, "_merge_tensor", spy)
        if how == "merge":
            code, _, _ = run(capsys, "merge", "ties", "--base", workspace / "base.st",
                             "--vector", workspace / "tv.st", "--weight", "1.0",
                             "--vector", workspace / "tv.st", "--weight", "2.0",
                             "--density", "0.5", "--lambda", "0.7",
                             "--out", workspace / "merged.st")
        else:
            recipe = {"base": str(workspace / "base.st"), "method": "ties", "density": 0.5,
                      "lambda": 0.7, "output": str(workspace / "merged.st"),
                      "vectors": [{"source": str(workspace / "tv.st"), "weight": w}
                                  for w in (1.0, 2.0)]}
            (workspace / "recipe.json").write_text(json.dumps(recipe))
            code, _, _ = run(capsys, "run", "--recipe", workspace / "recipe.json")
        assert code == 0
        assert calls == [True] * len(base)
        merged = read_archive(workspace / "merged.st")  # with a recipe's metadata
        assert write_archive(Checkpoint(merged.tensors)) == want


    def test_ties_threads_write_the_same_archive(self, tmp_path, capsys):
        """Tensors of many sizes, from stored vectors read by position, made
        two at a time, give the bytes that one at a time gives."""
        rng = np.random.default_rng(23)
        shapes = {"a": (300,), "b": (17, 40), "c": (5000,), "d": (0,), "e": (64, 64)}
        save_archive(Checkpoint.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()},
                                            "F32"), tmp_path / "base.st")
        argv = ["merge", "ties", "--base", tmp_path / "base.st", "--density", "0.3"]
        for k in range(2):
            tv = TaskVector.from_arrays({n: rng.normal(size=s) for n, s in shapes.items()})
            save_archive(tv.to_checkpoint(), tmp_path / f"tv{k}.st")
            argv += ["--vector", tmp_path / f"tv{k}.st", "--weight", f"{k + 1}"]
        for threads in (1, 2):
            code, _, _ = run(capsys, *argv, "--threads", threads,
                             "--out", tmp_path / f"threads{threads}.st")
            assert code == 0
        assert (tmp_path / "threads2.st").read_bytes() == (tmp_path / "threads1.st").read_bytes()


class TestDiffInterference:
    def test_diff_json(self, workspace, capsys):
        code, out, _ = run(capsys, "diff", workspace / "base.st", workspace / "base.st",
                           "--json")
        assert code == 0
        assert json.loads(out)["global"]["l2_norm"] == 0.0

    def test_diff_text(self, workspace, capsys):
        code, out, _ = run(capsys, "diff", workspace / "base.st", workspace / "ft.st")
        assert code == 0 and "global L2 norm" in out

    def test_interference(self, workspace, capsys):
        code, out, _ = run(capsys, "interference", "--vector", workspace / "tv.st",
                           "--vector", workspace / "tv.st", "--density", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["global"]["sign_agreement"]["0-1"] == 1.0

    def test_cosine(self, workspace, capsys):
        code, out, _ = run(capsys, "cosine", workspace / "tv.st", workspace / "tv.st")
        assert code == 0 and float(out) == 1.0


class TestRun:
    def recipe(self, workspace, **overrides):
        doc = {"base": str(workspace / "base.st"), "method": "tv",
               "vectors": [{"source": str(workspace / "tv.st"), "weight": 0.5}],
               "output": str(workspace / "out.st")}
        doc.update(overrides)
        path = workspace / "recipe.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_success(self, workspace, capsys):
        code, out, _ = run(capsys, "run", "--recipe", self.recipe(workspace))
        assert code == 0
        assert (workspace / "out.st").exists()
        assert len(json.loads(out)["outcomes"]) == 1

    def test_run_sweep(self, workspace, capsys):
        path = self.recipe(workspace, vectors=[
            {"source": str(workspace / "tv.st"), "weight": {"grid": [0.1, 0.2]}}])
        code, out, _ = run(capsys, "run", "--recipe", path, "--sweep")
        assert code == 0
        assert len(json.loads(out)["outcomes"]) == 2

    def test_validation_error_exit_2(self, workspace, capsys):
        path = workspace / "recipe.json"
        path.write_text('{"method": "bogus"}')
        code, _, err = run(capsys, "run", "--recipe", path)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("method, key, raw", [
        ("tv", "weight", '{"grid": [0.5, NaN]}'),
        ("tv", "weight", "1" + "0" * 400),  # past float64
        ("tv", "weight", "9" * 5000),  # past Python's int digit limit
        ("ties", "weight", '{"grid": [1.0, -1.0]}'),
        ("ties", "weight", "0"),
        ("ties", "density", "NaN"),
        ("ties", "lambda", "Infinity"),
        ("ties", "lambda", '{"grid": [0.5, -Infinity]}'),
    ], ids=["grid-nan", "int-1e400", "int-5000-digits", "ties-grid-negative", "ties-zero",
            "density-nan", "lambda-inf", "lambda-grid-inf"])
    def test_sweep_rejects_bad_numbers_before_any_output(self, workspace, capsys,
                                                        method, key, raw):
        doc = {"base": str(workspace / "base.st"), "method": method,
               "vectors": [{"source": str(workspace / "tv.st"), "weight": 1.0}],
               "output": str(workspace / "out.st")}
        if key == "weight":
            doc["vectors"][0]["weight"] = "@"
        else:
            doc[key] = "@"
        path = workspace / "recipe.json"
        path.write_text(json.dumps(doc).replace('"@"', raw))
        code, _, err = run(capsys, "run", "--recipe", path, "--sweep")
        assert code == 2 and err.startswith("error:")
        assert not list(workspace.glob("out*"))

    def test_merge_error_exit_3(self, workspace, capsys):
        path = self.recipe(workspace, vectors=[
            {"source": str(workspace / "missing.st"), "weight": 1.0}])
        code, _, _ = run(capsys, "run", "--recipe", path)
        assert code == 3

    def test_metrics_selection(self, workspace, capsys):
        metrics = workspace / "m.csv"
        metrics.write_text("assignment,metric\nw0=0.1,0.5\nw0=0.2,0.7\n")
        code, out, _ = run(capsys, "run", "--recipe", self.recipe(workspace),
                           "--metrics", metrics, "--select")
        assert code == 0
        assert json.loads(out)["selected"] == {"w0": 0.2}

    def run_lambda_sweep(self, workspace, capsys, rows):
        metrics = workspace / "m.csv"
        metrics.write_text("assignment,metric\n" + rows)
        path = self.recipe(workspace, method="ties", **{"lambda": {"grid": [0.5, 1.0]}})
        return run(capsys, "run", "--recipe", path, "--sweep", "--metrics", metrics, "--select")

    def test_metrics_on_sweep_axes_selected(self, workspace, capsys):
        code, out, _ = self.run_lambda_sweep(workspace, capsys,
                                             "lambda=0.5,0.1\nlambda=1.0,0.3\n")
        assert code == 0 and json.loads(out)["selected"] == {"lambda": 1.0}

    @pytest.mark.parametrize("rows", ["w0=0.5,0.7\n", "lambda=0.5,0.1\nlambda=1.0;w0=1.0,0.7\n"])
    def test_metrics_off_sweep_axes_exit_2(self, workspace, capsys, rows):
        code, _, err = self.run_lambda_sweep(workspace, capsys, rows)
        assert code == 2 and err.startswith("error:") and "sweep axes" in err

    @pytest.mark.parametrize("rows, message", [
        ("lambda=0.5,0.1\nlambda=0.7,0.9\n", "not a point of the sweep grid"),
        ("lambda=nan,0.9\n", "non-finite assignment"),
        ("lambda=1.0,0.1\nlambda=-inf,0.9\n", "non-finite assignment"),
        ("lambda=0.5,0.1\nlambda=1.0;w0=1.0,0.7\n", "sweep axes"),
        ("lambda=0.5,inf\n", "non-finite metric"),
        ("", "empty metrics table"),
        ("lambda=0.5;lambda=1.0,5\n", "repeated key 'lambda'"),
    ], ids=["off-grid", "nan", "minus-inf", "off-axes", "metric-inf", "empty", "repeated-key"])
    def test_bad_metrics_exit_2_before_any_output(self, workspace, capsys, rows, message):
        code, out, err = self.run_lambda_sweep(workspace, capsys, rows)
        assert code == 2 and err.startswith("error:") and message in err
        assert out == "" and not list(workspace.glob("out*"))

    def test_select_without_metrics_exit_2_before_any_output(self, workspace, capsys):
        path = self.recipe(workspace, method="ties", **{"lambda": {"grid": [0.5, 1.0]}})
        code, out, err = run(capsys, "run", "--recipe", path, "--sweep", "--select")
        assert code == 2 and "--select requires --metrics" in err
        assert out == "" and not list(workspace.glob("out*"))

    def test_grids_without_sweep_exit_2_before_any_output(self, workspace, capsys):
        path = self.recipe(workspace, method="ties", **{"lambda": {"grid": [0.5, 1.0]}})
        code, out, err = run(capsys, "run", "--recipe", path)
        assert (code, out, err) == (2, "", "error: recipe contains sweep grids; pass --sweep\n")
        assert not list(workspace.glob("out*"))

    def test_metrics_without_select_exit_2_before_any_output(self, workspace, capsys):
        metrics = workspace / "m.csv"
        metrics.write_text("assignment,metric\nlambda=0.5,0.1\nlambda=1.0,0.3\n")
        path = self.recipe(workspace, method="ties", **{"lambda": {"grid": [0.5, 1.0]}})
        code, out, err = run(capsys, "run", "--recipe", path, "--sweep", "--metrics", metrics)
        assert code == 2 and "--metrics requires --select" in err
        assert out == "" and not list(workspace.glob("out*"))


REPORTS = Path(__file__).parent / "fixtures" / "cli_reports"


def _report_outputs(capsys) -> dict[str, str]:
    """The exact text each report command prints or writes, run in the
    current directory over small archives of multiples of 0.25, so every
    sum is exact in any order of addition."""
    base = {"b": [0.25, -0.5, 1.0, 0.0], "w": [[1.5, -0.75, 0.25], [0.0, 2.0, -1.25]]}
    vectors = [{"b": [0.5, -0.25, 0.0, 1.0], "w": [[0.25, 0.5, -1.0], [0.75, -0.25, 0.0]]},
               {"b": [-0.5, 0.75, 0.25, 0.5], "w": [[0.5, -0.25, -0.5], [1.0, 0.25, 2.0]]},
               {"b": [0.25, 0.25, -0.75, 0.0], "w": [[-1.0, 0.5, 0.25], [0.5, -0.5, 1.5]]}]
    save_archive(Checkpoint.from_arrays({k: np.array(v) for k, v in base.items()}, "F32"),
                 "base.st")
    for i, vec in enumerate(vectors):
        tv = TaskVector.from_arrays({k: np.array(v) for k, v in vec.items()})
        save_archive(tv.to_checkpoint(), f"tv{i}.st")
        if i == 0:
            ft = apply(read_archive("base.st"), tv)
            save_archive(ft, "ft.st")
    save_archive(Checkpoint.from_arrays({"b": np.full((2, 2), 0.75), "w": ft.values("w"),
                                         "x": np.ones(1)}, "F16"), "odd.st")
    blob = (b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
            b'"b":{"dtype":"F32","shape":[1],"data_offsets":[8,12]}}')
    Path("gaps.st").write_bytes(len(blob).to_bytes(8, "little") + blob + bytes(16))
    Path("recipe.json").write_text(json.dumps({
        "base": "base.st", "method": "ties", "density": 0.5, "output": "sweep.st",
        "lambda": {"grid": [0.5, 1.0]},
        "vectors": [{"source": f"tv{i}.st", "weight": 1.0} for i in range(3)]}))
    vector_args = [a for i in range(3) for a in ("--vector", f"tv{i}.st")]
    commands = {
        "inspect_valid": ["inspect", "base.st"],
        "inspect_invalid": ["inspect", "gaps.st"],
        "diff_text": ["diff", "base.st", "ft.st"],
        "diff_json": ["diff", "base.st", "odd.st", "--json"],
        "interference": ["interference", *vector_args, "--density", "0.5"],
        "merge_ties": ["merge", "ties", "--base", "base.st", *vector_args,
                       *["--weight", "1.0"] * 3, "--density", "0.5",
                       "--out", "ties.st", "--report", "report.json"],
        "run_sweep": ["run", "--recipe", "recipe.json", "--sweep"],
    }
    outputs = {}
    for label, argv in commands.items():
        main(argv)
        outputs[label] = capsys.readouterr().out
    outputs["merge_ties_report"] = Path("report.json").read_text()
    outputs["run_sweep"] = re.sub(r'"wall_time": [^,\n]+', '"wall_time": null',
                                  outputs["run_sweep"])
    return outputs


def test_report_text_matches_fixtures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = _report_outputs(capsys)
    assert sorted(outputs) == sorted(p.stem for p in REPORTS.iterdir())
    for label, text in outputs.items():
        assert text == (REPORTS / f"{label}.txt").read_text(), label


def test_cli_import_loads_no_schema_library():
    code = ("import sys, vecmerge.cli; "
            "print(sorted({'jsonschema', 'referencing', 'rpds', 'attrs'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_export_resolves():
    for module in ("vecmerge", "vecmerge.bench"):
        namespace = {}
        exec(f"from {module} import *", namespace)
        names = importlib.import_module(module).__all__
        assert len(set(names)) == len(names), module
        assert set(names) <= set(namespace), module


class TestBenchCommand:
    def test_single_scenario(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bench", "--scenario", "full_ft", "--seeds", "1",
                           "--epochs", "3", "--out", tmp_path / "report.json")
        assert code == 0 and "full_ft" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert "full_ft" in report["scenarios"]

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_an_error(self, tmp_path, capsys, seeds):
        code, out, err = run(capsys, "bench", "--scenario", "full_ft", "--seeds", seeds,
                             "--out", tmp_path / "report.json")
        assert code == 1 and out == ""
        assert err == "error: the bench needs at least one seed\n"
        assert not (tmp_path / "report.json").exists()

    def test_bench_has_no_threads_option(self, tmp_path, capsys):
        """The seeds' work holds the GIL, so the bench runs them in order
        and takes no --threads; argparse refuses it with exit 2."""
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "--scenario", "full_ft", "--seeds", "1", "--threads", "2",
                  "--out", str(tmp_path / "report.json")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["0", "-3", "two"])
@pytest.mark.parametrize("command", [
    "merge tv --base {w}/base.st --vector {w}/tv.st --weight 1.0 --out {w}/out.st",
    "merge ties --base {w}/base.st --vector {w}/tv.st --weight 1.0 --out {w}/out.st",
    "run --recipe {w}/recipe.json",
], ids=["merge-tv", "merge-ties", "run"])
def test_threads_must_be_a_positive_integer(workspace, capsys, command, value):
    (workspace / "recipe.json").write_text(json.dumps({
        "base": str(workspace / "base.st"), "method": "tv", "output": str(workspace / "out.st"),
        "vectors": [{"source": str(workspace / "tv.st"), "weight": 1.0}]}))
    with pytest.raises(SystemExit) as exit_:
        main([*command.format(w=workspace).split(), "--threads", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --threads: expected a positive integer, got '{value}'" in err
    assert not (workspace / "out.st").exists()


class TestTemplates:
    def test_shipped_templates_parse(self):
        import importlib.resources as res

        from vecmerge.recipes import parse_recipe
        root = res.files("vecmerge") / "templates"
        for name in ("labeled+unlabeled.json", "transfer-only.json"):
            recipe = parse_recipe((root / name).read_text())
            assert recipe.grids()  # templates leave the scale as a sweep
        note = json.loads((root / "labeled-only.json").read_text())
        assert note["regime"] == "labeled-only"


DISPATCH_GROUPS = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")

DISPATCH_RUN = """
import json, sys
from pathlib import Path
from vecmerge import cosine
from vecmerge.cli import main
from vecmerge.tv import load_task_vector

inputs = Path(sys.argv[1])  # outputs go to the working directory, named alike in each child


def vectors(kind):
    return [a for i in range(2) for a in ("--vector", str(inputs / f"{kind}{i}.st"))]


for dtype in ("F64", "F32", "F16", "BF16"):
    base = str(inputs / f"base_{dtype}.st")
    recipes = {  # TIES rejects a non-finite delta, so its vectors are finite
        "ties": {"method": "ties", "density": 0.3, "lambda": {"grid": [0.5, 1.0, 1.5]},
                 "vectors": [{"source": str(inputs / f"finite{i}.st"), "weight": 1.0}
                             for i in range(2)]},
        "tv": {"method": "tv", "vectors": [
            {"source": str(inputs / f"ft{i}_{dtype}.st"), "weight": {"grid": [0.5, -1.0]}}
            for i in range(2)]}}
    for method, recipe in recipes.items():
        recipe.update(base=base, output=f"sweep_{method}_{dtype}.st")
        Path("recipe.json").write_text(json.dumps(recipe))
        assert main(["run", "--recipe", "recipe.json", "--sweep"]) == 0
    assert main(["merge", "tv", "--base", base, *vectors("special"), "--weight", "0.5",
                 "--weight", "-0.25", "--out", f"tv_{dtype}.st"]) == 0
    assert main(["merge", "ties", "--base", base, *vectors("finite"), "--weight", "1.0",
                 "--weight", "0.5", "--density", "0.3",
                 "--out", f"ties_{dtype}.st"]) == 0
    assert main(["extract", "--base", base, "--finetuned", str(inputs / f"ft0_{dtype}.st"),
                 "--out", f"extract_{dtype}.st"]) == 0
tvs = [load_task_vector(inputs / f"finite{i}.st") for i in range(2)]
Path("cosine.hex").write_text(float.hex(cosine(*tvs)))
"""


def _special_values(rng, n: int, dtype: str, finite: bool = False) -> np.ndarray:
    """Normal values salted with subnormals of `dtype`, signed zeros and,
    unless `finite`, NaNs and infinities."""
    tiny = {"F64": 5e-324, "F32": 1e-45, "F16": 6e-8, "BF16": 1e-40}[dtype]
    values = rng.normal(size=n)
    specials = [tiny, -3 * tiny, 0.0, -0.0] + ([] if finite else [np.nan, -np.nan, np.inf, -np.inf])
    values[rng.choice(n, size=8 * len(specials), replace=False)] = np.tile(specials, 8)
    return values


def test_merge_bytes_on_every_cpu_dispatch(tmp_path):
    """extract, merge tv, merge ties and run --sweep (TIES over stored
    vectors, TV extracting from fine-tuned checkpoints) write the same
    bytes, and cosine gives the same float64, with numpy's AVX-512 and AVX2 loops disabled as with its default
    dispatch, over bases of every dtype holding NaN, +-inf and subnormals,
    and every NaN extract writes is the positive quiet NaN."""
    from numpy._core._multiarray_umath import __cpu_features__
    if not all(__cpu_features__.get(group) for group in DISPATCH_GROUPS):
        pytest.skip(f"needs a CPU with {', '.join(DISPATCH_GROUPS)}")
    rng = np.random.default_rng(10)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    sizes = {"w": (1 << 16) + 7, "b": 96}  # one tensor crosses a merge chunk
    for kind in ("finite", "special"):
        for i in range(2):
            arrays = {name: _special_values(rng, n, "F64", kind == "finite")
                      for name, n in sizes.items()}
            save_archive(TaskVector.from_arrays(arrays).to_checkpoint(), inputs / f"{kind}{i}.st")
    for dtype in ("F64", "F32", "F16", "BF16"):
        for stem in ("base", "ft0", "ft1"):
            arrays = {name: _special_values(rng, n, dtype) for name, n in sizes.items()}
            save_archive(Checkpoint.from_arrays(arrays, dtype), inputs / f"{stem}_{dtype}.st")
    digests = []
    for disabled in ("", " ".join(DISPATCH_GROUPS)):
        out = tmp_path / ("reduced" if disabled else "default")
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(vecmerge.__file__).parents[1]),
                   NPY_DISABLE_CPU_FEATURES=disabled)
        child = subprocess.run([sys.executable, "-c", DISPATCH_RUN, str(inputs)], cwd=out,
                               env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted([*out.glob("*.st"), out / "cosine.hex"])})
    assert len(digests[0]) == 4 * (3 + 4 + 3) + 1  # per dtype: 3 TIES and 4 TV sweep points, 3 more
    assert digests[0] == digests[1]
    for dtype in ("F64", "F32", "F16", "BF16"):
        bits = read_archive(out / f"extract_{dtype}.st").values("w").view(np.uint64)
        nan = np.isnan(bits.view(np.float64))
        assert nan.any() and (bits[nan] == 0x7FF8_0000_0000_0000).all(), dtype


@pytest.fixture(scope="module")
def hostile(tmp_path_factory):
    """Archives whose merges overflow, subtract inf from inf and carry
    NaNs, and recipes that sweep them."""
    root = tmp_path_factory.mktemp("hostile")
    big, inf, nan = 1e308, np.inf, np.nan
    base = {"a": [-big, inf, nan, 1.0, -inf, 0.5, 5e-324], "h": [6e4, -6e4, inf, nan, 1.0, 0.0],
            "z": [3e38, -3e38, inf, nan, 1.0, 0.0]}
    ft = {"a": [big, inf, 1.0, nan, -inf, -big, -0.0], "h": [-6e4, 6e4, inf, 1.0, nan, -0.0],
          "z": [-3e38, 3e38, -inf, 1.0, 2.0, nan]}
    dtypes = {"a": "F64", "h": "F16", "z": "BF16"}
    for stem, arrays in (("base", base), ("ft", ft)):
        save_archive(Checkpoint({n: Tensor(dtypes[n], narrow(np.array(v), dtypes[n]))
                                 for n, v in arrays.items()}), root / f"{stem}.st")
    special = [big, -big, inf, -inf, nan, 1e300, 2.0]
    finite = [1e300, -1e300, 3.0, -2.0, 1e-300, 0.0, -0.0]
    for i in range(2):
        for kind, values in (("special", special), ("finite", finite)):
            arrays = {n: np.roll(values, i)[:len(base[n])] * (-1) ** i for n in base}
            save_archive(TaskVector.from_arrays(arrays).to_checkpoint(), root / f"{kind}{i}.st")
    recipes = {
        "tv": {"method": "tv", "vectors": [
            {"source": str(root / "ft.st"), "weight": {"grid": [1.0, 3.0]}},
            {"source": str(root / "special0.st"), "weight": -2.0}]},
        "ties": {"method": "ties", "density": 0.5, "lambda": {"grid": [1.0, 1e10]}, "vectors": [
            {"source": str(root / f"finite{i}.st"), "weight": {"grid": [1.0, 1e10]}}
            for i in range(2)]}}
    huge = [big, -big, big, 2.0, -big, 1.0, big]  # finite, but their sums overflow
    for i in range(2):
        arrays = {n: np.roll(huge, i)[:len(base[n])] for n in base}
        save_archive(TaskVector.from_arrays(arrays).to_checkpoint(), root / f"huge{i}.st")
    recipes["ties_huge"] = {"method": "ties", "density": 0.5, "vectors": [
        {"source": str(root / f"huge{i}.st"), "weight": 1.0} for i in range(2)]}
    for method, recipe in recipes.items():
        recipe.update(base=str(root / "base.st"), output=str(root / f"sweep_{method}.st"))
        (root / f"{method}.json").write_text(json.dumps(recipe))
    return root


@pytest.mark.parametrize("command", [
    "extract --base {r}/base.st --finetuned {r}/ft.st --out {r}/tau.st",
    "merge tv --base {r}/base.st --vector {r}/special0.st --vector {r}/special1.st "
    "--weight 2.0 --weight 0.5 --threads 1 --out {r}/tv1.st",
    "merge tv --base {r}/base.st --vector {r}/special0.st --vector {r}/special1.st "
    "--weight 2.0 --weight 0.5 --threads 2 --out {r}/tv2.st",
    "merge ties --base {r}/base.st --vector {r}/finite0.st --vector {r}/finite1.st "
    "--weight 1e10 --weight 3e10 --density 0.5 --lambda 1e10 --threads 2 "
    "--report {r}/report.json --out {r}/ties.st",
    "run --recipe {r}/tv.json --sweep --threads 2",
    "run --recipe {r}/ties.json --sweep --threads 2",
])
def test_nonfinite_and_overflowing_inputs_print_no_runtime_warning(hostile, command):
    """Overflow, inf - inf and NaN are results the merges write, not
    errors: each command exits 0 with nothing on stderr even when every
    RuntimeWarning, in the pool threads too, is an error."""
    env = dict(os.environ, PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vecmerge.cli",
         *command.format(r=hostile).split()],
        env=env, capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")


def _no_nan(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("command", [
    "interference --vector {r}/huge0.st --vector {r}/huge1.st --density 0.5 --json",
    "cosine {r}/huge0.st {r}/huge1.st",
    "run --recipe {r}/ties_huge.json",
])
def test_reports_on_vectors_whose_sums_overflow(hostile, command):
    """Sums of |delta| and dot products past the float64 limit are
    rescaled, not warned about: the reports are strict JSON, each
    trimmed-mass fraction lies in [0, 1] and the cosine in [-1, 1]."""
    env = dict(os.environ, PYTHONPATH=str(Path(vecmerge.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vecmerge.cli",
         *command.format(r=hostile).split()],
        env=env, capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    out = json.loads(child.stdout, parse_constant=_no_nan)
    if command.startswith("cosine"):
        assert -1.0 <= out <= 1.0
        return
    report = out if command.startswith("interference") else out["outcomes"][0]["report"]
    fractions = [*report["global"]["trimmed_mass"],
                 *(m for t in report["per_tensor"].values() for m in t["trimmed_mass"])]
    assert fractions and all(0.0 <= m <= 1.0 for m in fractions)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diff_of_finite_archives_whose_squares_overflow(tmp_path, capsys):
    """The L2 norms are rescaled, not warned about, and the JSON is strict."""
    save_archive(Checkpoint.from_arrays({"w": [1e200, 3.0]}), tmp_path / "a.st")
    save_archive(Checkpoint.from_arrays({"w": [0.0, 3.0]}), tmp_path / "b.st")
    code, out, err = run(capsys, "diff", tmp_path / "a.st", tmp_path / "b.st", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=_no_nan)
    assert report["global"]["l2_norm"] == report["per_tensor"]["w"]["l2_norm"] == 1e200
    code, out, err = run(capsys, "diff", tmp_path / "a.st", tmp_path / "b.st")
    assert (code, err) == (0, "") and "global L2 norm:   1e+200\n" in out


@pytest.mark.parametrize("dtype, a, b, text", [
    ("F64", [1e308, -1e308], [-1e308, 1e308], "inf"),
    ("F32", [np.nan, 1.0], [np.nan, 2.0], "nan"),
], ids=["inf", "nan"])
def test_diff_json_writes_non_finite_numbers_as_null(tmp_path, capsys, dtype, a, b, text):
    """A NaN or ±inf delta statistic is null in strict JSON; the global
    max |d| keeps a tensor's NaN. The text form prints it as it is."""
    save_archive(Checkpoint.from_arrays({"w": a}, dtype), tmp_path / "a.st")
    save_archive(Checkpoint.from_arrays({"w": b}, dtype), tmp_path / "b.st")
    code, out, err = run(capsys, "diff", tmp_path / "a.st", tmp_path / "b.st", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=_no_nan)
    for stats in (report["global"], report["per_tensor"]["w"]):
        assert (stats["l2_norm"], stats["max_abs"]) == (None, None)
    code, out, err = run(capsys, "diff", tmp_path / "a.st", tmp_path / "b.st")
    assert (code, err) == (0, "")
    assert f"global L2 norm:   {text}\n" in out and f"global max |d|:   {text}\n" in out
