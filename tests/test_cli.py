import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vecmerge import Checkpoint, TaskVector, apply, read_archive, save_archive
from vecmerge.cli import main


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

    def test_merge_rejects_non_task_vector(self, workspace, capsys):
        code, _, err = run(capsys, "merge", "tv", "--base", workspace / "base.st",
                           "--vector", workspace / "ft.st", "--weight", "1.0",
                           "--out", workspace / "merged.st")
        assert code == 1 and "not a stored task vector" in err


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
    ], ids=["off-grid", "nan", "minus-inf", "off-axes", "metric-inf", "empty"])
    def test_bad_metrics_exit_2_before_any_output(self, workspace, capsys, rows, message):
        code, out, err = self.run_lambda_sweep(workspace, capsys, rows)
        assert code == 2 and err.startswith("error:") and message in err
        assert out == "" and not list(workspace.glob("out*"))

    def test_select_without_metrics_exit_2_before_any_output(self, workspace, capsys):
        path = self.recipe(workspace, method="ties", **{"lambda": {"grid": [0.5, 1.0]}})
        code, out, err = run(capsys, "run", "--recipe", path, "--sweep", "--select")
        assert code == 2 and "--select requires --metrics" in err
        assert out == "" and not list(workspace.glob("out*"))

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


class TestBenchCommand:
    def test_single_scenario(self, tmp_path, capsys):
        code, out, _ = run(capsys, "bench", "--scenario", "full_ft", "--seeds", "1",
                           "--epochs", "3", "--out", tmp_path / "report.json")
        assert code == 0 and "full_ft" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert "full_ft" in report["scenarios"]


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
