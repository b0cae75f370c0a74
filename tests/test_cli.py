import json

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
