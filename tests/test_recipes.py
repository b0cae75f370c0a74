import json

import numpy as np
import pytest

from vecmerge import (Checkpoint, MetricsTable, RecipeError, execute_recipe,
                      expand_sweep, extract_task_vector, parse_recipe,
                      read_archive, save_archive, select_best, tv_merge,
                      write_archive, TaskVector, apply)
from vecmerge.recipes import DEFAULT_GRID


def minimal(**overrides):
    doc = {"base": "b.st", "method": "tv",
           "vectors": [{"source": "t.st", "weight": 0.5}], "output": "o.st"}
    doc.update(overrides)
    return json.dumps(doc)


class TestParseRecipe:
    def test_minimal_tv(self):
        recipe = parse_recipe(minimal())
        assert recipe.method == "tv"
        assert recipe.vectors == [{"source": "t.st", "weight": 0.5}]
        assert recipe.mismatch == "error"
        assert recipe.dtype == "keep"

    def test_ties_defaults(self):
        recipe = parse_recipe(minimal(method="ties"))
        assert recipe.density == 0.2
        assert recipe.lam == 1.0

    def test_grid_weight(self):
        recipe = parse_recipe(minimal(
            vectors=[{"source": "t.st", "weight": {"grid": [0.1, 0.2]}}]))
        assert recipe.grids() == [("w0", [0.1, 0.2])]

    def test_default_grid_token(self):
        recipe = parse_recipe(minimal(
            vectors=[{"source": "t.st", "weight": {"grid": "default"}}]))
        assert recipe.grids() == [("w0", DEFAULT_GRID)]
        assert DEFAULT_GRID == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(RecipeError, match=r"\$"):
            parse_recipe(minimal(bogus=1))

    def test_unknown_method(self):
        with pytest.raises(RecipeError, match="method"):
            parse_recipe(minimal(method="average"))

    def test_empty_vectors(self):
        with pytest.raises(RecipeError, match="vectors"):
            parse_recipe(minimal(vectors=[]))

    def test_ties_fields_require_ties(self):
        with pytest.raises(RecipeError, match="density"):
            parse_recipe(minimal(density=0.5))

    def test_invalid_json(self):
        with pytest.raises(RecipeError, match="invalid JSON"):
            parse_recipe("{nope")


class TestExpandSweep:
    def test_product_size(self):
        recipe = parse_recipe(minimal(
            vectors=[{"source": "a.st", "weight": {"grid": [0.1, 0.2]}},
                     {"source": "b.st", "weight": {"grid": [0.5]}}]))
        out = expand_sweep(recipe)
        assert len(out) == 2
        assert [r.output for r in out] == ["o_w0=0.1_w1=0.5.st", "o_w0=0.2_w1=0.5.st"]
        assert all(not r.grids() for r in out)

    def test_no_grids_identity(self):
        recipe = parse_recipe(minimal())
        assert expand_sweep(recipe) == [recipe]

    def test_lexicographic_order(self):
        recipe = parse_recipe(minimal(
            vectors=[{"source": "a.st", "weight": {"grid": [1.0, 2.0]}},
                     {"source": "b.st", "weight": {"grid": [0.1, 0.2]}}]))
        weights = [(r.vectors[0]["weight"], r.vectors[1]["weight"])
                   for r in expand_sweep(recipe)]
        assert weights == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]

    def test_ties_lambda_grid(self):
        recipe = parse_recipe(minimal(method="ties", **{"lambda": {"grid": [0.5, 1.0]}}))
        out = expand_sweep(recipe)
        assert [r.lam for r in out] == [0.5, 1.0]
        assert out[0].output == "o_lambda=0.5.st"

    @pytest.mark.parametrize("grid", [[0.1234567, 0.1234568], [0.5, 0.5]])
    def test_colliding_outputs_rejected(self, grid):
        recipe = parse_recipe(minimal(method="ties", **{"lambda": {"grid": grid}}))
        with pytest.raises(RecipeError, match="both write 'o_lambda="):
            expand_sweep(recipe)

    def test_cap(self):
        recipe = parse_recipe(minimal(
            vectors=[{"source": "a.st", "weight": {"grid": list(np.linspace(0, 1, 40))}},
                     {"source": "b.st", "weight": {"grid": list(np.linspace(0, 1, 40))}}]))
        with pytest.raises(RecipeError, match="cap"):
            expand_sweep(recipe)

    def test_grid_sizes_10_by_3(self):
        recipe = parse_recipe(minimal(
            vectors=[{"source": "a.st", "weight": {"grid": "default"}},
                     {"source": "b.st", "weight": {"grid": [0.1, 0.5, 1.0]}}]))
        assert len(expand_sweep(recipe)) == 30


class TestSelectBest:
    def test_argmax_with_tie_rule(self):
        table = MetricsTable(rows=[({"lambda": 0.2}, 0.61),
                                   ({"lambda": 0.4}, 0.63),
                                   ({"lambda": 0.6}, 0.63)])
        assert select_best(table) == {"lambda": 0.4}

    def test_single_row(self):
        assert select_best(MetricsTable(rows=[({"lambda": 0.7}, 0.5)])) == {"lambda": 0.7}

    def test_all_equal_takes_smallest(self):
        table = MetricsTable(rows=[({"lambda": v}, 0.5) for v in DEFAULT_GRID])
        assert select_best(table) == {"lambda": 0.1}

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        rows = [({"a": float(i), "b": float(j)}, float(rng.integers(0, 5)) / 10)
                for i in range(4) for j in range(4)]
        table = MetricsTable(rows=rows)
        want = select_best(table)
        for _ in range(10):
            rng.shuffle(rows)
            assert select_best(MetricsTable(rows=list(rows))) == want

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            select_best(MetricsTable())

    def test_csv_parsing(self):
        table = MetricsTable.from_csv(
            "assignment,metric\nlambda=0.2,0.61\nlambda=0.4;w0=1,0.63\n")
        assert table.rows == [({"lambda": 0.2}, 0.61), ({"lambda": 0.4, "w0": 1.0}, 0.63)]

    def test_csv_bad_header(self):
        with pytest.raises(RecipeError, match="header"):
            MetricsTable.from_csv("a,b\n1,2\n")


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(42)
    base = Checkpoint.from_arrays({"w": rng.normal(size=8), "b": rng.normal(size=3)}, "F32")
    tv = TaskVector.from_arrays({"w": rng.normal(size=8), "b": rng.normal(size=3)})
    save_archive(base, tmp_path / "base.st")
    save_archive(tv.to_checkpoint(), tmp_path / "tv.st")
    ft = apply(base, tv)
    save_archive(ft, tmp_path / "ft.st")
    return tmp_path, base, tv, ft


class TestExecuteRecipe:
    def recipe_doc(self, ws, weight, method="tv", **extra):
        doc = {"base": str(ws / "base.st"), "method": method,
               "vectors": [{"source": str(ws / "tv.st"), "weight": weight}],
               "output": str(ws / "out.st")}
        doc.update(extra)
        return parse_recipe(json.dumps(doc))

    def test_lambda_zero_reproduces_base(self, workspace):
        ws, base, _, _ = workspace
        outcome = execute_recipe(self.recipe_doc(ws, 0.0))
        out = read_archive(outcome.output)
        for name in base.names():
            np.testing.assert_array_equal(out.values(name), base.values(name))

    def test_inversion_against_finetuned_source(self, workspace):
        ws, base, _, ft = workspace
        doc = {"base": str(ws / "base.st"), "method": "tv",
               "vectors": [{"source": str(ws / "ft.st"), "weight": 1.0}],
               "output": str(ws / "out.st")}
        execute_recipe(parse_recipe(json.dumps(doc)))
        out = read_archive(ws / "out.st")
        for name in ft.names():
            got = out.values(name).astype(np.float64)
            want = ft.values(name).astype(np.float64)
            denom = np.where(want == 0.0, 1.0, np.abs(want))
            assert np.max(np.abs(got - want) / denom) <= 1e-6

    def test_ties_hand_case(self, tmp_path):
        base = Checkpoint.from_arrays({"w": [0.0, 0.0, 0.0, 0.0]})
        save_archive(base, tmp_path / "base.st")
        for i, vals in enumerate([[1.0, -2.0, 0.5, 0.0], [2.0, 1.0, -0.4, 0.3]]):
            save_archive(TaskVector.from_arrays({"w": vals}).to_checkpoint(),
                         tmp_path / f"t{i}.st")
        doc = {"base": str(tmp_path / "base.st"), "method": "ties",
               "vectors": [{"source": str(tmp_path / "t0.st"), "weight": 1.0},
                           {"source": str(tmp_path / "t1.st"), "weight": 1.0}],
               "density": 0.5, "lambda": 1.0,
               "output": str(tmp_path / "out.st")}
        outcome = execute_recipe(parse_recipe(json.dumps(doc)))
        np.testing.assert_array_equal(
            read_archive(outcome.output).values("w"), [1.5, -2.0, 0.0, 0.0])
        assert outcome.report is not None

    def test_deterministic_output_bytes(self, workspace):
        ws, *_ = workspace
        recipe = self.recipe_doc(ws, 0.3)
        execute_recipe(recipe)
        first = (ws / "out.st").read_bytes()
        execute_recipe(recipe)
        assert (ws / "out.st").read_bytes() == first

    def test_metadata_round_trip(self, workspace):
        ws, *_ = workspace
        recipe = self.recipe_doc(ws, 0.3)
        execute_recipe(recipe)
        meta = read_archive(ws / "out.st").metadata
        again = parse_recipe(meta["vecmerge.recipe"])
        assert again.to_dict() == recipe.to_dict()

    def test_rejects_unexpanded_grids(self, workspace):
        ws, *_ = workspace
        with pytest.raises(RecipeError, match="expand_sweep"):
            execute_recipe(self.recipe_doc(ws, {"grid": [0.1, 0.2]}))

    def test_no_partial_output_on_failure(self, workspace):
        ws, *_ = workspace
        doc = {"base": str(ws / "base.st"), "method": "tv",
               "vectors": [{"source": str(ws / "missing.st"), "weight": 1.0}],
               "output": str(ws / "never.st")}
        with pytest.raises(OSError):
            execute_recipe(parse_recipe(json.dumps(doc)))
        assert not (ws / "never.st").exists()
