import contextlib
import copy
import io
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from vecmerge import (Checkpoint, RecipeError, execute_recipe,
                      expand_sweep, extract_task_vector, parse_recipe,
                      read_archive, read_metrics, save_archive, select_best, tv_merge,
                      write_archive, TaskVector, Tensor, apply)
from vecmerge.cli import main
from vecmerge.dtypes import narrow
from vecmerge.recipes import DEFAULT_GRID

from helpers import (DTYPES, naive_ties_vector, reference_extract,
                     reference_interference_stats, reference_parse_recipe,
                     reference_schema_paths, reference_tv_merge_bits)


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

    def test_source_not_a_string(self):
        with pytest.raises(RecipeError) as err:
            parse_recipe(minimal(vectors=[{"source": 3, "weight": 0.5}]))
        assert str(err.value) == "schema violation at $.vectors[0].source: 3 is not a string"


# --- the hand-written validator against the jsonschema reference it replaced ---

FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 64, 2 ** 64))
POSITIVE = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     st.integers(1, 2 ** 64))
# mutations edit documents in place, so every drawn container is a fresh copy
NOT_NUMBERS = st.sampled_from([True, False, "1", "0.5", None, [1.0], {}]).map(copy.deepcopy)
NOT_OBJECTS = st.sampled_from([[], ["base"], "recipe", 1, 0.5, None, True]).map(copy.deepcopy)
MUTATIONS = ["drop", "unknown", "not_number", "not_string", "enum", "empty_vectors",
             "empty_grid", "grid_token", "density", "ties_key", "vector_item", "top_level"]


def weights(numbers):
    return st.one_of(numbers,
                     st.fixed_dictionaries({"grid": st.lists(numbers, min_size=1, max_size=3)}),
                     st.builds(dict, grid=st.just("default")))


@st.composite
def valid_recipes(draw):
    """Recipes both validators accept: finite numbers, TIES weights positive."""
    ties = draw(st.booleans())
    vector = st.fixed_dictionaries({"source": st.text(max_size=3),
                                    "weight": weights(POSITIVE if ties else FINITE)})
    optional = {"mismatch": st.sampled_from(["error", "ignore", "copy_from_finetuned"]),
                "dtype": st.sampled_from(["keep", "F32", "F64", "F16", "BF16"])}
    if ties:
        optional["density"] = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1))
        optional["lambda"] = weights(FINITE)
    return draw(st.fixed_dictionaries(
        {"base": st.text(max_size=3), "method": st.just("ties" if ties else "tv"),
         "vectors": st.lists(vector, min_size=1, max_size=3), "output": st.text(max_size=3)},
        optional=optional))


def number_slots(holders):
    """(container, key) of every number held at `holders`, grid entries included."""
    slots = []
    for parent, key in holders:
        value = parent[key]
        if not isinstance(value, dict):
            slots.append((parent, key))
        elif value["grid"] != "default":
            slots += [(value["grid"], j) for j in range(len(value["grid"]))]
    return slots


def weight_slots(doc):
    return number_slots([(vec, "weight") for vec in doc["vectors"]])


def all_number_slots(doc):
    return weight_slots(doc) + number_slots([(doc, k) for k in ("density", "lambda") if k in doc])


@st.composite
def mutated_recipes(draw):
    """A valid recipe with up to two mutations applied."""
    doc = draw(valid_recipes())
    slots = all_number_slots(doc)
    n = draw(st.sampled_from([0, 1, 1, 2]))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=n, max_size=n)):
        vectors = doc.get("vectors")
        items = [v for v in vectors if isinstance(v, dict)] if isinstance(vectors, list) else []
        if kind in ("drop", "unknown"):
            grids = [v["weight"] for v in items if isinstance(v.get("weight"), dict)]
            target = draw(st.sampled_from([doc] + items + grids))
            if kind == "drop" and target:
                del target[draw(st.sampled_from(sorted(target)))]
            elif kind == "unknown":
                target[draw(st.text(max_size=3).filter(lambda k: k not in target))] = 1.0
        elif kind == "not_number" and slots:
            parent, key = draw(st.sampled_from(slots))
            parent[key] = draw(NOT_NUMBERS)
        elif kind == "not_string":
            doc[draw(st.sampled_from(["base", "output", "method"]))] = draw(NOT_NUMBERS)
        elif kind == "enum":
            doc[draw(st.sampled_from(["method", "mismatch", "dtype"]))] = draw(
                st.sampled_from(["average", "I8", "", "TV", True, 1]))
        elif kind == "empty_vectors":
            doc["vectors"] = []
        elif kind in ("empty_grid", "grid_token") and items:
            grid = [] if kind == "empty_grid" else draw(
                st.sampled_from(["Default", "defaults", "", "default ", None]))
            draw(st.sampled_from(items))["weight"] = {"grid": grid}
        elif kind == "density":
            doc["density"] = draw(st.sampled_from([0, 0.0, 1, 1.0, math.nextafter(1.0, 2.0)]))
        elif kind == "ties_key":  # valid values, which only a TIES recipe may carry
            doc[draw(st.sampled_from(["density", "lambda"]))] = draw(
                st.sampled_from([0.5, 1, {"grid": [0.5]}]).map(copy.deepcopy))
        elif kind == "vector_item" and isinstance(vectors, list) and vectors:
            vectors[draw(st.integers(0, len(vectors) - 1))] = draw(NOT_OBJECTS)
        elif kind == "top_level":
            return draw(NOT_OBJECTS)
    return doc


def parse_outcome(parse, text):
    try:
        return parse(text), None
    except RecipeError as exc:
        return None, str(exc)


class TestValidatorMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(doc=mutated_recipes())
    def test_same_verdict_recipe_and_error_path(self, doc):
        text = json.dumps(doc)
        old, old_error = parse_outcome(reference_parse_recipe, text)
        new, new_error = parse_outcome(parse_recipe, text)
        assert (new_error is None) == (old_error is None), (new_error, old_error)
        if new_error is None:
            assert new == old and repr(new) == repr(old)  # repr tells 1 from 1.0
            return
        path = re.fullmatch(r"schema violation at (\$\S*): .+", new_error, re.S).group(1)
        if old_error.startswith("schema violation"):
            assert path in reference_schema_paths(doc), (new_error, old_error)
        else:  # the reference's ties-only post-check, which jsonschema passes
            assert path[2:] in old_error.split(" ")[0].split("/"), (new_error, old_error)

    @settings(max_examples=500, deadline=None)
    @given(doc=valid_recipes(), data=st.data())
    def test_numbers_the_merge_rejects_are_rejected(self, doc, data):
        ties_weights = weight_slots(doc) if doc["method"] == "ties" else []
        if ties_weights and data.draw(st.booleans()):
            slots, bad = ties_weights, st.one_of(st.floats(max_value=0.0), st.integers(max_value=0))
        else:
            slots, bad = all_number_slots(doc), st.sampled_from(
                [math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)])
        assume(slots)
        parent, key = data.draw(st.sampled_from(slots))
        parent[key] = data.draw(bad)
        with pytest.raises(RecipeError, match=r"^schema violation at \$"):
            parse_recipe(json.dumps(doc))


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
        rows = [({"lambda": 0.2}, 0.61), ({"lambda": 0.4}, 0.63), ({"lambda": 0.6}, 0.63)]
        assert select_best(rows) == {"lambda": 0.4}

    def test_single_row(self):
        assert select_best([({"lambda": 0.7}, 0.5)]) == {"lambda": 0.7}

    def test_all_equal_takes_smallest(self):
        assert select_best([({"lambda": v}, 0.5) for v in DEFAULT_GRID]) == {"lambda": 0.1}

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        rows = [({"a": float(i), "b": float(j)}, float(rng.integers(0, 5)) / 10)
                for i in range(4) for j in range(4)]
        want = select_best(rows)
        for _ in range(10):
            rng.shuffle(rows)
            assert select_best(rows) == want

    def test_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            select_best([])

    def test_csv_parsing(self):
        rows = read_metrics("assignment,metric\nlambda=0.2,0.61\nlambda=0.4;w0=1,0.63\n", {})
        assert rows == [({"lambda": 0.2}, 0.61), ({"lambda": 0.4, "w0": 1.0}, 0.63)]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_csv_rejects_non_finite_assignment_value(self, value):
        with pytest.raises(RecipeError, match="non-finite assignment"):
            read_metrics(f"assignment,metric\nlambda=0.5,0.1\nlambda={value},0.9\n", {})

    def test_csv_rejects_repeated_key(self):
        with pytest.raises(RecipeError, match="repeated key 'w0'"):
            read_metrics("assignment,metric\nw0=0.1;w0=0.9,5\n", {"w0": [0.1, 0.9]})

    def test_csv_skips_blank_rows_and_empty_parts(self):
        rows = read_metrics("assignment,metric\n\nlambda=0.2;;w0=1,0.5\n\n", {})
        assert rows == [({"lambda": 0.2, "w0": 1.0}, 0.5)]

    @pytest.mark.parametrize("row, message", [
        ("lambda=0.2,0.5,1", "bad metrics row: ['lambda=0.2', '0.5', '1']"),
        ("lambda=0.2;w0,0.5", "bad assignment 'lambda=0.2;w0'"),
        ("lambda=0.2;w0=,0.5", "bad assignment 'lambda=0.2;w0='"),
    ], ids=["three-columns", "key-without-value", "empty-value"])
    def test_csv_rejects_malformed_rows(self, row, message):
        with pytest.raises(RecipeError) as err:
            read_metrics(f"assignment,metric\n{row}\n", {})
        assert str(err.value) == message

    def test_csv_bad_header(self):
        with pytest.raises(RecipeError, match="header"):
            read_metrics("a,b\n1,2\n", {})


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
        out = read_archive(outcome["output"])
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
            read_archive(outcome["output"]).values("w"), [1.5, -2.0, 0.0, 0.0])
        assert outcome["report"] is not None

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

    def test_metadata_text(self, workspace):
        """The exact `vecmerge.recipe` string `run` writes: defaults filled
        in, TIES-only keys only for TIES, and a swept point's grid replaced
        by the point's value while an int weight stays an int."""
        ws, *_ = workspace
        path = {name: json.dumps(str(ws / name)) for name in
                ("base.st", "tv.st", "out.st", "out_w1=0.25.st", "out_lambda=0.5.st")}
        vec = '{"source":%s,"weight":%s}'

        def text_of(recipe):
            execute_recipe(recipe)
            return read_archive(recipe.output).metadata["vecmerge.recipe"]

        assert text_of(self.recipe_doc(ws, 0.3)) == (
            '{"base":%s,"dtype":"keep","method":"tv","mismatch":"error","output":%s,'
            '"vectors":[%s]}' % (path["base.st"], path["out.st"], vec % (path["tv.st"], "0.3")))

        assert text_of(self.recipe_doc(ws, 2, method="ties", dtype="F64")) == (
            '{"base":%s,"density":0.2,"dtype":"F64","lambda":1.0,"method":"ties",'
            '"mismatch":"error","output":%s,"vectors":[%s]}'
            % (path["base.st"], path["out.st"], vec % (path["tv.st"], "2")))

        swept = self.recipe_doc(ws, 1)
        swept.vectors.append({"source": str(ws / "tv.st"), "weight": {"grid": [0.25, 0.5]}})
        assert text_of(expand_sweep(swept)[0]) == (
            '{"base":%s,"dtype":"keep","method":"tv","mismatch":"error","output":%s,'
            '"vectors":[%s,%s]}' % (path["base.st"], path["out_w1=0.25.st"],
                                    vec % (path["tv.st"], "1"), vec % (path["tv.st"], "0.25")))

        ties_swept = self.recipe_doc(ws, 1, method="ties", density=1, **{"lambda": {"grid": [0.5]}})
        assert text_of(expand_sweep(ties_swept)[0]) == (
            '{"base":%s,"density":1,"dtype":"keep","lambda":0.5,"method":"ties",'
            '"mismatch":"error","output":%s,"vectors":[%s]}'
            % (path["base.st"], path["out_lambda=0.5.st"], vec % (path["tv.st"], "1")))

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


class TestSweepOracle:
    """`run --sweep` against references built outside the engine: every
    output archive, its recipe metadata and every interference report."""

    SHAPES = [(), (0,), (1,), (5,), (3, 4)]
    GRIDS = {"tv": [0.5, -1.0, 1.0, 2.0, -0.75], "ties": [0.5, 1.0, 2.0, 0.25, 3.0]}

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_point_matches_the_references(self, data):
        draw = data.draw
        method = draw(st.sampled_from(["tv", "ties"]), label="method")
        policy = draw(st.sampled_from(["error", "ignore", "copy_from_finetuned"]), label="policy")
        specials = [0.0, -0.0, 5e-324, -1e-40, 6e4]
        # TIES rejects non-finite deltas, so they are rare there: most points should merge
        if draw(st.sampled_from([True, False] if method == "tv" else [False] * 4 + [True]),
                label="non-finite inputs"):
            specials += [np.inf, -np.inf, np.nan]
        values = st.one_of(st.sampled_from(specials), st.floats(-1e4, 1e4, width=32))

        def tensor(shape, dtype):
            flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
            with np.errstate(over="ignore"):
                return Tensor(dtype, narrow(np.array(flat, dtype=np.float64).reshape(shape), dtype))

        base = Checkpoint({f"t{i}": tensor(draw(st.sampled_from(self.SHAPES)),
                                           draw(st.sampled_from(DTYPES)))
                           for i in range(draw(st.integers(1, 4)))})
        sources, vectors = [], []  # archives to write; (deltas, extras) or None if rejected
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans(), label="stored task vector"):
                names = draw(st.lists(st.sampled_from(base.names()), min_size=1, unique=True))
                deltas = {n: tensor(base[n].shape, "F64").data for n in names}
                sources.append(TaskVector.from_arrays(deltas).to_checkpoint())
                vectors.append((deltas, {}))
                continue
            ft = Checkpoint()
            for name in base.names():
                fate = draw(st.sampled_from(["kept"] * 6 + ["dropped", "reshaped"]))
                if fate != "dropped":
                    shape = base[name].shape if fate == "kept" else (7,)
                    ft.tensors[name] = tensor(shape, draw(st.sampled_from(DTYPES)))
            if draw(st.sampled_from([False] * 3 + [True]), label="fine-tuned-only head"):
                ft.tensors["zz.head"] = tensor((2,), draw(st.sampled_from(DTYPES)))
            sources.append(ft)
            deltas = reference_extract(base, ft)
            mismatched = [n for n in {*base.names(), *ft.names()} if n not in deltas]
            if not deltas or (mismatched and policy == "error"):
                vectors.append(None)
            elif policy == "copy_from_finetuned":
                vectors.append((deltas, {n: ft[n] for n in mismatched if n in ft}))
            else:
                vectors.append((deltas, {}))

        def weight(grid):
            if draw(st.booleans(), label="grid"):
                return {"grid": draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3,
                                              unique=True))}
            return draw(st.sampled_from(grid))

        doc = {"method": method, "mismatch": policy,
               "vectors": [{"weight": weight(self.GRIDS[method])} for _ in sources]}
        if method == "ties":
            doc["density"] = draw(st.sampled_from([0.2, 0.5, 1.0]))
            doc["lambda"] = weight([0.5, 1.0, -1.5])
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save_archive(base, root / "base.st")
            for i, (src, vec) in enumerate(zip(sources, doc["vectors"])):
                save_archive(src, root / f"src{i}.st")
                vec["source"] = str(root / f"src{i}.st")
            doc.update(base=str(root / "base.st"), output=str(root / "out" / "merged.st"))
            (root / "recipe.json").write_text(json.dumps(doc))
            for threads in (1, 2):
                (root / "out").mkdir()
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(["run", "--recipe", str(root / "recipe.json"), "--sweep",
                                 "--threads", str(threads)])
                written = sorted(p.name for p in (root / "out").iterdir())
                self.check(doc, base, vectors, code, stdout.getvalue(), stderr.getvalue(),
                           written)
                for p in (root / "out").iterdir():
                    p.unlink()
                (root / "out").rmdir()

    def check(self, doc, base, vectors, code, stdout, stderr, written):
        deltas = [vec[0] for vec in vectors if vec is not None]
        if None in vectors or (doc["method"] == "ties" and not all(
                np.isfinite(d).all() for vec in deltas for d in vec.values())):
            assert (code, written) == (3, [])  # TIES rejects non-finite deltas
            event("exit 3")
            return
        assert (code, stderr) == (0, "")
        event(f"{doc['method']} exit 0, {len(written)} points, policy {doc['mismatch']}")
        axes = [(f"w{i}", vec["weight"]["grid"]) for i, vec in enumerate(doc["vectors"])
                if isinstance(vec["weight"], dict)]
        if isinstance(doc.get("lambda"), dict):
            axes.append(("lambda", doc["lambda"]["grid"]))
        outcomes = json.loads(stdout)["outcomes"]
        points = list(itertools.product(*(grid for _, grid in axes)))
        assert len(outcomes) == len(points) == len(written)
        for outcome, point in zip(outcomes, points):
            at = dict(zip((name for name, _ in axes), point))
            point_doc = dict(doc, vectors=[dict(vec, weight=at.get(f"w{i}", vec["weight"]))
                                           for i, vec in enumerate(doc["vectors"])])
            point_doc["output"] = doc["output"].replace(
                "merged.st", "merged" + "".join(f"_{k}={v:g}" for k, v in at.items()) + ".st")
            if "lambda" in doc:
                point_doc["lambda"] = at.get("lambda", doc["lambda"])
            weights = [vec["weight"] for vec in point_doc["vectors"]]
            out = read_archive(point_doc["output"])
            assert outcome["output"] == point_doc["output"]
            assert out.metadata == {"vecmerge.recipe": json.dumps(
                dict(point_doc, dtype="keep"), sort_keys=True, separators=(",", ":"))}
            want = {}
            for name in base.names():
                terms = [(d[name], w) for d, w in zip(deltas, weights) if name in d]
                if not terms:
                    want[name] = base[name]
                    continue
                if doc["method"] == "ties":
                    merged, _ = naive_ties_vector([list(d.reshape(-1)) for d, _ in terms],
                                                  [w for _, w in terms], doc["density"])
                    terms = [(np.array(merged), point_doc["lambda"])]
                with np.errstate(over="ignore", invalid="ignore"):  # results, as in the merge
                    bits = reference_tv_merge_bits(base.values(name), base[name].dtype, terms)
                want[name] = Tensor(base[name].dtype, np.frombuffer(
                    bits, base[name].data.dtype).reshape(base[name].shape))
            for _, extras in filter(None, vectors):
                for name, t in extras.items():
                    want.setdefault(name, t)
            assert out.names() == sorted(want)
            for name, t in want.items():
                assert (out[name].dtype, out[name].shape) == (t.dtype, t.shape)
                assert out[name].data.tobytes() == t.data.tobytes(), (point_doc["output"], name)
            if doc["method"] == "ties":
                report = reference_interference_stats(
                    [TaskVector.from_arrays(d) for d in deltas], doc["density"])
                assert json.dumps(outcome["report"], sort_keys=True) == json.dumps(
                    report, sort_keys=True)
            else:
                assert outcome["report"] is None
