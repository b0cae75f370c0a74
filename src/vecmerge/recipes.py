"""Declarative merge recipes, sweep expansion, and metric-driven selection.

A recipe is a JSON document naming a base archive, a merge method, and
weighted vector sources. A weight may be a number or a grid; grids
expand into a Cartesian product of concrete recipes whose best member is
picked from an externally produced metrics table (the engine never
evaluates models itself for real checkpoints).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass

from . import ties as ties_mod
from . import tv as tv_mod
from .dtypes import DTYPE_SIZES
from .reports import interference_stats
from .tensor_store import read_archive, save_archive

DEFAULT_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
SWEEP_CAP = 1000

class RecipeError(ValueError):
    """Invalid recipe document."""


@dataclass
class MergeRecipe:
    base: str
    method: str
    vectors: list[dict]                  # {source, weight: float | {"grid": [...]}}
    output: str
    density: float = ties_mod.DEFAULT_DENSITY
    lam: float | dict = ties_mod.DEFAULT_LAMBDA
    mismatch: str = "error"
    dtype: str = "keep"

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["lambda"] = doc.pop("lam")
        if self.method != "ties":
            del doc["density"], doc["lambda"]
        return doc

    def grids(self) -> list[tuple[str, list[float]]]:
        """Sweep axes in deterministic order: w0, w1, ..., then lambda."""
        axes = []
        for i, vec in enumerate(self.vectors):
            w = vec["weight"]
            if isinstance(w, dict):
                axes.append((f"w{i}", _resolve_grid(w)))
        if self.method == "ties" and isinstance(self.lam, dict):
            axes.append(("lambda", _resolve_grid(self.lam)))
        return axes


def _resolve_grid(spec: dict) -> list[float]:
    grid = spec["grid"]
    if grid == "default":
        return list(DEFAULT_GRID)
    return [float(g) for g in grid]


_REQUIRED = ("base", "method", "vectors", "output")
_KEYS = _REQUIRED + ("density", "lambda", "mismatch", "dtype")
_ENUMS = {"method": ("tv", "ties"), "mismatch": tv_mod.MISMATCH_MODES,
          "dtype": ("keep", *DTYPE_SIZES)}


def _violation(path: str, message: str) -> RecipeError:
    return RecipeError(f"schema violation at {path}: {message}")


def _check_number(x, path: str, positive: bool = False) -> None:
    """A finite JSON number (never a bool) that fits in a float64."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise _violation(path, f"{x!r} is not a number")
    try:
        finite = math.isfinite(x)
    except OverflowError:  # an int beyond the float64 range
        finite = False
    if not finite:
        raise _violation(path, "number is not finite in float64")
    if positive and x <= 0:
        raise _violation(path, f"{x!r} is not positive, as TIES weights must be")


def _check_weight(w, path: str, positive: bool = False) -> None:
    """A number, or {"grid": [numbers, at least one] | "default"}."""
    if not isinstance(w, dict):
        _check_number(w, path, positive)
    elif w != {"grid": "default"}:
        grid = w.get("grid")
        if set(w) != {"grid"} or not isinstance(grid, list) or not grid:
            raise _violation(path, 'expected a number or {"grid": [numbers] | "default"}')
        for g in grid:
            _check_number(g, path, positive)


def _check_recipe(doc) -> None:
    """Raise RecipeError naming the first part of `doc` that breaks the recipe format."""
    if not isinstance(doc, dict):
        raise _violation("$", "a recipe is a JSON object")
    unknown = sorted(set(doc) - set(_KEYS))
    if unknown:
        raise _violation("$", f"unknown keys {unknown}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise _violation("$", f"missing keys {missing}")
    for key in ("base", "output"):
        if not isinstance(doc[key], str):
            raise _violation(f"$.{key}", f"{doc[key]!r} is not a string")
    for key, allowed in _ENUMS.items():
        if key in doc and doc[key] not in allowed:
            raise _violation(f"$.{key}", f"{doc[key]!r} is not one of {list(allowed)}")
    vectors = doc["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise _violation("$.vectors", "expected a non-empty list")
    ties = doc["method"] == "ties"
    for i, vec in enumerate(vectors):
        path = f"$.vectors[{i}]"
        if not isinstance(vec, dict) or set(vec) != {"source", "weight"}:
            raise _violation(path, 'expected {"source": ..., "weight": ...}')
        if not isinstance(vec["source"], str):
            raise _violation(f"{path}.source", f"{vec['source']!r} is not a string")
        _check_weight(vec["weight"], f"{path}.weight", positive=ties)
    if "density" in doc:
        _check_number(doc["density"], "$.density")
        if not 0 < doc["density"] <= 1:
            raise _violation("$.density", f"{doc['density']!r} is not in (0, 1]")
    if "lambda" in doc:
        _check_weight(doc["lambda"], "$.lambda")
    for key in ("density", "lambda"):
        if key in doc and not ties:
            raise _violation(f"$.{key}", 'only valid with method "ties"')


def parse_recipe(text: str) -> MergeRecipe:
    """Parse and validate a JSON recipe, filling documented defaults.

    Every number must be finite in float64, and TIES weights positive, so
    a recipe the merge would reject fails here, before any output is
    written. Parsed values are kept as written (an int stays an int).
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an int past Python's digit limit
        raise RecipeError(f"invalid JSON: {exc}") from exc
    _check_recipe(doc)
    if "lambda" in doc:
        doc["lam"] = doc.pop("lambda")
    return MergeRecipe(**doc)


def _with_suffix(path: str, assignment: dict[str, float]) -> str:
    root, ext = os.path.splitext(path)
    suffix = "".join(f"_{k}={v:g}" for k, v in assignment.items())
    return f"{root}{suffix}{ext}"


def expand_sweep(recipe: MergeRecipe) -> list[MergeRecipe]:
    """Cartesian product over grid axes, lexicographic in grid order.

    Output paths gain a suffix encoding the assignment; a grid-free
    recipe expands to itself. Two points whose suffixes coincide (equal
    values, or values alike to 6 significant digits) raise RecipeError,
    since one output would overwrite the other.
    """
    axes = recipe.grids()
    if not axes:
        return [recipe]
    size = math.prod(len(grid) for _, grid in axes)
    if size > SWEEP_CAP:
        raise RecipeError(f"sweep of {size} recipes exceeds cap {SWEEP_CAP}")

    expanded = []
    owners: dict[str, dict[str, float]] = {}
    for point in itertools.product(*(grid for _, grid in axes)):  # last axis fastest
        assignment = {name: value for (name, _), value in zip(axes, point)}
        output = _with_suffix(recipe.output, assignment)
        if output in owners:
            raise RecipeError(f"sweep points {owners[output]} and {assignment} "
                              f"both write {output!r}")
        owners[output] = assignment
        vectors = [dict(vec, weight=assignment.get(f"w{i}", vec["weight"]))
                   for i, vec in enumerate(recipe.vectors)]
        expanded.append(dataclasses.replace(recipe, vectors=vectors, output=output,
                                            lam=assignment.get("lambda", recipe.lam)))
    return expanded


def execute_recipe(recipe: MergeRecipe, threads: int = 1) -> dict:
    """Run one grid-free recipe: load, merge, write atomically. A
    fine-tuned source is never extracted whole: its deltas are
    `LazyDelta`s, which the report and the merge read one tensor at a
    time. Returns the outcome `vecmerge run` prints: output path, tensor
    count, wall time, and for TIES the interference report."""
    if recipe.grids():
        raise RecipeError("recipe still contains sweep grids; expand_sweep first")
    start = time.perf_counter()
    base = read_archive(recipe.base)
    pairs = [(tv_mod.load_task_vector(vec["source"], base, recipe.mismatch), float(vec["weight"]))
             for vec in recipe.vectors]

    report = None
    if recipe.method == "tv":
        merged = tv_mod.tv_merge(base, pairs, threads=threads)
    else:
        report = interference_stats([t for t, _ in pairs], recipe.density)
        merged = ties_mod.ties_merge(base, pairs, recipe.density, float(recipe.lam),
                                     threads=threads)

    merged.metadata = {**(merged.metadata or {}), "vecmerge.recipe": json.dumps(
        recipe.to_dict(), sort_keys=True, separators=(",", ":"))}
    save_archive(merged, recipe.output, dtype_policy=recipe.dtype)
    return {"output": recipe.output, "report": report, "tensor_count": len(merged),
            "wall_time": time.perf_counter() - start}


def read_metrics(text: str, grids: dict[str, list[float]]) -> list[tuple[dict, float]]:
    """Rows of (sweep assignment, score-to-maximize) from a metrics CSV
    with header "assignment,metric". Every row is parsed first; then,
    when `grids` is not empty, each row must name exactly its axes, at
    points of their grids."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["assignment", "metric"]:
        raise RecipeError('metrics CSV must have header "assignment,metric"')
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise RecipeError(f"bad metrics row: {row!r}")
        assignment = {}
        for part in row[0].split(";"):
            if not part:
                continue
            key, _, value = part.partition("=")
            if not key or not value:
                raise RecipeError(f"bad assignment {row[0]!r}")
            if key in assignment:
                raise RecipeError(f"repeated key {key!r} in assignment {row[0]!r}")
            assignment[key] = float(value)
            if not math.isfinite(assignment[key]):
                raise RecipeError(f"non-finite assignment value in row {row!r}")
        metric = float(row[1])
        if not math.isfinite(metric):
            raise RecipeError(f"non-finite metric in row {row!r}")
        rows.append((assignment, metric))
    for assignment, _ in rows if grids else ():
        if set(assignment) != set(grids):
            raise RecipeError(f"metrics row {assignment} does not match "
                              f"the sweep axes {sorted(grids)}")
        for name, value in assignment.items():
            if value not in grids[name]:
                raise RecipeError(f"metrics row {assignment}: {name}={value} is not "
                                  f"a point of the sweep grid {grids[name]}")
    return rows


def select_best(rows: list[tuple[dict, float]]) -> dict:
    """Assignment with the maximal metric; ties go to the
    lexicographically smallest assignment vector (sorted by key)."""
    if not rows:
        raise ValueError("empty metrics table")

    def sort_key(row):
        assignment, metric = row
        vector = tuple(v for _, v in sorted(assignment.items()))
        return (-metric, vector)

    return dict(min(rows, key=sort_key)[0])
