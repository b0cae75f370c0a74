"""Declarative merge recipes, sweep expansion, and metric-driven selection.

A recipe is a JSON document naming a base archive, a merge method, and
weighted vector sources. A weight may be a number or a grid; grids
expand into a Cartesian product of concrete recipes whose best member is
picked from an externally produced metrics table (the engine never
evaluates models itself for real checkpoints).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import os
import time
from dataclasses import dataclass, field

import jsonschema

from . import ties as ties_mod
from . import tv as tv_mod
from .tensor_store import read_archive, save_archive

DEFAULT_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
SWEEP_CAP = 1000

_WEIGHT_SCHEMA = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "object",
            "properties": {"grid": {"oneOf": [
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
                {"const": "default"},
            ]}},
            "required": ["grid"],
            "additionalProperties": False,
        },
    ]
}

RECIPE_SCHEMA = {
    "type": "object",
    "properties": {
        "base": {"type": "string"},
        "method": {"enum": ["tv", "ties"]},
        "vectors": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"source": {"type": "string"}, "weight": _WEIGHT_SCHEMA},
                "required": ["source", "weight"],
                "additionalProperties": False,
            },
        },
        "density": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "lambda": _WEIGHT_SCHEMA,
        "mismatch": {"enum": ["error", "ignore", "copy_from_finetuned"]},
        "dtype": {"enum": ["keep", "F32", "F64", "F16", "BF16"]},
        "output": {"type": "string"},
    },
    "required": ["base", "method", "vectors", "output"],
    "additionalProperties": False,
}


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
        doc = {
            "base": self.base,
            "method": self.method,
            "vectors": copy.deepcopy(self.vectors),
            "output": self.output,
            "mismatch": self.mismatch,
            "dtype": self.dtype,
        }
        if self.method == "ties":
            doc["density"] = self.density
            doc["lambda"] = self.lam
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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


def parse_recipe(text: str) -> MergeRecipe:
    """Parse and validate a JSON recipe, filling documented defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecipeError(f"invalid JSON: {exc}") from exc
    validator = jsonschema.Draft202012Validator(RECIPE_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise RecipeError(f"schema violation at {err.json_path}: {err.message}")
    if doc["method"] != "ties" and ("density" in doc or "lambda" in doc):
        present = [k for k in ("density", "lambda") if k in doc]
        raise RecipeError(f"{'/'.join(present)} only valid with method \"ties\"")
    for i, vec in enumerate(doc["vectors"]):
        w = vec["weight"]
        if isinstance(w, (int, float)) and not _finite(w):
            raise RecipeError(f"schema violation at $.vectors[{i}].weight: non-finite weight")
    return MergeRecipe(
        base=doc["base"],
        method=doc["method"],
        vectors=copy.deepcopy(doc["vectors"]),
        output=doc["output"],
        density=doc.get("density", ties_mod.DEFAULT_DENSITY),
        lam=doc.get("lambda", ties_mod.DEFAULT_LAMBDA),
        mismatch=doc.get("mismatch", "error"),
        dtype=doc.get("dtype", "keep"),
    )


def _finite(x) -> bool:
    return x == x and abs(x) != float("inf")


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
    size = 1
    for _, grid in axes:
        size *= len(grid)
    if size > SWEEP_CAP:
        raise RecipeError(f"sweep of {size} recipes exceeds cap {SWEEP_CAP}")

    expanded = []
    owners: dict[str, dict[str, float]] = {}
    indices = [0] * len(axes)
    while True:
        assignment = {name: grid[i] for (name, grid), i in zip(axes, indices)}
        output = _with_suffix(recipe.output, assignment)
        if output in owners:
            raise RecipeError(f"sweep points {owners[output]} and {assignment} "
                              f"both write {output!r}")
        owners[output] = assignment
        clone = MergeRecipe(
            base=recipe.base, method=recipe.method,
            vectors=copy.deepcopy(recipe.vectors),
            output=output,
            density=recipe.density, lam=recipe.lam,
            mismatch=recipe.mismatch, dtype=recipe.dtype)
        for i, vec in enumerate(clone.vectors):
            key = f"w{i}"
            if key in assignment:
                vec["weight"] = assignment[key]
        if "lambda" in assignment:
            clone.lam = assignment["lambda"]
        expanded.append(clone)
        # odometer increment, last axis fastest
        pos = len(axes) - 1
        while pos >= 0:
            indices[pos] += 1
            if indices[pos] < len(axes[pos][1]):
                break
            indices[pos] = 0
            pos -= 1
        if pos < 0:
            return expanded


@dataclass
class MergeOutcome:
    output: str
    tensor_count: int
    wall_time: float
    report: dict | None = None

    def to_dict(self) -> dict:
        return {"output": self.output, "report": self.report,
                "tensor_count": self.tensor_count, "wall_time": self.wall_time}


def execute_recipe(recipe: MergeRecipe, threads: int = 1) -> MergeOutcome:
    """Run one grid-free recipe: load, merge, write atomically."""
    if recipe.grids():
        raise RecipeError("recipe still contains sweep grids; expand_sweep first")
    start = time.perf_counter()
    base = read_archive(recipe.base)
    pairs = [(tv_mod.load_task_vector(vec["source"], base, recipe.mismatch), float(vec["weight"]))
             for vec in recipe.vectors]

    report = None
    if recipe.method == "tv":
        merged = tv_mod.tv_merge_lazy(base, pairs, threads=threads)
    else:
        config = ties_mod.TiesConfig(
            density=recipe.density,
            weights=[w for _, w in pairs],
            lam=float(recipe.lam))
        merged, interference = ties_mod.ties_merge(
            base, [t for t, _ in pairs], config, threads=threads)
        report = interference.to_dict()

    metadata = dict(merged.metadata or {})
    metadata["vecmerge.recipe"] = json.dumps(recipe.to_dict(), sort_keys=True,
                                             separators=(",", ":"))
    merged = dataclasses.replace(merged, metadata=metadata)
    save_archive(merged, recipe.output, dtype_policy=recipe.dtype)
    return MergeOutcome(
        output=recipe.output,
        tensor_count=len(merged),
        wall_time=time.perf_counter() - start,
        report=report,
    )


@dataclass
class MetricsTable:
    """Rows of (sweep assignment, score-to-maximize)."""

    rows: list[tuple[dict, float]] = field(default_factory=list)

    @staticmethod
    def from_csv(text: str) -> "MetricsTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["assignment", "metric"]:
            raise RecipeError('metrics CSV must have header "assignment,metric"')
        table = MetricsTable()
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
                assignment[key] = float(value)
            metric = float(row[1])
            if not _finite(metric):
                raise RecipeError(f"non-finite metric in row {row!r}")
            table.rows.append((assignment, metric))
        return table


def select_best(table: MetricsTable) -> dict:
    """Assignment with the maximal metric; ties go to the
    lexicographically smallest assignment vector (sorted by key)."""
    if not table.rows:
        raise ValueError("empty metrics table")

    def sort_key(row):
        assignment, metric = row
        vector = tuple(v for _, v in sorted(assignment.items()))
        return (-metric, vector)

    return dict(min(table.rows, key=sort_key)[0])
