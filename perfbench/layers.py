"""Per-layer metrics: which functions the tracer wraps, what each metric
is made of, and which end-to-end metric on which workload it should move.

Every time metric is a self time, so the time metrics of one traced run
add up to its in-process wall time (see `trace.accounted_share`).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np


# -- count hooks: (tracer, args, kwargs[, result]) ---------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read(tracer, args, kwargs):
    src = _arg(args, kwargs, 0, "path_or_bytes")
    tracer.count("read_calls")
    if isinstance(src, (bytes, bytearray, memoryview)):
        tracer.count("read_bytes", len(src))
        tracer.note("read_sources", hashlib.sha256(src).digest())
    else:
        tracer.count("read_bytes", os.path.getsize(src))
        tracer.note("read_sources", os.path.realpath(src))


def _written(tracer, args, kwargs, result):
    tracer.count("write_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _cast(tracer, args, kwargs):
    tracer.count("cast_elems", np.asarray(_arg(args, kwargs, 0, "values")).size)


def _merge(tracer, args, kwargs):
    weighted = _arg(args, kwargs, 1, "weighted")
    tracer.count("merge_elems", sum(d.size for tv, _ in weighted for d in tv.deltas.values()))


def _apply(tracer, args, kwargs):
    tracer.count("merge_elems", sum(d.size for d in _arg(args, kwargs, 1, "tv").deltas.values()))


def _extract(tracer, args, kwargs):
    tracer.count("extract_calls")


def _trim(tracer, args, kwargs):
    tv = _arg(args, kwargs, 0, "tv")
    density = _arg(args, kwargs, 1, "density")
    digest = hashlib.sha256(repr(float(density)).encode())
    for name in sorted(tv.deltas):
        d = tv.deltas[name]
        digest.update(f"{name}{d.shape}{d.dtype}".encode())
        digest.update(np.ascontiguousarray(d).reshape(-1).view(np.uint8).data)
    tracer.count("trim_calls")
    tracer.count("trim_elems", sum(d.size for d in tv.deltas.values()))
    tracer.note("trim_inputs", digest.digest())


def _interference(tracer, args, kwargs):
    tracer.count("interference_calls")


def _gaussians(tracer, args, kwargs):
    tracer.count("draws", _arg(args, kwargs, 1, "n"))


def _grad(tracer, args, kwargs):
    tracer.count("grad_calls")


# (label, module, qualified attribute, pre hook, post hook)
TARGETS = [
    ("cli.main", "vecmerge.cli", "main", None, None),
    ("tensor_store.read_archive", "vecmerge.tensor_store", "read_archive", _read, None),
    ("tensor_store.save_archive", "vecmerge.tensor_store", "save_archive", None, _written),
    ("tensor_store.write_archive", "vecmerge.tensor_store", "write_archive", None, None),
    ("dtypes.decode", "vecmerge.dtypes", "decode", None, None),
    ("dtypes.encode", "vecmerge.dtypes", "encode", None, None),
    ("dtypes.cast_values", "vecmerge.dtypes", "cast_values", _cast, None),
    ("tv.TaskVector.from_checkpoint", "vecmerge.tv", "TaskVector.from_checkpoint", None, None),
    ("tv.extract_task_vector", "vecmerge.tv", "extract_task_vector", _extract, None),
    ("tv.scale", "vecmerge.tv", "scale", None, None),
    ("tv.tv_merge", "vecmerge.tv", "tv_merge", _merge, None),
    ("tv.apply", "vecmerge.tv", "apply", _apply, None),
    ("ties.trim", "vecmerge.ties", "trim", _trim, None),
    ("ties.elect_signs", "vecmerge.ties", "elect_signs", None, None),
    ("ties.disjoint_merge", "vecmerge.ties", "disjoint_merge", None, None),
    ("reports.interference_stats", "vecmerge.reports", "interference_stats", _interference, None),
    ("recipes.parse_recipe", "vecmerge.recipes", "parse_recipe", None, None),
    ("recipes.expand_sweep", "vecmerge.recipes", "expand_sweep", None, None),
    ("recipes.execute_recipe", "vecmerge.recipes", "execute_recipe", None, None),
    ("bench.rng.SplitMix64.gaussians", "vecmerge.bench.rng", "SplitMix64.gaussians", _gaussians, None),
    ("bench.data.gen_dataset", "vecmerge.bench.data", "gen_dataset", None, None),
    ("bench.model.loss_and_grads", "vecmerge.bench.model", "loss_and_grads", _grad, None),
    ("bench.model.train", "vecmerge.bench.model", "train", None, None),
    ("bench.model.forward", "vecmerge.bench.model", "forward", None, None),
    ("bench.model.predict", "vecmerge.bench.model", "predict", None, None),
    ("bench.model.macro_f1", "vecmerge.bench.model", "macro_f1", None, None),
]

# count key -> the targets whose hooks produce it
_HOOKED = {"read_calls": ("tensor_store.read_archive",),
           "read_bytes": ("tensor_store.read_archive",),
           "read_sources": ("tensor_store.read_archive",),
           "write_bytes": ("tensor_store.save_archive",),
           "cast_elems": ("dtypes.cast_values",),
           "merge_elems": ("tv.tv_merge", "tv.apply"),
           "extract_calls": ("tv.extract_task_vector",),
           "trim_calls": ("ties.trim",), "trim_elems": ("ties.trim",), "trim_inputs": ("ties.trim",),
           "interference_calls": ("reports.interference_stats",),
           "draws": ("bench.rng.SplitMix64.gaussians",),
           "grad_calls": ("bench.model.loss_and_grads",)}

ALL_WORKLOADS = "ties_sweep, tv_merge_large, toy_bench"

# name -> (unit, source, end-to-end metrics it should move, workloads it moves them on)
# source: ("self", labels) | ("count", key, scale) | ("ratio", distinct key, count key) | ("trace",)
METRICS = {
    "tensor_store.read_s": ("s", ("self", ["tensor_store.read_archive"]),
                            "wall_s, peak_rss_mb", "tv_merge_large"),
    "tensor_store.read_mb": ("MiB", ("count", "read_bytes", 1 / 2**20),
                             "wall_s, peak_rss_mb", "tv_merge_large"),
    "dtypes.decode_s": ("s", ("self", ["dtypes.decode"]), "wall_s, peak_rss_mb", "tv_merge_large"),
    "tensor_store.read_calls": ("count", ("count", "read_calls", 1), "wall_s", "ties_sweep"),
    "recipes.load_useful_ratio": ("ratio", ("ratio", "read_sources", "read_calls"),
                                  "wall_s", "ties_sweep"),
    "tensor_store.write_s": ("s", ("self", ["tensor_store.save_archive",
                                            "tensor_store.write_archive"]),
                             "wall_s", "tv_merge_large, ties_sweep"),
    "tensor_store.write_mb": ("MiB", ("count", "write_bytes", 1 / 2**20),
                              "wall_s", "tv_merge_large, ties_sweep"),
    "dtypes.encode_s": ("s", ("self", ["dtypes.encode"]), "wall_s", "tv_merge_large, ties_sweep"),
    "dtypes.cast_s": ("s", ("self", ["dtypes.cast_values"]), "wall_s", "tv_merge_large"),
    "dtypes.cast_melems": ("Melem", ("count", "cast_elems", 1e-6), "wall_s", "tv_merge_large"),
    "tv.load_s": ("s", ("self", ["tv.TaskVector.from_checkpoint"]),
                  "wall_s, cpu_s, peak_rss_mb", "tv_merge_large"),
    "tv.merge_s": ("s", ("self", ["tv.tv_merge", "tv.apply"]),
                   "wall_s, cpu_s, peak_rss_mb", "tv_merge_large"),
    "tv.merge_melems": ("Melem", ("count", "merge_elems", 1e-6),
                        "wall_s, cpu_s, peak_rss_mb", "tv_merge_large"),
    "tv.extract_s": ("s", ("self", ["tv.extract_task_vector"]), "wall_s, peak_rss_mb", "ties_sweep"),
    "tv.extract_calls": ("count", ("count", "extract_calls", 1), "wall_s, peak_rss_mb", "ties_sweep"),
    "tv.scale_s": ("s", ("self", ["tv.scale"]), "wall_s, peak_rss_mb", "ties_sweep"),
    "ties.trim_s": ("s", ("self", ["ties.trim"]), "wall_s, cpu_s",
                    "ties_sweep (no move on tv_merge_large, under 1% on toy_bench)"),
    "ties.trim_calls": ("count", ("count", "trim_calls", 1), "wall_s, cpu_s", "ties_sweep"),
    "ties.trim_melems": ("Melem", ("count", "trim_elems", 1e-6), "wall_s, cpu_s", "ties_sweep"),
    "ties.trim_useful_ratio": ("ratio", ("ratio", "trim_inputs", "trim_calls"),
                               "wall_s, cpu_s", "ties_sweep"),
    "ties.elect_s": ("s", ("self", ["ties.elect_signs"]), "wall_s", "ties_sweep"),
    "ties.disjoint_s": ("s", ("self", ["ties.disjoint_merge"]), "wall_s", "ties_sweep"),
    "reports.interference_s": ("s", ("self", ["reports.interference_stats"]), "wall_s", "ties_sweep"),
    "reports.interference_calls": ("count", ("count", "interference_calls", 1), "wall_s", "ties_sweep"),
    "recipes.plan_s": ("s", ("self", ["recipes.parse_recipe", "recipes.expand_sweep"]),
                       "wall_s", ALL_WORKLOADS),
    "recipes.execute_s": ("s", ("self", ["recipes.execute_recipe"]), "wall_s", ALL_WORKLOADS),
    "cli.self_s": ("s", ("self", ["cli.main"]), "wall_s", ALL_WORKLOADS),
    "bench.rng.gaussians_s": ("s", ("self", ["bench.rng.SplitMix64.gaussians"]), "wall_s", "toy_bench"),
    "bench.rng.draws": ("count", ("count", "draws", 1), "wall_s", "toy_bench"),
    "bench.data.gen_s": ("s", ("self", ["bench.data.gen_dataset"]), "wall_s", "toy_bench"),
    "bench.model.grad_s": ("s", ("self", ["bench.model.loss_and_grads"]), "wall_s", "toy_bench"),
    "bench.model.grad_calls": ("count", ("count", "grad_calls", 1), "wall_s", "toy_bench"),
    "bench.model.train_s": ("s", ("self", ["bench.model.train"]), "wall_s", "toy_bench"),
    "bench.model.eval_s": ("s", ("self", ["bench.model.forward", "bench.model.predict",
                                          "bench.model.macro_f1"]), "wall_s", "toy_bench"),
    # checks on the tracer itself; set in layer_values and, for overhead_s, by measure.py
    "trace.overhead_s": ("s", ("trace",), "none", ALL_WORKLOADS),
    "trace.span_errors": ("count", ("trace",), "none", ALL_WORKLOADS),
    "trace.accounted_share": ("ratio", ("trace",), "none", ALL_WORKLOADS),
}


def layer_values(tracer, wall: float) -> dict[str, float | None]:
    """Metric values of one traced op of `wall` seconds, except
    `trace.overhead_s`, which needs the untraced runs. None marks a
    metric whose functions are all absent from the program."""
    selfs, errors = tracer.self_times()
    bound = set(tracer.bound)
    values: dict[str, float | None] = {"trace.span_errors": errors,
                                       "trace.accounted_share": sum(selfs.values()) / wall}
    for name, (_, source, _, _) in METRICS.items():
        kind = source[0]
        if kind == "trace":
            continue
        labels = source[1] if kind == "self" else _HOOKED[source[1]]
        if not bound.intersection(labels):
            values[name] = None
        elif kind == "self":
            values[name] = sum(selfs.get(label, 0.0) for label in labels)
        elif kind == "count":
            values[name] = tracer.counts.get(source[1], 0) * source[2]
        else:
            calls = tracer.counts.get(source[2], 0)
            # no attempts means no wasted work
            values[name] = len(tracer.distinct.get(source[1], ())) / calls if calls else 1.0
    return values


def rationale() -> dict[str, dict[str, str]]:
    return {name: {"unit": unit, "moves": moves, "on": on}
            for name, (unit, _, moves, on) in METRICS.items()}
