"""Command-line interface.

Subcommands: inspect, extract, merge tv|ties, diff, interference,
run (recipes, optionally swept and metric-selected), bench.
Exit codes for `run`: 0 success, 2 validation error, 3 merge error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .recipes import (RecipeError, execute_recipe, expand_sweep, parse_recipe,
                      read_metrics, select_best)
from .reports import cosine, diff_stats, interference_stats
from .tensor_store import (ArchiveError, read_archive, save_archive,
                           validate_archive)
from .ties import DEFAULT_DENSITY, DEFAULT_LAMBDA, ties_merge
from .tv import extract, load_task_vector, tv_merge


def _positive_int(text: str) -> int:  # argparse exits 2 on ArgumentTypeError
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _json(obj) -> str:
    """A report as the CLI prints and writes it: strict JSON, which has no NaN or ±inf."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _cmd_inspect(args) -> int:
    report = validate_archive(args.path)
    print(_json(report))
    return 0 if report["valid"] else 1


def _cmd_extract(args) -> int:
    tv = extract(read_archive(args.base), read_archive(args.finetuned), args.on_mismatch)
    save_archive(tv.to_checkpoint(), args.out)  # each delta is read by chunks as it is written
    print(_json({"deltas": len(tv.deltas), "extras": sorted(tv.extras), "ignored": tv.ignored,
                 "out": args.out}))
    return 0


def _weighted_pairs(args):
    if len(args.weight) != len(args.vector):
        raise ArchiveError(f"{len(args.vector)} vectors but {len(args.weight)} weights")
    return [(load_task_vector(v), w) for v, w in zip(args.vector, args.weight)]


def _cmd_merge(args) -> int:
    base = read_archive(args.base)
    pairs = _weighted_pairs(args)
    report = None  # made before the merge, written after it
    if args.method == "ties" and args.report:
        report = interference_stats([t for t, _ in pairs], args.density)
    merged = (tv_merge(base, pairs, threads=args.threads) if args.method == "tv"
              else ties_merge(base, pairs, args.density, args.lam, threads=args.threads))
    save_archive(merged, args.out)
    if report is not None:
        with open(args.report, "w") as fh:
            fh.write(_json(report))
    print(json.dumps({"out": args.out, "tensor_count": len(merged)}, sort_keys=True))
    return 0


def _cmd_diff(args) -> int:
    report = diff_stats(read_archive(args.a), read_archive(args.b))
    if args.json:
        for stats in (report["global"], *report["per_tensor"].values()):
            stats.update((k, v if math.isfinite(v) else None) for k, v in stats.items())
        print(_json(report))
    else:
        g = report["global"]
        print(f"tensors compared: {len(report['per_tensor'])}")
        print(f"global L2 norm:   {g['l2_norm']:.6g}")
        print(f"global max |d|:   {g['max_abs']:.6g}")
        print(f"equal fraction:   {g['equal_fraction']:.6g}")
    return 0


def _cmd_interference(args) -> int:
    tvs = [load_task_vector(v) for v in args.vector]
    print(_json(interference_stats(tvs, args.density)))
    return 0


def _cmd_cosine(args) -> int:
    value = cosine(load_task_vector(args.a), load_task_vector(args.b))
    print(f"{value:.12g}")
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.recipe) as fh:
            recipe = parse_recipe(fh.read())
        recipes = expand_sweep(recipe) if args.sweep else [recipe]
        if not args.sweep and recipe.grids():
            raise RecipeError("recipe contains sweep grids; pass --sweep")
        if args.select and not args.metrics:
            raise RecipeError("--select requires --metrics")
        if args.metrics and not args.select:
            raise RecipeError("--metrics requires --select")
        selected = None
        if args.select:
            with open(args.metrics) as fh:
                selected = select_best(read_metrics(fh.read(), dict(recipe.grids())))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        outcomes = [execute_recipe(r, threads=args.threads) for r in recipes]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result = {"outcomes": outcomes}
    if selected is not None:
        result["selected"] = selected
    print(_json(result))
    return 0


def _cmd_bench(args) -> int:
    from .bench.model import TrainConfig
    from .bench.scenarios import SCENARIOS, BenchSizes, run_bench

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    seeds = list(range(args.seeds))
    result = run_bench(names, seeds, BenchSizes(),
                       TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json(result))
    for name in names:
        rep = result["scenarios"][name]
        print(f"{name}: mean macro-F1 {rep['mean_f1']:.4f} (std {rep['std_f1']:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vecmerge",
                                     description="checkpoint merge engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="validate an archive and print the report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("extract", help="extract a task vector")
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--on-mismatch", default="error",
                   choices=["error", "ignore", "copy_from_finetuned"])
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("merge", help="merge task vectors into a base checkpoint")
    merge_sub = p.add_subparsers(dest="method", required=True)

    def add_merge_common(mp):
        mp.add_argument("--base", required=True)
        mp.add_argument("--vector", action="append", required=True)
        mp.add_argument("--weight", action="append", type=float, required=True)
        mp.add_argument("--out", required=True)
        mp.add_argument("--threads", type=_positive_int, default=1)

    mp = merge_sub.add_parser("tv", help="scaled vector addition")
    add_merge_common(mp)
    mp.set_defaults(func=_cmd_merge)

    mp = merge_sub.add_parser("ties", help="trim/elect-sign/disjoint-mean merge")
    add_merge_common(mp)
    mp.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    mp.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    mp.add_argument("--report", default=None)
    mp.set_defaults(func=_cmd_merge)

    p = sub.add_parser("diff", help="compare two checkpoints")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("interference", help="TIES interference statistics")
    p.add_argument("--vector", action="append", required=True)
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    p.add_argument("--json", action="store_true",
                   help="accepted for compatibility; the output is always JSON")
    p.set_defaults(func=_cmd_interference)

    p = sub.add_parser("cosine", help="cosine similarity of two task vectors")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_cosine)

    p = sub.add_parser("run", help="execute a merge recipe")
    p.add_argument("--recipe", required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--metrics", default=None)
    p.add_argument("--select", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="run the toy pipeline comparison")
    p.add_argument("--scenario", default="all")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--learning-rate", type=float, default=0.03)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArchiveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
