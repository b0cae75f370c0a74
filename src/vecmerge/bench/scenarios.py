"""End-to-end pipeline comparison: full FT, sequential FT, joint FT, and
merge-then-fine-tune (TV and TIES) over the synthetic datasets.

Per seed, every scenario shares one base model, one auxiliary task
vector, and the same target splits, so differences in test macro-F1 come
only from the pipeline shape. Merge scaling is selected on the dev split
over the default grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from ..recipes import DEFAULT_GRID, MetricsTable, select_best
from ..ties import DEFAULT_DENSITY, TiesConfig, ties_merge
from ..tv import extract_task_vector, tv_merge
from .data import Dataset, ModelSpec, concat, gen_dataset
from .model import TrainConfig, init_model, macro_f1, predict, train
from .rng import derive_stream

SCENARIOS = ("full_ft", "seq_ft", "joint_ft", "tv_merge_ft", "ties_merge_ft")

# stream indices, one sub-stream per random role within a seed
_STREAM_INIT = 0
_STREAM_BASE_L1 = 1
_STREAM_BASE_L2 = 2
_STREAM_AUX = 3
_STREAM_TARGET_TRAIN = 4
_STREAM_TARGET_DEV = 5
_STREAM_TARGET_TEST = 6


@dataclass
class BenchSizes:
    input_dim: int = 16
    hidden_dim: int = 32
    class_count: int = 3
    n_target: int = 60
    n_aux: int = 2000
    n_base: int = 1000
    n_dev: int = 150
    n_test: int = 300

    @property
    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.input_dim, self.hidden_dim, self.class_count)


class _SeedContext:
    """Everything a pipeline needs for one seed, built deterministically."""

    def __init__(self, seed: int, sizes: BenchSizes, cfg: TrainConfig):
        spec = sizes.model_spec
        self.seed = seed
        self.sizes = sizes
        self.cfg = cfg
        self.spec = spec
        half = sizes.n_base // 2
        base_data = concat(
            gen_dataset("L1", half, spec, derive_stream(seed, _STREAM_BASE_L1)),
            gen_dataset("L2", sizes.n_base - half, spec, derive_stream(seed, _STREAM_BASE_L2)))
        self.aux_data = gen_dataset("L1", sizes.n_aux, spec, derive_stream(seed, _STREAM_AUX))
        self.target_train = gen_dataset(
            "mixed", sizes.n_target, spec, derive_stream(seed, _STREAM_TARGET_TRAIN))
        self.target_dev = gen_dataset(
            "mixed", sizes.n_dev, spec, derive_stream(seed, _STREAM_TARGET_DEV), split="dev")
        self.target_test = gen_dataset(
            "mixed", sizes.n_test, spec, derive_stream(seed, _STREAM_TARGET_TEST), split="test")

        init = init_model(spec, derive_stream(seed, _STREAM_INIT))
        self.base = train(init, base_data, cfg)
        self.aux_model = train(self.base, self.aux_data, cfg)
        self.aux_vector = extract_task_vector(self.base, self.aux_model)

    def f1(self, model, data: Dataset) -> float:
        return macro_f1(predict(model, data.X), data.y, self.spec.class_count)


def _run_pipeline(name: str, ctx: _SeedContext):
    """Returns (test macro-F1, sweep-selection info or None)."""
    cfg = ctx.cfg
    if name == "full_ft":
        model = train(ctx.base, ctx.target_train, cfg)
        return ctx.f1(model, ctx.target_test), None
    if name == "seq_ft":
        model = train(ctx.aux_model, ctx.target_train, cfg)
        return ctx.f1(model, ctx.target_test), None
    if name == "joint_ft":
        model = train(ctx.base, concat(ctx.aux_data, ctx.target_train), cfg)
        return ctx.f1(model, ctx.target_test), None
    if name in ("tv_merge_ft", "ties_merge_ft"):
        table = MetricsTable()
        trained = {}
        for lam in DEFAULT_GRID:
            if name == "tv_merge_ft":
                merged = tv_merge(ctx.base, [(ctx.aux_vector, lam)])
            else:
                config = TiesConfig(density=DEFAULT_DENSITY, weights=[1.0], lam=lam)
                merged = ties_merge(ctx.base, [ctx.aux_vector], config)
            model = train(merged, ctx.target_train, cfg)
            trained[lam] = model
            table.rows.append(({"lambda": lam}, ctx.f1(model, ctx.target_dev)))
        best = select_best(table)
        lam = best["lambda"]
        info = {"lambda": lam, "dev_f1": dict((f"{a['lambda']:g}", m) for a, m in table.rows)}
        return ctx.f1(trained[lam], ctx.target_test), info
    raise ValueError(f"unknown scenario {name!r}")


def run_scenario(name: str, seeds: list[int], sizes: BenchSizes | None = None,
                 cfg: TrainConfig | None = None,
                 contexts: dict[int, _SeedContext] | None = None) -> dict:
    """One scenario's test macro-F1 per seed, their mean and std, and the
    per-seed sweep choices of the merge scenarios, as the bench report holds it."""
    sizes = sizes or BenchSizes()
    cfg = cfg or TrainConfig()
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    scores = []
    selected = []
    for seed in seeds:
        ctx = contexts[seed] if contexts else _SeedContext(seed, sizes, cfg)
        f1, info = _run_pipeline(name, ctx)
        scores.append(f1)
        if info is not None:
            selected.append({"seed": seed, **info})
    mean = sum(scores) / len(scores)
    std = (sum((s - mean) ** 2 for s in scores) / len(scores)) ** 0.5
    return {"name": name, "seeds": list(seeds), "per_seed_f1": scores, "mean_f1": mean,
            "std_f1": std, "sizes": asdict(sizes), "train_config": asdict(cfg),
            "selected": selected}


def run_bench(scenarios: list[str], seeds: list[int], sizes: BenchSizes | None = None,
              cfg: TrainConfig | None = None, threads: int = 1) -> dict:
    """Run several scenarios over shared per-seed contexts; JSON-able result."""
    sizes = sizes or BenchSizes()
    cfg = cfg or TrainConfig()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ctx_list = list(pool.map(lambda s: _SeedContext(s, sizes, cfg), seeds))
    else:
        ctx_list = [_SeedContext(s, sizes, cfg) for s in seeds]
    contexts = dict(zip(seeds, ctx_list))
    reports = [run_scenario(name, seeds, sizes, cfg, contexts) for name in scenarios]
    return {
        "scenarios": {r["name"]: r for r in reports},
        "seeds": list(seeds),
        "sizes": asdict(sizes),
        "train_config": asdict(cfg),
    }
