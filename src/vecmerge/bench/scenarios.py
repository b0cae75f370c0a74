"""End-to-end pipeline comparison: full FT, sequential FT, joint FT, and
merge-then-fine-tune (TV and TIES) over the synthetic datasets.

Per seed, every scenario shares one base model, one auxiliary task
vector, and the same target splits, so differences in test macro-F1 come
only from the pipeline shape. Merge scaling is selected on the dev split
over the default grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..recipes import DEFAULT_GRID, select_best
from ..ties import ties_merge
from ..tv import extract_task_vector, tv_merge
from .data import Dataset, ModelSpec, concat, gen_dataset
from .model import TrainConfig, init_model, macro_f1, predict, train, train_stack
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
    """Returns (test macro-F1, sweep-selection info or None); `run_bench` checked `name`."""
    cfg = ctx.cfg
    if name in ("full_ft", "seq_ft", "joint_ft"):
        start = ctx.aux_model if name == "seq_ft" else ctx.base
        data = concat(ctx.aux_data, ctx.target_train) if name == "joint_ft" else ctx.target_train
        return ctx.f1(train(start, data, cfg), ctx.target_test), None
    if name == "tv_merge_ft":
        merged = [tv_merge(ctx.base, [(ctx.aux_vector, lam)]) for lam in DEFAULT_GRID]
    else:
        merged = [ties_merge(ctx.base, [(ctx.aux_vector, 1.0)], lam=lam) for lam in DEFAULT_GRID]
    models = train_stack([m.materialize() for m in merged], ctx.target_train, cfg)
    trained = dict(zip(DEFAULT_GRID, models))
    rows = [({"lambda": lam}, ctx.f1(model, ctx.target_dev)) for lam, model in trained.items()]
    lam = select_best(rows)["lambda"]
    info = {"lambda": lam, "dev_f1": dict((f"{a['lambda']:g}", m) for a, m in rows)}
    return ctx.f1(trained[lam], ctx.target_test), info


def run_bench(scenarios: list[str], seeds: list[int], sizes: BenchSizes | None = None,
              cfg: TrainConfig | None = None) -> dict:
    """Each scenario's test macro-F1 per seed, their mean and std, and the
    merge scenarios' per-seed sweep choices, over shared per-seed contexts.
    Scenario names and the seed list are checked before any context is built.
    Contexts are built one seed at a time, each dropped before the next. Per
    seed, the context comes first, then the scenarios in the order given
    (`SCENARIOS` order from the CLI), and the first error in that order is raised."""
    for name in scenarios:
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    if not seeds:
        raise ValueError("the bench needs at least one seed")
    sizes = sizes or BenchSizes()
    cfg = cfg or TrainConfig()
    runs = {name: [] for name in scenarios}
    for seed in seeds:
        ctx = _SeedContext(seed, sizes, cfg)
        for name in runs:
            runs[name].append(_run_pipeline(name, ctx))
        del ctx  # freed before the next seed's context is built
    reports = {}
    for name in scenarios:
        scores = [f1 for f1, _ in runs[name]]
        mean = sum(scores) / len(scores)
        std = (sum((s - mean) ** 2 for s in scores) / len(scores)) ** 0.5
        reports[name] = {
            "name": name, "seeds": list(seeds), "per_seed_f1": scores, "mean_f1": mean,
            "std_f1": std, "sizes": asdict(sizes), "train_config": asdict(cfg),
            "selected": [{"seed": seed, **info}
                         for seed, (_, info) in zip(seeds, runs[name]) if info is not None]}
    return {"scenarios": reports, "seeds": list(seeds), "sizes": asdict(sizes),
            "train_config": asdict(cfg)}
