"""Deterministic toy-model bench for comparing adaptation pipelines."""

from .data import Dataset, ModelSpec, gen_dataset
from .model import (DivergenceError, TrainConfig, forward, init_model,
                    loss_and_grads, macro_f1, predict, train, train_stack)
from .rng import SplitMix64, derive_stream
from .scenarios import SCENARIOS, BenchSizes, run_bench

__all__ = [
    "Dataset", "ModelSpec", "gen_dataset",
    "DivergenceError", "TrainConfig", "forward", "init_model",
    "loss_and_grads", "macro_f1", "predict", "train", "train_stack",
    "SplitMix64", "derive_stream",
    "SCENARIOS", "BenchSizes", "run_bench",
]
