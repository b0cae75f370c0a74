"""vecmerge: checkpoint model-merging engine (task vectors and TIES)."""

__version__ = "0.1.0"

from .tensor_store import (ArchiveError, Checkpoint, LazyCheckpoint, Tensor, TensorSpec,
                           read_archive, save_archive, validate_archive, write_archive)
from .tv import (MergeError, TaskVector, apply, extract_task_vector, scale,
                 tv_merge, tv_merge_lazy)
from .ties import disjoint_merge, elect_signs, ties_merge, trim
from .recipes import (MergeRecipe, RecipeError, execute_recipe, expand_sweep,
                      parse_recipe, read_metrics, select_best)
from .reports import cosine, diff_stats, interference_stats

__all__ = [
    "ArchiveError", "Checkpoint", "LazyCheckpoint", "Tensor", "TensorSpec",
    "read_archive", "save_archive", "validate_archive", "write_archive",
    "MergeError", "TaskVector", "apply", "extract_task_vector",
    "scale", "tv_merge", "tv_merge_lazy",
    "disjoint_merge", "elect_signs", "ties_merge", "trim",
    "MergeRecipe", "RecipeError",
    "execute_recipe", "expand_sweep", "parse_recipe", "read_metrics", "select_best",
    "cosine", "diff_stats", "interference_stats",
]
