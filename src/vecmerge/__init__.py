"""vecmerge: checkpoint model-merging engine (task vectors and TIES)."""

__version__ = "0.1.0"

from .tensor_store import (ArchiveError, Checkpoint, LazyCheckpoint, Tensor,
                           TensorSpec, ValidationReport, read_archive, save_archive,
                           validate_archive, write_archive)
from .tv import (MergeError, TaskVector, add_vectors, apply,
                 extract_task_vector, scale, tv_merge, tv_merge_lazy)
from .ties import (SignMap, TiesConfig, disjoint_merge, elect_signs,
                   ties_merge, trim)
from .recipes import (MergeOutcome, MergeRecipe, MetricsTable, RecipeError,
                      execute_recipe, expand_sweep, parse_recipe, select_best)
from .reports import (DiffReport, InterferenceReport, cosine, diff_stats,
                      interference_stats)

__all__ = [
    "ArchiveError", "Checkpoint", "LazyCheckpoint", "Tensor", "TensorSpec", "ValidationReport",
    "read_archive", "save_archive", "validate_archive", "write_archive",
    "MergeError", "TaskVector", "add_vectors", "apply", "extract_task_vector",
    "scale", "tv_merge", "tv_merge_lazy",
    "SignMap", "TiesConfig", "disjoint_merge", "elect_signs", "ties_merge", "trim",
    "MergeOutcome", "MergeRecipe", "MetricsTable", "RecipeError",
    "execute_recipe", "expand_sweep", "parse_recipe", "select_best",
    "DiffReport", "InterferenceReport", "cosine", "diff_stats", "interference_stats",
]
