"""IR transformation and analysis passes."""

from .fences import insert_fence_after, merge_redundant_fences
from .stats import module_stats

__all__ = [
    "insert_fence_after",
    "merge_redundant_fences",
    "module_stats",
]
