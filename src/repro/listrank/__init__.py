"""List ranking (Lemma 2.4)."""

from .ranking import (
    anderson_miller_prefix_sums,
    prefix_sums_on_lists,
    sequential_prefix_sums,
    wyllie_prefix_sums,
)

__all__ = [
    "anderson_miller_prefix_sums",
    "prefix_sums_on_lists",
    "sequential_prefix_sums",
    "wyllie_prefix_sums",
]
