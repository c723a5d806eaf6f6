"""PRAM work-depth substrate: cost tracking, parallel sorting."""

from .tracker import Cost, Tracker, brent_time_bounds, log2_ceil
from .sorting import parallel_sort

__all__ = [
    "Cost",
    "Tracker",
    "brent_time_bounds",
    "log2_ceil",
    "parallel_sort",
]
