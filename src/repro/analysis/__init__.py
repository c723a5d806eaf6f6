"""Experiment harness: measurement records, fits, sweep runners."""

from .metrics import (
    Measurement,
    format_table,
    geometric_sizes,
    loglog_slope,
    polylog_normalized,
)
from .runner import (
    ALGORITHMS,
    run_aa87_model,
    run_gpv_dfs,
    run_parallel_dfs,
    run_sequential_dfs,
    sweep,
)

__all__ = [
    "Measurement",
    "format_table",
    "geometric_sizes",
    "loglog_slope",
    "polylog_normalized",
    "ALGORITHMS",
    "run_aa87_model",
    "run_gpv_dfs",
    "run_parallel_dfs",
    "run_sequential_dfs",
    "sweep",
]
