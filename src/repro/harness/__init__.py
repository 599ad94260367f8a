"""Experiment runner, table formatting, and text figures for the
benchmark suite."""

from repro.harness.figures import ascii_plot, sparkline
from repro.harness.profiling import profile_callable, profile_workload
from repro.harness.runner import BenchReport, RunStats, format_table, run_workload

__all__ = [
    "BenchReport",
    "RunStats",
    "ascii_plot",
    "format_table",
    "profile_callable",
    "profile_workload",
    "run_workload",
    "sparkline",
]
