"""Analysis and reporting utilities for the benchmark harness."""

from repro.analysis.ascii import ascii_histogram, ascii_series, render_table
from repro.analysis.histograms import (
    DistributionSummary,
    resistance_histogram,
    summarize_distribution,
    weight_histogram,
)
from repro.analysis.reporting import comparison_report, scenario_section
from repro.analysis.statistics import BootstrapResult, bootstrap_ci, bootstrap_ratio_ci
from repro.analysis.trajectories import iteration_knee, layer_type_aging

__all__ = [
    "BootstrapResult",
    "DistributionSummary",
    "bootstrap_ci",
    "bootstrap_ratio_ci",
    "comparison_report",
    "scenario_section",
    "ascii_histogram",
    "ascii_series",
    "iteration_knee",
    "layer_type_aging",
    "render_table",
    "resistance_histogram",
    "summarize_distribution",
    "weight_histogram",
]
